/**
 * @file
 * The work ledger: exact work counts of a fixed set of runs, held
 * against tests/expected/work_ledger.json.
 *
 * Wall time on a shared host moves with the host's other tenants; the
 * work a run does does not. Per run the ledger records the cycles the
 * run took, the cycles the Simulation processed and skipped, the bank
 * controller ticks (sim.bcTicks), device commands by kind, the
 * trySubmit offers and refusals (counted by RecordingSystem), arbiter
 * grants, and the heap allocations of a second pass of the same work
 * on the warmed system (alloc_counter.hh).
 *
 * The runs: a dozen chapter 6 points across the four systems and both
 * clockings, perfbench's `saturated` shapes at 1024 elements, three
 * rungs of the traffic ladder and a 64-tenant fleet.
 *
 * A change that means to move work copies the .actual file this test
 * writes over the committed one, and that diff is its evidence; a
 * change that moves no work leaves the file byte-identical. The
 * failure names every count that changed.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.hh"
#include "core/command_unit.hh"
#include "fleet/fleet_arbiter.hh"
#include "fleet/message_bus.hh"
#include "golden.hh"
#include "kernels/runner.hh"
#include "kernels/sweep.hh"
#include "recording_system.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"
#include "traffic/traffic_runner.hh"

namespace pva
{
namespace
{

constexpr Cycle kMaxCycles = 50000000;

/** One run's counts, in the order the ledger prints them. */
using Counts = std::vector<std::pair<std::string, std::uint64_t>>;

/** The clock's counts after a run that took @p cycles. */
Counts
clockCounts(Cycle cycles, const Simulation &sim)
{
    return {{"cycles", cycles},
            {"simTicks", sim.simTicks()},
            {"cyclesSkipped", sim.cyclesSkipped()}};
}

/** The work counters @p sys registers: bank-controller ticks and
 *  device commands by kind on the PVA systems, commands and line
 *  fills or elements on the serial ones. */
void
addSystemCounts(MemorySystem &sys, Counts &out)
{
    const StatSet &st = sys.stats();
    if (st.hasScalar("sim.bcTicks"))
        out.emplace_back("bcTicks", st.scalar("sim.bcTicks"));
    for (const char *kind :
         {"activates", "precharges", "reads", "writes", "refreshes"}) {
        if (!st.hasScalar(csprintf("dev0.%s", kind)))
            continue;
        std::uint64_t sum = 0;
        for (unsigned b = 0; st.hasScalar(csprintf("dev%u.%s", b, kind));
             ++b)
            sum += st.scalar(csprintf("dev%u.%s", b, kind));
        out.emplace_back(csprintf("dev.%s", kind), sum);
    }
    for (const char *name : {"commands", "lineFills", "elements"}) {
        if (st.hasScalar(name))
            out.emplace_back(name, st.scalar(name));
    }
}

void
addOfferCounts(const test::RecordingSystem &recorder, Counts &out)
{
    out.emplace_back("offers", recorder.accepted.size() + recorder.refusals);
    out.emplace_back("refusals", recorder.refusals);
}

struct KernelRun
{
    std::string label;
    SystemKind system = SystemKind::PvaSdram;
    SystemConfig config;
    KernelId kernel = KernelId::Copy;
    WorkloadConfig workload;
};

KernelRun
chapter6Point(SystemKind system, KernelId kernel, std::uint32_t stride,
              unsigned alignment, ClockingMode clocking)
{
    KernelRun run;
    run.label = csprintf("ch6/%s/%s/s%u/a%u/%s", systemShortName(system),
                         kernelSpec(kernel).name.c_str(), stride,
                         alignment, clockingModeName(clocking));
    run.system = system;
    run.config.clocking = clocking;
    run.kernel = kernel;
    run.workload.stride = stride;
    run.workload.streamBases =
        streamBases(alignmentPresets()[alignment],
                    kernelSpec(kernel).numStreams, stride,
                    run.workload.elements);
    return run;
}

/** perfbench's `saturated` runs at its reduced size. */
std::vector<KernelRun>
saturatedRuns()
{
    constexpr std::uint32_t kElements = 1024;
    std::vector<KernelRun> runs;
    for (KernelId k : allKernels()) {
        for (std::uint32_t stride : {16u, 19u}) {
            KernelRun r;
            r.label = csprintf("saturated/%s/%u",
                               kernelSpec(k).name.c_str(), stride);
            r.kernel = k;
            r.workload.stride = stride;
            r.workload.elements = kElements;
            r.workload.streamBases =
                streamBases(alignmentPresets()[0],
                            kernelSpec(k).numStreams, stride, kElements);
            runs.push_back(std::move(r));
        }
    }
    KernelRun rot;
    rot.label = "saturated/subarrayRotation/salp";
    rot.kernel = KernelId::Scale;
    rot.workload.stride = 1u << 26;
    rot.workload.elements = kElements / 8;
    rot.workload.streamBases = {0};
    rot.config.backend = MemBackend::Salp;
    rot.config.timingCheck = true;
    runs.push_back(std::move(rot));
    KernelRun ref;
    ref.label = "saturated/refreshPressure/deferred";
    ref.kernel = KernelId::Copy;
    ref.workload.stride = 4;
    ref.workload.elements = kElements / 2;
    ref.workload.streamBases = {0, 1 << 20};
    ref.config.timing.tREFI = 781;
    ref.config.backend = MemBackend::DeferredRefresh;
    ref.config.timingCheck = true;
    runs.push_back(std::move(ref));
    return runs;
}

Counts
kernelRunCounts(const KernelRun &run)
{
    auto sys = makeSystem(run.system, run.config);
    test::RecordingSystem recorder(*sys);
    Simulation sim(recorder, run.config.clocking);
    const KernelSpec &spec = kernelSpec(run.kernel);

    KernelTrace trace = buildTrace(spec, run.workload, sys->memory());
    VectorCommandUnit vcu(recorder, trace);
    const Cycle cycles = vcu.run(sim, kMaxCycles);
    EXPECT_EQ(verifyTrace(trace, sys->memory()), 0u) << run.label;
    Counts counts = clockCounts(cycles, sim);
    addSystemCounts(*sys, counts);
    addOfferCounts(recorder, counts);

    // The same kernel again on the warmed system and clock, straight
    // to the system: only the clocked region is counted.
    KernelTrace again = buildTrace(spec, run.workload, sys->memory());
    VectorCommandUnit warm(*sys, again);
    const std::uint64_t before = test::allocationCount();
    warm.run(sim, kMaxCycles);
    counts.emplace_back("allocations", test::allocationCount() - before);
    return counts;
}

/** Builds an arbiter's seats, keeping their ServiceStats alive in
 *  the vector it is handed. */
using SeatBuilder = std::function<std::vector<fleet::TenantSeat>(
    std::vector<std::unique_ptr<ServiceStats>> &)>;

Counts
arbiterRunCounts(SystemKind system, const SystemConfig &config,
                 const ArbiterConfig &arbiter_config,
                 const SeatBuilder &build_seats)
{
    auto sys = makeSystem(system, config);
    test::RecordingSystem recorder(*sys);
    Simulation sim(recorder, config.clocking);

    std::vector<std::unique_ptr<ServiceStats>> stats;
    fleet::MessageBus bus;
    fleet::FleetArbiter arbiter(arbiter_config, build_seats(stats), bus);
    fleet::runToDrain(sim, arbiter, recorder, RunLimits{kMaxCycles});
    Counts counts = clockCounts(sim.now(), sim);
    addSystemCounts(*sys, counts);
    addOfferCounts(recorder, counts);
    counts.emplace_back("grants", arbiter.grants());

    std::vector<std::unique_ptr<ServiceStats>> stats_again;
    fleet::MessageBus bus_again;
    fleet::FleetArbiter again(arbiter_config, build_seats(stats_again),
                              bus_again);
    const std::uint64_t before = test::allocationCount();
    fleet::runToDrain(sim, again, *sys, RunLimits{kMaxCycles});
    counts.emplace_back("allocations", test::allocationCount() - before);
    return counts;
}

/** The traffic ladder's three open-loop stream shapes
 *  (test_output_goldens.cc) at @p offered requests per kilocycle. */
std::vector<StreamConfig>
ladderStreams(double offered)
{
    std::vector<StreamConfig> streams;
    for (unsigned i = 0; i < 3; ++i) {
        StreamConfig s;
        s.mode = ArrivalMode::OpenLoop;
        s.requestsPerKilocycle = offered / 3;
        s.requests = 96;
        s.seed = 31 + i;
        s.pattern.regionBase = static_cast<WordAddr>(i) << 16;
        s.pattern.regionWords = 1 << 16;
        s.pattern.minLength = 8;
        s.pattern.maxLength = 32;
        s.pattern.minStride = 1;
        s.pattern.maxStride = 64;
        if (i == 0)
            s.pattern.readFraction = 0.7;
        else if (i == 1)
            s.pattern.readFraction = 0.0;
        else
            s.pattern.mode = VectorCommand::Mode::Indirect;
        streams.push_back(s);
    }
    return streams;
}

/** One traffic-ladder rung, seated as runTraffic seats a flat run
 *  (whose cycle counts it must reproduce: the recorder moves none). */
Counts
ladderRungCounts(double offered, bool shed)
{
    TrafficConfig tc;
    tc.streams = ladderStreams(offered);
    if (shed) {
        tc.arbiter.shed.enabled = true;
        tc.arbiter.shed.defaultDeadline = 150;
        tc.arbiter.shed.queueHighWatermark = 0.5;
    }
    auto seats = [&tc](std::vector<std::unique_ptr<ServiceStats>> &keep) {
        std::vector<fleet::TenantSeat> out(1);
        std::vector<std::string> names;
        for (unsigned i = 0; i < tc.streams.size(); ++i) {
            out[0].sources.emplace_back(tc.streams[i], i,
                                        tc.config.bc.lineWords);
            names.push_back(out[0].sources.back().name());
        }
        keep.push_back(std::make_unique<ServiceStats>(names));
        out[0].stats = keep.back().get();
        return out;
    };
    Counts counts = arbiterRunCounts(tc.system, tc.config, tc.arbiter,
                                     seats);
    const TrafficResult flat = runTraffic(tc);
    EXPECT_EQ(counts[0].second, flat.cycles);
    EXPECT_EQ(counts[1].second, flat.simTicks);
    EXPECT_EQ(counts[2].second, flat.cyclesSkipped);
    return counts;
}

/** 64 tenants of two streams each on one arbiter: 48 closed-loop
 *  readers at a high priority and 16 open-loop batch tenants with
 *  writes. */
Counts
fleetCounts()
{
    ArbiterConfig arbiter;
    arbiter.policy = ArbPolicy::Priority;
    arbiter.agingThreshold = 256;
    auto seats = [](std::vector<std::unique_ptr<ServiceStats>> &keep) {
        std::vector<fleet::TenantSeat> out;
        for (unsigned t = 0; t < 64; ++t) {
            const bool batch = t >= 48;
            fleet::TenantSeat seat;
            seat.name = csprintf("%s%u", batch ? "batch" : "web", t);
            std::vector<std::string> names;
            for (unsigned k = 0; k < 2; ++k) {
                const unsigned g = 2 * t + k;
                StreamConfig s;
                s.name = csprintf("s%u", k);
                s.seed = 1000 + g;
                s.requests = 12;
                s.pattern.regionBase = static_cast<WordAddr>(g) << 14;
                s.pattern.regionWords = 1 << 14;
                s.pattern.minLength = 8;
                s.pattern.maxLength = 32;
                s.pattern.maxStride = 19;
                if (batch) {
                    s.mode = ArrivalMode::OpenLoop;
                    s.requestsPerKilocycle = 2.0;
                    s.queueCapacity = 8;
                    s.pattern.readFraction = 0.6;
                } else {
                    s.mode = ArrivalMode::ClosedLoop;
                    s.window = 2;
                    s.priority = 2;
                }
                seat.sources.emplace_back(s, k, 32);
                names.push_back(seat.sources.back().name());
            }
            keep.push_back(std::make_unique<ServiceStats>(
                names, ServiceStats::Detail::AggregateOnly, seat.name));
            seat.stats = keep.back().get();
            out.push_back(std::move(seat));
        }
        return out;
    };
    return arbiterRunCounts(SystemKind::PvaSdram, SystemConfig{}, arbiter,
                            seats);
}

/** Every run's counts as the committed JSON document. */
std::string
ledgerJson()
{
    std::vector<std::pair<std::string, Counts>> runs;
    struct Shape
    {
        SystemKind system;
        KernelId kernel;
        std::uint32_t stride;
        unsigned alignment;
    };
    const Shape shapes[] = {
        {SystemKind::PvaSdram, KernelId::Copy, 1, 0},
        {SystemKind::PvaSdram, KernelId::Vaxpy, 19, 2},
        {SystemKind::PvaSdram, KernelId::Tridiag, 16, 1},
        {SystemKind::PvaSram, KernelId::Scale, 8, 3},
        {SystemKind::CacheLine, KernelId::Saxpy, 4, 0},
        {SystemKind::Gathering, KernelId::Swap, 19, 4},
    };
    for (ClockingMode clocking :
         {ClockingMode::Event, ClockingMode::Exhaustive}) {
        for (const Shape &s : shapes) {
            const KernelRun run = chapter6Point(s.system, s.kernel,
                                                s.stride, s.alignment,
                                                clocking);
            Counts counts = kernelRunCounts(run);
            // The recorder moves no cycle: a sweep point of the same
            // shape, on the bare system, takes as many.
            SweepRequest req;
            req.system = s.system;
            req.kernel = s.kernel;
            req.stride = s.stride;
            req.alignment = s.alignment;
            req.config.clocking = clocking;
            const SweepPoint p = runPoint(req);
            EXPECT_EQ(counts[0].second, p.cycles) << run.label;
            EXPECT_EQ(counts[1].second, p.simTicks) << run.label;
            runs.emplace_back(run.label, std::move(counts));
        }
    }
    for (const KernelRun &run : saturatedRuns())
        runs.emplace_back(run.label, kernelRunCounts(run));
    runs.emplace_back("ladder/pva/5", ladderRungCounts(5, false));
    runs.emplace_back("ladder/pva/35", ladderRungCounts(35, false));
    runs.emplace_back("ladder/pva/60/shed", ladderRungCounts(60, true));
    runs.emplace_back("fleet/64", fleetCounts());

    std::ostringstream os;
    json::Writer w(os);
    w.beginObject(json::Writer::Layout::Block);
    for (const auto &[label, counts] : runs) {
        w.key(label).beginObject();
        for (const auto &[name, value] : counts)
            w.field(name, value);
        w.end();
    }
    w.end().newline();
    return os.str();
}

/** One line per count that differs between the documents. */
std::string
changedCounts(const std::string &got, const std::string &want)
{
    json::Value a, b;
    std::string error;
    if (!json::parse(got, a, error) || !json::parse(want, b, error))
        return "unparsable ledger: " + error + "\n";
    std::ostringstream os;
    for (const auto &[run, counts] : b.object()) {
        const json::Value *now = a.find(run);
        if (!now) {
            os << run << ": run missing\n";
            continue;
        }
        for (const auto &[name, was] : counts.object()) {
            const json::Value *is = now->find(name);
            if (!is)
                os << run << "." << name << ": count missing\n";
            else if (is->numberText() != was.numberText())
                os << run << "." << name << ": " << was.numberText()
                   << " -> " << is->numberText() << "\n";
        }
        for (const auto &[name, is] : now->object()) {
            if (!counts.find(name))
                os << run << "." << name << ": new count\n";
        }
    }
    for (const auto &[run, counts] : a.object()) {
        if (!b.find(run))
            os << run << ": new run\n";
    }
    return os.str();
}

TEST(WorkLedger, MatchesTheCommittedLedger)
{
    const std::string got = ledgerJson();
    std::ifstream in(PVA_WORK_LEDGER_JSON, std::ios::binary);
    std::ostringstream want;
    want << in.rdbuf();
    if (got != want.str())
        ADD_FAILURE() << "changed counts:\n" << changedCounts(got, want.str());
    test::expectMatchesGolden(got, PVA_WORK_LEDGER_JSON);
}

} // anonymous namespace
} // namespace pva
