/**
 * @file
 * Differential tests for the wake-scheduled (event) simulation core:
 * ClockingMode::Event must reproduce the exhaustive stepper exactly —
 * identical cycle counts, completions, and statistics — on every
 * system kind, with the protocol checker attached, across refresh
 * schedules, deterministic fault timelines, and the traffic subsystem,
 * while actually skipping idle cycles where the workload allows.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "idle_system.hh"
#include "kernels/runner.hh"
#include "kernels/sweep.hh"
#include "sim/sim_error.hh"
#include "sim/simulation.hh"
#include "stat_dump.hh"
#include "traffic/traffic_runner.hh"

namespace pva
{
namespace
{

constexpr std::uint32_t kElems = 256;

struct Outcome
{
    Cycle cycles = 0;
    std::size_t mismatches = 0;
    std::uint64_t simTicks = 0;
    std::uint64_t cyclesSkipped = 0;
    std::string stats;
    std::uint64_t bcTicks = 0; ///< PVA systems' sim.bcTicks (else 0)
};

bool
isPva(SystemKind kind)
{
    return kind == SystemKind::PvaSdram || kind == SystemKind::PvaSram;
}

Outcome
runKernelPoint(SystemKind kind, const SystemConfig &config,
               KernelId kernel, std::uint32_t stride, ClockingMode mode)
{
    auto sys = makeSystem(kind, config);
    const KernelSpec &spec = kernelSpec(kernel);
    WorkloadConfig wl;
    wl.stride = stride;
    wl.elements = kElems;
    wl.lineWords = config.bc.lineWords;
    wl.streamBases = streamBases(alignmentPresets()[0],
                                 spec.numStreams, stride, kElems);
    RunLimits limits;
    limits.clocking = mode;
    RunResult r = runKernelOn(*sys, kernel, wl, limits);
    return {r.cycles, r.mismatches, r.simTicks, r.cyclesSkipped,
            test::withoutSimGauges(sys->stats()),
            isPva(kind) ? sys->stats().scalar("sim.bcTicks") : 0};
}

/** Runs one point under both steppers; returns {exhaustive, event}. */
std::pair<Outcome, Outcome>
expectKernelParity(SystemKind kind, const SystemConfig &config,
                   KernelId kernel, std::uint32_t stride)
{
    Outcome ex = runKernelPoint(kind, config, kernel, stride,
                                ClockingMode::Exhaustive);
    Outcome ev = runKernelPoint(kind, config, kernel, stride,
                                ClockingMode::Event);
    EXPECT_EQ(ex.cycles, ev.cycles)
        << systemShortName(kind) << "/" << kernelSpec(kernel).name
        << " stride " << stride;
    EXPECT_EQ(ex.mismatches, ev.mismatches);
    EXPECT_EQ(ev.mismatches, 0u);
    EXPECT_EQ(ex.stats, ev.stats)
        << systemShortName(kind) << "/" << kernelSpec(kernel).name
        << " stride " << stride;
    // The exhaustive stepper never skips; the event core accounts for
    // every cycle either processed or skipped.
    EXPECT_EQ(ex.cyclesSkipped, 0u);
    EXPECT_EQ(ex.simTicks, static_cast<std::uint64_t>(ex.cycles));
    EXPECT_EQ(ev.simTicks + ev.cyclesSkipped, ex.simTicks);
    return {ex, ev};
}

void
expectBatchingParity(SystemKind kind, const SystemConfig &config,
                     KernelId kernel, std::uint32_t stride)
{
    const auto [ex, ev] = expectKernelParity(kind, config, kernel,
                                             stride);
    if (!isPva(kind))
        return;
    // Selected through RunLimits::clocking alone, the exhaustive
    // reference ticks every bank controller every processed cycle;
    // event clocking batches, skipping controllers until their wake.
    const std::uint64_t banks = config.geometry.banks();
    EXPECT_EQ(ex.bcTicks, ex.simTicks * banks)
        << systemShortName(kind) << "/" << kernelSpec(kernel).name
        << " stride " << stride;
    EXPECT_LT(ev.bcTicks, ev.simTicks * banks)
        << systemShortName(kind) << "/" << kernelSpec(kernel).name
        << " stride " << stride;
}

class EventClockingGrid : public ::testing::TestWithParam<SystemKind>
{
};

TEST_P(EventClockingGrid, KernelsAreCycleExact)
{
    SystemConfig config;
    config.timingCheck = true;
    for (KernelId k : {KernelId::Copy, KernelId::Tridiag}) {
        for (std::uint32_t stride : {1u, 16u, 19u})
            expectKernelParity(GetParam(), config, k, stride);
    }
}

TEST_P(EventClockingGrid, BatchedTickingMatchesReferenceAcrossGrid)
{
    // Batched ticking skips bank controllers whose cached wake lies in
    // the future; the exhaustive reference ticks every one of them
    // every processed cycle. The two must agree bit-for-bit — cycle
    // count and the entire stat set — on every system, with the
    // checker attached, and batching must actually skip ticks.
    SystemConfig config;
    config.timingCheck = true;
    for (KernelId k : {KernelId::Copy, KernelId::Vaxpy}) {
        for (std::uint32_t stride : {1u, 16u, 19u})
            expectBatchingParity(GetParam(), config, k, stride);
    }
}

INSTANTIATE_TEST_SUITE_P(AllSystems, EventClockingGrid,
                         ::testing::ValuesIn(allSystems()),
                         [](const auto &info) {
                             return std::string(
                                 systemShortName(info.param));
                         });

TEST(EventClocking, BatchedTickingMatchesReferenceUnderRefresh)
{
    // Refresh is the hard case for batching: an idle controller must
    // still wake at every tREFI boundary to run the device's refresh
    // clock, or dev.refreshes diverges. Stride 16 leaves most
    // controllers idle for the whole run.
    SystemConfig config;
    config.timingCheck = true;
    config.timing.tREFI = 700;
    for (SystemKind kind :
         {SystemKind::PvaSdram, SystemKind::CacheLine}) {
        for (std::uint32_t stride : {16u, 19u})
            expectBatchingParity(kind, config, KernelId::Copy, stride);
    }
}

TEST(EventClocking, RefreshScheduleIsCycleExact)
{
    SystemConfig config;
    config.timingCheck = true;
    config.timing.tREFI = 700; // deliberately off the default
    for (SystemKind kind : {SystemKind::PvaSdram, SystemKind::CacheLine})
        expectKernelParity(kind, config, KernelId::Copy, 19);
}

TEST(EventClocking, FaultTimelinesAreCycleExact)
{
    // Fault draws are per processed tick; the event core pins
    // injected systems to every-cycle ticking so the RNG streams and
    // the resulting fault timelines stay identical.
    SystemConfig config;
    config.timingCheck = true;
    config.faults.seed = 11;
    config.faults.refreshStallRate = 0.002;
    config.faults.bcStallRate = 0.002;
    expectKernelParity(SystemKind::PvaSdram, config, KernelId::Vaxpy,
                       19);
}

TrafficConfig
trafficConfig(ClockingMode mode, ArrivalMode arrivals, double rate)
{
    TrafficConfig tc;
    tc.config.timingCheck = true;
    tc.config.clocking = mode;
    tc.arbiter.policy = ArbPolicy::Priority;
    for (unsigned i = 0; i < 2; ++i) {
        StreamConfig s;
        s.mode = arrivals;
        s.window = 2;
        s.requestsPerKilocycle = rate;
        s.requests = 48;
        s.priority = i;
        s.queueCapacity = 4;
        s.seed = 1 + i;
        s.pattern.regionBase = i * (1 << 20);
        tc.streams.push_back(std::move(s));
    }
    return tc;
}

void
expectTrafficParity(ArrivalMode arrivals, double rate)
{
    std::ostringstream ex_dump, ev_dump;
    TrafficResult ex = runTraffic(
        trafficConfig(ClockingMode::Exhaustive, arrivals, rate),
        &ex_dump);
    TrafficResult ev = runTraffic(
        trafficConfig(ClockingMode::Event, arrivals, rate), &ev_dump);

    EXPECT_EQ(ex.cycles, ev.cycles);
    EXPECT_EQ(ex.completed, ev.completed);
    EXPECT_EQ(ex.words, ev.words);
    EXPECT_EQ(ex.meanInFlight, ev.meanInFlight);
    EXPECT_EQ(ex.totalLatency.p99, ev.totalLatency.p99);
    EXPECT_EQ(ex.queueDelay.mean, ev.queueDelay.mean);
    ASSERT_EQ(ex.streams.size(), ev.streams.size());
    for (std::size_t i = 0; i < ex.streams.size(); ++i) {
        EXPECT_EQ(ex.streams[i].deferrals, ev.streams[i].deferrals);
        EXPECT_EQ(ex.streams[i].queuePeak, ev.streams[i].queuePeak);
        EXPECT_EQ(ex.streams[i].completed, ev.streams[i].completed);
    }

    // The dumps interleave ServiceStats and the system's StatSet;
    // strip the clocking gauges from both before comparing.
    EXPECT_EQ(test::withoutSimGauges(ex_dump.str()),
              test::withoutSimGauges(ev_dump.str()));
}

TEST(EventClocking, ClosedLoopTrafficIsCycleExact)
{
    expectTrafficParity(ArrivalMode::ClosedLoop, 0.0);
}

TEST(EventClocking, OpenLoopTrafficIsCycleExact)
{
    expectTrafficParity(ArrivalMode::OpenLoop, 5.0);
}

TEST(EventClocking, LowLoadTrafficActuallySkips)
{
    // The headline win: at 0.2 req/kcycle the machine is idle almost
    // always, and the event core must skip the vast majority of
    // cycles, not just match the exhaustive stepper.
    TrafficConfig tc =
        trafficConfig(ClockingMode::Event, ArrivalMode::OpenLoop, 0.2);
    TrafficResult r = runTraffic(tc);
    EXPECT_GT(r.cycles, 100000u);
    EXPECT_GT(r.cyclesSkipped, (r.cycles * 9) / 10);
    EXPECT_LT(r.simTicks, r.cycles / 10);
}

TEST(EventClocking, CycleWatchdogTripsAtTheSameCycle)
{
    // A wake beyond the cycle budget must not let the clock overshoot:
    // the jump clamps to the limit and the watchdog reports the same
    // cycle the exhaustive stepper would.
    for (ClockingMode mode :
         {ClockingMode::Exhaustive, ClockingMode::Event}) {
        // Quiescent for long stretches: wakes every 250 cycles.
        test::IdleSystem sys(250);
        Simulation sim(sys, mode);
        EXPECT_THROW(sim.runUntil([] { return false; }, 100),
                     SimError);
        EXPECT_EQ(sim.now(), 100u);
        if (mode == ClockingMode::Event) {
            EXPECT_GT(sim.cyclesSkipped(), 0u);
        }
    }
}

TEST(EventClocking, ExternalWakesEndSkippedSpans)
{
    // requestWake() is how code outside the MemorySystem wake
    // contract (the traffic arbiter) gets scheduled: a posted wake
    // must bound the jump.
    test::IdleSystem sys(250);
    Simulation sim(sys, ClockingMode::Event);
    sim.requestWake(40);
    std::size_t iterations = 0;
    sim.runUntil([&] {
        ++iterations;
        return sim.now() >= 40;
    });
    EXPECT_EQ(sim.now(), 40u);
    // 0 -> 40 -> done: the span [1, 39] is not processed.
    EXPECT_EQ(iterations, 2u);
    EXPECT_EQ(sim.cyclesSkipped(), 39u);
}

TEST(EventClocking, ModeNamesRoundTrip)
{
    ClockingMode mode = ClockingMode::Exhaustive;
    EXPECT_TRUE(clockingModes().parse("event", mode));
    EXPECT_EQ(mode, ClockingMode::Event);
    EXPECT_TRUE(clockingModes().parse("exhaustive", mode));
    EXPECT_EQ(mode, ClockingMode::Exhaustive);
    EXPECT_FALSE(clockingModes().parse("lazy", mode));
    EXPECT_STREQ(clockingModeName(ClockingMode::Event), "event");
    EXPECT_STREQ(clockingModeName(ClockingMode::Exhaustive),
                 "exhaustive");
}

} // anonymous namespace
} // namespace pva
