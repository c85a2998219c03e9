#include "probes.hh"

#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/bank_controller.hh"
#include "core/firsthit.hh"
#include "core/memory_system.hh"
#include "core/pla.hh"
#include "core/system_config.hh"
#include "fleet/fleet_arbiter.hh"
#include "fleet/message_bus.hh"
#include "kernels/sweep.hh"
#include "sdram/device.hh"
#include "sim/random.hh"
#include "traffic/arbiter.hh"

#include "counts.hh"
#include "tracer.hh"

namespace perfbench
{

using namespace pva;

namespace
{

/** The paper-default system every probe builds its parts from. */
const SystemConfig kConfig{};
const Geometry &geo = kConfig.geometry;

/** What the core probes draw their inputs from. */
struct Probe
{
    const std::vector<std::uint32_t> &strides; ///< The workload's strides
    std::uint64_t seed;
};

/** Keep @p v observable so the timed call is not optimized away. */
template <typename T>
inline void
keep(const T &v)
{
    asm volatile("" : : "g"(&v) : "memory");
}

/**
 * A memory system that completes every command the moment it is
 * submitted (read lines come back zero-filled). Arbiters driven
 * against it spend all their time arbitrating.
 */
class NullSystem final : public MemorySystem
{
  public:
    NullSystem() : MemorySystem("null") {}

    bool
    trySubmit(const VectorCommand &cmd, std::uint64_t tag,
              const std::vector<Word> *) override
    {
        Completion &c = ready.emplace_back();
        c.tag = tag;
        if (cmd.isRead)
            c.data.assign(cmd.length, 0);
        return true;
    }

    void
    drainCompletionsInto(std::vector<Completion> &out) override
    {
        out.clear();
        out.swap(ready);
    }

    bool busy() const override { return !ready.empty(); }
    std::size_t inFlight() const override { return ready.size(); }
    SparseMemory &memory() override { return mem; }
    StatSet &stats() override { return statSet; }
    void tick(Cycle) override {}

  private:
    std::vector<Completion> ready;
    SparseMemory mem;
    StatSet statSet;
};

/** Drive @p arbiter against @p sys until it drains; returns cycles. */
template <typename Arbiter>
Cycle
serviceToDrain(Arbiter &arbiter, MemorySystem &sys)
{
    Cycle now = 0;
    for (std::uint64_t steps = 0; !arbiter.service(sys, now); ++steps) {
        if (steps > 100000000)
            throw std::runtime_error("arbiter probe did not drain");
        const Cycle wake = arbiter.nextWake(now);
        now = wake == kNeverCycle || wake <= now ? now + 1 : wake;
    }
    return now;
}

/** A stride-mode read of one cache line at a seeded base. */
VectorCommand
lineRead(Random &rng, std::uint32_t stride)
{
    VectorCommand v;
    v.base = rng.below(1u << 24);
    v.stride = stride;
    v.length = 32;
    return v;
}

void
probeFirstHit(const Probe &in, std::map<std::string, double> &out)
{
    Random rng(in.seed ^ 0xf1257417ULL);
    const unsigned m = geo.bankBits();
    const std::uint32_t mask = geo.banks() - 1;
    struct Query
    {
        VectorCommand v;
        unsigned bank;
    };
    std::vector<Query> queries(4096);
    for (Query &q : queries) {
        q.v = lineRead(rng, in.strides[rng.below(in.strides.size())]);
        q.bank = static_cast<unsigned>(rng.below(geo.banks()));
    }

    const FirstHitPla pla(m, FirstHitPla::Variant::K1Multiply);
    constexpr unsigned kRounds = 16;
    std::vector<double> lookup, sub;
    for (unsigned batch = 0; batch < 9; ++batch) {
        auto t0 = Clock::now();
        for (unsigned r = 0; r < kRounds; ++r) {
            for (const Query &q : queries) {
                FirstHit h = pla.lookup(q.v.stride & mask, q.bank,
                                        q.v.length);
                keep(h);
            }
        }
        lookup.push_back(secondsSince(t0));
        t0 = Clock::now();
        for (unsigned r = 0; r < kRounds; ++r) {
            for (const Query &q : queries) {
                SubVector s = subVectorWord(q.v, q.bank, m);
                keep(s);
            }
        }
        sub.push_back(secondsSince(t0));
    }
    const double calls = static_cast<double>(kRounds * queries.size());
    out["firsthit.pla_lookup_ns"] = medianOf(lookup) * 1e9 / calls;
    out["firsthit.subvector_ns"] = medianOf(sub) * 1e9 / calls;
}

/** A legal command stream for bank 0 and the cycle of each command. */
struct DeviceSchedule
{
    std::vector<DeviceOp> ops;
    std::vector<Cycle> at;
};

DeviceSchedule
legalSchedule(const Probe &in)
{
    Random rng(in.seed ^ 0xde71ce00ULL);
    SparseMemory mem;
    SdramDevice dev("probe.dev0", 0, geo, kConfig.timing, mem);
    DeviceSchedule s;
    Cycle now = 1;
    auto issue = [&](const DeviceOp &op) {
        while (!dev.canIssue(op, now))
            ++now;
        dev.issue(op, now);
        s.ops.push_back(op);
        s.at.push_back(now);
        ReadReturn rr;
        while (dev.popReady(now, rr)) {
        }
    };
    while (s.ops.size() < 8192) {
        const VectorCommand v =
            lineRead(rng, in.strides[rng.below(in.strides.size())]);
        const bool isRead = rng.below(10) < 7;
        for (std::uint32_t j = 0; j < v.length; ++j) {
            const WordAddr a = v.element(j);
            if (geo.bankOf(a) != 0)
                continue;
            const DeviceCoords c = geo.decompose(a);
            if (!dev.isRowOpen(c.internalBank, c.row)) {
                if (dev.anyRowOpen(c.internalBank)) {
                    DeviceOp pre{DeviceOp::Kind::Precharge};
                    pre.internalBank = c.internalBank;
                    issue(pre);
                }
                DeviceOp act{DeviceOp::Kind::Activate};
                act.addr = a;
                issue(act);
            }
            DeviceOp acc{isRead ? DeviceOp::Kind::Read
                                : DeviceOp::Kind::Write};
            acc.addr = a;
            acc.writeData = static_cast<Word>(rng.next());
            acc.slot = static_cast<std::uint8_t>(j);
            issue(acc);
        }
    }
    return s;
}

void
probeDevice(const Probe &in, std::map<std::string, double> &out)
{
    const DeviceSchedule s = legalSchedule(in);
    // Replay the schedule on fresh devices: once issuing only, once
    // also asking canIssue for kAsks upcoming commands at each step.
    // The difference is the canIssue cost.
    constexpr std::size_t kAsks = 8;
    auto replay = [&](bool ask) {
        SparseMemory mem;
        SdramDevice dev("probe.dev0", 0, geo, kConfig.timing, mem);
        unsigned legal = 0;
        ReadReturn rr;
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < s.ops.size(); ++i) {
            if (ask) {
                for (std::size_t k = 0; k < kAsks; ++k) {
                    legal += dev.canIssue(s.ops[(i + k) % s.ops.size()],
                                          s.at[i]);
                }
            }
            dev.issue(s.ops[i], s.at[i]);
            while (dev.popReady(s.at[i], rr)) {
            }
        }
        const double sec = secondsSince(t0);
        keep(legal);
        return sec;
    };
    std::vector<double> plain, asked;
    for (unsigned batch = 0; batch < 9; ++batch) {
        plain.push_back(replay(false));
        asked.push_back(replay(true));
    }
    const double ops = static_cast<double>(s.ops.size());
    out["dev.issue_ns"] = medianOf(plain) * 1e9 / ops;
    out["dev.can_issue_ns"] =
        (medianOf(asked) - medianOf(plain)) * 1e9 / (ops * kAsks);
}

void
probeBankController(const Probe &in, std::map<std::string, double> &out)
{
    Random rng(in.seed ^ 0xbc0bc0ULL);
    std::vector<VectorCommand> cmds(512);
    for (VectorCommand &v : cmds)
        v = lineRead(rng, in.strides[rng.below(in.strides.size())]);

    const unsigned slots = kConfig.bc.transactions;
    std::vector<double> perTick;
    for (unsigned batch = 0; batch < 5; ++batch) {
        SparseMemory mem;
        SdramDevice dev("probe.dev0", 0, geo, kConfig.timing, mem);
        BankController bc("probe.bc0", 0, geo, kConfig.bc, dev);
        std::vector<char> busy(slots, 0);
        std::size_t next = 0, active = 0;
        std::uint64_t ticks = 0;
        const auto t0 = Clock::now();
        for (Cycle now = 1; next < cmds.size() || active > 0; ++now) {
            if (next < cmds.size() && active < slots) {
                std::uint8_t txn = 0;
                while (busy[txn])
                    ++txn;
                VectorCommand v = cmds[next++];
                v.txn = txn;
                bc.observeVecCommand(now, v);
                busy[txn] = 1;
                ++active;
            }
            bc.tick(now);
            ++ticks;
            for (std::uint8_t t = 0; t < slots; ++t) {
                if (busy[t] && bc.txnComplete(t)) {
                    bc.releaseTxn(t);
                    busy[t] = 0;
                    --active;
                }
            }
        }
        perTick.push_back(secondsSince(t0) * 1e9 /
                          static_cast<double>(ticks));
    }
    out["bc.tick_ns"] = medianOf(perTick);
}

void
probeStatsDump(const Probe &in, std::map<std::string, double> &out)
{
    auto sys = makeSystem(SystemKind::PvaSdram, kConfig);
    WorkloadConfig wc;
    wc.stride = in.strides.back();
    wc.streamBases = streamBases(alignmentPresets()[0],
                                 kernelSpec(KernelId::Copy).numStreams,
                                 wc.stride, wc.elements);
    runKernelOn(*sys, KernelId::Copy, wc);
    std::vector<double> ms;
    for (unsigned batch = 0; batch < 15; ++batch) {
        std::ostringstream os;
        const auto t0 = Clock::now();
        sys->stats().dumpJson(os);
        ms.push_back(secondsSince(t0) * 1e3);
        keep(os);
    }
    out["stats.dump_json_ms"] = medianOf(ms);
}

} // anonymous namespace

void
runCoreProbes(const std::vector<std::uint32_t> &strides, std::uint64_t seed,
              std::map<std::string, double> &out)
{
    const Probe in{strides, seed};
    probeFirstHit(in, out);
    probeDevice(in, out);
    probeBankController(in, out);
    probeStatsDump(in, out);
}

void
probeStreamArbiter(const std::vector<StreamConfig> &streams,
                   std::map<std::string, double> &out)
{
    std::vector<double> perGrant;
    for (unsigned batch = 0; batch < 5; ++batch) {
        std::vector<StreamSource> sources;
        std::vector<std::string> names;
        for (unsigned i = 0; i < streams.size(); ++i) {
            StreamConfig sc = streams[i];
            sc.mode = ArrivalMode::ClosedLoop;
            sources.emplace_back(sc, i, kConfig.bc.lineWords);
            names.push_back(sources.back().name());
        }
        ServiceStats stats(names);
        StreamArbiter arbiter(ArbiterConfig{}, std::move(sources), stats);
        NullSystem sys;
        const auto t0 = Clock::now();
        serviceToDrain(arbiter, sys);
        perGrant.push_back(secondsSince(t0) * 1e9 /
                           static_cast<double>(stats.completedTotal()));
    }
    out["traffic.arbiter_service_ns"] = medianOf(perGrant);
}

void
probeFleetArbiter(const fleet::FleetConfig &fc,
                  std::map<std::string, double> &out)
{
    // Seat the fleet the way runFleet() stamps it: global stream
    // index g seeds each stream and shifts its region.
    constexpr std::uint64_t kSeedStep = 0x9e3779b97f4a7c15ULL;
    std::vector<double> buildMs, perGrant;
    for (unsigned batch = 0; batch < 3; ++batch) {
        std::vector<std::unique_ptr<ServiceStats>> tenantStats;
        std::vector<fleet::TenantSeat> seats;
        std::uint64_t g = 0;
        for (const fleet::TenantSpec &spec : fc.tenants) {
            for (unsigned t = 0; t < spec.count; ++t) {
                fleet::TenantSeat seat;
                seat.name = spec.name + std::to_string(seats.size());
                std::vector<std::string> names;
                for (unsigned k = 0; k < spec.streamsPerTenant; ++k, ++g) {
                    StreamConfig sc = spec.stream;
                    sc.name = "s" + std::to_string(k);
                    sc.seed = spec.stream.seed + kSeedStep * (g + 1);
                    sc.pattern.regionBase += g * spec.regionStrideWords;
                    seat.sources.emplace_back(sc, k,
                                              fc.config.bc.lineWords);
                    names.push_back(sc.name);
                }
                tenantStats.push_back(std::make_unique<ServiceStats>(
                    names, ServiceStats::Detail::AggregateOnly,
                    seat.name));
                seat.stats = tenantStats.back().get();
                seats.push_back(std::move(seat));
            }
        }
        fleet::MessageBus bus;
        auto t0 = Clock::now();
        fleet::FleetArbiter arbiter(fc.arbiter, std::move(seats), bus);
        buildMs.push_back(secondsSince(t0) * 1e3);
        NullSystem sys;
        t0 = Clock::now();
        serviceToDrain(arbiter, sys);
        perGrant.push_back(secondsSince(t0) * 1e9 /
                           static_cast<double>(arbiter.grants()));
    }
    out["fleet.arbiter_build_ms"] = medianOf(buildMs);
    out["fleet.arbiter_service_ns"] = medianOf(perGrant);
}

} // namespace perfbench
