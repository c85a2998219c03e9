/**
 * @file
 * Fault-injection tests: drops are recovered with correct data, a
 * corrupted FirstHit result is detected by the shadow gather model
 * instead of completing silently wrong, timing-only faults (refresh
 * and BC stalls) never change results, and a faulted sweep is
 * bit-deterministic for a given seed regardless of worker count: its
 * CSV and report JSON, a quarantined failure included, repeat byte
 * for byte.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "core/pva_unit.hh"
#include "expect_sim_error.hh"
#include "kernels/sweep_executor.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace pva
{
namespace
{

/** Drive @p sys until @p n completions arrive; returns them by tag. */
std::map<std::uint64_t, Completion>
collectN(MemorySystem &sys, Simulation &sim, std::size_t n)
{
    std::map<std::uint64_t, Completion> done;
    sim.runUntil(
        [&] {
            for (Completion &c : sys.drainCompletions()) {
                std::uint64_t tag = c.tag;
                done.emplace(tag, std::move(c));
            }
            return done.size() >= n;
        },
        1000000);
    return done;
}

VectorCommand
readCmd(WordAddr base, std::uint32_t stride, std::uint32_t len = 32)
{
    VectorCommand c;
    c.base = base;
    c.stride = stride;
    c.length = len;
    c.isRead = true;
    return c;
}

/** Sum a per-bank scalar ("bc0.x" ... "bc15.x") across all banks. */
std::uint64_t
sumBankStat(PvaUnit &sys, const char *suffix)
{
    std::uint64_t total = 0;
    for (unsigned b = 0; b < 16; ++b)
        total += sys.stats().scalar(csprintf("bc%u.%s", b, suffix));
    return total;
}

std::uint64_t
sumDeviceStat(PvaUnit &sys, const char *suffix)
{
    std::uint64_t total = 0;
    for (unsigned b = 0; b < 16; ++b)
        total += sys.stats().scalar(csprintf("dev%u.%s", b, suffix));
    return total;
}

TEST(FaultInjection, DroppedTransfersAreRecoveredWithCorrectData)
{
    SystemConfig cfg;
    cfg.timingCheck = true;
    cfg.faults.dropTransferRate = 0.05;
    PvaUnit sys("pva", cfg);
    Simulation sim(sys);

    std::vector<VectorCommand> cmds;
    std::uint64_t tag = 0;
    for (unsigned round = 0; round < 8; ++round) {
        for (std::uint64_t t = 0; t < 4; ++t) {
            VectorCommand c = readCmd(10000 * tag + 5, 2 * t + 3);
            cmds.push_back(c);
            ASSERT_TRUE(sys.trySubmit(c, tag, nullptr));
            ++tag;
        }
        auto done = collectN(sys, sim, 4);
        ASSERT_EQ(done.size(), 4u);
        for (const auto &[t, c] : done) {
            for (std::uint32_t i = 0; i < 32; ++i)
                ASSERT_EQ(c.data[i], SparseMemory::backgroundPattern(
                                         cmds[t].element(i)))
                    << "tag " << t << " elem " << i;
        }
    }

    // ~64 of the ~1024 read returns should have been dropped, and
    // every drop recovered by a retried sub-vector access.
    EXPECT_GT(sumBankStat(sys, "droppedReturns"), 0u);
    EXPECT_GT(sumBankStat(sys, "recoveries"), 0u);
}

TEST(FaultInjection, CorruptedFirstHitIsDetectedNotSilent)
{
    SystemConfig cfg;
    cfg.timingCheck = true;
    cfg.faults.corruptFirstHitRate = 1.0;
    PvaUnit sys("pva", cfg);
    Simulation sim(sys);
    ASSERT_TRUE(sys.trySubmit(readCmd(777, 7), 0, nullptr));
    test::expectSimError(
        [&] {
            sim.runUntil([&] {
                return !sys.drainCompletions().empty();
            });
        },
        SimErrorKind::Corruption, "slot");
    EXPECT_GT(sumBankStat(sys, "corruptedFirstHits"), 0u);
}

TEST(FaultInjection, TimingFaultsPerturbLatencyNotResults)
{
    // Injected refreshes and BC scheduler stalls delay work; they must
    // never change what a kernel computes, and the protocol checker
    // must accept the perturbed schedules (a stalled device still obeys
    // tRCD/tRP/turnaround).
    SweepRequest req;
    req.kernel = KernelId::Saxpy;
    req.stride = 7;
    req.elements = 512;
    req.config.timingCheck = true;
    SweepPoint clean = runPoint(req);

    req.config.faults.refreshStallRate = 0.002;
    req.config.faults.bcStallRate = 0.01;
    SweepPoint faulted = runPoint(req);

    EXPECT_EQ(clean.mismatches, 0u);
    EXPECT_EQ(faulted.mismatches, 0u);
    EXPECT_GT(faulted.cycles, clean.cycles)
        << "stalls and extra refreshes must cost cycles";
}

TEST(FaultInjection, InjectedRefreshesAreCounted)
{
    SystemConfig cfg;
    cfg.timingCheck = true;
    cfg.faults.refreshStallRate = 0.01;
    PvaUnit sys("pva", cfg);
    Simulation sim(sys);
    for (std::uint64_t t = 0; t < 8; ++t)
        ASSERT_TRUE(sys.trySubmit(readCmd(t * 997, 5), t, nullptr));
    collectN(sys, sim, 8);
    EXPECT_GT(sumDeviceStat(sys, "injectedRefreshes"), 0u);
}

TEST(FaultInjection, SameSeedGivesIdenticalSweepReport)
{
    // Injection decisions come from per-component splitmix64 streams
    // seeded from the plan, so a faulted sweep is reproducible
    // bit-for-bit — including across different worker counts.
    SystemConfig config;
    config.timingCheck = true;
    config.faults.seed = 0xabcdef;
    config.faults.refreshStallRate = 0.002;
    config.faults.dropTransferRate = 0.01;
    config.faults.bcStallRate = 0.005;

    std::vector<SweepRequest> grid;
    for (std::uint32_t stride : {1u, 7u, 16u, 19u}) {
        SweepRequest req;
        req.kernel = KernelId::Copy;
        req.stride = stride;
        req.elements = 256;
        req.config = config;
        grid.push_back(req);
    }
    // corruptFirstHitRate = 1.0 corrupts every attempt, so this point
    // fails and is quarantined: the report's failures and quarantine
    // arrays join the comparison.
    SweepRequest corrupt;
    corrupt.kernel = KernelId::Copy;
    corrupt.stride = 4;
    corrupt.elements = 128;
    corrupt.config.timingCheck = true;
    corrupt.config.faults.corruptFirstHitRate = 1.0;
    grid.push_back(corrupt);
    const std::string quarantine =
        testing::TempDir() + "fault_determinism_quarantine";

    auto runOnce = [&](unsigned jobs) {
        SweepExecutor ex(jobs);
        ex.setQuarantineDir(quarantine);
        return ex.runReport(grid);
    };
    SweepReport a = runOnce(2);
    SweepReport b = runOnce(2);
    SweepReport c = runOnce(1);
    SweepReport d = runOnce(3);

    auto expectSame = [](const SweepReport &x, const SweepReport &y) {
        ASSERT_EQ(x.points.size(), y.points.size());
        for (std::size_t i = 0; i < x.points.size(); ++i) {
            EXPECT_EQ(x.points[i].cycles, y.points[i].cycles) << i;
            EXPECT_EQ(x.points[i].mismatches, y.points[i].mismatches);
            EXPECT_EQ(x.points[i].status, y.points[i].status);
            EXPECT_EQ(x.points[i].attempts, y.points[i].attempts);
        }
        EXPECT_EQ(x.ok, y.ok);
        EXPECT_EQ(x.retried, y.retried);
        EXPECT_EQ(x.failed, y.failed);
    };
    expectSame(a, b);
    expectSame(a, c);
    for (const SweepPoint &p : a.points)
        EXPECT_EQ(p.mismatches, 0u);

    // What pva_sim --sweep writes, byte for byte: the CSV and the
    // report's JSON, failures and quarantine included.
    auto bytes = [](const SweepReport &r) {
        std::ostringstream os;
        writeCsv(os, r.points);
        r.dumpJson(os);
        return os.str();
    };
    ASSERT_EQ(c.failed, 1u);
    ASSERT_EQ(c.quarantine.size(), 1u);
    EXPECT_FALSE(c.quarantine[0].capsulePath.empty())
        << c.quarantine[0].capsuleError;
    EXPECT_EQ(bytes(c), bytes(d));
}

TEST(FaultInjection, DifferentSeedsExploreDifferentTimelines)
{
    SweepRequest req;
    req.kernel = KernelId::Copy;
    req.stride = 19;
    req.elements = 512;
    req.config.timingCheck = true;
    req.config.faults.refreshStallRate = 0.005;
    req.config.faults.bcStallRate = 0.01;
    SweepPoint a = runPoint(req);
    req.config.faults.seed ^= 0x12345;
    SweepPoint b = runPoint(req);
    EXPECT_EQ(a.mismatches, 0u);
    EXPECT_EQ(b.mismatches, 0u);
    EXPECT_NE(a.cycles, b.cycles)
        << "a different seed should inject at different cycles";
}

} // anonymous namespace
} // namespace pva
