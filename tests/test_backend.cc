/**
 * @file
 * Memory-backend tests: policy resolution, the refresh intervals
 * validation refuses, the legacy differential anchor (a SALP device
 * whose traffic stays inside one subarray must be cycle-identical to
 * the legacy part), event/exhaustive exactness of the new backends,
 * batched bank-controller wakes against the tick-everything reference
 * under refresh, the deferred-refresh debt rules, and the SALP
 * bandwidth win on subarray-conflicting streams.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "expect_sim_error.hh"
#include "kernels/alignment.hh"
#include "kernels/runner.hh"
#include "kernels/sweep.hh"
#include "sdram/backend.hh"
#include "sdram/timing_checker.hh"
#include "stat_dump.hh"

namespace pva
{
namespace
{

SystemConfig
salpConfig(unsigned subarrays = 4)
{
    SystemConfig c;
    c.backend = MemBackend::Salp;
    c.salpSubarrays = subarrays;
    return c;
}

SystemConfig
deferredConfig(unsigned t_refi, unsigned window = 0)
{
    SystemConfig c;
    c.backend = MemBackend::DeferredRefresh;
    c.timing.tREFI = t_refi;
    c.refreshDeferWindow = window;
    return c;
}

// --------------------------------------------------------------------
// Policy resolution

TEST(BackendPolicyTest, LegacyDefaultsToOneSlotPerInternalBank)
{
    BackendPolicy pol = resolveBackendPolicy(MemBackend::Legacy, 13, 0,
                                             0, 4, 0);
    EXPECT_EQ(pol.subarrays(), 1u);
    EXPECT_EQ(pol.slotOf(3, 0x1fff), 3u);
    EXPECT_EQ(pol.slotCount(4), 4u);
}

TEST(BackendPolicyTest, SalpSplitsTheHighRowBits)
{
    BackendPolicy pol = resolveBackendPolicy(MemBackend::Salp, 13, 0, 0,
                                             4, 0);
    EXPECT_EQ(pol.subarrays(), 4u);
    EXPECT_EQ(pol.subShift, 11u);
    EXPECT_EQ(pol.subarrayOf(0), 0u);
    EXPECT_EQ(pol.subarrayOf(2048), 1u);
    EXPECT_EQ(pol.slotOf(3, 2048), (3u << 2) | 1u);
    EXPECT_EQ(pol.slotCount(4), 16u);
}

TEST(BackendPolicyTest, SalpRejectsBadSubarrayCounts)
{
    test::expectSimError(
        [] { resolveBackendPolicy(MemBackend::Salp, 13, 0, 0, 3, 0); },
        SimErrorKind::Config, "power of two");
    test::expectSimError(
        [] { resolveBackendPolicy(MemBackend::Salp, 13, 0, 0, 1, 0); },
        SimErrorKind::Config, "power of two");
    test::expectSimError(
        [] {
            resolveBackendPolicy(MemBackend::Salp, 3, 0, 0, 8, 0);
        },
        SimErrorKind::Config, "row bits");
}

TEST(BackendPolicyTest, DeferredRequiresRefreshAndBoundsTheWindow)
{
    test::expectSimError(
        [] {
            resolveBackendPolicy(MemBackend::DeferredRefresh, 13, 0, 0,
                                 4, 0);
        },
        SimErrorKind::Config, "tREFI");
    test::expectSimError(
        [] {
            resolveBackendPolicy(MemBackend::DeferredRefresh, 13, 8, 10,
                                 4, 0);
        },
        SimErrorKind::Config, "drain");
    test::expectSimError(
        [] {
            resolveBackendPolicy(MemBackend::DeferredRefresh, 13, 100,
                                 10, 4, 500);
        },
        SimErrorKind::Config, "refreshDeferWindow");
    BackendPolicy pol = resolveBackendPolicy(
        MemBackend::DeferredRefresh, 13, 300, 10, 4, 0);
    EXPECT_EQ(pol.deferWindow, 150u); // defaults to tREFI / 2
}

TEST(BackendPolicyTest, ConfigValidateRejectsBadBackendKnobs)
{
    SystemConfig cfg = salpConfig(6);
    test::expectSimError([&] { cfg.validate(); }, SimErrorKind::Config,
                         "power of two");
    SystemConfig d;
    d.backend = MemBackend::DeferredRefresh; // tREFI left at 0
    test::expectSimError([&] { d.validate(); }, SimErrorKind::Config,
                         "tREFI");
}

// --------------------------------------------------------------------
// Refresh room
//
// A refresh closes every row, so each access needs tRFC for the
// refresh and tRCD for its activate between boundaries. An interval
// without that room runs every kernel into the cycle watchdog;
// validation refuses it instead (checkRefreshRoom). The deferred
// backend postpones boundaries around open rows, so there the room
// also depends on the deferral window.

struct RefreshRoomCase
{
    const char *label;
    MemBackend backend;
    unsigned tRCD;
    unsigned tRFC;
    unsigned tRC;
    unsigned window;          ///< refreshDeferWindow (deferred only)
    unsigned largestRejected; ///< tREFI; one more is the smallest accepted
};

const RefreshRoomCase kRefreshRoomCases[] = {
    {"legacy", MemBackend::Legacy, 2, 10, 7, 0, 12},
    {"salp", MemBackend::Salp, 2, 10, 7, 0, 12},
    {"deferred", MemBackend::DeferredRefresh, 2, 10, 7, 0, 10},
    {"legacy tRCD 3 tRFC 20", MemBackend::Legacy, 3, 20, 7, 0, 23},
    {"deferred tRCD 3 tRFC 20", MemBackend::DeferredRefresh, 3, 20, 7, 0,
     20},
    {"deferred tRCD 4 window 1", MemBackend::DeferredRefresh, 4, 10, 7, 1,
     14},
    {"legacy tRC 13", MemBackend::Legacy, 2, 10, 13, 0, 13},
};

SystemConfig
refreshRoomConfig(const RefreshRoomCase &c, unsigned t_refi)
{
    SystemConfig cfg;
    cfg.backend = c.backend;
    cfg.timing.tRCD = c.tRCD;
    cfg.timing.tRFC = c.tRFC;
    cfg.timing.tRC = c.tRC;
    cfg.timing.tREFI = t_refi;
    cfg.refreshDeferWindow = c.window;
    return cfg;
}

TEST(RefreshRoom, IntervalsWithNoCycleForAnAccessAreRejected)
{
    for (const RefreshRoomCase &c : kRefreshRoomCases) {
        SCOPED_TRACE(c.label);
        const SystemConfig rejected =
            refreshRoomConfig(c, c.largestRejected);
        test::expectSimError([&] { rejected.validate(); },
                             SimErrorKind::Config, "tREFI");
        EXPECT_NO_THROW(
            refreshRoomConfig(c, c.largestRejected + 1).validate());
    }
}

TEST(RefreshRoom, SmallestAcceptedIntervalCompletesSwap)
{
    const KernelSpec &spec = kernelSpec(KernelId::Swap);
    WorkloadConfig wl;
    wl.elements = 256;
    wl.streamBases = streamBases(alignmentPresets()[0], spec.numStreams,
                                 wl.stride, wl.elements);
    for (const RefreshRoomCase &c : kRefreshRoomCases) {
        for (ClockingMode mode :
             {ClockingMode::Event, ClockingMode::Exhaustive}) {
            SCOPED_TRACE(std::string(c.label) + " " +
                         clockingModeName(mode));
            SystemConfig cfg = refreshRoomConfig(c, c.largestRejected + 1);
            cfg.timingCheck = true;
            auto sys = makeSystem(SystemKind::PvaSdram, cfg);
            RunLimits limits;
            limits.maxCycles = 1000000; // not 50 M: a livelock fails fast
            limits.clocking = mode;
            EXPECT_EQ(runKernelOn(*sys, KernelId::Swap, wl, limits)
                          .mismatches,
                      0u);
        }
    }
}

// --------------------------------------------------------------------
// Legacy differential anchor
//
// The alignment presets keep every stream under address 2^26, so all
// rows fall below 2048 and a 4-subarray SALP device routes every
// access through subarray 0 of each internal bank. With one live slot
// per internal bank the SALP timing state collapses onto the legacy
// state, so the two backends must agree cycle for cycle — any drift
// means the row-slot refactor changed legacy behavior.

TEST(BackendDifferential, SalpSingleSubarrayMatchesLegacyCycleExactly)
{
    for (KernelId kernel :
         {KernelId::Copy, KernelId::Saxpy, KernelId::Tridiag}) {
        for (std::uint32_t stride : {1u, 4u, 19u}) {
            for (unsigned alignment : {0u, 3u}) {
                for (ClockingMode clocking :
                     {ClockingMode::Event, ClockingMode::Exhaustive}) {
                    SweepRequest legacy;
                    legacy.kernel = kernel;
                    legacy.stride = stride;
                    legacy.alignment = alignment;
                    legacy.elements = 512;
                    legacy.config.clocking = clocking;
                    legacy.config.timingCheck = true;
                    SweepRequest salp = legacy;
                    salp.config.backend = MemBackend::Salp;
                    SweepPoint a = runPoint(legacy);
                    SweepPoint b = runPoint(salp);
                    EXPECT_EQ(a.mismatches, 0u);
                    EXPECT_EQ(b.mismatches, 0u);
                    EXPECT_EQ(a.cycles, b.cycles)
                        << kernelSpec(kernel).name << " stride "
                        << stride << " alignment " << alignment
                        << " clocking "
                        << clockingModeName(clocking);
                }
            }
        }
    }
}

TEST(BackendDifferential, SalpMatchesLegacyUnderRefreshAndFaults)
{
    SweepRequest legacy;
    legacy.kernel = KernelId::Swap;
    legacy.stride = 8;
    legacy.elements = 512;
    legacy.config.timing.tREFI = 300;
    legacy.config.timingCheck = true;
    legacy.config.faults.seed = 11;
    legacy.config.faults.refreshStallRate = 0.02;
    SweepRequest salp = legacy;
    salp.config.backend = MemBackend::Salp;
    SweepPoint a = runPoint(legacy);
    SweepPoint b = runPoint(salp);
    EXPECT_EQ(a.mismatches, 0u);
    EXPECT_EQ(b.mismatches, 0u);
    EXPECT_EQ(a.cycles, b.cycles);
}

// --------------------------------------------------------------------
// Event clocking exactness of the new backends

TEST(BackendClocking, EventMatchesExhaustiveOnSalpAndDeferred)
{
    std::vector<SystemConfig> configs = {salpConfig(),
                                         deferredConfig(250)};
    for (const SystemConfig &base : configs) {
        for (KernelId kernel : {KernelId::Copy, KernelId::Vaxpy}) {
            for (std::uint32_t stride : {4u, 19u}) {
                SweepRequest ev;
                ev.kernel = kernel;
                ev.stride = stride;
                ev.elements = 512;
                ev.config = base;
                ev.config.timingCheck = true;
                ev.config.clocking = ClockingMode::Event;
                SweepRequest ex = ev;
                ex.config.clocking = ClockingMode::Exhaustive;
                SweepPoint a = runPoint(ev);
                SweepPoint b = runPoint(ex);
                EXPECT_EQ(a.mismatches, 0u);
                EXPECT_EQ(b.mismatches, 0u);
                EXPECT_EQ(a.cycles, b.cycles)
                    << backendName(base.backend) << " "
                    << kernelSpec(kernel).name << " stride " << stride;
                EXPECT_LT(a.simTicks, b.simTicks)
                    << "event stepper processed every cycle";
            }
        }
    }
}

// --------------------------------------------------------------------
// Batched wakes against the reference stepper under refresh
//
// A bank controller sleeps until the next cycle one of its commands
// can issue or its device acts on its own; on the refresh backends the
// device's own events (the tREFI boundary, a deferred refresh's
// pull-in, push-out and forced deadline, the end of the last refresh)
// are the easy ones to get wrong, and a wake one cycle late shows up
// only at a few alignments. So the whole kernel grid runs at every
// alignment: batched event clocking (the default) against exhaustive
// clocking that ticks every controller every cycle, compared on
// cycles and on every statistic except the clocking gauges.

struct RefreshCase
{
    const char *name;
    MemBackend backend;
    unsigned tREFI;
    unsigned window; ///< 0 = default (tREFI / 2)
};

/** Name the case in test listings (gtest would hex-dump the struct,
 *  padding bytes included). */
void
PrintTo(const RefreshCase &rc, std::ostream *os)
{
    *os << rc.name;
}

/** The first line where dumps @p a and @p b differ, for a readable
 *  failure message (empty when they are equal). */
std::string
firstDifference(const std::string &a, const std::string &b)
{
    std::istringstream ia(a), ib(b);
    std::string la, lb;
    while (true) {
        bool more_a = static_cast<bool>(std::getline(ia, la));
        bool more_b = static_cast<bool>(std::getline(ib, lb));
        if (!more_a && !more_b)
            return "";
        if (!more_a || !more_b || la != lb)
            return "'" + la + "' vs '" + lb + "'";
    }
}

struct GridOutcome
{
    Cycle cycles = 0;
    std::size_t mismatches = 0;
    std::string stats;
};

GridOutcome
runGridPoint(SystemConfig config, KernelId kernel, std::uint32_t stride,
             unsigned alignment, bool reference)
{
    auto sys = makeSystem(SystemKind::PvaSdram, config);
    WorkloadConfig wl;
    wl.stride = stride;
    wl.streamBases = streamBases(alignmentPresets()[alignment],
                                 kernelSpec(kernel).numStreams, stride,
                                 wl.elements);
    RunLimits limits;
    limits.clocking =
        reference ? ClockingMode::Exhaustive : ClockingMode::Event;
    RunResult r = runKernelOn(*sys, kernel, wl, limits);
    // Exhaustive clocking alone selects the tick-every-BC reference.
    if (reference) {
        EXPECT_EQ(sys->stats().scalar("sim.bcTicks"),
                  r.simTicks * config.geometry.banks());
    }
    return {r.cycles, r.mismatches, test::withoutSimGauges(sys->stats())};
}

class BatchedWakesUnderRefresh
    : public ::testing::TestWithParam<RefreshCase>
{
};

TEST_P(BatchedWakesUnderRefresh, MatchReferenceAtEveryAlignment)
{
    const RefreshCase &rc = GetParam();
    SystemConfig config;
    config.backend = rc.backend;
    config.timing.tREFI = rc.tREFI;
    config.refreshDeferWindow = rc.window;
    for (KernelId kernel : allKernels()) {
        for (std::uint32_t stride : {1u, 8u, 16u, 19u}) {
            for (unsigned a = 0; a < alignmentPresets().size(); ++a) {
                GridOutcome batched =
                    runGridPoint(config, kernel, stride, a, false);
                GridOutcome reference =
                    runGridPoint(config, kernel, stride, a, true);
                const std::string where =
                    std::string(kernelSpec(kernel).name) + " stride " +
                    std::to_string(stride) + " alignment " +
                    alignmentPresets()[a].name;
                EXPECT_EQ(reference.mismatches, 0u) << where;
                EXPECT_EQ(batched.cycles, reference.cycles) << where;
                EXPECT_EQ(batched.mismatches, reference.mismatches)
                    << where;
                EXPECT_EQ(firstDifference(batched.stats, reference.stats),
                          "")
                    << where << " (batched vs reference stat line)";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    RefreshBackends, BatchedWakesUnderRefresh,
    ::testing::Values(
        RefreshCase{"deferred_r97_w50", MemBackend::DeferredRefresh, 97,
                    50},
        RefreshCase{"deferred_r97", MemBackend::DeferredRefresh, 97, 0},
        RefreshCase{"deferred_r781_w50", MemBackend::DeferredRefresh,
                    781, 50},
        RefreshCase{"deferred_r781", MemBackend::DeferredRefresh, 781,
                    0},
        RefreshCase{"salp_r300", MemBackend::Salp, 300, 0}),
    [](const auto &info) { return std::string(info.param.name); });

// --------------------------------------------------------------------
// Deferred refresh behavior

TEST(DeferredRefresh, MovesBoundariesAndStaysCheckerClean)
{
    SystemConfig cfg = deferredConfig(200);
    cfg.timingCheck = true;
    auto sys = makeSystem(SystemKind::PvaSdram, cfg);

    WorkloadConfig wl;
    wl.stride = 4;
    wl.elements = 2048;
    wl.streamBases = {0, 1 << 20};
    RunResult r = runKernelOn(*sys, KernelId::Copy, wl);
    EXPECT_EQ(r.mismatches, 0u);

    std::uint64_t moved = 0, applied = 0;
    for (unsigned b = 0; b < 16; ++b) {
        moved += sys->stats().scalar(
            csprintf("dev%u.deferredRefreshes", b));
        moved += sys->stats().scalar(
            csprintf("dev%u.advancedRefreshes", b));
        applied +=
            sys->stats().scalar(csprintf("dev%u.refreshes", b));
    }
    EXPECT_GT(applied, 0u);
    EXPECT_GT(moved, 0u) << "no refresh ever left its tREFI boundary";
}

TEST(DeferredRefresh, IdleWakeWaitsForTheLastRefreshToEnd)
{
    // Under tREFI 781, aligned copy at stride 16 has a refresh that
    // ends after the next boundary's pull-in window opens. An idle
    // device may pull that boundary in no sooner than the refresh
    // ends, and its controller sleeps until then. Waking it earlier
    // keeps every simulated cycle (the wake contract allows an early
    // wake), so only the processed cycles and controller ticks show
    // it; this pins them (pva_sim --backend deferred --refresh 781
    // --kernel copy --stride 16 --stats).
    auto sys = makeSystem(SystemKind::PvaSdram, deferredConfig(781));
    WorkloadConfig wl;
    wl.stride = 16;
    wl.streamBases =
        streamBases(alignmentPresets()[0],
                    kernelSpec(KernelId::Copy).numStreams, 16, wl.elements);
    const RunResult r = runKernelOn(*sys, KernelId::Copy, wl);
    EXPECT_EQ(r.mismatches, 0u);
    EXPECT_EQ(r.cycles, 2090u);
    EXPECT_EQ(r.simTicks, 2074u);
    EXPECT_EQ(sys->stats().scalar("sim.bcTicks"), 2128u);
}

TEST(DeferredRefresh, WatchdogMidDeferralFailsCleanAndRetriesOk)
{
    // The cycle watchdog expires while boundaries are still deferred:
    // the run must die with SimError(Watchdog) — not a protocol
    // violation from the refresh bookkeeping — and succeed outright
    // when re-run with an adequate budget (the sweep executor's retry
    // path).
    SweepRequest req;
    req.kernel = KernelId::Copy;
    req.stride = 4;
    req.elements = 1024;
    req.config = deferredConfig(200, 100);
    req.config.timingCheck = true;
    SweepRequest tight = req;
    tight.limits.maxCycles = 350;
    test::expectSimError([&] { runPoint(tight); },
                         SimErrorKind::Watchdog, "watchdog");
    SweepPoint p = runPoint(req);
    EXPECT_EQ(p.mismatches, 0u);
}

TEST(DeferredRefresh, ComposesWithInjectedRefreshFaults)
{
    // Fault-injected refresh stalls land on arbitrary cycles and
    // satisfy no tREFI boundary; the deferral machinery must keep its
    // coverage bookkeeping consistent underneath them.
    SweepRequest req;
    req.kernel = KernelId::Copy;
    req.stride = 4;
    req.elements = 1024;
    req.config = deferredConfig(250);
    req.config.timingCheck = true;
    req.config.faults.seed = 7;
    req.config.faults.refreshStallRate = 0.05;
    SweepPoint p = runPoint(req);
    EXPECT_EQ(p.mismatches, 0u);
}

// --------------------------------------------------------------------
// Checker rule sets

class DeferredCheckerTest : public ::testing::Test
{
  protected:
    Geometry geo{16, 1};
    SdramTiming times = [] {
        SdramTiming t;
        t.tREFI = 100;
        t.tRFC = 10;
        return t;
    }();
    BackendPolicy pol = resolveBackendPolicy(
        MemBackend::DeferredRefresh, geo.rowBits(), times.tREFI,
        times.tRFC, 4, 50);
    TimingChecker checker{geo, times, 16, 8, 32, pol};

    DeviceOp
    activate(std::uint32_t row) const
    {
        DeviceCoords c;
        c.col = 0;
        c.internalBank = 0;
        c.row = row;
        DeviceOp op;
        op.kind = DeviceOp::Kind::Activate;
        op.addr = geo.compose(0, c);
        return op;
    }
};

TEST_F(DeferredCheckerTest, DebtWindowSaturationIsCaught)
{
    // Boundary 100 may defer until 150; a command at 151 with the
    // boundary still unpaid exceeds the debt bound.
    checker.onCommand("dev0", 0, activate(3), 140);
    test::expectSimError(
        [&] { checker.onCommand("dev0", 0, activate(5), 151); },
        SimErrorKind::Protocol, "refresh debt");
}

TEST_F(DeferredCheckerTest, DeferredCoverageWithinWindowIsAccepted)
{
    checker.onRefresh(0, 130, 140, 100); // 30 cycles late: in window
    checker.onRefresh(0, 190, 200, 200); // 10 cycles early: in window
    checker.onCommand("dev0", 0, activate(3), 240);
}

TEST_F(DeferredCheckerTest, OutOfOrderCoverageIsCaught)
{
    test::expectSimError(
        [&] { checker.onRefresh(0, 130, 140, 200); },
        SimErrorKind::Protocol, "out of order");
}

TEST_F(DeferredCheckerTest, PullInBeyondWindowIsCaught)
{
    test::expectSimError([&] { checker.onRefresh(0, 10, 20, 100); },
                         SimErrorKind::Protocol, "pulled in");
}

TEST_F(DeferredCheckerTest, DeferralBeyondWindowIsCaught)
{
    test::expectSimError([&] { checker.onRefresh(0, 151, 161, 100); },
                         SimErrorKind::Protocol, "deferred");
}

TEST_F(DeferredCheckerTest, InjectedRefreshSatisfiesNoBoundary)
{
    // An injected (fault) refresh holds the pins busy but covers
    // nothing: the scheduled boundary must still be paid on time.
    checker.onRefresh(0, 40, 50, 0);
    checker.onCommand("dev0", 0, activate(3), 149); // debt still legal
    test::expectSimError(
        [&] { checker.onCommand("dev0", 0, activate(5), 160); },
        SimErrorKind::Protocol, "refresh debt");
}

TEST(SalpCheckerTest, SubarrayScopedRowRules)
{
    Geometry geo{16, 1};
    SdramTiming times{};
    BackendPolicy pol =
        resolveBackendPolicy(MemBackend::Salp, geo.rowBits(), 0, 0, 4, 0);
    TimingChecker checker{geo, times, 16, 8, 32, pol};

    auto activate = [&](std::uint32_t row) {
        DeviceCoords c;
        c.col = 0;
        c.internalBank = 0;
        c.row = row;
        DeviceOp op;
        op.kind = DeviceOp::Kind::Activate;
        op.addr = geo.compose(0, c);
        return op;
    };

    // Rows 3 and 2048 live in different subarrays of internal bank 0:
    // back-to-back activates (one command-bus cycle apart) are legal.
    checker.onCommand("dev0", 0, activate(3), 0);
    checker.onCommand("dev0", 0, activate(2048), 1);
    // A second activate in an open subarray is still a violation.
    test::expectSimError(
        [&] { checker.onCommand("dev0", 0, activate(4), 10); },
        SimErrorKind::Protocol, "subarray");

    // Precharge must name a subarray the backend actually has.
    DeviceOp pre;
    pre.kind = DeviceOp::Kind::Precharge;
    pre.internalBank = 0;
    pre.subarray = 7;
    test::expectSimError(
        [&] { checker.onCommand("dev0", 0, pre, 20); },
        SimErrorKind::Protocol, "names subarray");
}

// --------------------------------------------------------------------
// The SALP payoff: subarray-conflicting streams

TEST(SalpBandwidth, BeatsLegacyOnSubarrayConflictingStreams)
{
    // A 2^26-word stride walks rows 0, 2048, 4096, 6144 of internal
    // bank 0 in external bank 0 — one subarray per access, wrapping
    // every four elements. The legacy part pays a full row cycle on
    // every access (each element lands on a closed row); SALP keeps
    // all four rows open in their own subarrays and streams row hits
    // after the first rotation.
    WorkloadConfig wl;
    wl.stride = 1u << 26;
    wl.elements = 512;
    wl.streamBases = {0};

    auto legacy = makeSystem(SystemKind::PvaSdram, SystemConfig{});
    RunResult a = runKernelOn(*legacy, KernelId::Scale, wl);

    auto salp = makeSystem(SystemKind::PvaSdram, salpConfig());
    RunResult b = runKernelOn(*salp, KernelId::Scale, wl);

    EXPECT_EQ(a.mismatches, 0u);
    EXPECT_EQ(b.mismatches, 0u);
    EXPECT_LT(b.cycles, a.cycles) << "SALP lost its row buffers";
    // The win must be structural (open-row hits), not noise.
    EXPECT_LT(b.cycles * 100, a.cycles * 80)
        << "expected at least a 20% cycle win from subarray overlap";
}

} // anonymous namespace
} // namespace pva
