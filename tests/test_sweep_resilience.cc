/**
 * @file
 * Resilient-sweep tests: a bad or hung grid point is isolated, retried
 * within its budget, and accounted for in the SweepReport while the
 * rest of the sweep completes; config validation fails fast with a
 * SimError(Config); and both watchdogs fire well before the suite's
 * ctest timeout.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>

#include "expect_sim_error.hh"
#include "idle_system.hh"
#include "kernels/sweep_executor.hh"
#include "sim/simulation.hh"

namespace pva
{
namespace
{

SweepRequest
smallPoint(std::uint32_t stride = 3)
{
    SweepRequest req;
    req.kernel = KernelId::Copy;
    req.stride = stride;
    req.elements = 128;
    return req;
}

TEST(SweepResilience, BadPointIsIsolatedAndTheSweepCompletes)
{
    std::vector<SweepRequest> grid = {smallPoint(1), smallPoint(7),
                                      smallPoint(19)};
    grid[1].config.bc.lineWords = 0; // rejected by validate()

    SweepExecutor ex(2);
    ex.setMaxAttempts(2);
    SweepReport report = ex.runReport(grid);

    ASSERT_EQ(report.points.size(), 3u);
    EXPECT_EQ(report.ok, 2u);
    EXPECT_EQ(report.retried, 0u);
    EXPECT_EQ(report.failed, 1u);
    EXPECT_FALSE(report.allOk());

    EXPECT_EQ(report.points[0].status, PointStatus::Ok);
    EXPECT_EQ(report.points[1].status, PointStatus::Failed);
    EXPECT_EQ(report.points[2].status, PointStatus::Ok);
    EXPECT_EQ(report.points[0].mismatches, 0u);
    EXPECT_EQ(report.points[2].mismatches, 0u);

    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].index, 1u);
    EXPECT_EQ(report.failures[0].attempts, 2u);
    EXPECT_NE(report.failures[0].error.find("lineWords"),
              std::string::npos)
        << report.failures[0].error;
    EXPECT_EQ(ex.stats().scalar("sweep.failures"), 1u);
}

TEST(SweepResilience, CycleWatchdogFailsFastWithoutRetry)
{
    std::vector<SweepRequest> grid = {smallPoint()};
    grid[0].limits.maxCycles = 10; // far below what the kernel needs

    SweepExecutor ex(1);
    SweepReport report = ex.runReport(grid);

    ASSERT_EQ(report.failed, 1u);
    EXPECT_EQ(report.points[0].status, PointStatus::Failed);
    EXPECT_EQ(report.points[0].attempts, 1u)
        << "watchdog expiries are deterministic and must not be retried";
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_NE(report.failures[0].error.find("watchdog"),
              std::string::npos)
        << report.failures[0].error;
}

TEST(SweepResilience, WallClockWatchdogTripsQuickly)
{
    // A point that never converges must be cut off by the wall-clock
    // watchdog in ~the configured budget — not by the 300 s ctest
    // timeout. The predicate below never becomes true, simulating a
    // hung point.
    test::IdleSystem sys;
    Simulation sim(sys);
    auto t0 = std::chrono::steady_clock::now();
    test::expectSimError(
        [&] {
            sim.runUntil([] { return false; }, 4000000000ULL, 50.0);
        },
        SimErrorKind::Watchdog, "wall-clock");
    double millis = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    EXPECT_LT(millis, 5000.0)
        << "watchdog took " << millis << " ms for a 50 ms budget";
}

TEST(SweepResilience, HungPointFailsViaExecutorTimeout)
{
    // A point's wall-clock budget (RunLimits::timeoutMillis) cuts it
    // off inside the executor, which does not retry the expiry.
    std::vector<SweepRequest> grid = {smallPoint()};
    grid[0].elements = 4096;
    grid[0].stride = 19;
    // Make the point effectively hang: a huge cycle budget with a tiny
    // wall-clock allowance. (A real hang would spin the same way; the
    // watchdog cannot tell and should not care.)
    grid[0].limits.maxCycles = 4000000000ULL;
    grid[0].limits.timeoutMillis = 0.001; // expire essentially at once

    SweepExecutor ex(1);
    auto t0 = std::chrono::steady_clock::now();
    SweepReport report = ex.runReport(grid);
    double millis = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

    ASSERT_EQ(report.failed, 1u);
    EXPECT_EQ(report.points[0].attempts, 1u);
    EXPECT_NE(report.failures[0].error.find("wall-clock"),
              std::string::npos)
        << report.failures[0].error;
    EXPECT_LT(millis, 60000.0);
}

TEST(SweepResilience, PersistentCorruptionExhaustsTheAttemptBudget)
{
    // corruptFirstHitRate = 1.0 corrupts every sub-vector on every
    // attempt, so each retry (with its advanced fault seed) fails
    // again: the point must consume the full budget and end Failed.
    std::vector<SweepRequest> grid = {smallPoint()};
    grid[0].config.timingCheck = true;
    grid[0].config.faults.corruptFirstHitRate = 1.0;

    SweepExecutor ex(1);
    ex.setMaxAttempts(3);
    SweepReport report = ex.runReport(grid);

    ASSERT_EQ(report.failed, 1u);
    EXPECT_EQ(report.points[0].status, PointStatus::Failed);
    EXPECT_EQ(report.points[0].attempts, 3u);
    EXPECT_EQ(ex.stats().scalar("sweep.retries"), 2u);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].attempts, 3u);
}

TEST(SweepResilience, EachRetryRunsUnderItsOwnFaultSeed)
{
    // Attempt k of a fault-injected point runs under
    // FaultPlan::forAttempt(k): the base seed plus k golden-ratio
    // steps, so a retry explores a different fault timeline instead of
    // replaying the failure. The failure text and the quarantine
    // record name the last attempt's seed.
    std::vector<SweepRequest> grid = {smallPoint()};
    grid[0].config.timingCheck = true;
    grid[0].config.faults.corruptFirstHitRate = 1.0;
    const FaultPlan &plan = grid[0].config.faults;
    const std::uint64_t last = plan.seed + 2 * 0x9e3779b97f4a7c15ULL;
    EXPECT_EQ(plan.forAttempt(0), plan);
    EXPECT_EQ(plan.forAttempt(2).seed, last);
    EXPECT_EQ(FaultPlan{}.forAttempt(2), FaultPlan{})
        << "a plan that injects nothing keeps its seed";

    SweepExecutor ex(1);
    ex.setMaxAttempts(3);
    ex.setQuarantineDir(testing::TempDir() + "retry_seed");
    SweepReport report = ex.runReport(grid);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_NE(report.failures[0].error.find(
                  "faultSeed=" + std::to_string(last) + "]"),
              std::string::npos)
        << report.failures[0].error;
    ASSERT_EQ(report.quarantine.size(), 1u);
    EXPECT_EQ(report.quarantine[0].faultSeed, last);
}

TEST(SweepResilience, ReportJsonAccountsForEveryPoint)
{
    std::vector<SweepRequest> grid = {smallPoint(1), smallPoint(7)};
    grid[1].config.bc.transactions = 0; // invalid

    SweepExecutor ex(1);
    ex.setMaxAttempts(1);
    SweepReport report = ex.runReport(grid);
    std::ostringstream os;
    report.dumpJson(os);
    const std::string json = os.str();

    EXPECT_NE(json.find("\"points\": 2"), std::string::npos) << json;
    EXPECT_NE(json.find("\"ok\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"failed\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"index\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"kernel\": \"copy\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("transactions"), std::string::npos)
        << "the failure diagnostic should name the bad knob: " << json;
    EXPECT_NE(json.find("\"error\": \""), std::string::npos) << json;
}

TEST(SweepResilience, ValidateRejectsUnsupportableConfigs)
{
    using test::expectSimError;
    {
        SystemConfig c;
        c.bc.lineWords = 0;
        expectSimError([&] { c.validate(); }, SimErrorKind::Config,
                       "lineWords");
    }
    {
        SystemConfig c;
        c.bc.lineWords = 31; // odd
        expectSimError([&] { c.validate(); }, SimErrorKind::Config,
                       "even");
    }
    {
        SystemConfig c;
        c.bc.transactions = 300;
        expectSimError([&] { c.validate(); }, SimErrorKind::Config,
                       "transactions");
    }
    {
        SystemConfig c;
        c.timing.tRAS = 9;
        c.timing.tRC = 5; // shorter than tRAS
        expectSimError([&] { c.validate(); }, SimErrorKind::Config,
                       "tRC");
    }
    {
        SystemConfig c;
        c.timing.tREFI = 1000;
        c.timing.tRFC = 0;
        expectSimError([&] { c.validate(); }, SimErrorKind::Config,
                       "tRFC");
    }
    {
        SystemConfig c;
        c.faults.dropTransferRate = 1.5;
        expectSimError([&] { c.validate(); }, SimErrorKind::Config,
                       "dropTransferRate");
    }
    {
        SystemConfig c;
        c.geometry = Geometry(2, 64); // 64-word blocks > 32-word line
        expectSimError([&] { c.validate(); }, SimErrorKind::Config,
                       "interleave");
    }
    // Geometry itself rejects non-power-of-two shapes.
    test::expectSimError([] { Geometry g(12, 1); },
                         SimErrorKind::Config, "power of two");
}

TEST(SweepResilience, DefaultAndPaperConfigsValidate)
{
    SystemConfig{}.validate();
    SystemConfig refresh;
    refresh.timing.tREFI = 1562;
    refresh.timing.tRFC = 10;
    refresh.validate();
    SystemConfig checked;
    checked.timingCheck = true;
    checked.faults.dropTransferRate = 0.001;
    checked.validate();
}

} // anonymous namespace
} // namespace pva
