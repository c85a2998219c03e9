/**
 * @file
 * TimingChecker tests: deliberately illegal SDRAM command schedules
 * must be reported as SimError(Protocol) with a cycle-stamped
 * diagnostic, shadow-model audits must catch missing or misdirected
 * gathers, and a clean PVA run under the checker must pass silently.
 */

#include <gtest/gtest.h>

#include "core/pva_unit.hh"
#include "expect_sim_error.hh"
#include "kernels/sweep.hh"
#include "sdram/timing_checker.hh"
#include "sim/simulation.hh"

namespace pva
{
namespace
{

class TimingCheckerTest : public ::testing::Test
{
  protected:
    Geometry geo{16, 1};
    SdramTiming times{}; // tRCD 2, tCL 2, tRP 2, tRAS 5, tRC 7, tWR 2
    TimingChecker checker{geo, times, 16, 8, 32};

    /** Flat address in bank 0 at the given device coordinates. */
    WordAddr
    at(std::uint32_t row, unsigned ibank = 0, std::uint32_t col = 0) const
    {
        DeviceCoords c;
        c.col = col;
        c.internalBank = ibank;
        c.row = row;
        return geo.compose(0, c);
    }

    DeviceOp
    activate(WordAddr addr) const
    {
        DeviceOp op;
        op.kind = DeviceOp::Kind::Activate;
        op.addr = addr;
        return op;
    }

    DeviceOp
    precharge(unsigned ibank) const
    {
        DeviceOp op;
        op.kind = DeviceOp::Kind::Precharge;
        op.internalBank = ibank;
        return op;
    }

    DeviceOp
    read(WordAddr addr, bool auto_pre = false) const
    {
        DeviceOp op;
        op.kind = DeviceOp::Kind::Read;
        op.addr = addr;
        op.autoPrecharge = auto_pre;
        return op;
    }

    DeviceOp
    write(WordAddr addr) const
    {
        DeviceOp op;
        op.kind = DeviceOp::Kind::Write;
        op.addr = addr;
        return op;
    }
};

TEST_F(TimingCheckerTest, LegalScheduleIsAccepted)
{
    checker.onCommand("dev0", 0, activate(at(3)), 0);
    checker.onCommand("dev0", 0, read(at(3)), 2);          // tRCD met
    checker.onCommand("dev0", 0, read(at(3, 0, 1)), 3);    // row hit
    checker.onCommand("dev0", 0, precharge(0), 5);         // tRAS met
    checker.onCommand("dev0", 0, activate(at(4)), 7);      // tRP met
    EXPECT_EQ(checker.statCommands.value(), 5u);
}

TEST_F(TimingCheckerTest, RasToCasTooEarlyIsCaught)
{
    checker.onCommand("dev0", 0, activate(at(3)), 0);
    test::expectSimError(
        [&] { checker.onCommand("dev0", 0, read(at(3)), 1); },
        SimErrorKind::Protocol, "tRCD");
}

TEST_F(TimingCheckerTest, ActivateWithoutPrechargeIsCaught)
{
    checker.onCommand("dev0", 0, activate(at(3)), 0);
    test::expectSimError(
        [&] { checker.onCommand("dev0", 0, activate(at(9)), 20); },
        SimErrorKind::Protocol, "missing precharge");
}

TEST_F(TimingCheckerTest, EarlyPrechargeViolatesTras)
{
    checker.onCommand("dev0", 0, activate(at(3)), 0);
    test::expectSimError(
        [&] { checker.onCommand("dev0", 0, precharge(0), 2); },
        SimErrorKind::Protocol, "tRAS");
}

TEST_F(TimingCheckerTest, EarlyActivateAfterPrechargeViolatesTrp)
{
    checker.onCommand("dev0", 0, activate(at(3)), 0);
    checker.onCommand("dev0", 0, precharge(0), 5);
    test::expectSimError(
        [&] { checker.onCommand("dev0", 0, activate(at(4)), 6); },
        SimErrorKind::Protocol, "tRP");
}

TEST_F(TimingCheckerTest, BusTurnaroundViolationIsCaught)
{
    checker.onCommand("dev0", 0, activate(at(3)), 0);
    checker.onCommand("dev0", 0, read(at(3)), 2); // data at cycle 4
    // A write at cycle 4 puts data at 5, adjacent to the read's data
    // cycle with reversed polarity: the mandatory turnaround bubble is
    // missing.
    test::expectSimError(
        [&] { checker.onCommand("dev0", 0, write(at(3, 0, 1)), 4); },
        SimErrorKind::Protocol, "turnaround");
}

TEST_F(TimingCheckerTest, DoubleCommandBusDriveIsCaught)
{
    checker.onCommand("dev0", 0, activate(at(3)), 0);
    test::expectSimError(
        [&] { checker.onCommand("dev0", 0, precharge(1), 0); },
        SimErrorKind::Protocol, "twice");
}

TEST_F(TimingCheckerTest, CommandDuringRefreshIsCaught)
{
    checker.onRefresh(0, 0, 10, 0);
    test::expectSimError(
        [&] { checker.onCommand("dev0", 0, activate(at(3)), 5); },
        SimErrorKind::Protocol, "refresh");
    // Exactly at busy_until the device is available again.
    checker.onCommand("dev0", 0, activate(at(3)), 10);
}

TEST_F(TimingCheckerTest, AccessOnClosedOrWrongRowIsCaught)
{
    test::expectSimError(
        [&] { checker.onCommand("dev0", 0, read(at(3)), 0); },
        SimErrorKind::Protocol, "closed");
    checker.onCommand("dev0", 0, activate(at(3)), 5);
    test::expectSimError(
        [&] { checker.onCommand("dev0", 0, read(at(4)), 8); },
        SimErrorKind::Protocol, "open");
}

TEST_F(TimingCheckerTest, GatherAuditCatchesMissingSlot)
{
    VectorCommand cmd;
    cmd.base = 64;
    cmd.stride = 16;
    cmd.length = 4;
    cmd.isRead = true;
    cmd.txn = 2;
    checker.beginTxn(cmd);
    std::vector<Word> line(4, 0);
    for (std::uint32_t i = 0; i < 3; ++i) { // slot 3 never arrives
        DeviceOp op = read(cmd.element(i));
        op.txn = 2;
        op.slot = static_cast<std::uint8_t>(i);
        checker.onReadData(i, op, 1000 + i);
        line[i] = 1000 + i;
    }
    test::expectSimError([&] { checker.verifyGather(cmd, line, 50); },
                         SimErrorKind::Corruption, "never gathered");
}

TEST_F(TimingCheckerTest, GatherAuditCatchesWrongAddressAndData)
{
    VectorCommand cmd;
    cmd.base = 64;
    cmd.stride = 16;
    cmd.length = 2;
    cmd.isRead = true;
    cmd.txn = 0;
    checker.beginTxn(cmd);
    std::vector<Word> line = {7, 8};
    DeviceOp op0 = read(cmd.element(0) + 1); // gathered the wrong word
    op0.txn = 0;
    op0.slot = 0;
    checker.onReadData(0, op0, 7);
    DeviceOp op1 = read(cmd.element(1));
    op1.txn = 0;
    op1.slot = 1;
    checker.onReadData(1, op1, 8);
    test::expectSimError([&] { checker.verifyGather(cmd, line, 9); },
                         SimErrorKind::Corruption, "address");

    checker.beginTxn(cmd);
    op0.addr = cmd.element(0);
    checker.onReadData(0, op0, 7);
    checker.onReadData(1, op1, 999); // staged line disagrees
    test::expectSimError([&] { checker.verifyGather(cmd, line, 9); },
                         SimErrorKind::Corruption, "staged");
}

TEST_F(TimingCheckerTest, ScatterAuditCatchesMissingWrite)
{
    VectorCommand cmd;
    cmd.base = 0;
    cmd.stride = 16;
    cmd.length = 2;
    cmd.isRead = false;
    cmd.txn = 1;
    checker.beginTxn(cmd);
    std::vector<Word> data = {11, 22};
    DeviceOp op = write(cmd.element(0));
    op.txn = 1;
    op.slot = 0;
    op.writeData = 11;
    checker.onWriteData(0, op);
    test::expectSimError([&] { checker.verifyScatter(cmd, data, 30); },
                         SimErrorKind::Corruption, "never written");
}

TEST(TimingCheckerIntegration, CleanPvaRunPassesTheChecker)
{
    // A full kernel under the checker: every device command is
    // verified and every line audited, with zero violations.
    SweepRequest req;
    req.kernel = KernelId::Vaxpy;
    req.stride = 19;
    req.elements = 512;
    req.config.timingCheck = true;
    SweepPoint p = runPoint(req);
    EXPECT_EQ(p.mismatches, 0u);
    EXPECT_EQ(p.status, PointStatus::Ok);
}

TEST(TimingCheckerIntegration, CheckerCoversRefreshTraffic)
{
    // Auto-refresh interleaves REF commands with the gather stream;
    // the checker must model the refresh window instead of flagging
    // the post-refresh activates.
    SweepRequest req;
    req.kernel = KernelId::Copy;
    req.stride = 4;
    req.elements = 512;
    req.config.timing.tREFI = 300;
    req.config.timingCheck = true;
    SweepPoint p = runPoint(req);
    EXPECT_EQ(p.mismatches, 0u);
}

TEST(TimingCheckerIntegration, CheckerStatsAreRegistered)
{
    SystemConfig cfg;
    cfg.timingCheck = true;
    PvaUnit sys("pva", cfg);
    Simulation sim(sys);
    VectorCommand cmd;
    cmd.base = 100;
    cmd.stride = 7;
    cmd.length = 32;
    cmd.isRead = true;
    ASSERT_TRUE(sys.trySubmit(cmd, 1, nullptr));
    sim.runUntil([&] { return !sys.drainCompletions().empty(); },
                 100000);
    EXPECT_GT(sys.stats().scalar("checker.commands"), 0u);
    EXPECT_EQ(sys.stats().scalar("checker.gathers"), 1u);
}

} // anonymous namespace
} // namespace pva
