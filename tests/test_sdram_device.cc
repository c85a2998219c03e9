/**
 * @file
 * SDRAM device-model tests: the restimer timing constraints (tRCD, CAS
 * latency, tRP, tRAS, tRC, tWR), open-row state, auto-precharge,
 * data-bus turnaround, and the SRAM comparison device.
 */

#include <gtest/gtest.h>

#include "expect_sim_error.hh"
#include "sdram/device.hh"
#include "sdram/sram_device.hh"
#include "sim/memory.hh"

namespace pva
{
namespace
{

class SdramDeviceTest : public ::testing::Test
{
  protected:
    SdramDeviceTest() : dev("dev", 0, geo, timing, mem) {}

    DeviceOp
    activate(WordAddr addr)
    {
        DeviceOp op;
        op.kind = DeviceOp::Kind::Activate;
        op.addr = addr;
        return op;
    }

    DeviceOp
    read(WordAddr addr, bool auto_pre = false)
    {
        DeviceOp op;
        op.kind = DeviceOp::Kind::Read;
        op.addr = addr;
        op.autoPrecharge = auto_pre;
        return op;
    }

    DeviceOp
    write(WordAddr addr, Word data, bool auto_pre = false)
    {
        DeviceOp op;
        op.kind = DeviceOp::Kind::Write;
        op.addr = addr;
        op.writeData = data;
        op.autoPrecharge = auto_pre;
        return op;
    }

    DeviceOp
    precharge(unsigned ibank)
    {
        DeviceOp op;
        op.kind = DeviceOp::Kind::Precharge;
        op.internalBank = ibank;
        return op;
    }

    Geometry geo{16, 1};
    SdramTiming timing{};
    SparseMemory mem;
    SdramDevice dev;
};

TEST_F(SdramDeviceTest, ReadRequiresOpenMatchingRow)
{
    // Bank-local word 0 of bank 0 is flat word 0; a row is 512 columns,
    // so flat words 0 and 512*16 share internal bank 0 but words
    // 512*16*4*... Let's use decompose to build addresses.
    EXPECT_FALSE(dev.canIssue(read(0), 0)) << "row closed";
    ASSERT_TRUE(dev.canIssue(activate(0), 0));
    dev.issue(activate(0), 0);
    EXPECT_TRUE(dev.anyRowOpen(0));
    EXPECT_TRUE(dev.isRowOpen(0, 0));

    // tRCD = 2: access legal from cycle 2, not at 1.
    EXPECT_FALSE(dev.canIssue(read(0), 1));
    EXPECT_TRUE(dev.canIssue(read(0), 2));

    // A different row in the same internal bank is not accessible.
    WordAddr other_row = geo.compose(0, {0, 1, 0});
    EXPECT_FALSE(dev.canIssue(read(other_row), 2));
}

TEST_F(SdramDeviceTest, CasLatencyDelaysReadData)
{
    dev.issue(activate(0), 0);
    dev.issue(read(0), 2);
    ReadReturn r;
    EXPECT_FALSE(dev.popReady(2, r));
    EXPECT_FALSE(dev.popReady(3, r));
    ASSERT_TRUE(dev.popReady(4, r)); // tCL = 2
    EXPECT_EQ(r.readyAt, 4u);
    EXPECT_EQ(r.data, SparseMemory::backgroundPattern(0));
}

TEST_F(SdramDeviceTest, PipelinedReadsOnePerCycle)
{
    dev.issue(activate(0), 0);
    // Columns 0,1,2 of the open row: flat words 0, 16, 32.
    dev.issue(read(0), 2);
    dev.issue(read(16), 3);
    dev.issue(read(32), 4);
    ReadReturn r;
    ASSERT_TRUE(dev.popReady(4, r));
    ASSERT_TRUE(dev.popReady(5, r));
    ASSERT_TRUE(dev.popReady(6, r));
    EXPECT_EQ(dev.statRowHitAccesses.value(), 2u);
}

TEST_F(SdramDeviceTest, OneCommandPerCycle)
{
    dev.issue(activate(0), 0);
    WordAddr ib1 = geo.compose(0, {1, 0, 0});
    // A second command in cycle 0 is illegal even to another bank.
    EXPECT_FALSE(dev.canIssue(activate(ib1), 0));
    EXPECT_TRUE(dev.canIssue(activate(ib1), 1));
}

TEST_F(SdramDeviceTest, TrasGatesPrecharge)
{
    dev.issue(activate(0), 0);
    EXPECT_FALSE(dev.canIssue(precharge(0), 3));
    EXPECT_FALSE(dev.canIssue(precharge(0), 4));
    EXPECT_TRUE(dev.canIssue(precharge(0), 5)) << "tRAS = 5";
    dev.issue(precharge(0), 5);
    EXPECT_FALSE(dev.anyRowOpen(0));
    // tRP = 2 after precharge.
    EXPECT_FALSE(dev.canIssue(activate(0), 6));
    EXPECT_TRUE(dev.canIssue(activate(0), 7));
}

TEST_F(SdramDeviceTest, TrcGatesBackToBackActivates)
{
    dev.issue(activate(0), 0);
    dev.issue(read(0, true), 2); // auto-precharge closes the row
    EXPECT_FALSE(dev.anyRowOpen(0));
    // tRAS(5) then tRP(2): next activate at cycle 7 at the earliest,
    // also satisfying tRC = 7.
    EXPECT_FALSE(dev.canIssue(activate(0), 6));
    EXPECT_TRUE(dev.canIssue(activate(0), 7));
}

TEST_F(SdramDeviceTest, WriteRecoveryDelaysAutoPrecharge)
{
    dev.issue(activate(0), 0);
    dev.issue(write(0, 42, true), 2);
    EXPECT_EQ(mem.read(0), 42u);
    EXPECT_FALSE(dev.anyRowOpen(0));
    // Write data on cycle 3, tWR = 2 -> precharge starts at 5, tRP = 2
    // -> activate legal at 7.
    EXPECT_FALSE(dev.canIssue(activate(0), 6));
    EXPECT_TRUE(dev.canIssue(activate(0), 7));
}

TEST_F(SdramDeviceTest, BusTurnaroundBetweenReadAndWrite)
{
    dev.issue(activate(0), 0);
    dev.issue(read(0), 2); // data on pins at cycle 4
    // A write at cycle 4 would put data at 5: only 1 cycle after the
    // read data — turnaround requires a gap.
    EXPECT_FALSE(dev.canIssue(write(16, 1), 4));
    EXPECT_TRUE(dev.canIssue(write(16, 1), 5)); // data at 6, gap ok
}

TEST_F(SdramDeviceTest, ConsecutiveSameDirectionNoTurnaround)
{
    dev.issue(activate(0), 0);
    dev.issue(write(0, 1), 2);
    EXPECT_TRUE(dev.canIssue(write(16, 2), 3));
}

TEST_F(SdramDeviceTest, InternalBanksAreIndependent)
{
    WordAddr ib1 = geo.compose(0, {1, 7, 3});
    dev.issue(activate(0), 0);
    dev.issue(activate(ib1), 1);
    EXPECT_TRUE(dev.isRowOpen(0, 0));
    EXPECT_TRUE(dev.isRowOpen(1, 7));
    // Accesses to both open rows interleave freely.
    EXPECT_TRUE(dev.canIssue(read(0), 2));
    dev.issue(read(0), 2);
    EXPECT_TRUE(dev.canIssue(read(geo.compose(0, {1, 7, 3})), 3));
}

TEST_F(SdramDeviceTest, LastRowTracksAcrossCloses)
{
    EXPECT_EQ(dev.lastRowAt(0, 5), 0xffffffffu) << "never opened";
    WordAddr row5 = geo.compose(0, {0, 5, 0});
    dev.issue(activate(row5), 0);
    dev.issue(precharge(0), 5);
    EXPECT_EQ(dev.lastRowAt(0, 5), 5u);
}

TEST_F(SdramDeviceTest, StatsCountOperations)
{
    dev.issue(activate(0), 0);
    dev.issue(read(0), 2);
    dev.issue(read(16, true), 3);
    EXPECT_EQ(dev.statActivates.value(), 1u);
    EXPECT_EQ(dev.statReads.value(), 2u);
    EXPECT_EQ(dev.statPrecharges.value(), 1u); // the auto-precharge
}

TEST_F(SdramDeviceTest, QuiescentAfterDrain)
{
    dev.issue(activate(0), 0);
    dev.issue(read(0), 2);
    EXPECT_FALSE(dev.quiescent());
    ReadReturn r;
    ASSERT_TRUE(dev.popReady(10, r));
    EXPECT_TRUE(dev.quiescent());
}

TEST_F(SdramDeviceTest, IllegalIssueThrows)
{
    test::expectSimError([&] { dev.issue(read(0), 0); },
                         SimErrorKind::Protocol, "illegal");
}

TEST(SramDevice, SingleCycleAccessNoRowState)
{
    Geometry geo(16, 1);
    SparseMemory mem;
    SramDevice dev("sram", 0, geo, mem);

    EXPECT_TRUE(dev.slotRowOpen(0, 0));
    EXPECT_TRUE(dev.isRowOpen(3, 12345));

    DeviceOp rd;
    rd.kind = DeviceOp::Kind::Read;
    rd.addr = 48;
    ASSERT_TRUE(dev.canIssue(rd, 0));
    dev.issue(rd, 0);
    ReadReturn r;
    ASSERT_TRUE(dev.popReady(1, r)) << "single-cycle access";
    EXPECT_EQ(r.data, SparseMemory::backgroundPattern(48));

    DeviceOp act;
    act.kind = DeviceOp::Kind::Activate;
    EXPECT_FALSE(dev.canIssue(act, 5)) << "SRAM never activates";
}

TEST(SramDevice, OneWordPerCycle)
{
    Geometry geo(16, 1);
    SparseMemory mem;
    SramDevice dev("sram", 0, geo, mem);
    DeviceOp rd;
    rd.kind = DeviceOp::Kind::Read;
    rd.addr = 0;
    dev.issue(rd, 0);
    EXPECT_FALSE(dev.canIssue(rd, 0));
    EXPECT_TRUE(dev.canIssue(rd, 1));
}

} // anonymous namespace
} // namespace pva
