/**
 * @file
 * Vector bus tests: request/data multiplexing, reservation windows for
 * staged line transfers, same-cycle snooping, and occupancy statistics.
 */

#include <gtest/gtest.h>

#include "bus/vector_bus.hh"

namespace pva
{
namespace
{

VectorCommand
lineCmd()
{
    VectorCommand c;
    c.base = 0;
    c.stride = 1;
    c.length = 32;
    return c;
}

TEST(VectorBus, RequestTakesOneCycle)
{
    VectorBus bus(32);
    EXPECT_TRUE(bus.requestFree(0));
    bus.drive(0, BusOpcode::VecRead, 0, lineCmd());
    EXPECT_FALSE(bus.requestFree(0));
    EXPECT_TRUE(bus.requestFree(1));
}

TEST(VectorBus, StageReservesDataCycles)
{
    VectorBus bus(32);
    EXPECT_EQ(bus.dataCycles(), 16u) << "128 B at 2 words/cycle";
    bus.drive(0, BusOpcode::StageRead, 3, lineCmd());
    // Cycle 0 is the request; 1..16 are data; 17 is free again.
    for (Cycle t = 0; t <= 16; ++t)
        EXPECT_FALSE(bus.requestFree(t)) << "t=" << t;
    EXPECT_TRUE(bus.requestFree(17));
}

TEST(VectorBus, SnoopSeesSameCycleOnly)
{
    VectorBus bus(32);
    EXPECT_FALSE(bus.snoop(0).has_value());
    bus.drive(5, BusOpcode::VecRead, 2, lineCmd());
    auto req = bus.snoop(5);
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->opcode, BusOpcode::VecRead);
    EXPECT_EQ(req->txn, 2u);
    EXPECT_FALSE(bus.snoop(6).has_value());
}

TEST(VectorBus, CountsRequestAndDataCycles)
{
    VectorBus bus(32);
    bus.drive(0, BusOpcode::VecRead, 0, lineCmd());
    bus.drive(1, BusOpcode::StageRead, 0, lineCmd());
    bus.drive(18, BusOpcode::StageWrite, 1, lineCmd());
    EXPECT_EQ(bus.statRequestCycles.value(), 3u);
    EXPECT_EQ(bus.statDataCycles.value(), 32u);
}

TEST(VectorBusDeath, DrivingBusyBusPanics)
{
    VectorBus bus(32);
    bus.drive(0, BusOpcode::StageRead, 0, lineCmd());
    EXPECT_DEATH(bus.drive(4, BusOpcode::VecRead, 1, lineCmd()), "busy");
}

TEST(VectorBusDeath, OddLineLengthIsFatal)
{
    EXPECT_EXIT(VectorBus(31), ::testing::ExitedWithCode(1), "even");
}

} // anonymous namespace
} // namespace pva
