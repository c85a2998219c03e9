/**
 * @file
 * Vector bus tests: request/data multiplexing, reservation windows for
 * staged line transfers, and occupancy statistics.
 */

#include <gtest/gtest.h>

#include "bus/vector_bus.hh"

namespace pva
{
namespace
{

TEST(VectorBus, RequestTakesOneCycle)
{
    VectorBus bus(32);
    EXPECT_TRUE(bus.requestFree(0));
    bus.drive(0, BusOpcode::VecRead, 0);
    EXPECT_FALSE(bus.requestFree(0));
    EXPECT_TRUE(bus.requestFree(1));
}

TEST(VectorBus, StageReservesDataCycles)
{
    VectorBus bus(32);
    EXPECT_EQ(bus.dataCycles(), 16u) << "128 B at 2 words/cycle";
    bus.drive(0, BusOpcode::StageRead, 3);
    // Cycle 0 is the request; 1..16 are data; 17 is free again.
    for (Cycle t = 0; t <= 16; ++t)
        EXPECT_FALSE(bus.requestFree(t)) << "t=" << t;
    EXPECT_TRUE(bus.requestFree(17));
}

TEST(VectorBus, CountsRequestAndDataCycles)
{
    VectorBus bus(32);
    bus.drive(0, BusOpcode::VecRead, 0);
    bus.drive(1, BusOpcode::StageRead, 0);
    bus.drive(18, BusOpcode::StageWrite, 1);
    EXPECT_EQ(bus.statRequestCycles.value(), 3u);
    EXPECT_EQ(bus.statDataCycles.value(), 32u);
}

TEST(VectorBusDeath, DrivingBusyBusPanics)
{
    VectorBus bus(32);
    bus.drive(0, BusOpcode::StageRead, 0);
    EXPECT_DEATH(bus.drive(4, BusOpcode::VecRead, 1), "busy");
}

TEST(VectorBusDeath, OddLineLengthIsFatal)
{
    EXPECT_EXIT(VectorBus(31), ::testing::ExitedWithCode(1), "even");
}

} // anonymous namespace
} // namespace pva
