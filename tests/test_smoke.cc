/**
 * @file
 * Build smoke test: a single strided read through the full PVA unit.
 */

#include <gtest/gtest.h>

#include "core/pva_unit.hh"
#include "sim/simulation.hh"

namespace pva
{
namespace
{

TEST(Smoke, SingleStridedReadGathers)
{
    PvaUnit sys("pva", SystemConfig{});

    // Poke a recognizable pattern at stride 3 from word 1000.
    for (std::uint32_t i = 0; i < 32; ++i)
        sys.memory().write(1000 + 3 * i, 0xabc0000 + i);

    VectorCommand cmd;
    cmd.base = 1000;
    cmd.stride = 3;
    cmd.length = 32;
    cmd.isRead = true;

    ASSERT_TRUE(sys.trySubmit(cmd, 42, nullptr));

    Simulation sim(sys);
    std::vector<Completion> done;
    sim.runUntil(
        [&] {
            for (Completion &c : sys.drainCompletions())
                done.push_back(std::move(c));
            return !done.empty();
        },
        100000);

    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].tag, 42u);
    ASSERT_EQ(done[0].data.size(), 32u);
    for (std::uint32_t i = 0; i < 32; ++i)
        EXPECT_EQ(done[0].data[i], 0xabc0000 + i) << "element " << i;
}

} // anonymous namespace
} // namespace pva
