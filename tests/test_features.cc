/**
 * @file
 * Tests for the design-space features beyond the paper's prototype
 * point: block-interleaved PVA (N copies of the FirstHit logic), SDRAM
 * auto-refresh, and the open-row policy ablation knobs.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/pva_unit.hh"
#include "sim/simulation.hh"

namespace pva
{
namespace
{

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
        10000000);
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

class BlockInterleave : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(BlockInterleave, GathersCorrectlyAtEveryStride)
{
    SystemConfig cfg;
    cfg.geometry = Geometry(16, GetParam());
    PvaUnit sys("pva", cfg);
    Simulation sim(sys);

    std::uint64_t tag = 0;
    for (std::uint32_t stride : {1u, 2u, 7u, 16u, 19u, 33u}) {
        VectorCommand c = readCmd(12345, stride);
        ASSERT_TRUE(sys.trySubmit(c, tag, nullptr));
        auto done = collectN(sys, sim, 1);
        const auto &data = done.at(tag).data;
        for (std::uint32_t i = 0; i < 32; ++i) {
            EXPECT_EQ(data[i],
                      SparseMemory::backgroundPattern(c.element(i)))
                << "N=" << GetParam() << " S=" << stride << " i=" << i;
        }
        ++tag;
    }
}

TEST_P(BlockInterleave, ScatterRoundTrip)
{
    SystemConfig cfg;
    cfg.geometry = Geometry(8, GetParam());
    PvaUnit sys("pva", cfg);
    Simulation sim(sys);

    std::vector<Word> payload(32);
    for (unsigned i = 0; i < 32; ++i)
        payload[i] = 0xf00 + i;
    VectorCommand wr = readCmd(999, 13);
    wr.isRead = false;
    ASSERT_TRUE(sys.trySubmit(wr, 0, &payload));
    collectN(sys, sim, 1);
    ASSERT_TRUE(sys.trySubmit(readCmd(999, 13), 1, nullptr));
    auto done = collectN(sys, sim, 1);
    EXPECT_EQ(done.at(1).data, payload);
}

INSTANTIATE_TEST_SUITE_P(InterleaveFactors, BlockInterleave,
                         ::testing::Values(2, 4, 8, 32));

TEST(BlockInterleave, UnitStrideUsesFewerBanksThanWordInterleave)
{
    // With 32-word blocks over 16 banks, one 32-element unit-stride
    // line lives entirely in one bank; word interleave spreads it over
    // all 16. Check via per-BC element stats.
    SystemConfig block_cfg;
    block_cfg.geometry = Geometry(16, 32);
    PvaUnit block("block", block_cfg);
    PvaUnit word("word", SystemConfig{});

    for (PvaUnit *sys : {&block, &word}) {
        Simulation sim(*sys);
        ASSERT_TRUE(sys->trySubmit(readCmd(0, 1), 0, nullptr));
        collectN(*sys, sim, 1);
    }
    EXPECT_EQ(block.stats().scalar("bc0.elements"), 32u);
    EXPECT_EQ(block.stats().scalar("bc1.elements"), 0u);
    EXPECT_EQ(word.stats().scalar("bc0.elements"), 2u);
    EXPECT_EQ(word.stats().scalar("bc15.elements"), 2u);
}

TEST(Refresh, StealsCyclesAndClosesRows)
{
    SystemConfig with, without;
    with.timing.tREFI = 50; // absurdly frequent, to make it visible
    with.timing.tRFC = 10;

    Cycle t_with, t_without;
    for (auto *p : {&with, &without}) {
        PvaUnit sys("pva", *p);
        Simulation sim(sys);
        std::vector<Word> expect(32);
        // Stride 16 concentrates all elements in one bank: the run is
        // device-bound, so stolen refresh cycles are visible end to end.
        VectorCommand c = readCmd(777, 16);
        for (unsigned i = 0; i < 32; ++i)
            expect[i] = SparseMemory::backgroundPattern(c.element(i));
        // Several back-to-back reads so refreshes land mid-stream.
        for (std::uint64_t t = 0; t < 6; ++t)
            ASSERT_TRUE(sys.trySubmit(c, t, nullptr));
        auto done = collectN(sys, sim, 6);
        for (auto &[tag, comp] : done)
            EXPECT_EQ(comp.data, expect) << "refresh must not corrupt";
        (p == &with ? t_with : t_without) = sim.now();
        if (p == &with) {
            EXPECT_GT(sys.stats().scalar("dev0.refreshes"), 0u);
        }
    }
    EXPECT_GT(t_with, t_without) << "refresh steals bandwidth";
}

TEST(Refresh, DisabledByDefault)
{
    PvaUnit sys("pva", SystemConfig{});
    Simulation sim(sys);
    ASSERT_TRUE(sys.trySubmit(readCmd(0, 1), 0, nullptr));
    collectN(sys, sim, 1);
    EXPECT_EQ(sys.stats().scalar("dev0.refreshes"), 0u);
}

Cycle
runPolicyWorkload(RowPolicy policy)
{
    SystemConfig cfg;
    cfg.bc.rowPolicy = policy;
    PvaUnit sys("pva", cfg);
    Simulation sim(sys);
    // Row-friendly workload: consecutive unit-stride lines walk the
    // same rows, so AlwaysClose should pay extra activates. Submit
    // within the 8-transaction window, then refill as completions
    // arrive.
    std::uint64_t submitted = 0, completed = 0;
    sim.runUntil(
        [&] {
            while (submitted < 16 &&
                   sys.trySubmit(readCmd(submitted * 32, 1), submitted,
                                 nullptr)) {
                ++submitted;
            }
            completed += sys.drainCompletions().size();
            return completed == 16;
        },
        1000000);
    return sim.now();
}

TEST(RowPolicy, ManagedBeatsAlwaysCloseOnRowFriendlyStreams)
{
    Cycle managed = runPolicyWorkload(RowPolicy::Managed);
    Cycle closed = runPolicyWorkload(RowPolicy::AlwaysClose);
    Cycle open = runPolicyWorkload(RowPolicy::AlwaysOpen);
    EXPECT_LE(managed, closed);
    // On a pure streaming workload Managed should track AlwaysOpen.
    EXPECT_LE(managed, open + open / 10);
}

TEST(RowPolicy, AllPoliciesAreFunctionallyEquivalent)
{
    for (RowPolicy p : {RowPolicy::Managed, RowPolicy::AlwaysClose,
                        RowPolicy::AlwaysOpen}) {
        SystemConfig cfg;
        cfg.bc.rowPolicy = p;
        PvaUnit sys("pva", cfg);
        Simulation sim(sys);
        std::vector<Word> payload(32);
        for (unsigned i = 0; i < 32; ++i)
            payload[i] = 0xaa00 + i;
        VectorCommand wr = readCmd(4242, 7);
        wr.isRead = false;
        ASSERT_TRUE(sys.trySubmit(wr, 0, &payload));
        collectN(sys, sim, 1);
        ASSERT_TRUE(sys.trySubmit(readCmd(4242, 7), 1, nullptr));
        auto done = collectN(sys, sim, 1);
        EXPECT_EQ(done.at(1).data, payload)
            << "policy " << static_cast<int>(p);
    }
}

} // anonymous namespace
} // namespace pva
