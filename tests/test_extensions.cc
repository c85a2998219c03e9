/**
 * @file
 * Tests for the chapter 7 extensions: two-phase vector-indirect
 * scatter/gather and bit-reversed application vectors, end to end
 * through the PVA unit.
 */

#include <gtest/gtest.h>

#include "baselines/serial_system.hh"
#include "core/bit_reversal.hh"
#include "core/indirect.hh"
#include "core/pva_unit.hh"
#include "expect_sim_error.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"

namespace pva
{
namespace
{

TEST(BitReverse, Function)
{
    EXPECT_EQ(bitReverse(0b000, 3), 0b000u);
    EXPECT_EQ(bitReverse(0b001, 3), 0b100u);
    EXPECT_EQ(bitReverse(0b011, 3), 0b110u);
    EXPECT_EQ(bitReverse(0b110101, 6), 0b101011u);
    // Involution: reversing twice is the identity.
    for (std::uint64_t v = 0; v < 256; ++v)
        EXPECT_EQ(bitReverse(bitReverse(v, 8), 8), v);
}

TEST(BitReversalCommands, CoverThePermutationExactly)
{
    auto cmds = bitReversalCommands(1000, 128, 32, true);
    ASSERT_EQ(cmds.size(), 4u);
    std::vector<bool> seen(128, false);
    for (const auto &c : cmds) {
        EXPECT_EQ(c.mode, VectorCommand::Mode::BitReversal);
        for (std::uint32_t i = 0; i < c.length; ++i) {
            WordAddr a = c.element(i);
            ASSERT_GE(a, 1000u);
            ASSERT_LT(a, 1128u);
            EXPECT_FALSE(seen[a - 1000]) << "duplicate address";
            seen[a - 1000] = true;
        }
    }
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(BitReversalCommandsDeath, RequiresPowerOfTwo)
{
    test::expectSimError([] { bitReversalCommands(0, 100, 32, true); },
                         SimErrorKind::Config, "power of two");
}

TEST(BitReversal, GatherPermutesThroughThePva)
{
    // And through the cache-line baseline, with each system's exact
    // cycle count.
    PvaUnit pva("pva", SystemConfig{});
    SerialSystem cacheline("cacheline", SerialSystem::Kind::CacheLine);
    for (auto [sys, cycles] :
         {std::pair<MemorySystem *, Cycle>{&pva, 158},
          {&cacheline, 1448}}) {
        Simulation sim(*sys);
        constexpr std::uint32_t N = 256;
        for (std::uint32_t i = 0; i < N; ++i)
            sys->memory().write(5000 + i, 0xc000 + i);

        BitReversalResult r = runBitReversedGather(*sys, sim, 5000, N);
        ASSERT_EQ(r.data.size(), N);
        for (std::uint32_t i = 0; i < N; ++i)
            EXPECT_EQ(r.data[i], 0xc000 + bitReverse(i, 8)) << "i=" << i;
        EXPECT_EQ(r.cycles, cycles) << sys->name();
    }
}

TEST(IndirectPhases, CommandConstruction)
{
    auto p1 = indirectPhase1(2000, 70, 32);
    ASSERT_EQ(p1.size(), 3u);
    EXPECT_EQ(p1[0].base, 2000u);
    EXPECT_EQ(p1[0].stride, 1u);
    EXPECT_EQ(p1[2].length, 6u);

    std::vector<WordAddr> idx(70);
    for (unsigned i = 0; i < 70; ++i)
        idx[i] = 3 * i + 1;
    auto p2 = indirectPhase2(9000, idx, 32, true);
    ASSERT_EQ(p2.size(), 3u);
    EXPECT_EQ(p2[1].mode, VectorCommand::Mode::Indirect);
    EXPECT_EQ(p2[1].element(0), 9000 + 3ull * 32 + 1);
}

TEST(Indirect, GatherThroughThePva)
{
    PvaUnit sys("pva", SystemConfig{});
    Simulation sim(sys);

    constexpr std::uint32_t N = 100;
    Random rng(3);
    std::vector<WordAddr> idx;
    for (std::uint32_t i = 0; i < N; ++i) {
        // Random within disjoint per-element windows: distinct targets.
        idx.push_back(i * 100 + rng.below(100));
        sys.memory().write(4000 + i, static_cast<Word>(idx.back()));
        sys.memory().write(200000 + idx.back(),
                           static_cast<Word>(0xd000 + i));
    }

    IndirectRunResult r = runIndirectGather(sys, sim, 4000, N, 200000);
    ASSERT_EQ(r.data.size(), N);
    for (std::uint32_t i = 0; i < N; ++i)
        EXPECT_EQ(r.data[i], 0xd000 + i) << "i=" << i;
    EXPECT_EQ(r.cycles, 171u);
}

TEST(Indirect, ScatterThroughThePva)
{
    PvaUnit sys("pva", SystemConfig{});
    Simulation sim(sys);

    constexpr std::uint32_t N = 64;
    std::vector<WordAddr> idx;
    std::vector<Word> values(N);
    for (std::uint32_t i = 0; i < N; ++i) {
        idx.push_back(17ull * i + 5); // distinct targets
        values[i] = 0xe000 + i;
        sys.memory().write(4000 + i, static_cast<Word>(idx.back()));
    }

    EXPECT_EQ(runIndirectScatter(sys, sim, 4000, N, 300000, values), 98u);
    for (std::uint32_t i = 0; i < N; ++i)
        EXPECT_EQ(sys.memory().read(300000 + idx[i]), values[i]);
}

TEST(Indirect, DuplicateIndicesGatherTheSameWord)
{
    PvaUnit sys("pva", SystemConfig{});
    Simulation sim(sys);
    for (std::uint32_t i = 0; i < 32; ++i)
        sys.memory().write(4000 + i, 55); // all indices the same
    sys.memory().write(100000 + 55, 0x1234);

    IndirectRunResult r = runIndirectGather(sys, sim, 4000, 32, 100000);
    for (Word w : r.data)
        EXPECT_EQ(w, 0x1234u);
}

TEST(Indirect, PhaseTwoCostsReflectBroadcastOverhead)
{
    // An indirect command's sub-vectors only become schedulable after
    // the index broadcast (length/2 cycles): a 32-element indirect read
    // must take longer than the equivalent strided read.
    PvaUnit a("a", SystemConfig{}), b("b", SystemConfig{});
    std::vector<WordAddr> idx;
    for (std::uint32_t i = 0; i < 32; ++i)
        idx.push_back(19ull * i);

    Cycle t_ind, t_str;
    {
        Simulation sim(a);
        auto cmds = indirectPhase2(0, idx, 32, true);
        ASSERT_EQ(cmds.size(), 1u);
        a.trySubmit(cmds[0], 0, nullptr);
        sim.runUntil([&] { return !a.drainCompletions().empty(); });
        t_ind = sim.now();
    }
    {
        Simulation sim(b);
        VectorCommand c;
        c.base = 0;
        c.stride = 19;
        c.length = 32;
        c.isRead = true;
        b.trySubmit(c, 0, nullptr);
        sim.runUntil([&] { return !b.drainCompletions().empty(); });
        t_str = sim.now();
    }
    EXPECT_GT(t_ind, t_str);
}

} // anonymous namespace
} // namespace pva
