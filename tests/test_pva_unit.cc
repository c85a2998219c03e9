/**
 * @file
 * PVA unit integration tests: full read/write transactions through the
 * bus protocol, transaction-limit behaviour, concurrent mixed traffic,
 * the SRAM variant, and a randomized scatter/gather fuzz.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/pva_unit.hh"
#include "expect_sim_error.hh"
#include "sim/random.hh"
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

TEST(PvaUnit, WriteThenReadRoundTrip)
{
    PvaUnit sys("pva", SystemConfig{});
    Simulation sim;
    sim.add(&sys);

    std::vector<Word> payload(32);
    for (unsigned i = 0; i < 32; ++i)
        payload[i] = 0xbeef0000 + i;

    VectorCommand wr = readCmd(777, 13);
    wr.isRead = false;
    ASSERT_TRUE(sys.trySubmit(wr, 0, &payload));
    collectN(sys, sim, 1);

    ASSERT_TRUE(sys.trySubmit(readCmd(777, 13), 1, nullptr));
    auto done = collectN(sys, sim, 1);
    EXPECT_EQ(done.at(1).data, payload);
}

TEST(PvaUnit, EightOutstandingTransactionsMax)
{
    PvaUnit sys("pva", SystemConfig{});
    for (std::uint64_t t = 0; t < 8; ++t)
        ASSERT_TRUE(sys.trySubmit(readCmd(t * 100, 3), t, nullptr));
    EXPECT_FALSE(sys.trySubmit(readCmd(0, 1), 99, nullptr))
        << "ninth submit must fail";
    EXPECT_TRUE(sys.busy());

    Simulation sim;
    sim.add(&sys);
    auto done = collectN(sys, sim, 8);
    EXPECT_EQ(done.size(), 8u);
    EXPECT_FALSE(sys.busy());
    EXPECT_TRUE(sys.trySubmit(readCmd(0, 1), 99, nullptr));
}

TEST(PvaUnit, ConcurrentReadsReturnDistinctCorrectData)
{
    PvaUnit sys("pva", SystemConfig{});
    Simulation sim;
    sim.add(&sys);

    std::vector<VectorCommand> cmds;
    for (std::uint64_t t = 0; t < 8; ++t) {
        VectorCommand c = readCmd(1000 + t * 7919, 2 * t + 1);
        cmds.push_back(c);
        ASSERT_TRUE(sys.trySubmit(c, t, nullptr));
    }
    auto done = collectN(sys, sim, 8);
    for (std::uint64_t t = 0; t < 8; ++t) {
        const auto &data = done.at(t).data;
        ASSERT_EQ(data.size(), 32u);
        for (std::uint32_t i = 0; i < 32; ++i) {
            EXPECT_EQ(data[i], SparseMemory::backgroundPattern(
                                   cmds[t].element(i)))
                << "txn " << t << " elem " << i;
        }
    }
}

TEST(PvaUnit, ShortVectorCommands)
{
    PvaUnit sys("pva", SystemConfig{});
    Simulation sim;
    sim.add(&sys);
    for (std::uint32_t len : {1u, 2u, 5u, 31u}) {
        ASSERT_TRUE(sys.trySubmit(readCmd(17, 19, len), len, nullptr));
        auto done = collectN(sys, sim, 1);
        ASSERT_EQ(done.at(len).data.size(), len);
        for (std::uint32_t i = 0; i < len; ++i)
            EXPECT_EQ(done.at(len).data[i],
                      SparseMemory::backgroundPattern(17 + 19ull * i));
    }
}

TEST(PvaUnit, MixedReadWriteTrafficIsConsistent)
{
    PvaUnit sys("pva", SystemConfig{});
    Simulation sim;
    sim.add(&sys);

    // Write two disjoint vectors and read them back concurrently.
    std::vector<Word> wa(32), wb(32);
    for (unsigned i = 0; i < 32; ++i) {
        wa[i] = 0xa0000 + i;
        wb[i] = 0xb0000 + i;
    }
    VectorCommand cwa = readCmd(5000, 3);
    cwa.isRead = false;
    VectorCommand cwb = readCmd(9000, 19);
    cwb.isRead = false;
    ASSERT_TRUE(sys.trySubmit(cwa, 0, &wa));
    ASSERT_TRUE(sys.trySubmit(cwb, 1, &wb));
    collectN(sys, sim, 2);

    ASSERT_TRUE(sys.trySubmit(readCmd(5000, 3), 2, nullptr));
    ASSERT_TRUE(sys.trySubmit(readCmd(9000, 19), 3, nullptr));
    auto done = collectN(sys, sim, 2);
    EXPECT_EQ(done.at(2).data, wa);
    EXPECT_EQ(done.at(3).data, wb);
}

TEST(PvaUnit, SramVariantIsFunctionallyIdenticalAndFaster)
{
    PvaUnit sdram("sdram", SystemConfig{});
    PvaUnit sram("sram", SystemConfig{}, true);

    VectorCommand c = readCmd(123, 19);
    Cycle t_sdram, t_sram;
    std::vector<Word> d_sdram, d_sram;
    {
        Simulation sim;
        sim.add(&sdram);
        sdram.trySubmit(c, 0, nullptr);
        auto done = collectN(sdram, sim, 1);
        t_sdram = sim.now();
        d_sdram = done.at(0).data;
    }
    {
        Simulation sim;
        sim.add(&sram);
        sram.trySubmit(c, 0, nullptr);
        auto done = collectN(sram, sim, 1);
        t_sram = sim.now();
        d_sram = done.at(0).data;
    }
    EXPECT_EQ(d_sdram, d_sram);
    EXPECT_LT(t_sram, t_sdram) << "SRAM has no RAS/precharge latency";
}

TEST(PvaUnit, StatsAreRegisteredAndCount)
{
    PvaUnit sys("pva", SystemConfig{});
    Simulation sim;
    sim.add(&sys);
    sys.trySubmit(readCmd(0, 1), 0, nullptr);
    collectN(sys, sim, 1);
    EXPECT_EQ(sys.stats().scalar("frontend.reads"), 1u);
    EXPECT_EQ(sys.stats().scalar("bus.requestCycles"), 2u)
        << "VEC_READ + STAGE_READ";
    EXPECT_EQ(sys.stats().scalar("bus.dataCycles"), 16u);
    // Stride 1 over 16 banks: each bank read 2 elements.
    EXPECT_EQ(sys.stats().scalar("bc0.elements"), 2u);
    EXPECT_EQ(sys.stats().scalar("dev0.reads"), 2u);
}

TEST(PvaUnit, RandomScatterGatherFuzz)
{
    // Randomized end-to-end consistency: interleave writes and reads of
    // random strided vectors; a software mirror checks every gathered
    // line against what the writes should have produced.
    PvaUnit sys("pva", SystemConfig{});
    Simulation sim;
    sim.add(&sys);
    Random rng(0xfeed);
    std::map<WordAddr, Word> mirror;

    std::uint64_t tag = 0;
    for (unsigned round = 0; round < 40; ++round) {
        VectorCommand c;
        c.base = rng.below(1 << 20);
        c.stride = 1 + static_cast<std::uint32_t>(rng.below(40));
        c.length = 1 + static_cast<std::uint32_t>(rng.below(32));
        c.isRead = rng.below(2) == 0;

        if (c.isRead) {
            ASSERT_TRUE(sys.trySubmit(c, tag, nullptr));
            auto done = collectN(sys, sim, 1);
            const auto &data = done.at(tag).data;
            for (std::uint32_t i = 0; i < c.length; ++i) {
                WordAddr a = c.element(i);
                Word expect = mirror.count(a)
                                  ? mirror[a]
                                  : SparseMemory::backgroundPattern(a);
                ASSERT_EQ(data[i], expect)
                    << "round " << round << " elem " << i;
            }
        } else {
            std::vector<Word> data(c.length);
            for (std::uint32_t i = 0; i < c.length; ++i) {
                data[i] = static_cast<Word>(rng.next());
                mirror[c.element(i)] = data[i];
            }
            ASSERT_TRUE(sys.trySubmit(c, tag, &data));
            auto done = collectN(sys, sim, 1);
            ASSERT_TRUE(done.count(tag));
        }
        ++tag;
    }
}

TEST(PvaUnitDeath, BadSubmitsAreFatal)
{
    PvaUnit sys("pva", SystemConfig{});
    VectorCommand too_long = readCmd(0, 1, 33);
    test::expectSimError([&] { sys.trySubmit(too_long, 0, nullptr); },
                         SimErrorKind::Config, "length");
    VectorCommand wr = readCmd(0, 1);
    wr.isRead = false;
    test::expectSimError([&] { sys.trySubmit(wr, 0, nullptr); },
                         SimErrorKind::Config, "write data");
}

} // anonymous namespace
} // namespace pva
