/**
 * @file
 * Serial baseline tests: cost accounting (line fills, serial command
 * cycles), functional correctness, and, for both kinds, serial
 * ordering, stat names and the outstanding-transaction limit.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "baselines/serial_system.hh"
#include "core/pva_unit.hh"
#include "expect_sim_error.hh"
#include "sim/simulation.hh"

namespace pva
{
namespace
{

using Kind = SerialSystem::Kind;

VectorCommand
cmd(WordAddr base, std::uint32_t stride, bool read = true,
    std::uint32_t len = 32)
{
    VectorCommand c;
    c.base = base;
    c.stride = stride;
    c.length = len;
    c.isRead = read;
    return c;
}

Cycle
runOne(MemorySystem &sys, const VectorCommand &c,
       const std::vector<Word> *wd, std::vector<Word> *out = nullptr)
{
    Simulation sim(sys);
    EXPECT_TRUE(sys.trySubmit(c, 0, wd));
    sim.runUntil([&] {
        auto done = sys.drainCompletions();
        if (done.empty())
            return false;
        if (out)
            *out = std::move(done.front().data);
        return true;
    });
    return sim.now();
}

TEST(SystemConstruction, EveryConstructorValidatesItsConfig)
{
    // Direct construction, not only makeSystem, must refuse a line
    // past the 8-bit slots: built unchecked, a PVA returns every word
    // of a stride-1 read wrong.
    SystemConfig config;
    config.bc.lineWords = 512;
    test::expectSimError([&] { PvaUnit("pva", config); },
                         SimErrorKind::Config, "bc.lineWords");
    test::expectSimError([&] { PvaUnit("sram", config, true); },
                         SimErrorKind::Config, "bc.lineWords");
    for (Kind kind : {Kind::CacheLine, Kind::Gathering}) {
        test::expectSimError([&] { SerialSystem("s", kind, config); },
                             SimErrorKind::Config, "bc.lineWords");
    }
}

TEST(CacheLineSystem, DistinctLineCounting)
{
    // Stride 1: 32 consecutive words from an aligned base = 1 line.
    EXPECT_EQ(SerialSystem::distinctLines(cmd(0, 1), 32), 1u);
    // Unaligned base straddles two lines.
    EXPECT_EQ(SerialSystem::distinctLines(cmd(16, 1), 32), 2u);
    // Stride 32: one line per element.
    EXPECT_EQ(SerialSystem::distinctLines(cmd(0, 32), 32), 32u);
    // Stride 19: floor reuse — elements 0,1 may share a line sometimes.
    unsigned d19 = SerialSystem::distinctLines(cmd(0, 19), 32);
    EXPECT_GT(d19, 16u);
    EXPECT_LT(d19, 32u);
}

TEST(CacheLineSystem, PaperAccountingFillsPerElement)
{
    SerialSystem sys("cl", Kind::CacheLine);
    // Paper accounting: stride 19 -> floor(32/19) = 1 element per line.
    EXPECT_EQ(sys.lineFills(cmd(0, 19)), 32u);
    EXPECT_EQ(sys.lineFills(cmd(0, 16)), 16u);
    EXPECT_EQ(sys.lineFills(cmd(0, 4)), 4u);
    EXPECT_EQ(sys.lineFills(cmd(0, 1)), 1u);
    EXPECT_EQ(sys.lineFills(cmd(0, 64)), 32u);
    // Stride 0 repeats one word: one line, not a division by zero.
    EXPECT_EQ(sys.lineFills(cmd(0, 0)), 1u);
}

TEST(CacheLineSystem, OptimisticReuseUsesDistinctLines)
{
    SystemConfig cfg;
    cfg.optimisticLineReuse = true;
    SerialSystem sys("cl", Kind::CacheLine, cfg);
    EXPECT_EQ(sys.lineFills(cmd(0, 19)),
              SerialSystem::distinctLines(cmd(0, 19), 32));
}

TEST(CacheLineSystem, TwentyCyclesPerLine)
{
    SerialSystem sys("cl", Kind::CacheLine);
    EXPECT_EQ(sys.commandCycles(cmd(0, 16)), 16u * 20u);
    Cycle t = runOne(sys, cmd(0, 1), nullptr);
    // 1 line x 20 cycles (plus a queue-entry cycle).
    EXPECT_GE(t, 20u);
    EXPECT_LE(t, 22u);
    EXPECT_EQ(sys.stats().scalar("lineFills"), 1u);
}

TEST(CacheLineSystem, FunctionalGatherAndScatter)
{
    SerialSystem sys("cl", Kind::CacheLine);
    std::vector<Word> wd(32);
    for (unsigned i = 0; i < 32; ++i)
        wd[i] = 7000 + i;
    runOne(sys, cmd(500, 19, false), &wd);
    std::vector<Word> rd;
    runOne(sys, cmd(500, 19, true), nullptr, &rd);
    EXPECT_EQ(rd, wd);
}

/** The stat that counts @p kind's cost, next to "commands". */
const char *
costCounter(Kind kind)
{
    return kind == Kind::CacheLine ? "lineFills" : "elements";
}

class SerialSystemTest : public ::testing::TestWithParam<Kind>
{
};

TEST_P(SerialSystemTest, SerialQueueCompletesInOrder)
{
    SerialSystem sys("serial", GetParam());
    Simulation sim(sys);
    for (std::uint64_t t = 0; t < 4; ++t)
        ASSERT_TRUE(sys.trySubmit(cmd(t * 4096, 1), t, nullptr));
    EXPECT_TRUE(sys.busy());
    std::vector<std::uint64_t> order;
    sim.runUntil([&] {
        for (Completion &c : sys.drainCompletions())
            order.push_back(c.tag);
        return order.size() == 4;
    });
    EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3}));
    EXPECT_FALSE(sys.busy());
    // The --stats and --json dumps name exactly these stats.
    std::ostringstream dump;
    sys.stats().dump(dump);
    std::istringstream lines(dump.str());
    std::vector<std::string> names;
    for (std::string name, value; lines >> name >> value;)
        names.push_back(name);
    EXPECT_EQ(names, (std::vector<std::string>{
                         "commands", costCounter(GetParam()),
                         "sim.cyclesPerSecond", "sim.cyclesSkipped",
                         "sim.simTicks"}));
    EXPECT_EQ(sys.stats().scalar("commands"), 4u);
    // Unit-stride lines: 4 line fills, or 4 x 32 elements.
    EXPECT_EQ(sys.stats().scalar(costCounter(GetParam())),
              GetParam() == Kind::CacheLine ? 4u : 128u);
}

TEST_P(SerialSystemTest, EightOutstandingLimit)
{
    SerialSystem sys("serial", GetParam());
    Simulation sim(sys);
    for (std::uint64_t t = 0; t < 8; ++t)
        ASSERT_TRUE(sys.trySubmit(cmd(t, 1), t, nullptr));
    EXPECT_EQ(sys.inFlight(), 8u);
    EXPECT_FALSE(sys.trySubmit(cmd(0, 1), 8, nullptr));
    // Back-pressure lifts as soon as the head command completes.
    std::vector<Completion> done;
    sim.runUntil([&] {
        done = sys.drainCompletions();
        return !done.empty();
    });
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done.front().tag, 0u);
    EXPECT_EQ(sys.inFlight(), 7u);
    EXPECT_TRUE(sys.trySubmit(cmd(0, 1), 8, nullptr));
    EXPECT_FALSE(sys.trySubmit(cmd(0, 1), 9, nullptr));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SerialSystemTest,
    ::testing::Values(Kind::CacheLine, Kind::Gathering),
    [](const ::testing::TestParamInfo<Kind> &info) {
        return std::string(info.param == Kind::CacheLine ? "CacheLine"
                                                         : "Gathering");
    });

TEST(GatheringSystem, CommandCycleAccounting)
{
    SerialSystem sys("ga", Kind::Gathering);
    // tRP + tRCD + tCL + L + L/2 = 2+2+2+32+16 = 54.
    EXPECT_EQ(sys.commandCycles(cmd(0, 19)), 54u);
    EXPECT_EQ(sys.commandCycles(cmd(0, 1, true, 16)), 30u);
}

TEST(GatheringSystem, CostIsStrideIndependent)
{
    Cycle prev = 0;
    for (std::uint32_t s : {1u, 4u, 19u, 100u}) {
        SerialSystem sys("ga", Kind::Gathering);
        Cycle t = runOne(sys, cmd(0, s), nullptr);
        if (prev) {
            EXPECT_EQ(t, prev) << "gathering cost ignores stride";
        }
        prev = t;
    }
}

TEST(GatheringSystem, FunctionalRoundTrip)
{
    SerialSystem sys("ga", Kind::Gathering);
    std::vector<Word> wd(32);
    for (unsigned i = 0; i < 32; ++i)
        wd[i] = 1234 + 3 * i;
    runOne(sys, cmd(321, 7, false), &wd);
    std::vector<Word> rd;
    runOne(sys, cmd(321, 7, true), nullptr, &rd);
    EXPECT_EQ(rd, wd);
    EXPECT_EQ(sys.stats().scalar("elements"), 64u);
}

TEST(Baselines, AgreeFunctionallyWithEachOther)
{
    // Same writes through both systems leave the same memory image.
    SerialSystem a("cl", Kind::CacheLine);
    SerialSystem b("ga", Kind::Gathering);
    std::vector<Word> wd(32);
    for (unsigned i = 0; i < 32; ++i)
        wd[i] = i * i;
    runOne(a, cmd(77, 5, false), &wd);
    runOne(b, cmd(77, 5, false), &wd);
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_EQ(a.memory().read(77 + 5 * i), b.memory().read(77 + 5 * i));
}

} // anonymous namespace
} // namespace pva
