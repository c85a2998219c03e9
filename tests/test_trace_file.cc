/**
 * @file
 * Trace-file parser and replay tests: grammar acceptance/rejection with
 * line-numbered errors, barrier semantics, functional replay, and
 * cross-system checksum agreement.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "baselines/serial_system.hh"
#include "core/pva_unit.hh"
#include "kernels/sweep.hh"
#include "kernels/trace_file.hh"

namespace pva
{
namespace
{

TraceFile
mustParse(const std::string &text)
{
    std::istringstream in(text);
    TraceFile t;
    std::string error;
    EXPECT_TRUE(parseTrace(in, t, error)) << error;
    return t;
}

/** @name The TraceReplay suite's traces @{ */
const char *const kWriteThenRead = "write 1000 19 32 500\n"
                                   "barrier\n"
                                   "read 1000 19 32\n";
const char *const kPokeThenRead = "poke 64 7\n"
                                  "read 64 1 1\n";
const char *const kReadOnly = "read 64 1 1\n";
const char *const kMixed = "poke 5 123\n"
                           "write 2000 7 32 900\n"
                           "barrier\n"
                           "read 2000 7 32\n"
                           "read 0 3 32\n"
                           "barrier\n"
                           "read 2000 7 16\n";
/** Pokes first, then barrier-separated segments whose commands touch
 *  disjoint words, so no issue order inside a segment can change the
 *  memory image the trace leaves. */
const char *const kSegments = "poke 3000 11\n"
                              "poke 3019 12\n"
                              "poke 6000 13\n"
                              "write 1000 19 32 500\n"
                              "write 5000 3 16 900\n"
                              "barrier\n"
                              "write 1000 19 8 700\n"
                              "read 5000 3 16\n"
                              "read 3000 19 2\n"
                              "barrier\n"
                              "write 3000 19 32 100\n"
                              "read 1000 19 32\n"
                              "barrier\n"
                              "write 4096 1 32 42\n";

/** 100 independent line reads: more than the 8 transactions. */
std::string
manyReads()
{
    std::ostringstream text;
    for (int i = 0; i < 100; ++i)
        text << "read " << i * 32 << " 1 32\n";
    return text.str();
}
/** @} */

std::string
mustFail(const std::string &text)
{
    std::istringstream in(text);
    TraceFile t;
    std::string error;
    EXPECT_FALSE(parseTrace(in, t, error));
    return error;
}

TEST(TraceParser, AcceptsFullGrammar)
{
    TraceFile t = mustParse("# a comment\n"
                            "poke 0x10 42\n"
                            "read 100 19 32\n"
                            "\n"
                            "barrier\n"
                            "write 200 2 16 0xdead # trailing comment\n");
    ASSERT_EQ(t.ops.size(), 4u);
    EXPECT_EQ(t.ops[0].kind, TraceOp::Kind::Poke);
    EXPECT_EQ(t.ops[0].addr, 0x10u);
    EXPECT_EQ(t.ops[0].value, 42u);
    EXPECT_EQ(t.ops[1].kind, TraceOp::Kind::Read);
    EXPECT_EQ(t.ops[1].cmd.stride, 19u);
    EXPECT_EQ(t.ops[2].kind, TraceOp::Kind::Barrier);
    EXPECT_EQ(t.ops[3].kind, TraceOp::Kind::Write);
    EXPECT_EQ(t.ops[3].value, 0xdeadu);

    // Each field at its widest: a bare 0, 32-bit values and a vector
    // whose last element sits at address 2^64-1.
    t = mustParse("poke 0 4294967295\n"
                  "write 0 0xFFFFFFFF 1 4294967295\n"
                  "read 18446744073709551584 1 32\n");
    ASSERT_EQ(t.ops.size(), 3u);
    EXPECT_EQ(t.ops[0].value, 0xffffffffu);
    EXPECT_EQ(t.ops[1].cmd.stride, 0xffffffffu);
    EXPECT_EQ(t.ops[2].cmd.element(31), ~0ull);
}

TEST(TraceParser, RejectsWithLineNumbers)
{
    EXPECT_NE(mustFail("read 1 2\n").find("line 1"), std::string::npos);
    EXPECT_NE(mustFail("poke 1 2\nfrob 3\n").find("line 2"),
              std::string::npos);
    EXPECT_NE(mustFail("read 0 0 32\n").find("stride"),
              std::string::npos);
    EXPECT_NE(mustFail("read 0 1 33\n").find("length"),
              std::string::npos);
    EXPECT_NE(mustFail("read 0 1 bad\n").find("number"),
              std::string::npos);
    EXPECT_NE(mustFail("barrier 1\n").find("barrier"),
              std::string::npos);
    EXPECT_NE(mustFail("write 0 1 8\n").find("seed"), std::string::npos);

    // Numbers their field cannot hold, and tokens outside the grammar:
    // a sign, or a leading zero (which C would read as octal).
    const std::pair<const char *, const char *> refused[] = {
        {"read 4096 4294967296 32", "stride"},
        {"read 0 1 4294967296", "length"},
        {"poke 0 4294967296", "poke value"},
        {"write 0 1 8 4294967296", "write seed"},
        {"poke 18446744073709551616 1", "number"},
        {"poke -1 5", "number"},
        {"poke +1 5", "number"},
        {"read 0x-1 1 1", "number"},
        {"poke 010 77", "number"},
        {"poke 00 77", "number"},
        {"read 18446744073709551615 2 2", "last element"},
    };
    for (const auto &[line, what] : refused) {
        const std::string error =
            mustFail(std::string("barrier\n") + line + "\n");
        EXPECT_NE(error.find("line 2"), std::string::npos)
            << line << ": " << error;
        EXPECT_NE(error.find(what), std::string::npos)
            << line << ": " << error;
    }
}

TEST(TraceReplay, WriteThenReadThroughBarrier)
{
    // The barrier orders the scatter before the gather, so the read
    // must see the written values.
    TraceFile t = mustParse(kWriteThenRead);
    PvaUnit sys("pva", SystemConfig{});
    ReplayResult r = replayTrace(sys, t);
    EXPECT_EQ(r.commands, 2u);
    EXPECT_GT(r.cycles, 0u);
    for (std::uint32_t i = 0; i < 32; ++i)
        EXPECT_EQ(sys.memory().read(1000 + 19ull * i), 500 + i);
}

TEST(TraceReplay, PokeSeedsMemoryForReads)
{
    TraceFile t = mustParse(kPokeThenRead);
    PvaUnit a("a", SystemConfig{});
    ReplayResult ra = replayTrace(a, t);

    // Same trace without the poke gathers different (background) data.
    TraceFile t2 = mustParse(kReadOnly);
    PvaUnit b("b", SystemConfig{});
    ReplayResult rb = replayTrace(b, t2);
    EXPECT_NE(ra.readChecksum, rb.readChecksum);
}

TEST(TraceReplay, PokesApplyAtTheStartOfTheirSegment)
{
    // Nine reads overfill the eight transactions. A poke written after
    // them still lands before the first read gathers word 64, so it
    // reads exactly as if the poke came first. (The unused poke keeps
    // every read at the same trace index, which the checksum mixes.)
    std::string reads;
    for (int i = 0; i < 9; ++i)
        reads += "read " + std::to_string(64 + 32 * i) + " 1 32\n";
    auto checksum = [](const std::string &text) {
        PvaUnit sys("pva", SystemConfig{});
        return replayTrace(sys, mustParse(text)).readChecksum;
    };
    const std::uint64_t first = checksum("poke 64 7\n" + reads +
                                         "poke 999999 0\n");
    EXPECT_EQ(checksum("poke 999999 0\n" + reads + "poke 64 7\n"), first);
    EXPECT_NE(checksum("poke 999999 0\n" + reads + "poke 999998 0\n"),
              first)
        << "the poke of word 64 must be visible to the reads";
}

TEST(TraceReplay, SegmentsLeaveTheirMemoryImage)
{
    auto sys = makeSystem(SystemKind::PvaSdram);
    replayTrace(*sys, mustParse(kSegments));
    EXPECT_EQ(sys->memory().read(1000), 700u);
    EXPECT_EQ(sys->memory().read(1000 + 19 * 8), 508u);
    EXPECT_EQ(sys->memory().read(3019), 101u);
    EXPECT_EQ(sys->memory().read(6000), 13u);

    // A poke lands at the start of its own segment, after every write
    // of the segments before it.
    auto later = makeSystem(SystemKind::PvaSdram);
    replayTrace(*later, mustParse("write 100 1 1 7\n"
                                  "barrier\n"
                                  "poke 100 5\n"
                                  "read 100 1 1\n"));
    EXPECT_EQ(later->memory().read(100), 5u);
}

TEST(TraceReplay, ChecksumAgreesAcrossSystems)
{
    // Functional behaviour is system independent: the PVA and the
    // cache-line baseline must gather identical data.
    TraceFile t = mustParse(kMixed);
    PvaUnit pva("pva", SystemConfig{});
    SerialSystem cl("cl", SerialSystem::Kind::CacheLine);
    ReplayResult rp = replayTrace(pva, t);
    ReplayResult rc = replayTrace(cl, t);
    EXPECT_EQ(rp.readChecksum, rc.readChecksum);
    EXPECT_EQ(rp.commands, rc.commands);
    EXPECT_NE(rp.cycles, rc.cycles) << "timing differs, data agrees";
}

TEST(TraceReplay, ManyCommandsRespectTransactionLimit)
{
    TraceFile t = mustParse(manyReads());
    PvaUnit sys("pva", SystemConfig{});
    ReplayResult r = replayTrace(sys, t);
    EXPECT_EQ(r.commands, 100u);
    // Bus-bound lower bound: 100 lines x 17 bus cycles.
    EXPECT_GT(r.cycles, 1700u);
}

TEST(TraceReplay, CyclesAndChecksumsArePinnedUnderBothClockings)
{
    // Exact results of the suite's traces, identical under event and
    // exhaustive clocking. A change to issue order, to drain-versus-
    // submit order within a cycle, or to the hand-off from one barrier
    // segment to the next moves them.
    struct Pin
    {
        std::string text;
        SystemKind system;
        Cycle cycles;
        std::uint64_t checksum;
    };
    const Pin pins[] = {
        {kWriteThenRead, SystemKind::PvaSdram, 51, 0x57e42d4cb9853b22},
        {kPokeThenRead, SystemKind::PvaSdram, 23, 0x2a99679de90a8d42},
        {kReadOnly, SystemKind::PvaSdram, 23, 0xb93452c852bfba57},
        {kMixed, SystemKind::PvaSdram, 91, 0x307b59656593f0c1},
        {kMixed, SystemKind::CacheLine, 484, 0x307b59656593f0c1},
        {manyReads(), SystemKind::PvaSdram, 1802, 0xb2bbdb4d9b388ba7},
    };
    for (const Pin &pin : pins) {
        TraceFile t = mustParse(pin.text);
        for (ClockingMode mode :
             {ClockingMode::Event, ClockingMode::Exhaustive}) {
            auto sys = makeSystem(pin.system);
            ReplayResult r = replayTrace(*sys, t, mode);
            EXPECT_EQ(r.cycles, pin.cycles)
                << pin.text << clockingModeName(mode);
            EXPECT_EQ(r.readChecksum, pin.checksum)
                << pin.text << clockingModeName(mode);
        }
    }
}

} // anonymous namespace
} // namespace pva
