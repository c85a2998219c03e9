/**
 * @file
 * Simulation-kernel tests: stats, sparse memory, the cycle driver,
 * deterministic RNG, and string formatting.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "expect_sim_error.hh"
#include "idle_system.hh"
#include "sim/logging.hh"
#include "sim/memory.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"

namespace pva
{
namespace
{

TEST(Stats, ScalarAccumulates)
{
    Scalar s;
    EXPECT_EQ(s.value(), 0u);
    ++s;
    s += 41;
    EXPECT_EQ(s.value(), 42u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(Stats, DistributionTracksMoments)
{
    Distribution d(10);
    for (std::uint64_t v : {5u, 15u, 25u, 15u})
        d.sample(v);
    EXPECT_EQ(d.samples(), 4u);
    EXPECT_EQ(d.minValue(), 5u);
    EXPECT_EQ(d.maxValue(), 25u);
    EXPECT_DOUBLE_EQ(d.mean(), 15.0);
    ASSERT_GE(d.buckets().size(), 3u);
    EXPECT_EQ(d.buckets()[0], 1u); // [0,10)
    EXPECT_EQ(d.buckets()[1], 2u); // [10,20)
    EXPECT_EQ(d.buckets()[2], 1u); // [20,30)
}

TEST(Stats, StatSetDumpsSorted)
{
    Scalar a, b;
    a += 1;
    b += 2;
    StatSet set;
    set.addScalar("z.second", &b);
    set.addScalar("a.first", &a);
    std::ostringstream os;
    set.dump(os);
    EXPECT_EQ(os.str(), "a.first 1\nz.second 2\n");
    EXPECT_EQ(set.scalar("z.second"), 2u);
    EXPECT_TRUE(set.hasScalar("a.first"));
    EXPECT_FALSE(set.hasScalar("missing"));
}

TEST(Stats, StatSetDistributionLookup)
{
    Distribution d(10);
    d.sample(5);
    d.sample(15);
    StatSet set;
    set.addDistribution("lat", &d);
    EXPECT_TRUE(set.hasDistribution("lat"));
    EXPECT_FALSE(set.hasDistribution("missing"));
    EXPECT_EQ(&set.distribution("lat"), &d);
    EXPECT_EQ(set.distribution("lat").samples(), 2u);
}

TEST(StatsDeath, MissingDistributionPanics)
{
    StatSet set;
    EXPECT_DEATH(set.distribution("nope"), "no distribution");
}

TEST(Stats, StatSetDumpsJson)
{
    Scalar a, b;
    a += 7;
    b += 9;
    Distribution d(10);
    d.sample(5);
    d.sample(15);
    d.sample(15);
    StatSet set;
    set.addScalar("z.second", &b);
    set.addScalar("a.first", &a);
    set.addDistribution("lat", &d);
    std::ostringstream os;
    set.dumpJson(os);
    EXPECT_EQ(os.str(),
              "{\"scalars\": {\"a.first\": 7, \"z.second\": 9}, "
              "\"distributions\": {\"lat\": {\"samples\": 3, "
              "\"min\": 5, \"max\": 15, \"mean\": 11.6667, "
              "\"bucketWidth\": 10, \"buckets\": [1, 2]}}, "
              "\"histograms\": {}}\n");
}

TEST(Stats, EmptyStatSetDumpsEmptyJson)
{
    StatSet set;
    std::ostringstream os;
    set.dumpJson(os);
    EXPECT_EQ(os.str(),
              "{\"scalars\": {}, \"distributions\": {}, "
              "\"histograms\": {}}\n");
}

TEST(StatsDeath, DuplicateNamePanics)
{
    Scalar a;
    StatSet set;
    set.addScalar("x", &a);
    EXPECT_DEATH(set.addScalar("x", &a), "duplicate");
}

TEST(SparseMemory, ReadsBackWrites)
{
    SparseMemory mem;
    mem.write(0, 1);
    mem.write(1023, 2);
    mem.write(1024, 3);
    mem.write(1ull << 40, 4);
    EXPECT_EQ(mem.read(0), 1u);
    EXPECT_EQ(mem.read(1023), 2u);
    EXPECT_EQ(mem.read(1024), 3u);
    EXPECT_EQ(mem.read(1ull << 40), 4u);
    EXPECT_EQ(mem.residentPages(), 3u); // 0, 1, and the far page
}

TEST(SparseMemory, UnwrittenWordsReadBackgroundPattern)
{
    SparseMemory mem;
    EXPECT_EQ(mem.read(7), SparseMemory::backgroundPattern(7));
    // Writing a neighbour must not disturb the pattern of other words
    // on the same page.
    mem.write(8, 99);
    EXPECT_EQ(mem.read(7), SparseMemory::backgroundPattern(7));
    EXPECT_EQ(mem.read(9), SparseMemory::backgroundPattern(9));
}

TEST(SparseMemory, BackgroundPatternIsAddressUnique)
{
    // Distinct addresses give distinct data (locally): gather tests rely
    // on this to detect address mix-ups.
    SparseMemory mem;
    for (WordAddr a = 0; a < 1000; ++a)
        EXPECT_NE(mem.read(a), mem.read(a + 1)) << a;
}

TEST(Simulation, RunUntilStopsAtPredicate)
{
    test::IdleSystem sys;
    Simulation sim(sys);
    Cycle end = sim.runUntil([&] { return sys.ticks >= 10; });
    EXPECT_EQ(end, 10u);
}

TEST(Simulation, TheSystemAdoptsTheClocking)
{
    test::IdleSystem sys;
    Simulation sim(sys, ClockingMode::Exhaustive);
    EXPECT_EQ(sys.clocking, ClockingMode::Exhaustive);
}

TEST(Simulation, RunUntilWritesTheSystemsGauges)
{
    // Ticks at 0, 10, ..., 90 and skips the 90 cycles between.
    test::IdleSystem sys(10);
    Simulation sim(sys);
    sim.runUntil([&] { return sim.now() >= 100; });
    EXPECT_EQ(sys.stats().scalar("sim.simTicks"), 10u);
    EXPECT_EQ(sys.stats().scalar("sim.cyclesSkipped"), 90u);

    // Accumulated across runs, and written when a watchdog throws.
    EXPECT_THROW(sim.runUntil([] { return false; }, 50), SimError);
    EXPECT_EQ(sys.stats().scalar("sim.simTicks"), sim.simTicks());
    EXPECT_EQ(sys.stats().scalar("sim.cyclesSkipped"),
              sim.cyclesSkipped());
    EXPECT_EQ(sim.simTicks() + sim.cyclesSkipped(), 150u);
}

TEST(SimulationDeath, WatchdogThrows)
{
    test::IdleSystem sys;
    Simulation sim(sys);
    test::expectSimError(
        [&] { sim.runUntil([] { return false; }, 100); },
        SimErrorKind::Watchdog, "watchdog");
    EXPECT_EQ(sim.now(), 100u) << "watchdog fired at the cycle budget";
}

TEST(Random, IsDeterministicPerSeed)
{
    Random a(42), b(42), c(43);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Random, RangeIsInclusive)
{
    Random r(1);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t v = r.range(3, 5);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 5u);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Logging, CsprintfFormats)
{
    EXPECT_EQ(csprintf("bank %u at %s", 3u, "cycle"), "bank 3 at cycle");
    EXPECT_EQ(csprintf("%05d", 42), "00042");
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(panic("boom %d", 7), "boom 7");
}

TEST(LoggingDeath, FatalExitsWithOne)
{
    EXPECT_EXIT(fatal("bad config"), ::testing::ExitedWithCode(1),
                "bad config");
}

TEST(Types, BitHelpers)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(12));
    EXPECT_EQ(log2Exact(1), 0u);
    EXPECT_EQ(log2Exact(4096), 12u);
    EXPECT_EQ(trailingZeros(12), 2u);
    EXPECT_EQ(trailingZeros(1), 0u);
    EXPECT_EQ(trailingZeros(0), 0u);
}

} // anonymous namespace
} // namespace pva
