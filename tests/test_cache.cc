/**
 * @file
 * L2 cache and shadow-region tests: hit/miss behaviour, LRU
 * replacement, write-back correctness, utilization accounting, and the
 * Impulse shadow remapping semantics.
 */

#include <gtest/gtest.h>

#include "cache/l2_cache.hh"
#include "core/command_unit.hh"
#include "core/pva_unit.hh"
#include "core/shadow.hh"
#include "expect_sim_error.hh"
#include "sim/simulation.hh"

namespace pva
{
namespace
{

class CacheTest : public ::testing::Test
{
  protected:
    CacheTest() : mem("mem", SystemConfig{}), sim(mem)
    {
        cfg.sets = 4;
        cfg.ways = 2;
        cfg.lineWords = 32;
        cache = std::make_unique<L2Cache>(cfg, mem, sim);
    }

    PvaUnit mem;
    Simulation sim;
    CacheConfig cfg;
    std::unique_ptr<L2Cache> cache;
};

TEST_F(CacheTest, MissThenHit)
{
    mem.memory().write(100, 42);
    EXPECT_EQ(cache->read(100), 42u);
    EXPECT_EQ(cache->statMisses.value(), 1u);
    EXPECT_EQ(cache->read(100), 42u);
    EXPECT_EQ(cache->read(101), SparseMemory::backgroundPattern(101));
    EXPECT_EQ(cache->statHits.value(), 2u) << "same line";
    EXPECT_EQ(cache->statMisses.value(), 1u);
}

TEST_F(CacheTest, LruEvictsOldestWay)
{
    // Three lines mapping to the same set (4 sets x 32 words: lines
    // 128 words apart in the same set) in a 2-way set.
    const WordAddr a = 0, b = 4 * 32, c = 8 * 32;
    cache->read(a);
    cache->read(b);
    cache->read(a); // refresh a's LRU stamp
    cache->read(c); // evicts b
    EXPECT_EQ(cache->statMisses.value(), 3u);
    cache->read(a);
    EXPECT_EQ(cache->statMisses.value(), 3u) << "a still resident";
    cache->read(b);
    EXPECT_EQ(cache->statMisses.value(), 4u) << "b was evicted";
}

TEST_F(CacheTest, WritebackOnDirtyEviction)
{
    const WordAddr a = 0, b = 4 * 32, c = 8 * 32;
    cache->write(a, 0x1111);
    cache->read(b);
    cache->read(c); // evicts dirty a -> writeback
    EXPECT_EQ(cache->statWritebacks.value(), 1u);
    EXPECT_EQ(mem.memory().read(a), 0x1111u);
    // Re-reading a misses and returns the written value.
    EXPECT_EQ(cache->read(a), 0x1111u);
    // Four fills and one write-back, each a blocking line op.
    EXPECT_EQ(sim.now(), 113u);
}

TEST_F(CacheTest, FlushWritesAllDirtyLines)
{
    cache->write(10, 7);
    cache->write(200, 8);
    EXPECT_NE(mem.memory().read(10), 7u) << "still dirty in cache";
    cache->flush();
    EXPECT_EQ(mem.memory().read(10), 7u);
    EXPECT_EQ(mem.memory().read(200), 8u);
    EXPECT_EQ(cache->statWritebacks.value(), 2u);
    EXPECT_EQ(sim.now(), 90u);
}

TEST_F(CacheTest, UtilizationCountsDistinctTouchedWords)
{
    cache->read(0);
    cache->read(0); // same word twice: one use
    cache->read(5);
    EXPECT_EQ(cache->statWordsFetched.value(), 32u);
    EXPECT_EQ(cache->statWordsUsed.value(), 2u);
    EXPECT_NEAR(cache->busUtilization(), 2.0 / 32.0, 1e-9);
}

TEST_F(CacheTest, StridedWalkWastesBandwidth)
{
    // One word used per fetched line at stride 32.
    for (WordAddr i = 0; i < 16; ++i)
        cache->read(i * 32);
    EXPECT_EQ(cache->statMisses.value(), 16u);
    EXPECT_NEAR(cache->busUtilization(), 1.0 / 32.0, 1e-9);
}

TEST(ShadowRegion, RemapsUnitStrideFillsToGathers)
{
    PvaUnit inner("pva", SystemConfig{});
    ShadowMemorySystem shadow("shadow", inner);
    shadow.mapShadow({1 << 20, 1024, 5000, 32});
    Simulation sim(shadow);

    for (std::uint32_t i = 0; i < 64; ++i)
        inner.memory().write(5000 + 32ull * i, 0x8800 + i);

    VectorCommand c;
    c.base = (1 << 20) + 16; // shadow element 16
    c.stride = 1;
    c.length = 32;
    c.isRead = true;
    ASSERT_TRUE(shadow.trySubmit(c, 0, nullptr));
    std::vector<Word> data;
    sim.runUntil([&] {
        auto done = shadow.drainCompletions();
        if (done.empty())
            return false;
        data = std::move(done.front().data);
        return true;
    });
    ASSERT_EQ(data.size(), 32u);
    for (std::uint32_t i = 0; i < 32; ++i)
        EXPECT_EQ(data[i], 0x8800 + 16 + i);
    EXPECT_EQ(shadow.remappedCommands(), 1u);
}

TEST(ShadowRegion, NonShadowCommandsPassThrough)
{
    PvaUnit inner("pva", SystemConfig{});
    ShadowMemorySystem shadow("shadow", inner);
    shadow.mapShadow({1 << 20, 64, 5000, 8});
    Simulation sim(shadow);

    VectorCommand c;
    c.base = 123;
    c.stride = 3;
    c.length = 32;
    c.isRead = true;
    ASSERT_TRUE(shadow.trySubmit(c, 0, nullptr));
    std::vector<Word> data;
    sim.runUntil([&] {
        auto done = shadow.drainCompletions();
        if (done.empty())
            return false;
        data = std::move(done.front().data);
        return true;
    });
    for (std::uint32_t i = 0; i < 32; ++i)
        EXPECT_EQ(data[i], SparseMemory::backgroundPattern(123 + 3ull * i));
    EXPECT_EQ(shadow.remappedCommands(), 0u);
}

TEST(ShadowRegion, StridedShadowAccessComposesStrides)
{
    // Reading every 2nd shadow element = every 2*stride real words.
    PvaUnit inner("pva", SystemConfig{});
    ShadowMemorySystem shadow("shadow", inner);
    shadow.mapShadow({1 << 20, 256, 9000, 5});
    Simulation sim(shadow);

    VectorCommand c;
    c.base = 1 << 20;
    c.stride = 2;
    c.length = 32;
    c.isRead = true;
    ASSERT_TRUE(shadow.trySubmit(c, 0, nullptr));
    std::vector<Word> data;
    sim.runUntil([&] {
        auto done = shadow.drainCompletions();
        if (done.empty())
            return false;
        data = std::move(done.front().data);
        return true;
    });
    for (std::uint32_t i = 0; i < 32; ++i)
        EXPECT_EQ(data[i],
                  SparseMemory::backgroundPattern(9000 + 10ull * i));
}

TEST(ShadowRegionDeath, RejectsBadRegions)
{
    PvaUnit inner("pva", SystemConfig{});
    ShadowMemorySystem shadow("shadow", inner);
    shadow.mapShadow({1000, 100, 0, 4});
    test::expectSimError([&] { shadow.mapShadow({1050, 100, 0, 4}); },
                         SimErrorKind::Config, "overlap");
    test::expectSimError([&] { shadow.mapShadow({5000, 0, 0, 4}); },
                         SimErrorKind::Config, "length");

    VectorCommand crossing;
    crossing.base = 1090;
    crossing.stride = 1;
    crossing.length = 32; // runs past shadow end at 1100
    crossing.isRead = true;
    test::expectSimError([&] { shadow.trySubmit(crossing, 0, nullptr); },
                         SimErrorKind::Config, "boundary");
}

/** What a run of 16 stride-19 line gathers cost, read through a
 *  shadow region or straight from real space. */
struct GatherRun
{
    Cycle cycles = 0;
    std::uint64_t simTicks = 0;
    std::uint64_t bcTicks = 0;
    std::vector<Word> words;
};

GatherRun
strideGathers(bool shadowed, ClockingMode mode)
{
    constexpr WordAddr kShadowBase = 1 << 20, kRealBase = 5000;
    PvaUnit inner("pva", SystemConfig{});
    ShadowMemorySystem shadow("shadow", inner);
    shadow.mapShadow({kShadowBase, 16 * 32, kRealBase, 19});
    MemorySystem &sys = shadowed ? static_cast<MemorySystem &>(shadow)
                                 : inner;
    std::vector<VectorCommand> cmds(16);
    for (std::uint32_t i = 0; i < 16; ++i) {
        cmds[i].base = shadowed ? kShadowBase + 32 * i
                                : kRealBase + 19 * 32 * i;
        cmds[i].stride = shadowed ? 1 : 19;
        cmds[i].length = 32;
    }
    Simulation sim(sys, mode);
    GatherRun r;
    r.words = runCommands(sys, sim, cmds, 1000000);
    r.cycles = sim.now();
    r.simTicks = sim.simTicks();
    r.bcTicks = inner.stats().scalar("sim.bcTicks");
    return r;
}

TEST(ShadowRegion, ForwardsTheClockToTheWrappedSystem)
{
    // The shadow adds no work of its own: under either clocking a
    // wrapped run processes exactly the cycles and controller ticks
    // of the same gathers issued in real space, so event clocking
    // skips the wrapped system's idle cycles and exhaustive clocking
    // ticks every controller every cycle.
    GatherRun event, exhaustive;
    for (ClockingMode mode :
         {ClockingMode::Event, ClockingMode::Exhaustive}) {
        SCOPED_TRACE(clockingModeName(mode));
        const GatherRun bare = strideGathers(false, mode);
        const GatherRun wrapped = strideGathers(true, mode);
        EXPECT_EQ(wrapped.words, bare.words);
        EXPECT_EQ(wrapped.cycles, bare.cycles);
        EXPECT_EQ(wrapped.simTicks, bare.simTicks);
        EXPECT_EQ(wrapped.bcTicks, bare.bcTicks);
        (mode == ClockingMode::Event ? event : exhaustive) = wrapped;
    }
    EXPECT_EQ(event.cycles, exhaustive.cycles);
    EXPECT_LT(event.simTicks, event.cycles);
    EXPECT_EQ(exhaustive.bcTicks, exhaustive.cycles * 16);
}

TEST(CacheWithShadow, ShadowPathReachesFullUtilization)
{
    PvaUnit inner("pva", SystemConfig{});
    ShadowMemorySystem shadow("shadow", inner);
    shadow.mapShadow({1 << 20, 512, 7777, 32});
    Simulation sim(shadow);
    CacheConfig cfg;
    cfg.sets = 4;
    cfg.ways = 2;
    L2Cache cache(cfg, shadow, sim);

    std::uint64_t sum = 0;
    for (std::uint32_t i = 0; i < 512; ++i)
        sum += cache.read((1 << 20) + i);
    EXPECT_DOUBLE_EQ(cache.busUtilization(), 1.0);
    EXPECT_EQ(cache.statMisses.value(), 512u / 32);
    (void)sum;
}

} // anonymous namespace
} // namespace pva
