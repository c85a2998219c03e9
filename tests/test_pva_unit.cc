/**
 * @file
 * PVA unit integration tests: full read/write transactions through the
 * bus protocol, transaction-limit behaviour, concurrent mixed traffic,
 * the SRAM variant, and a randomized scatter/gather fuzz.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>

#include "core/pva_unit.hh"
#include "expect_sim_error.hh"
#include "kernels/sweep.hh"
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
    Simulation sim(sys);

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

    Simulation sim(sys);
    auto done = collectN(sys, sim, 8);
    EXPECT_EQ(done.size(), 8u);
    EXPECT_FALSE(sys.busy());
    EXPECT_TRUE(sys.trySubmit(readCmd(0, 1), 99, nullptr));
}

TEST(PvaUnit, ConcurrentReadsReturnDistinctCorrectData)
{
    PvaUnit sys("pva", SystemConfig{});
    Simulation sim(sys);

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
    Simulation sim(sys);
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
    Simulation sim(sys);

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
        Simulation sim(sdram);
        sdram.trySubmit(c, 0, nullptr);
        auto done = collectN(sdram, sim, 1);
        t_sdram = sim.now();
        d_sdram = done.at(0).data;
    }
    {
        Simulation sim(sram);
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
    Simulation sim(sys);
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
    Simulation sim(sys);
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

/**
 * A passive observer wrapped around the unit: it ticks the unit, then
 * looks. It asks for no wake of its own, so under event clocking it
 * sees exactly the cycles the unit processes, which include every
 * cycle in which a bank controller ticks or the front end acts. It
 * records when each watched controller first reports its share of
 * transaction @c txn complete and the first cycle whose tick grew the
 * bus's data cycles (the STAGE_READ of a lone read), and it takes the
 * unit's completions, with their data, in the cycle they are handed
 * over.
 */
class LineProbe final : public MemorySystem
{
  public:
    LineProbe(PvaUnit &unit_, std::uint8_t txn_)
        : MemorySystem("probe"), unit(unit_), txn(txn_)
    {
    }

    void
    tick(Cycle now) override
    {
        unit.tick(now);
        for (unsigned b : watched) {
            if (!shareDoneAt.count(b) &&
                unit.bankController(b).txnComplete(txn))
                shareDoneAt[b] = now;
        }
        const std::uint64_t data_cycles =
            unit.bus().statDataCycles.value();
        if (stageReadAt == kNeverCycle && data_cycles > lastDataCycles)
            stageReadAt = now;
        lastDataCycles = data_cycles;
        for (Completion &c : unit.drainCompletions()) {
            finished.emplace_back(c.tag, now);
            data[c.tag] = std::move(c.data);
        }
    }

    Cycle
    nextWakeAfter(Cycle now) const override
    {
        return unit.nextWakeAfter(now);
    }
    void onCycleBegin(Cycle now) override { unit.onCycleBegin(now); }
    void setClocking(ClockingMode mode) override { unit.setClocking(mode); }

    bool
    trySubmit(const VectorCommand &cmd, std::uint64_t tag,
              const std::vector<Word> *write_data) override
    {
        return unit.trySubmit(cmd, tag, write_data);
    }
    void
    drainCompletionsInto(std::vector<Completion> &out) override
    {
        unit.drainCompletionsInto(out);
    }
    bool busy() const override { return unit.busy(); }
    SparseMemory &memory() override { return unit.memory(); }
    StatSet &stats() override { return unit.stats(); }

    std::vector<unsigned> watched;          ///< Bank controllers to watch
    std::map<unsigned, Cycle> shareDoneAt;  ///< Per watched controller
    Cycle stageReadAt = kNeverCycle;
    std::vector<std::pair<std::uint64_t, Cycle>> finished; ///< (tag, cycle)
    std::map<std::uint64_t, std::vector<Word>> data; ///< Latest, by tag

  private:
    PvaUnit &unit;
    std::uint8_t txn;
    std::uint64_t lastDataCycles = 0;
};

/** The banks holding some element of @p cmd. */
std::vector<unsigned>
banksOf(const PvaUnit &unit, const VectorCommand &cmd)
{
    std::vector<unsigned> banks;
    for (std::uint32_t i = 0; i < cmd.length; ++i) {
        unsigned b = unit.config().geometry.bankOf(cmd.element(i));
        if (std::find(banks.begin(), banks.end(), b) == banks.end())
            banks.push_back(b);
    }
    return banks;
}

/**
 * Run until @p probe has taken @p n completions. An event-clocked run
 * with no pending wake steps one cycle at a time, which would hide a
 * wake the unit failed to ask for; the external wake far ahead makes
 * such a run jump past the missed cycle instead.
 */
void
runUntilFinished(Simulation &sim, const LineProbe &probe, std::size_t n)
{
    sim.requestWake(sim.now() + 100000);
    sim.runUntil([&] { return probe.finished.size() >= n; }, 1000000);
}

VectorCommand
writeCmd(WordAddr base, std::uint32_t stride, std::uint32_t len)
{
    VectorCommand c = readCmd(base, stride, len);
    c.isRead = false;
    return c;
}

/** The wired-OR transaction-complete line, under both clockings. */
class WiredOr : public ::testing::TestWithParam<ClockingMode>
{
};

TEST_P(WiredOr, GatheringEndsTheCycleAfterTheLastShare)
{
    PvaUnit sys("pva", SystemConfig{});
    LineProbe probe(sys, 0);
    Simulation sim(probe, GetParam());

    // Stride 8 over 31 elements: two banks hold 16 and 15 elements,
    // so their shares complete in different cycles.
    const VectorCommand cmd = readCmd(3, 8, 31);
    probe.watched = banksOf(sys, cmd);
    ASSERT_EQ(probe.watched.size(), 2u);
    ASSERT_TRUE(sys.trySubmit(cmd, 0, nullptr));
    runUntilFinished(sim, probe, 1);

    ASSERT_EQ(probe.shareDoneAt.size(), 2u);
    const Cycle first = std::min(probe.shareDoneAt.begin()->second,
                                 probe.shareDoneAt.rbegin()->second);
    const Cycle last = std::max(probe.shareDoneAt.begin()->second,
                                probe.shareDoneAt.rbegin()->second);
    ASSERT_LT(first, last) << "the shares must complete apart";
    // The line deasserts with the last share; the idle bus then takes
    // the STAGE_READ in the next cycle.
    EXPECT_EQ(probe.stageReadAt, last + 1);
}

TEST_P(WiredOr, SameCycleCompletionsFinishInSlotOrder)
{
    PvaUnit sys("pva", SystemConfig{});
    LineProbe probe(sys, 0);
    Simulation sim(probe, GetParam());
    const std::vector<Word> payload(32, 7);

    // A one-element read takes slot 0 and a 32-element single-bank
    // write (bank 0) slot 1. Once the read frees slot 0, a 14-element
    // write to bank 5 takes it and commits in the same cycle as the
    // long write. Slot order puts the younger write first; submission
    // order and bank order would not.
    ASSERT_TRUE(sys.trySubmit(readCmd(0, 1, 1), 0, nullptr));
    ASSERT_TRUE(sys.trySubmit(writeCmd(4096, 16, 32), 1, &payload));
    runUntilFinished(sim, probe, 1);
    ASSERT_TRUE(sys.trySubmit(writeCmd(8192 + 5, 16, 14), 2, &payload));
    runUntilFinished(sim, probe, 3);

    ASSERT_EQ(probe.finished[1].second, probe.finished[2].second)
        << "both writes must complete in one cycle";
    EXPECT_EQ(probe.finished[1].first, 2u) << "slot 0 first";
    EXPECT_EQ(probe.finished[2].first, 1u);
}

TEST_P(WiredOr, ZeroHitTransactionCompletes)
{
    // A corrupted FirstHit on a one-element vector drops the only
    // hit: no controller takes part, so the line is deasserted at the
    // broadcast and the STAGE_READ follows in the next cycle.
    SystemConfig config;
    config.faults.corruptFirstHitRate = 1.0;
    PvaUnit sys("pva", config);
    LineProbe probe(sys, 0);
    Simulation sim(probe, GetParam());

    ASSERT_TRUE(sys.trySubmit(readCmd(77, 1, 1), 0, nullptr));
    runUntilFinished(sim, probe, 1);
    std::uint64_t corrupted = 0;
    for (unsigned b = 0; b < sys.config().geometry.banks(); ++b)
        corrupted += sys.bankController(b).statCorruptedFirstHits.value();
    EXPECT_EQ(corrupted, 1u);
    EXPECT_EQ(sys.stats().scalar("bus.requestCycles"), 2u)
        << "VEC_READ + STAGE_READ";
    EXPECT_EQ(probe.stageReadAt, 1u) << "VEC_READ at 0, STAGE_READ at 1";
    EXPECT_FALSE(sys.busy());
}

TEST_P(WiredOr, RefetchedDropCompletesOnce)
{
    // Dropped read returns leave a share incomplete until recovery
    // re-fetches the lost words; each transaction must then complete
    // exactly once, with the right data.
    SystemConfig config;
    config.faults.dropTransferRate = 0.2;
    PvaUnit sys("pva", config);
    LineProbe probe(sys, 0);
    Simulation sim(probe, GetParam());

    std::vector<VectorCommand> cmds;
    for (std::uint64_t t = 0; t < 8; ++t) {
        cmds.push_back(readCmd(100 + t * 4099, 1 + 2 * t));
        ASSERT_TRUE(sys.trySubmit(cmds.back(), t, nullptr));
    }
    runUntilFinished(sim, probe, cmds.size());
    for (unsigned i = 0; i < 500; ++i)
        sim.step();

    std::uint64_t dropped = 0, recoveries = 0;
    for (unsigned b = 0; b < sys.config().geometry.banks(); ++b) {
        dropped += sys.bankController(b).statDroppedReturns.value();
        recoveries += sys.bankController(b).statRecoveries.value();
    }
    ASSERT_GT(dropped, 0u);
    ASSERT_GT(recoveries, 0u);
    ASSERT_EQ(probe.finished.size(), cmds.size());
    std::map<std::uint64_t, unsigned> times;
    for (const auto &[tag, cycle] : probe.finished)
        ++times[tag];
    for (std::uint64_t t = 0; t < cmds.size(); ++t)
        EXPECT_EQ(times[t], 1u) << "tag " << t;
    EXPECT_FALSE(sys.busy());
}

TEST_P(WiredOr, TheWidestUnitCompletesEverySlotOnce)
{
    // 255 transactions, the most SystemConfig allows, submitted at
    // once into an empty unit take slots 0..254 in tag order:
    // one-element reads, a one-element write in every 32nd slot, and
    // in slot 254 the 32-element bank-0 write of
    // SameCycleCompletionsFinishInSlotOrder. Once slot 0 frees, that
    // test's 14-element bank-5 write takes it, and the two commit in
    // one cycle. Each transaction must complete exactly once with the
    // right data, and slot 0 before slot 254.
    SystemConfig config;
    config.bc.transactions = 255;
    PvaUnit sys("pva", config);
    LineProbe probe(sys, 0);
    Simulation sim(probe, GetParam());

    const WordAddr write_base = WordAddr{1} << 20;
    std::vector<VectorCommand> cmds; // indexed by tag
    std::vector<std::vector<Word>> payloads;
    auto submit = [&](const VectorCommand &cmd) {
        const std::uint64_t tag = cmds.size();
        cmds.push_back(cmd);
        payloads.emplace_back(cmd.isRead ? 0 : cmd.length,
                              0xab000000 + Word(tag));
        return sys.trySubmit(cmd, tag,
                             cmd.isRead ? nullptr : &payloads.back());
    };
    for (std::uint64_t t = 0; t < 254; ++t) {
        ASSERT_TRUE(submit(t % 32 == 31
                               ? writeCmd(write_base + t * 37, 1, 1)
                               : readCmd(t * 37, 1, 1)))
            << t;
    }
    ASSERT_TRUE(submit(writeCmd(write_base + 65536, 16, 32)));
    EXPECT_FALSE(sys.trySubmit(readCmd(0, 1, 1), 999, nullptr))
        << "all 255 slots are taken";
    runUntilFinished(sim, probe, 1);
    ASSERT_EQ(probe.finished[0].first, 0u) << "slot 0 frees first";
    ASSERT_TRUE(submit(writeCmd(write_base + 131072 + 5, 16, 14)));
    runUntilFinished(sim, probe, cmds.size());
    for (unsigned i = 0; i < 500; ++i)
        sim.step();

    ASSERT_EQ(probe.finished.size(), cmds.size());
    std::map<std::uint64_t, unsigned> times;
    for (const auto &[tag, cycle] : probe.finished)
        ++times[tag];
    for (std::uint64_t t = 0; t < cmds.size(); ++t) {
        EXPECT_EQ(times[t], 1u) << "tag " << t;
        if (!cmds[t].isRead)
            continue;
        EXPECT_EQ(probe.data[t],
                  std::vector<Word>{
                      SparseMemory::backgroundPattern(cmds[t].base)})
            << "tag " << t;
    }
    const auto [first, first_at] = probe.finished[cmds.size() - 2];
    const auto [second, second_at] = probe.finished[cmds.size() - 1];
    ASSERT_EQ(first_at, second_at)
        << "both long writes must complete in one cycle";
    EXPECT_EQ(first, 255u) << "slot 0 first";
    EXPECT_EQ(second, 254u);

    // Read every write back through the freed slots.
    std::size_t read_backs = 0;
    for (std::uint64_t t = 0; t < cmds.size(); ++t) {
        if (cmds[t].isRead)
            continue;
        VectorCommand back = cmds[t];
        back.isRead = true;
        ASSERT_TRUE(sys.trySubmit(back, 1000 + t, nullptr));
        ++read_backs;
    }
    runUntilFinished(sim, probe, cmds.size() + read_backs);
    for (std::uint64_t t = 0; t < cmds.size(); ++t) {
        if (!cmds[t].isRead) {
            EXPECT_EQ(probe.data[1000 + t], payloads[t]) << "tag " << t;
        }
    }
    EXPECT_FALSE(sys.busy());
}

INSTANTIATE_TEST_SUITE_P(BothClockings, WiredOr,
                         ::testing::Values(ClockingMode::Event,
                                           ClockingMode::Exhaustive));

/** Line slots are 8-bit, so 256 words is the longest line there is. */
class LongestLine : public ::testing::TestWithParam<ClockingMode>
{
};

TEST_P(LongestLine, GathersEverySlotWithTheCheckerOn)
{
    SystemConfig config;
    config.bc.lineWords = BcConfig::kMaxLineWords;
    config.timingCheck = true;
    config.clocking = GetParam();
    std::unique_ptr<MemorySystem> sys =
        makeSystem(SystemKind::PvaSdram, config);
    Simulation sim(*sys, GetParam());

    const std::uint32_t len = BcConfig::kMaxLineWords;
    std::vector<Word> payload(len);
    for (std::uint32_t i = 0; i < len; ++i)
        payload[i] = 0x5100 + i;
    const VectorCommand wr = writeCmd(1 << 16, 3, len);
    ASSERT_TRUE(sys->trySubmit(wr, 0, &payload));
    ASSERT_TRUE(sys->trySubmit(readCmd(4096, 1, len), 1, nullptr));
    VectorCommand back = wr;
    back.isRead = true;
    ASSERT_TRUE(sys->trySubmit(back, 2, nullptr));
    auto done = collectN(*sys, sim, 3);

    ASSERT_EQ(done.size(), 3u);
    const std::vector<Word> &line = done.at(1).data;
    ASSERT_EQ(line.size(), len);
    for (std::uint32_t i = 0; i < len; ++i)
        EXPECT_EQ(line[i], SparseMemory::backgroundPattern(4096 + i))
            << "slot " << i;
    EXPECT_EQ(done.at(2).data, payload);
}

INSTANTIATE_TEST_SUITE_P(BothClockings, LongestLine,
                         ::testing::Values(ClockingMode::Event,
                                           ClockingMode::Exhaustive));

TEST(LongestLine, A512WordLineIsRefused)
{
    // Slot 256 would alias slot 0: every word of a stride-1 read would
    // land in the wrong place, silently unless the checker is on.
    SystemConfig config;
    config.bc.lineWords = 512;
    test::expectSimError(
        [&] { makeSystem(SystemKind::PvaSdram, config); },
        SimErrorKind::Config, "line slots are 8-bit");
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
