/**
 * @file
 * Stat conservation laws of a PVA memory system: identities between
 * counters that different components keep, which every drained run
 * must satisfy. With transactions = frontend.reads + frontend.writes:
 *
 *  - bus.requestCycles = 2 x transactions (VEC_READ + STAGE_READ, or
 *    STAGE_WRITE + VEC_WRITE);
 *  - bus.dataCycles = lineWords/2 x transactions;
 *  - sum of bcN.commandsSeen = banks x transactions (every controller
 *    snoops every broadcast, hit or miss);
 *  - sum of bcN.commandsHit = sum over the commands of the banks that
 *    hold one of their elements (fault-free runs: an injected FirstHit
 *    corruption may drop a hit);
 *  - the frontend.readLatency / writeLatency sample counts equal
 *    frontend.reads / writes;
 *  - sum of bcN.elements = sum of the commands' lengths (fault-free
 *    runs), and on PVA SDRAM also = sum of devN.reads + devN.writes
 *    (PVA SRAM registers no devN.* counters);
 *  - each bcN.elements = the commands' elements whose bank
 *    (Geometry::bankOf) is N, counted by brute force (fault-free
 *    runs): FirstHit/NextHit per bank, independently of the PLA;
 *  - that brute-force count of bank N = its closed form, which takes
 *    1 + (L - 1 - FirstHit) / NextHit elements of each word-interleaved
 *    stride command that hits it (Theorems 4.3/4.4: firstHitWord,
 *    nextHitWord) and counts every other command by brute force: the
 *    theorems checked on every command a suite runs, independently
 *    of the PLA the controllers use.
 *
 * and bounds that each component's counters must respect, over a run
 * of `cycles` cycles:
 *
 *  - bus.requestCycles + bus.dataCycles <= cycles: the vector bus
 *    carries one request or one data slot per cycle, and a STAGE_READ
 *    or STAGE_WRITE reserves its data cycles (VectorBus::drive);
 *  - per device, activates + reads + writes <= cycles: one command
 *    per cycle (precharges are left out: they count auto-precharges,
 *    which take no command slot);
 *  - per device, activates >= precharges (explicit and automatic), and
 *    on a device that never refreshed, activates - precharges <= its
 *    row slots (a refresh closes rows without counting a precharge);
 *    rowHitAccesses <= reads + writes;
 *  - per controller, elements <= cycles: a bank moves one element per
 *    cycle (the bank floor; on PVA SRAM, which registers no device
 *    counts, no other bound implies it);
 *  - per controller, vcFullCycles <= cycles, vcOccupancy <= cycles x
 *    vectorContexts and fifoOccupancy <= cycles x fifoEntries;
 *  - frontend.ctxFullCycles <= cycles and frontend.ctxOccupancy <=
 *    cycles x transactions.
 *
 * A broken law moves no cycle count, so no golden sees it: a front
 * end that stops crediting the controllers it does not call changes
 * only commandsSeen.
 */

#ifndef PVA_TESTS_STAT_LAWS_HH
#define PVA_TESTS_STAT_LAWS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/firsthit.hh"
#include "core/system_config.hh"
#include "core/vector_command.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace pva::test
{

/** The hit-set size of @p cmd by brute force: the distinct banks
 *  DecodeBank() gives its elements. */
inline std::uint64_t
bruteForceHitBanks(const Geometry &geo, const VectorCommand &cmd)
{
    std::vector<bool> hit(geo.banks(), false);
    std::uint64_t n = 0;
    for (std::uint32_t i = 0; i < cmd.length; ++i) {
        unsigned b = geo.bankOf(cmd.element(i));
        if (!hit[b]) {
            hit[b] = true;
            ++n;
        }
    }
    return n;
}

/** Theorems 4.3/4.4: the elements of word-interleaved stride command
 *  @p cmd in @p bank of 2^@p m banks, 1 + (L - 1 - FirstHit) / NextHit
 *  when FirstHit() finds one. */
inline std::uint64_t
closedFormBankElements(const VectorCommand &cmd, unsigned bank,
                       unsigned m)
{
    const FirstHit fh = firstHitWord(cmd, bank, m);
    if (!fh.hit)
        return 0;
    return 1 + (cmd.length - 1 - fh.index) / nextHitWord(cmd.stride, m);
}

/** Totals over the commands a run issued, counted without the
 *  system: what its controllers must have hit and moved. */
struct CommandTotals
{
    std::uint64_t hits = 0;     ///< Brute-force hit-set sizes
    std::uint64_t elements = 0; ///< Command lengths
    /** Elements per bank, by DecodeBank() of each element. */
    std::vector<std::uint64_t> bankElements;
    /** Elements per bank by closedFormBankElements() for
     *  word-interleaved stride commands, by DecodeBank() for the
     *  rest. */
    std::vector<std::uint64_t> closedFormElements;

    void
    add(const Geometry &geo, const VectorCommand &cmd)
    {
        hits += bruteForceHitBanks(geo, cmd);
        elements += cmd.length;
        std::vector<std::uint64_t> inBank(geo.banks(), 0);
        for (std::uint32_t i = 0; i < cmd.length; ++i)
            ++inBank[geo.bankOf(cmd.element(i))];
        const bool closedForm = geo.interleave() == 1 &&
                                cmd.mode == VectorCommand::Mode::Stride;
        bankElements.resize(geo.banks());
        closedFormElements.resize(geo.banks());
        for (unsigned b = 0; b < geo.banks(); ++b) {
            bankElements[b] += inBank[b];
            closedFormElements[b] +=
                closedForm ? closedFormBankElements(cmd, b, geo.bankBits())
                           : inBank[b];
        }
    }
};

/**
 * Check every law on @p stats, the StatSet of a PVA system built from
 * @p config and drained after @p cycles cycles. @p commands totals the
 * commands the system ran; pass nullopt under fault injection to skip
 * the laws that need it (an injected FirstHit corruption may drop a
 * hit or an element). A failure names each broken law, its component
 * and both its sides.
 */
inline ::testing::AssertionResult
statLawsHold(const StatSet &stats, const SystemConfig &config,
             Cycle cycles, std::optional<CommandTotals> commands)
{
    std::string broken;
    auto law = [&](const std::string &name, std::uint64_t lhs,
                   std::uint64_t rhs) {
        if (lhs != rhs) {
            broken += csprintf("\n  %s: %llu != %llu", name.c_str(),
                               static_cast<unsigned long long>(lhs),
                               static_cast<unsigned long long>(rhs));
        }
    };
    auto bound = [&](const std::string &component, const char *name,
                     std::uint64_t lhs, std::uint64_t rhs) {
        if (lhs > rhs) {
            broken += csprintf("\n  %s: %s: %llu > %llu",
                               component.c_str(), name,
                               static_cast<unsigned long long>(lhs),
                               static_cast<unsigned long long>(rhs));
        }
    };
    const std::uint64_t reads = stats.scalar("frontend.reads");
    const std::uint64_t writes = stats.scalar("frontend.writes");
    const std::uint64_t txns = reads + writes;
    const unsigned banks = config.geometry.banks();
    std::uint64_t seen = 0;
    std::uint64_t hit = 0;
    std::uint64_t elements = 0;
    std::uint64_t accesses = 0;
    const bool sdram = stats.hasScalar("dev0.reads");
    const std::uint64_t slots =
        config.backendPolicy().slotCount(config.geometry.internalBanks());
    for (unsigned b = 0; b < banks; ++b) {
        const std::string bc = csprintf("bc%u", b);
        auto bcStat = [&](const char *name) {
            return stats.scalar(bc + "." + name);
        };
        seen += bcStat("commandsSeen");
        hit += bcStat("commandsHit");
        elements += bcStat("elements");
        if (commands) {
            // Both counts are empty until a command is added.
            const bool any = b < commands->bankElements.size();
            const std::uint64_t inBank =
                any ? commands->bankElements[b] : 0;
            law(bc + ".elements = brute-force elements in its bank",
                bcStat("elements"), inBank);
            law(csprintf("bank %u: closed-form elements (Theorems "
                         "4.3/4.4) = brute-force elements", b),
                any ? commands->closedFormElements[b] : 0, inBank);
        }
        bound(bc, "elements <= cycles (bank floor)", bcStat("elements"),
              cycles);
        bound(bc, "vcFullCycles <= cycles", bcStat("vcFullCycles"),
              cycles);
        bound(bc, "vcOccupancy <= cycles x vectorContexts",
              bcStat("vcOccupancy"), cycles * config.bc.vectorContexts);
        bound(bc, "fifoOccupancy <= cycles x fifoEntries",
              bcStat("fifoOccupancy"), cycles * config.bc.fifoEntries);
        if (!sdram)
            continue;
        const std::string dev = csprintf("dev%u", b);
        auto devStat = [&](const char *name) {
            return stats.scalar(dev + "." + name);
        };
        const std::uint64_t activates = devStat("activates");
        const std::uint64_t precharges = devStat("precharges");
        const std::uint64_t devAccesses =
            devStat("reads") + devStat("writes");
        accesses += devAccesses;
        bound(dev, "activates + reads + writes <= cycles",
              activates + devAccesses, cycles);
        bound(dev, "precharges <= activates", precharges, activates);
        if (precharges <= activates &&
            devStat("refreshes") + devStat("injectedRefreshes") == 0) {
            bound(dev, "activates - precharges <= row slots",
                  activates - precharges, slots);
        }
        bound(dev, "rowHitAccesses <= reads + writes",
              devStat("rowHitAccesses"), devAccesses);
    }
    bound("bus", "requestCycles + dataCycles <= cycles",
          stats.scalar("bus.requestCycles") +
              stats.scalar("bus.dataCycles"),
          cycles);
    bound("frontend", "ctxFullCycles <= cycles",
          stats.scalar("frontend.ctxFullCycles"), cycles);
    bound("frontend", "ctxOccupancy <= cycles x transactions",
          stats.scalar("frontend.ctxOccupancy"),
          cycles * config.bc.transactions);

    law("bus.requestCycles = 2 x transactions",
        stats.scalar("bus.requestCycles"), 2 * txns);
    law("bus.dataCycles = lineWords/2 x transactions",
        stats.scalar("bus.dataCycles"), config.bc.lineWords / 2 * txns);
    law("sum bcN.commandsSeen = banks x transactions", seen, banks * txns);
    if (commands) {
        law("sum bcN.commandsHit = brute-force hit-set total", hit,
            commands->hits);
        law("sum bcN.elements = sum of command lengths", elements,
            commands->elements);
        if (sdram) {
            law("sum bcN.elements = sum devN.reads + devN.writes",
                elements, accesses);
        }
    }
    law("frontend.readLatency samples = frontend.reads",
        stats.distribution("frontend.readLatency").samples(), reads);
    law("frontend.writeLatency samples = frontend.writes",
        stats.distribution("frontend.writeLatency").samples(), writes);

    if (broken.empty())
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << "broken stat laws:" << broken;
}

} // namespace pva::test

#endif // PVA_TESTS_STAT_LAWS_HH
