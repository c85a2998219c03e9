/**
 * @file
 * Heap-allocation regression tests for the saturated tick path and
 * for PVA system construction.
 *
 * The hot-path engineering contract (docs/PERFORMANCE.md) is that the
 * steady-state tick loop performs no heap allocation: subcommand
 * FIFOs and vector-context queues live in capacity-preserving
 * RingDeques, staging lines come from the unit's line pool, and the
 * completion hand-off reuses drained buffers. This test warms a PVA
 * system with one full stride-16 run (pools, queues and latency
 * histograms grow to their steady-state capacity), then runs a second
 * full kernel on the same simulation clock and asserts the count of
 * global operator new calls (alloc_counter.hh) did not move between
 * the start of the second run and its last completion. A second test
 * does the same for a batch of Indirect gathers, whose index lists
 * must not be copied per bus request or per bank controller, and a
 * third bounds the allocations one makeSystem() call makes.
 *
 * The counting replacements serve the whole test binary; the other
 * tests are unaffected beyond the one relaxed increment.
 */

#include <gtest/gtest.h>

#include "alloc_counter.hh"
#include "core/command_unit.hh"
#include "core/indirect.hh"
#include "kernels/runner.hh"
#include "kernels/sweep.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"

namespace pva
{
namespace
{

TEST(AllocFree, SaturatedTickPathAllocatesNothingAfterWarmup)
{
    SystemConfig config;
    auto sys = makeSystem(SystemKind::PvaSdram, config);

    const KernelSpec &spec = kernelSpec(KernelId::Copy);
    WorkloadConfig wl;
    wl.stride = 16;
    wl.elements = 4096;
    wl.lineWords = config.bc.lineWords;
    wl.streamBases = streamBases(alignmentPresets()[0],
                                 spec.numStreams, 16, wl.elements);

    // One simulation clock for both passes: the device's resource
    // timers hold absolute cycles, so restarting the clock would give
    // the second pass artificial head-of-run waits (and larger
    // latency-histogram samples than warmup provisioned for).
    Simulation sim(*sys, ClockingMode::Event);

    // Warmup: one full run grows every pool, queue, scratch buffer
    // and stat histogram to its steady-state capacity.
    {
        KernelTrace warm = buildTrace(spec, wl, sys->memory());
        VectorCommandUnit vcu(*sys, warm);
        vcu.run(sim, 50000000);
        ASSERT_EQ(verifyTrace(warm, sys->memory()), 0u);
    }

    // Second pass, with construction — trace build, command unit —
    // outside the counted window. Only the clocked region must be
    // allocation-free.
    KernelTrace trace = buildTrace(spec, wl, sys->memory());
    VectorCommandUnit vcu(*sys, trace);

    std::uint64_t before = test::allocationCount();
    vcu.run(sim, 50000000);
    std::uint64_t after = test::allocationCount();

    EXPECT_EQ(after - before, 0u)
        << "the saturated tick path heap-allocated "
        << (after - before) << " times after warmup";
    EXPECT_EQ(verifyTrace(trace, sys->memory()), 0u);
}

/** 200 32-element Indirect reads of target_base + indices[i] (see
 *  core/indirect.hh), with the indices drawn from @p seed. */
KernelTrace
indirectReads(WordAddr target_base, std::uint64_t seed)
{
    Random rng(seed);
    std::vector<WordAddr> indices(200 * 32);
    for (WordAddr &i : indices)
        i = rng.below(1 << 20);
    KernelTrace trace;
    for (VectorCommand &c :
         indirectPhase2(target_base, indices, 32, /*is_read=*/true))
        trace.ops.emplace_back().cmd = std::move(c);
    return trace;
}

TEST(AllocFree, IndirectGatherAllocatesNothingAfterWarmup)
{
    SystemConfig config;
    auto sys = makeSystem(SystemKind::PvaSdram, config);
    Simulation sim(*sys, ClockingMode::Event);
    const WordAddr target = WordAddr{1} << 22;

    // Warmup: one batch grows the bus latch's, the transaction slots'
    // and every controller's element lists to an index list's size.
    {
        KernelTrace warm = indirectReads(target, 1);
        VectorCommandUnit vcu(*sys, warm);
        vcu.run(sim, 10000000);
    }

    KernelTrace trace = indirectReads(target, 2);
    VectorCommandUnit vcu(*sys, trace);
    std::uint64_t before = test::allocationCount();
    vcu.run(sim, 10000000);
    std::uint64_t after = test::allocationCount();

    EXPECT_EQ(after - before, 0u)
        << "200 Indirect reads heap-allocated " << (after - before)
        << " times after warmup";
    for (std::size_t k = 0; k < trace.ops.size(); ++k) {
        const VectorCommand &c = trace.ops[k].cmd;
        ASSERT_EQ(vcu.readData()[k].size(), c.length);
        for (std::uint32_t i = 0; i < c.length; ++i) {
            ASSERT_EQ(vcu.readData()[k][i],
                      SparseMemory::backgroundPattern(c.element(i)))
                << "op " << k << " element " << i;
        }
    }
}

/** Heap allocations one makeSystem(@p kind) call makes, counted on a
 *  second build so one-time process state (the shared FirstHit PLA of
 *  the bank count) is already in place. */
std::uint64_t
constructionAllocations(SystemKind kind, const SystemConfig &config)
{
    (void)makeSystem(kind, config);
    const std::uint64_t before = test::allocationCount();
    auto sys = makeSystem(kind, config);
    const std::uint64_t after = test::allocationCount();
    return after - before;
}

// Construction builds what a run touches and nothing else: the stat
// registry's names wait for the first stats() call, and every bank
// controller reads its bank count's one shared FirstHit PLA. The
// bounds sit just above the measured counts (PVA SDRAM 287, PVA SRAM
// 159). Registering statistics eagerly adds about 780 allocations to
// the SDRAM system, and a PLA per controller adds 32.
TEST(AllocFree, PvaConstructionAllocatesOnlyWhatARunUses)
{
    const SystemConfig config;
    const std::uint64_t sdram =
        constructionAllocations(SystemKind::PvaSdram, config);
    const std::uint64_t sram =
        constructionAllocations(SystemKind::PvaSram, config);
    EXPECT_LE(sdram, 300u) << "PVA SDRAM construction allocated " << sdram
                           << " times";
    EXPECT_LE(sram, 170u) << "PVA SRAM construction allocated " << sram
                          << " times";
}

} // anonymous namespace
} // namespace pva
