/**
 * @file
 * FFT bit-reversal reordering through the memory controller (the
 * chapter 7 extension). Gathers a 4096-word array in bit-reversed order
 * — a pattern with pathological cache behaviour — and verifies the
 * permutation, comparing the PVA against the cache-line baseline.
 */

#include <cstdio>

#include "baselines/serial_system.hh"
#include "core/bit_reversal.hh"
#include "core/pva_unit.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

using namespace pva;

namespace
{

constexpr std::uint32_t kCount = 4096;
constexpr WordAddr kBase = 1 << 16;

Cycle
baselineBitReversal(SerialSystem &sys)
{
    Simulation sim;
    sim.add(&sys);
    auto cmds = bitReversalCommands(kBase, kCount, 32, true);
    std::size_t submitted = 0, completed = 0;
    sim.runUntil(
        [&] {
            while (submitted < cmds.size() &&
                   sys.trySubmit(cmds[submitted], submitted, nullptr))
                ++submitted;
            completed += sys.drainCompletions().size();
            return completed == cmds.size();
        },
        100000000);
    return sim.now();
}

} // anonymous namespace

int
main()
{
    PvaUnit pva("pva", SystemConfig{});
    SerialSystem cacheline("cacheline", SerialSystem::Kind::CacheLine);
    for (std::uint32_t i = 0; i < kCount; ++i) {
        pva.memory().write(kBase + i, i);
        cacheline.memory().write(kBase + i, i);
    }

    Simulation sim;
    sim.add(&pva);
    BitReversalResult r = runBitReversedGather(pva, sim, kBase, kCount);

    const unsigned bits = log2Exact(kCount);
    for (std::uint32_t i = 0; i < kCount; ++i) {
        if (r.data[i] != bitReverse(i, bits))
            fatal("bad permutation at %u", i);
    }

    Cycle t_cl = baselineBitReversal(cacheline);

    std::printf("bit-reversed gather of %u words (%u commands):\n",
                kCount, kCount / 32);
    std::printf("  PVA SDRAM:               %9llu cycles\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("  cache-line serial SDRAM: %9llu cycles\n",
                static_cast<unsigned long long>(t_cl));
    std::printf("  permutation verified; speedup %.1fx\n",
                static_cast<double>(t_cl) / r.cycles);
    return 0;
}
