/**
 * @file
 * FFT bit-reversal reordering through the memory controller (the
 * chapter 7 extension). Gathers a 4096-word array in bit-reversed order
 * — a pattern with pathological cache behaviour — and verifies the
 * permutation on the PVA and on the cache-line baseline, comparing their
 * cycle counts.
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

/** Gather the array in bit-reversed order on @p sys and verify the
 *  permutation; returns the cycles taken. */
Cycle
bitReversedGather(MemorySystem &sys)
{
    Simulation sim(sys);
    BitReversalResult r = runBitReversedGather(sys, sim, kBase, kCount);
    const unsigned bits = log2Exact(kCount);
    for (std::uint32_t i = 0; i < kCount; ++i) {
        if (r.data[i] != bitReverse(i, bits))
            fatal("%s: bad permutation at %u", sys.name().c_str(), i);
    }
    return r.cycles;
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

    Cycle t_pva = bitReversedGather(pva);
    Cycle t_cl = bitReversedGather(cacheline);

    std::printf("bit-reversed gather of %u words (%u commands):\n",
                kCount, kCount / 32);
    std::printf("  PVA SDRAM:               %9llu cycles\n",
                static_cast<unsigned long long>(t_pva));
    std::printf("  cache-line serial SDRAM: %9llu cycles\n",
                static_cast<unsigned long long>(t_cl));
    std::printf("  permutation verified; speedup %.1fx\n",
                static_cast<double>(t_cl) / t_pva);
    return 0;
}
