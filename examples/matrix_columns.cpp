/**
 * @file
 * The paper's motivating scenario: walking a row-major matrix by
 * columns. A column access is a base-stride vector with stride equal to
 * the row length; a conventional cache-line memory system transfers a
 * whole 128-byte line for every 4-byte element, while the PVA gathers
 * just the column.
 *
 * Sums each column of a 256x256 row-major matrix on the PVA system and
 * on the cache-line baseline and compares cycle counts.
 */

#include <cstdio>
#include <vector>

#include "baselines/serial_system.hh"
#include "core/command_unit.hh"
#include "core/pva_unit.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

using namespace pva;

namespace
{

constexpr unsigned kDim = 256;          ///< 256x256 words
constexpr WordAddr kMatrixBase = 1 << 16;

/** Sum every column via 32-element vector reads; returns cycles. */
Cycle
sumColumns(MemorySystem &sys, std::uint64_t *checksum)
{
    std::vector<VectorCommand> cmds;
    for (unsigned col = 0; col < kDim; ++col) {
        for (unsigned chunk = 0; chunk < kDim / 32; ++chunk) {
            VectorCommand c;
            c.base = kMatrixBase + col +
                     static_cast<WordAddr>(chunk) * 32 * kDim;
            c.stride = kDim; // row length: column walk
            c.length = 32;
            c.isRead = true;
            cmds.push_back(c);
        }
    }

    Simulation sim(sys);
    std::uint64_t sum = 0;
    for (Word w : runCommands(sys, sim, cmds, 100000000))
        sum += w;
    *checksum = sum;
    return sim.now();
}

} // anonymous namespace

int
main()
{
    PvaUnit pva("pva", SystemConfig{});
    SerialSystem cacheline("cacheline", SerialSystem::Kind::CacheLine);

    // Same matrix contents in both systems.
    for (unsigned r = 0; r < kDim; ++r) {
        for (unsigned c = 0; c < kDim; ++c) {
            Word v = r * 31 + c * 7;
            pva.memory().write(kMatrixBase + r * kDim + c, v);
            cacheline.memory().write(kMatrixBase + r * kDim + c, v);
        }
    }

    std::uint64_t sum_pva = 0, sum_cl = 0;
    Cycle t_pva = sumColumns(pva, &sum_pva);
    Cycle t_cl = sumColumns(cacheline, &sum_cl);

    if (sum_pva != sum_cl)
        fatal("checksum mismatch: %llu vs %llu",
              static_cast<unsigned long long>(sum_pva),
              static_cast<unsigned long long>(sum_cl));

    std::printf("column-major walk of a %ux%u row-major matrix "
                "(stride %u):\n", kDim, kDim, kDim);
    std::printf("  PVA SDRAM:               %9llu cycles\n",
                static_cast<unsigned long long>(t_pva));
    std::printf("  cache-line serial SDRAM: %9llu cycles\n",
                static_cast<unsigned long long>(t_cl));
    std::printf("  speedup: %.1fx (checksum %llu)\n",
                static_cast<double>(t_cl) / t_pva,
                static_cast<unsigned long long>(sum_pva));
    return 0;
}
