/**
 * @file
 * Vector-indirect gather (the chapter 7 two-phase extension) on a
 * sparse-matrix workload: gather the values of one CSR row's column
 * indices from a dense vector — the access pattern of sparse
 * matrix-vector multiplication.
 */

#include <cstdio>
#include <vector>

#include "core/indirect.hh"
#include "core/pva_unit.hh"
#include "sim/random.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

using namespace pva;

int
main()
{
    PvaUnit sys("pva", SystemConfig{});
    Simulation sim(sys);

    constexpr WordAddr kIndexBase = 1 << 16; ///< CSR column indices
    constexpr WordAddr kDenseBase = 1 << 18; ///< The dense x vector
    constexpr std::uint32_t kNnz = 256;      ///< Nonzeros in the row

    // A sparse row: 256 strictly increasing random column indices into
    // a 64k dense vector.
    Random rng(7);
    std::vector<WordAddr> cols;
    WordAddr col = 0;
    for (std::uint32_t i = 0; i < kNnz; ++i) {
        col += 1 + rng.below(200);
        cols.push_back(col);
        sys.memory().write(kIndexBase + i, static_cast<Word>(col));
    }
    for (WordAddr c : cols)
        sys.memory().write(kDenseBase + c, static_cast<Word>(c * 13 + 1));

    // Phase 1 loads the indices; phase 2 broadcasts them so each bank
    // controller bit-mask selects and gathers its elements in parallel.
    IndirectRunResult r =
        runIndirectGather(sys, sim, kIndexBase, kNnz, kDenseBase);

    for (std::uint32_t i = 0; i < kNnz; ++i) {
        if (r.data[i] != static_cast<Word>(cols[i] * 13 + 1))
            fatal("gather mismatch at nnz %u", i);
    }

    std::printf("two-phase indirect gather of %u sparse elements:\n",
                kNnz);
    std::printf("  total %llu cycles (%.2f cycles/element), verified\n",
                static_cast<unsigned long long>(r.cycles),
                static_cast<double>(r.cycles) / kNnz);
    return 0;
}
