/**
 * @file
 * The paper's chapter 6 evaluation from one run of the full grid
 * (4 systems x 8 kernels x 6 strides x 5 alignments, 1024-element
 * vectors): Figures 7 to 11, then the headline speedups.
 *
 *  - Figures 7-10 print, per (kernel, stride) cell, the cycle counts of
 *    the four memory systems with min/max over the five relative
 *    alignments, plus execution time normalized to the PVA SDRAM
 *    minimum — the same quantities annotated on the paper's bars.
 *    Figures 7/8 hold one block per kernel (rows are strides),
 *    Figures 9/10 one block per stride (rows are kernels).
 *  - Figure 11 is the vaxpy detail across strides and alignments:
 *    (a) PVA SDRAM, normalized to the leftmost bar (stride 1,
 *    alignment 0); (b) PVA SRAM, relative to the corresponding PVA
 *    SDRAM bar — the "how well does the scheduler hide DRAM
 *    overheads" measurement; the paper's claim is within ~15%.
 *  - The headline numbers, recomputed over the whole grid: "the PVA is
 *    able to load elements up to 32.8 times faster than a conventional
 *    memory system" (the cache-line interleaved serial system), "and
 *    3.3 times faster than a pipelined vector unit" (the gathering
 *    pipelined serial system), "without hurting normal cache line fill
 *    performance" (stride 1 parity), and PVA SDRAM within ~15% of PVA
 *    SRAM (section 6.3.1).
 *
 * The grid runs once on the SweepExecutor worker pool (--jobs N,
 * default all hardware threads) and is aggregated in issue order, so
 * the output is identical to a serial run. Any functional mismatch
 * aborts the run. The same grid as CSV is `pva_sim --sweep`.
 */

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <vector>

#include "bench_common.hh"

using namespace pva;

namespace
{

/** Position of @p value on one of the grid's axes. */
template <typename T>
std::size_t
axisIndex(const std::vector<T> &axis, T value)
{
    return static_cast<std::size_t>(
        std::find(axis.begin(), axis.end(), value) - axis.begin());
}

/** The chapter 6 grid's results, addressed by axis values. */
class Grid
{
  public:
    explicit Grid(std::vector<SweepPoint> grid_points)
        : points(std::move(grid_points))
    {
    }

    Cycle
    cycles(SystemKind sys, KernelId kernel, std::uint32_t stride,
           unsigned alignment) const
    {
        // chapter6Grid order: systems, then kernels, strides,
        // alignments.
        const std::size_t cell =
            (axisIndex(allSystems(), sys) * allKernels().size() +
             axisIndex(allKernels(), kernel)) *
                paperStrides().size() +
            axisIndex(paperStrides(), stride);
        return points[cell * alignmentPresets().size() + alignment]
            .cycles;
    }

    /** Min/max cycles over the five alignments. */
    MinMaxCycles
    minMax(SystemKind sys, KernelId kernel, std::uint32_t stride) const
    {
        MinMaxCycles mm{kNeverCycle, 0};
        for (unsigned a = 0; a < alignmentPresets().size(); ++a) {
            const Cycle c = cycles(sys, kernel, stride, a);
            mm.min = std::min(mm.min, c);
            mm.max = std::max(mm.max, c);
        }
        return mm;
    }

  private:
    std::vector<SweepPoint> points;
};

double
pct(Cycle value, Cycle base)
{
    return 100.0 * static_cast<double>(value) /
           static_cast<double>(base);
}

void
printCellHeader()
{
    std::printf("%-8s %-7s | %9s %9s | %9s %8s | %9s %8s | %9s %9s\n",
                "kernel", "stride", "pva.min", "pva.max", "cline",
                "norm%", "gather", "norm%", "sram.min", "sram.max");
}

void
printCellRow(const Grid &grid, KernelId kernel, std::uint32_t stride)
{
    const MinMaxCycles pva =
        grid.minMax(SystemKind::PvaSdram, kernel, stride);
    const Cycle cline =
        grid.minMax(SystemKind::CacheLine, kernel, stride).min;
    const Cycle gather =
        grid.minMax(SystemKind::Gathering, kernel, stride).min;
    const MinMaxCycles sram =
        grid.minMax(SystemKind::PvaSram, kernel, stride);
    std::printf("%-8s %-7u | %9llu %9llu | %9llu %7.0f%% | %9llu %7.0f%% "
                "| %9llu %9llu\n",
                kernelSpec(kernel).name.c_str(), stride,
                static_cast<unsigned long long>(pva.min),
                static_cast<unsigned long long>(pva.max),
                static_cast<unsigned long long>(cline),
                pct(cline, pva.min),
                static_cast<unsigned long long>(gather),
                pct(gather, pva.min),
                static_cast<unsigned long long>(sram.min),
                static_cast<unsigned long long>(sram.max));
}

/** Figure 7/8 layout: one block per kernel, rows are strides. */
void
printKernelsByStride(const Grid &grid,
                     std::initializer_list<KernelId> kernels)
{
    for (KernelId k : kernels) {
        std::printf("\n== %s: cycles vs stride (1024-element vectors, "
                    "min/max over %zu alignments) ==\n",
                    kernelSpec(k).name.c_str(), alignmentPresets().size());
        printCellHeader();
        for (std::uint32_t s : paperStrides())
            printCellRow(grid, k, s);
    }
}

/** Figure 9/10 layout: one block per stride, rows are kernels. */
void
printStridesFixed(const Grid &grid,
                  std::initializer_list<std::uint32_t> strides)
{
    for (std::uint32_t s : strides) {
        std::printf("\n== stride %u: cycles per kernel (normalized to "
                    "PVA SDRAM min) ==\n",
                    s);
        printCellHeader();
        for (KernelId k : allKernels())
            printCellRow(grid, k, s);
    }
}

void
printFigure11(const Grid &grid)
{
    const auto &strides = paperStrides();
    const auto &aligns = alignmentPresets();
    auto sdram = [&](std::uint32_t s, unsigned a) {
        return grid.cycles(SystemKind::PvaSdram, KernelId::Vaxpy, s, a);
    };
    auto sram = [&](std::uint32_t s, unsigned a) {
        return grid.cycles(SystemKind::PvaSram, KernelId::Vaxpy, s, a);
    };

    std::printf("Figure 11 (a): vaxpy on PVA SDRAM, cycles "
                "(normalized to stride 1 / %s)\n",
                aligns[0].name.c_str());
    std::printf("%-8s", "stride");
    for (const auto &al : aligns)
        std::printf(" %14s", al.name.c_str());
    std::printf("\n");
    double base = static_cast<double>(sdram(strides[0], 0));
    for (std::uint32_t s : strides) {
        std::printf("%-8u", s);
        for (unsigned a = 0; a < aligns.size(); ++a) {
            std::printf(" %7llu(%4.0f%%)",
                        static_cast<unsigned long long>(sdram(s, a)),
                        100.0 * sdram(s, a) / base);
        }
        std::printf("\n");
    }

    std::printf("\nFigure 11 (b): vaxpy on PVA SRAM, cycles "
                "(normalized to the corresponding SDRAM bar)\n");
    std::printf("%-8s", "stride");
    for (const auto &al : aligns)
        std::printf(" %14s", al.name.c_str());
    std::printf("\n");
    double worst = 0.0;
    for (std::uint32_t s : strides) {
        std::printf("%-8u", s);
        for (unsigned a = 0; a < aligns.size(); ++a) {
            double rel = 100.0 * sram(s, a) / sdram(s, a);
            // SDRAM overhead hidden if SDRAM is within ~15% of SRAM,
            // i.e. rel >= 87%.
            worst = std::max(worst, 100.0 * sdram(s, a) / sram(s, a));
            std::printf(" %7llu(%4.0f%%)",
                        static_cast<unsigned long long>(sram(s, a)),
                        rel);
        }
        std::printf("\n");
    }
    std::printf("\nWorst-case PVA SDRAM slowdown vs PVA SRAM: %.1f%% "
                "(paper: at most ~115%%)\n",
                worst);
}

void
printHeadline(const Grid &grid)
{
    double best_vs_cacheline = 0, best_vs_gathering = 0;
    double worst_stride1 = 0, worst_vs_sram = 0;
    std::uint32_t arg_cl = 0, arg_ga = 0;
    const char *k_cl = "", *k_ga = "";

    for (KernelId k : allKernels()) {
        const char *name = kernelSpec(k).name.c_str();
        for (std::uint32_t stride : paperStrides()) {
            Cycle pva = grid.minMax(SystemKind::PvaSdram, k, stride).min;
            Cycle cl = grid.minMax(SystemKind::CacheLine, k, stride).min;
            Cycle ga = grid.minMax(SystemKind::Gathering, k, stride).min;
            // SDRAM-vs-SRAM compares corresponding alignments (the
            // paper's figure 11 (b) pairing).
            double vs_sr = 0;
            for (unsigned a = 0; a < alignmentPresets().size(); ++a) {
                Cycle sd = grid.cycles(SystemKind::PvaSdram, k, stride, a);
                Cycle sr = grid.cycles(SystemKind::PvaSram, k, stride, a);
                vs_sr = std::max(vs_sr,
                                 static_cast<double>(sd) / sr);
            }

            double vs_cl = static_cast<double>(cl) / pva;
            double vs_ga = static_cast<double>(ga) / pva;
            if (vs_cl > best_vs_cacheline) {
                best_vs_cacheline = vs_cl;
                arg_cl = stride;
                k_cl = name;
            }
            if (vs_ga > best_vs_gathering) {
                best_vs_gathering = vs_ga;
                arg_ga = stride;
                k_ga = name;
            }
            if (stride == 1) {
                worst_stride1 =
                    std::max(worst_stride1,
                             static_cast<double>(pva) / cl);
            }
            worst_vs_sram = std::max(worst_vs_sram, vs_sr);
        }
    }

    std::printf("Headline results over the full kernel/stride/alignment "
                "grid:\n\n");
    std::printf("Max speedup vs cache-line serial SDRAM: %.1fx "
                "(%s, stride %u)   [paper: up to 32.8x]\n",
                best_vs_cacheline, k_cl, arg_cl);
    std::printf("Max speedup vs gathering pipelined SDRAM: %.1fx "
                "(%s, stride %u)  [paper: up to 3.3x]\n",
                best_vs_gathering, k_ga, arg_ga);
    std::printf("Stride-1 PVA time vs cache-line system: %.2fx "
                "[paper: parity, cache-line system 100-109%% of PVA]\n",
                worst_stride1);
    std::printf("Worst PVA SDRAM / PVA SRAM ratio: %.2fx "
                "[paper: at most ~1.15x]\n",
                worst_vs_sram);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    SweepExecutor executor(benchutil::parseJobs(argc, argv));
    std::vector<SweepPoint> points =
        executor.runReport(SweepExecutor::chapter6Grid()).points;
    for (const SweepPoint &p : points) {
        if (p.mismatches != 0)
            panic("functional mismatch in %s/%s stride %u alignment %u",
                  systemName(p.system), kernelSpec(p.kernel).name.c_str(),
                  p.stride, p.alignment);
    }
    const Grid grid(std::move(points));

    std::printf("Figure 7: comparative performance with varying stride\n");
    printKernelsByStride(grid,
                         {KernelId::Copy, KernelId::Saxpy, KernelId::Scale});

    std::printf("\nFigure 8: comparative performance with varying stride "
                "(continued)\n");
    printKernelsByStride(grid, {KernelId::Swap, KernelId::Tridiag,
                                KernelId::Vaxpy, KernelId::Copy2,
                                KernelId::Scale2});

    std::printf("\nFigure 9: comparative performance of all kernels with "
                "fixed stride\n");
    printStridesFixed(grid, {1, 4});

    std::printf("\nFigure 10: comparative performance of all kernels with "
                "fixed stride (continued)\n");
    printStridesFixed(grid, {8, 16, 19});

    std::printf("\n");
    printFigure11(grid);

    std::printf("\n");
    printHeadline(grid);
    return 0;
}
