/**
 * @file
 * Reduced-scale reproduction of the full chapter 6 grid as a test:
 * every kernel x stride x alignment on the PVA runs functionally clean,
 * and the paper's headline orderings hold (PVA >= cache-line baseline
 * at stride 1, PVA way ahead at prime strides, SDRAM close to SRAM).
 * bench_chapter6 reruns the same grid at full scale; here the
 * full-scale grid is held byte-for-byte against the committed CSV.
 *
 * Grid points are simulated through the SweepExecutor worker pool:
 * each (system, kernel, stride) row runs its five alignments in
 * parallel and is memoized, so ctest's per-test processes only pay for
 * the rows they assert on, and the full reduced grid runs once in the
 * EveryGridPointIsFunctionallyClean sweep.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <tuple>

#include "golden.hh"
#include "kernels/sweep_executor.hh"

namespace pva
{
namespace
{

constexpr std::uint32_t kElems = 256; // 8 chunks: fast but pipelined

/** One (system, kernel, stride) row — all five alignments — run in
 *  parallel on the executor pool and memoized. */
const std::vector<SweepPoint> &
alignmentRow(SystemKind system, KernelId kernel, std::uint32_t stride)
{
    using Key = std::tuple<SystemKind, KernelId, std::uint32_t>;
    static std::map<Key, std::vector<SweepPoint>> cache;
    auto [it, fresh] =
        cache.try_emplace(Key{system, kernel, stride});
    if (fresh) {
        std::vector<SweepRequest> row;
        for (unsigned a = 0; a < alignmentPresets().size(); ++a) {
            SweepRequest req;
            req.system = system;
            req.kernel = kernel;
            req.stride = stride;
            req.alignment = a;
            req.elements = kElems;
            row.push_back(req);
        }
        SweepExecutor executor;
        it->second = executor.runReport(row).points;
    }
    return it->second;
}

const SweepPoint &
gridPoint(SystemKind system, KernelId kernel, std::uint32_t stride,
          unsigned alignment)
{
    return alignmentRow(system, kernel, stride).at(alignment);
}

Cycle
cyclesAt(SystemKind system, KernelId kernel, std::uint32_t stride,
         unsigned alignment)
{
    return gridPoint(system, kernel, stride, alignment).cycles;
}

struct GridParam
{
    KernelId kernel;
    std::uint32_t stride;
};

class PaperGrid : public ::testing::TestWithParam<GridParam>
{
};

TEST_P(PaperGrid, PvaIsCorrectAtEveryAlignment)
{
    const auto [kernel, stride] = GetParam();
    for (unsigned a = 0; a < alignmentPresets().size(); ++a) {
        const SweepPoint &p =
            gridPoint(SystemKind::PvaSdram, kernel, stride, a);
        EXPECT_EQ(p.mismatches, 0u)
            << kernelSpec(kernel).name << " stride " << stride
            << " alignment " << a;
    }
}

TEST_P(PaperGrid, SdramTracksSramWithinTwentyPercent)
{
    const auto [kernel, stride] = GetParam();
    Cycle sdram = cyclesAt(SystemKind::PvaSdram, kernel, stride, 1);
    Cycle sram = cyclesAt(SystemKind::PvaSram, kernel, stride, 1);
    EXPECT_LE(sdram, sram + sram / 5)
        << kernelSpec(kernel).name << " stride " << stride;
}

std::vector<GridParam>
gridParams()
{
    std::vector<GridParam> p;
    for (KernelId k : allKernels())
        for (std::uint32_t s : paperStrides())
            p.push_back({k, s});
    return p;
}

INSTANTIATE_TEST_SUITE_P(AllKernelsAllStrides, PaperGrid,
                         ::testing::ValuesIn(gridParams()));

TEST(PaperShape, EveryGridPointIsFunctionallyClean)
{
    // The full reduced grid (4 systems x 8 kernels x 6 strides x
    // 5 alignments) through the parallel executor in one sweep.
    SweepExecutor executor;
    std::vector<SweepPoint> grid =
        executor.runReport(SweepExecutor::chapter6Grid(kElems)).points;
    ASSERT_EQ(grid.size(), 4u * 8u * 6u * 5u);
    for (const SweepPoint &p : grid) {
        EXPECT_EQ(p.mismatches, 0u)
            << systemName(p.system) << "/"
            << kernelSpec(p.kernel).name << " stride " << p.stride
            << " alignment " << p.alignment;
    }
    EXPECT_EQ(executor.stats().scalar("sweep.points"), grid.size());
    EXPECT_EQ(executor.stats().scalar("sweep.mismatches"), 0u);
}

TEST(PaperShape, FullGridMatchesTheCommittedCsv)
{
    // The regression net for every change that must not move a cycle:
    // the whole grid at the paper's 1024 elements and the default
    // config, through the runReport + writeCsv path `pva_sim --sweep`
    // uses, byte-for-byte against tests/expected/sweep_legacy.csv.
    SweepExecutor executor;
    const SweepReport report =
        executor.runReport(SweepExecutor::chapter6Grid());
    ASSERT_TRUE(report.allOk());
    std::ostringstream csv;
    writeCsv(csv, report.points);
    test::expectMatchesGolden(csv.str(), PVA_SWEEP_LEGACY_CSV);
}

TEST(PaperShape, CacheLineBaselineDegradesWithStride)
{
    // Figure 7 shape: normalized cache-line time grows monotonically
    // in stride (power-of-two strides) and explodes at primes.
    Cycle prev_ratio_x100 = 0;
    for (std::uint32_t s : {1u, 2u, 4u, 8u, 16u}) {
        Cycle pva = cyclesAt(SystemKind::PvaSdram, KernelId::Scale, s, 0);
        Cycle cl = cyclesAt(SystemKind::CacheLine, KernelId::Scale, s, 0);
        Cycle ratio_x100 = cl * 100 / pva;
        EXPECT_GT(ratio_x100, prev_ratio_x100) << "stride " << s;
        prev_ratio_x100 = ratio_x100;
    }
}

TEST(PaperShape, PrimeStrideRestoresFullParallelism)
{
    // Section 6.3.1: stride 19 performs like stride 1 on the PVA while
    // traditional systems behave like stride 16.
    Cycle s1 = cyclesAt(SystemKind::PvaSdram, KernelId::Scale, 1, 0);
    Cycle s16 = cyclesAt(SystemKind::PvaSdram, KernelId::Scale, 16, 0);
    Cycle s19 = cyclesAt(SystemKind::PvaSdram, KernelId::Scale, 19, 0);
    EXPECT_LT(s19, s1 + s1 / 10) << "stride 19 ~ stride 1";
    EXPECT_GT(s16, s19) << "stride 16 is the PVA's worst case";
}

TEST(PaperShape, GatheringBaselineIsStrideInsensitiveAndSlower)
{
    for (std::uint32_t s : {1u, 8u, 19u}) {
        Cycle pva = cyclesAt(SystemKind::PvaSdram, KernelId::Copy, s, 0);
        Cycle ga = cyclesAt(SystemKind::Gathering, KernelId::Copy, s, 0);
        EXPECT_GT(ga, 2 * pva) << "stride " << s;
        EXPECT_LT(ga, 4 * pva) << "stride " << s;
    }
}

TEST(PaperShape, UnrollingHelpsSlightlyOnThePva)
{
    // Section 6.3: copy2/scale2 give the PVA a slight edge only.
    Cycle copy = cyclesAt(SystemKind::PvaSdram, KernelId::Copy, 4, 0);
    Cycle copy2 = cyclesAt(SystemKind::PvaSdram, KernelId::Copy2, 4, 0);
    EXPECT_LE(copy2, copy + copy / 20);
}

} // anonymous namespace
} // namespace pva
