/**
 * @file
 * SweepExecutor tests: the parallel path must be bit-identical to the
 * serial path (issue-order aggregation), the canonical grid must have
 * the canonical shape, and progress/stat reporting must add up.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "kernels/sweep_executor.hh"

namespace pva
{
namespace
{

/** A reduced grid exercising all four systems: 4 systems x 2 kernels
 *  x 3 strides x 5 alignments = 120 points at 128 elements. */
std::vector<SweepRequest>
reducedGrid()
{
    std::vector<SweepRequest> grid;
    for (SystemKind sys : allSystems()) {
        for (KernelId k : {KernelId::Copy, KernelId::Vaxpy}) {
            for (std::uint32_t s : {1u, 16u, 19u}) {
                for (unsigned a = 0; a < alignmentPresets().size();
                     ++a) {
                    SweepRequest req;
                    req.system = sys;
                    req.kernel = k;
                    req.stride = s;
                    req.alignment = a;
                    req.elements = 128;
                    grid.push_back(req);
                }
            }
        }
    }
    return grid;
}

TEST(SweepExecutor, ParallelMatchesSerialBitForBit)
{
    std::vector<SweepRequest> grid = reducedGrid();

    SweepExecutor serial(1);
    SweepExecutor parallel(4);
    ASSERT_EQ(serial.jobs(), 1u);
    ASSERT_EQ(parallel.jobs(), 4u);

    std::vector<SweepPoint> a = serial.run(grid);
    std::vector<SweepPoint> b = parallel.run(grid);

    ASSERT_EQ(a.size(), grid.size());
    ASSERT_EQ(b.size(), grid.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].system, b[i].system) << i;
        EXPECT_EQ(a[i].kernel, b[i].kernel) << i;
        EXPECT_EQ(a[i].stride, b[i].stride) << i;
        EXPECT_EQ(a[i].alignment, b[i].alignment) << i;
        EXPECT_EQ(a[i].cycles, b[i].cycles) << i;
        EXPECT_EQ(a[i].mismatches, b[i].mismatches) << i;
    }

    // The derived CSV must be byte-identical too.
    std::ostringstream csv_serial, csv_parallel;
    writeCsv(csv_serial, a);
    writeCsv(csv_parallel, b);
    EXPECT_EQ(csv_serial.str(), csv_parallel.str());
}

// Every bank controller reads its bank count's one FirstHit PLA
// (FirstHitPla::shared), the first process-wide state sweep workers
// share. The parallel run goes first so its workers build the tables
// while other workers ask for them; the tsan CI job runs this test
// under ThreadSanitizer.
TEST(SweepExecutor, WorkersSharingFirstHitTablesMatchOneWorker)
{
    std::vector<SweepRequest> grid;
    for (unsigned banks : {4u, 16u, 64u}) {
        for (std::uint32_t s : {1u, 19u}) {
            for (unsigned a = 0; a < alignmentPresets().size(); ++a) {
                SweepRequest req;
                req.kernel = KernelId::Copy;
                req.stride = s;
                req.alignment = a;
                req.elements = 128;
                req.config.geometry = Geometry(banks, 1);
                grid.push_back(req);
            }
        }
    }

    const std::vector<SweepPoint> four = SweepExecutor(4).run(grid);
    const std::vector<SweepPoint> one = SweepExecutor(1).run(grid);

    ASSERT_EQ(four.size(), grid.size());
    ASSERT_EQ(one.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(four[i].status, PointStatus::Ok) << i;
        EXPECT_EQ(four[i].cycles, one[i].cycles) << i;
        EXPECT_EQ(four[i].mismatches, 0u) << i;
        EXPECT_EQ(four[i].simTicks, one[i].simTicks) << i;
        EXPECT_EQ(four[i].cyclesSkipped, one[i].cyclesSkipped) << i;
    }
}

TEST(SweepExecutor, Chapter6GridHasCanonicalShapeAndOrder)
{
    std::vector<SweepRequest> grid = SweepExecutor::chapter6Grid(256);
    ASSERT_EQ(grid.size(), 4u * 8u * 6u * 5u);

    // Systems outermost, alignments innermost.
    EXPECT_EQ(grid.front().system, SystemKind::PvaSdram);
    EXPECT_EQ(grid.front().kernel, allKernels().front());
    EXPECT_EQ(grid.front().stride, paperStrides().front());
    EXPECT_EQ(grid.front().alignment, 0u);
    EXPECT_EQ(grid.back().system, SystemKind::PvaSram);
    EXPECT_EQ(grid.back().kernel, allKernels().back());
    EXPECT_EQ(grid.back().stride, paperStrides().back());
    EXPECT_EQ(grid.back().alignment,
              static_cast<unsigned>(alignmentPresets().size() - 1));
    for (const SweepRequest &req : grid)
        EXPECT_EQ(req.elements, 256u);
}

TEST(SweepExecutor, ReportsProgressAndStats)
{
    std::vector<SweepRequest> grid;
    for (std::uint32_t s : {1u, 19u}) {
        SweepRequest req;
        req.kernel = KernelId::Copy;
        req.stride = s;
        req.elements = 128;
        grid.push_back(req);
    }

    SweepExecutor executor(2);
    std::atomic<std::size_t> calls{0};
    std::size_t max_done = 0;
    executor.onProgress([&](const SweepProgress &p) {
        ++calls;
        EXPECT_EQ(p.total, grid.size());
        EXPECT_GE(p.millis, 0.0);
        max_done = std::max(max_done, p.done);
    });
    std::vector<SweepPoint> points = executor.run(grid);

    EXPECT_EQ(calls.load(), grid.size());
    EXPECT_EQ(max_done, grid.size());
    EXPECT_EQ(executor.stats().scalar("sweep.points"), grid.size());
    EXPECT_EQ(executor.stats().scalar("sweep.mismatches"), 0u);
    EXPECT_EQ(executor.stats().scalar("sweep.simCycles"),
              points[0].cycles + points[1].cycles);
    EXPECT_TRUE(executor.stats().hasDistribution("sweep.pointMillis"));
    EXPECT_EQ(
        executor.stats().distribution("sweep.pointMillis").samples(),
        grid.size());
}

TEST(SweepExecutor, CsvFormatMatchesBenchExport)
{
    SweepPoint p{SystemKind::PvaSdram, KernelId::Vaxpy, 19, 0, 1234, 0};
    std::ostringstream os;
    writeCsvHeader(os);
    writeCsvRow(os, p);
    EXPECT_EQ(os.str(),
              "system,kernel,stride,alignment,cycles,mismatches\n"
              "PVA SDRAM,vaxpy,19," +
                  alignmentPresets()[0].name + ",1234,0\n");
}

TEST(SweepExecutor, ZeroJobsPicksHardwareConcurrency)
{
    SweepExecutor executor(0);
    EXPECT_GE(executor.jobs(), 1u);
}

} // anonymous namespace
} // namespace pva
