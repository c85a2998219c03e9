/**
 * @file
 * Kernel-harness tests: trace construction per kernel (command shapes,
 * dependences, unroll grouping), reference semantics, alignment
 * presets, and full runs on every memory system with functional
 * verification.
 */

#include <gtest/gtest.h>

#include "expect_sim_error.hh"
#include "kernels/alignment.hh"
#include "kernels/runner.hh"
#include "kernels/sweep.hh"
#include "kernels/sweep_executor.hh"

namespace pva
{
namespace
{

WorkloadConfig
smallConfig(KernelId id, std::uint32_t stride, std::uint32_t elements = 128)
{
    const KernelSpec &spec = kernelSpec(id);
    WorkloadConfig cfg;
    cfg.stride = stride;
    cfg.elements = elements;
    cfg.streamBases = streamBases(alignmentPresets()[0], spec.numStreams,
                                  stride, elements);
    return cfg;
}

TEST(KernelSpecs, TableMatchesThePaper)
{
    EXPECT_EQ(allKernels().size(), 8u);
    EXPECT_EQ(kernelSpec(KernelId::Copy).name, "copy");
    EXPECT_EQ(kernelSpec(KernelId::Vaxpy).numStreams, 3u);
    EXPECT_EQ(kernelSpec(KernelId::Vaxpy).readStreams.size(), 3u);
    EXPECT_EQ(kernelSpec(KernelId::Swap).writeStreams.size(), 2u);
    EXPECT_EQ(kernelSpec(KernelId::Copy2).unroll, 2u);
    EXPECT_EQ(kernelSpec(KernelId::Tridiag).readStreams,
              (std::vector<unsigned>{1, 2}));
}

TEST(BuildTrace, CopyShape)
{
    SparseMemory mem;
    auto cfg = smallConfig(KernelId::Copy, 3);
    KernelTrace t = buildTrace(kernelSpec(KernelId::Copy), cfg, mem);
    // 128 elements / 32 = 4 chunks, each R x then W y.
    ASSERT_EQ(t.ops.size(), 8u);
    for (unsigned c = 0; c < 4; ++c) {
        const KernelOp &rd = t.ops[2 * c];
        const KernelOp &wr = t.ops[2 * c + 1];
        EXPECT_TRUE(rd.cmd.isRead);
        EXPECT_FALSE(wr.cmd.isRead);
        EXPECT_EQ(rd.cmd.base, cfg.streamBases[0] + 3ull * 32 * c);
        EXPECT_EQ(wr.cmd.base, cfg.streamBases[1] + 3ull * 32 * c);
        EXPECT_EQ(wr.deps, (std::vector<std::size_t>{2 * c}));
        // copy: write data equals the source values.
        for (unsigned i = 0; i < 32; ++i) {
            EXPECT_EQ(wr.writeData[i],
                      mem.read(rd.cmd.element(i)));
        }
    }
}

TEST(BuildTrace, Copy2GroupsCommands)
{
    SparseMemory mem;
    auto cfg = smallConfig(KernelId::Copy2, 1);
    KernelTrace t = buildTrace(kernelSpec(KernelId::Copy2), cfg, mem);
    // Groups of 2 chunks: R,R,W,W per group.
    ASSERT_EQ(t.ops.size(), 8u);
    EXPECT_TRUE(t.ops[0].cmd.isRead);
    EXPECT_TRUE(t.ops[1].cmd.isRead);
    EXPECT_FALSE(t.ops[2].cmd.isRead);
    EXPECT_FALSE(t.ops[3].cmd.isRead);
    EXPECT_EQ(t.ops[2].deps, (std::vector<std::size_t>{0}));
    EXPECT_EQ(t.ops[3].deps, (std::vector<std::size_t>{1}));
}

TEST(BuildTrace, SaxpySemantics)
{
    SparseMemory mem;
    auto cfg = smallConfig(KernelId::Saxpy, 2, 32);
    for (unsigned i = 0; i < 32; ++i) {
        mem.write(cfg.streamBases[0] + 2 * i, 10 + i); // x
        mem.write(cfg.streamBases[1] + 2 * i, 100 * i); // y
    }
    KernelTrace t = buildTrace(kernelSpec(KernelId::Saxpy), cfg, mem);
    ASSERT_EQ(t.ops.size(), 3u); // R x, R y, W y
    EXPECT_EQ(t.ops[2].deps, (std::vector<std::size_t>{0, 1}));
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_EQ(t.ops[2].writeData[i], 100 * i + 3 * (10 + i));
}

TEST(BuildTrace, SwapSemantics)
{
    SparseMemory mem;
    auto cfg = smallConfig(KernelId::Swap, 5, 32);
    KernelTrace t = buildTrace(kernelSpec(KernelId::Swap), cfg, mem);
    ASSERT_EQ(t.ops.size(), 4u); // R x, R y, W x, W y
    for (unsigned i = 0; i < 32; ++i) {
        EXPECT_EQ(t.ops[2].writeData[i],
                  mem.read(cfg.streamBases[1] + 5 * i));
        EXPECT_EQ(t.ops[3].writeData[i],
                  mem.read(cfg.streamBases[0] + 5 * i));
    }
}

TEST(BuildTrace, TridiagRecurrence)
{
    SparseMemory mem;
    auto cfg = smallConfig(KernelId::Tridiag, 1, 32);
    KernelTrace t = buildTrace(kernelSpec(KernelId::Tridiag), cfg, mem);
    ASSERT_EQ(t.ops.size(), 3u); // R y, R z, W x
    Word prev = mem.read(cfg.streamBases[0] - 1);
    for (unsigned i = 0; i < 32; ++i) {
        Word y = mem.read(cfg.streamBases[1] + i);
        Word z = mem.read(cfg.streamBases[2] + i);
        Word expect = z * (y - prev);
        EXPECT_EQ(t.ops[2].writeData[i], expect) << "i=" << i;
        prev = expect;
    }
}

TEST(BuildTrace, ExpectedWritesMatchWriteData)
{
    SparseMemory mem;
    for (KernelId k : allKernels()) {
        auto cfg = smallConfig(k, 7);
        KernelTrace t = buildTrace(kernelSpec(k), cfg, mem);
        std::size_t write_words = 0;
        for (const KernelOp &op : t.ops)
            if (!op.cmd.isRead)
                write_words += op.cmd.length;
        EXPECT_EQ(t.expectedWrites.size(), write_words)
            << kernelSpec(k).name;
    }
}

TEST(Alignment, FivePresetsWithDistinctSkews)
{
    const auto &presets = alignmentPresets();
    ASSERT_EQ(presets.size(), 5u);
    EXPECT_EQ(presets[0].skews, (std::vector<WordAddr>{0, 0, 0}));
    // Streams never overlap even at the largest stride.
    for (const auto &p : presets) {
        auto bases = streamBases(p, 3, 19, 1024);
        for (unsigned j = 0; j + 1 < 3; ++j)
            EXPECT_GE(bases[j + 1], bases[j] + 19ull * 1024)
                << p.name << " stream " << j;
    }
}

TEST(Alignment, AlignedPresetStartsEveryStreamOnBankZero)
{
    auto bases = streamBases(alignmentPresets()[0], 3, 4, 1024);
    for (WordAddr b : bases)
        EXPECT_EQ(b % 8192, 0u);
}

/** Every kernel on every system, small workload: must verify cleanly. */
struct RunParam
{
    KernelId kernel;
    SystemKind system;
};

class KernelRuns : public ::testing::TestWithParam<RunParam>
{
};

TEST_P(KernelRuns, FunctionallyCorrectOnStride7)
{
    const auto [kernel, system] = GetParam();
    auto sys = makeSystem(system);
    const KernelSpec &spec = kernelSpec(kernel);
    WorkloadConfig cfg;
    cfg.stride = 7;
    cfg.elements = 256;
    cfg.streamBases =
        streamBases(alignmentPresets()[2], spec.numStreams, 7, 256);
    RunResult r = runKernelOn(*sys, kernel, cfg);
    EXPECT_EQ(r.mismatches, 0u);
    EXPECT_GT(r.cycles, 0u);
}

std::vector<RunParam>
runParams()
{
    std::vector<RunParam> p;
    for (KernelId k : allKernels()) {
        for (SystemKind s :
             {SystemKind::PvaSdram, SystemKind::CacheLine,
              SystemKind::Gathering, SystemKind::PvaSram}) {
            p.push_back({k, s});
        }
    }
    return p;
}

INSTANTIATE_TEST_SUITE_P(AllKernelsAllSystems, KernelRuns,
                         ::testing::ValuesIn(runParams()));

TEST(BuildTrace, RejectsDegenerateWorkloads)
{
    // A stride-0 stream repeats one word and an empty one does no
    // work: neither is a kernel workload.
    SparseMemory mem;
    auto stride0 = smallConfig(KernelId::Copy, 0);
    test::expectSimError(
        [&] { buildTrace(kernelSpec(KernelId::Copy), stride0, mem); },
        SimErrorKind::Config, "stride must be >= 1");
    auto empty = smallConfig(KernelId::Copy, 1, 0);
    test::expectSimError(
        [&] { buildTrace(kernelSpec(KernelId::Copy), empty, mem); },
        SimErrorKind::Config, "element count must be >= 1");
}

TEST(SweepExecutorDegenerate, StrideZeroPointFailsAlone)
{
    std::vector<SweepRequest> grid;
    for (std::uint32_t stride : {1u, 0u, 4u}) {
        SweepRequest req;
        req.system = SystemKind::CacheLine;
        req.stride = stride;
        req.elements = 64;
        grid.push_back(req);
    }
    SweepExecutor exec(1);
    SweepReport report = exec.runReport(grid);
    ASSERT_EQ(report.points.size(), 3u);
    EXPECT_EQ(report.points[0].status, PointStatus::Ok);
    EXPECT_EQ(report.points[1].status, PointStatus::Failed);
    EXPECT_EQ(report.points[2].status, PointStatus::Ok);
    EXPECT_GT(report.points[0].cycles, 0u);
    EXPECT_GT(report.points[2].cycles, 0u);
    EXPECT_EQ(report.failed, 1u);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].index, 1u);
    EXPECT_NE(report.failures[0].error.find(
                  "[config] kernel: stride must be >= 1"),
              std::string::npos)
        << report.failures[0].error;
}

TEST(Sweep, PvaBeatsCacheLineAtLargeStride)
{
    SweepPoint pva = runPoint(SystemKind::PvaSdram, KernelId::Copy, 19, 0,
                              256);
    SweepPoint cl = runPoint(SystemKind::CacheLine, KernelId::Copy, 19, 0,
                             256);
    EXPECT_EQ(pva.mismatches, 0u);
    EXPECT_EQ(cl.mismatches, 0u);
    EXPECT_GT(cl.cycles, 10 * pva.cycles);
}

TEST(Sweep, StrideOneIsComparable)
{
    SweepPoint pva =
        runPoint(SystemKind::PvaSdram, KernelId::Copy, 1, 0, 256);
    SweepPoint cl =
        runPoint(SystemKind::CacheLine, KernelId::Copy, 1, 0, 256);
    EXPECT_LT(pva.cycles, 2 * cl.cycles);
    EXPECT_LT(cl.cycles, 2 * pva.cycles);
}

TEST(Sweep, MinMaxAcrossAlignments)
{
    MinMaxCycles mm =
        runAcrossAlignments(SystemKind::PvaSdram, KernelId::Scale, 4, 256);
    EXPECT_LE(mm.min, mm.max);
    EXPECT_GT(mm.min, 0u);
}

} // anonymous namespace
} // namespace pva
