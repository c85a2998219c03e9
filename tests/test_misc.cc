/**
 * @file
 * Edge cases and error paths not covered by the per-module suites:
 * workload validation, sweep API, stats CSV/bucket-cap behaviour, and
 * the N>1 partition property of the logical-bank transform.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/firsthit.hh"
#include "expect_sim_error.hh"
#include "kernels/runner.hh"
#include "kernels/sweep.hh"
#include "sim/stats.hh"

namespace pva
{
namespace
{

TEST(WorkloadValidation, ElementCountMustBeLineMultiple)
{
    SparseMemory mem;
    WorkloadConfig cfg;
    cfg.stride = 1;
    cfg.elements = 100; // not a multiple of 32
    cfg.streamBases = {0, 100000};
    test::expectSimError(
        [&] { buildTrace(kernelSpec(KernelId::Copy), cfg, mem); },
        SimErrorKind::Config, "multiple");
}

TEST(WorkloadValidation, MissingStreamBasesIsFatal)
{
    SparseMemory mem;
    WorkloadConfig cfg;
    cfg.stride = 1;
    cfg.elements = 32;
    cfg.streamBases = {0}; // copy needs two streams
    test::expectSimError(
        [&] { buildTrace(kernelSpec(KernelId::Copy), cfg, mem); },
        SimErrorKind::Config, "stream bases");
}

TEST(SweepApi, RunPointHonoursConfig)
{
    // A 4-bank PVA must be slower than the 16-bank prototype at a
    // parallel stride (fewer banks to spread over).
    SweepRequest small;
    small.kernel = KernelId::Copy;
    small.stride = 19;
    small.elements = 256;
    small.config.geometry = Geometry(4, 1);
    SweepRequest proto = small;
    proto.config = SystemConfig{};
    SweepPoint a = runPoint(small);
    SweepPoint b = runPoint(proto);
    EXPECT_EQ(a.mismatches, 0u);
    EXPECT_EQ(b.mismatches, 0u);
    EXPECT_GT(a.cycles, b.cycles);
}

TEST(SweepApi, SystemNames)
{
    EXPECT_STREQ(systemName(SystemKind::PvaSdram), "PVA SDRAM");
    EXPECT_STREQ(systemName(SystemKind::CacheLine),
                 "cache-line serial SDRAM");
    EXPECT_STREQ(systemName(SystemKind::Gathering),
                 "gathering pipelined SDRAM");
    EXPECT_STREQ(systemName(SystemKind::PvaSram), "PVA SRAM");
}

TEST(Stats, DistributionTailCollapsesIntoLastBucket)
{
    Distribution d(1);
    d.sample(10);
    d.sample(1u << 20); // far beyond the 4096-bucket cap
    EXPECT_EQ(d.buckets().size(), 4096u);
    EXPECT_EQ(d.buckets().back(), 1u);
    EXPECT_EQ(d.maxValue(), 1u << 20);
}

TEST(LogicalBankTransform, PartitionHoldsUnderBlockInterleave)
{
    // Every vector index appears in exactly one physical bank's list
    // for N > 1 too.
    for (unsigned n : {2u, 4u, 8u}) {
        Geometry geo(8, n);
        for (std::uint32_t stride = 1; stride <= 24; ++stride) {
            VectorCommand v;
            v.base = 12345;
            v.stride = stride;
            v.length = 32;
            std::vector<unsigned> count(v.length, 0);
            for (unsigned b = 0; b < 8; ++b) {
                for (std::uint32_t idx : expandBankIndices(v, b, geo))
                    ++count[idx];
            }
            for (std::uint32_t i = 0; i < v.length; ++i)
                EXPECT_EQ(count[i], 1u)
                    << "N=" << n << " S=" << stride << " i=" << i;
        }
    }
}

TEST(RunnerApi, ReportsMismatchesOnCorruption)
{
    // Sanity-check that verifyTrace actually detects wrong data: build
    // a trace, run it, then corrupt one word.
    auto sys = makeSystem(SystemKind::PvaSdram);
    WorkloadConfig cfg;
    cfg.stride = 3;
    cfg.elements = 32;
    cfg.streamBases = {1000, 50000};
    KernelTrace trace =
        buildTrace(kernelSpec(KernelId::Copy), cfg, sys->memory());
    RunResult r = runTrace(*sys, trace);
    ASSERT_EQ(r.mismatches, 0u);
    sys->memory().write(trace.expectedWrites[5].first,
                        trace.expectedWrites[5].second + 1);
    EXPECT_EQ(verifyTrace(trace, sys->memory()), 1u);
}

} // anonymous namespace
} // namespace pva
