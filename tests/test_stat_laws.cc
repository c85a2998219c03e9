/**
 * @file
 * The stat conservation laws (stat_laws.hh) over the chapter-6 grid
 * (every kernel and stride at alignment 0) on PVA SDRAM and PVA SRAM
 * under both clockings, and over a PVA traffic run that mixes strided
 * and Indirect streams. The front end hands each broadcast only to
 * the controllers of its hit set and credits the others' commandsSeen
 * itself; these laws are what notices if it drops a credit, a hit or
 * an element.
 */

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/fleet_arbiter.hh"
#include "kernels/alignment.hh"
#include "kernels/kernel.hh"
#include "kernels/runner.hh"
#include "kernels/sweep.hh"
#include "recording_system.hh"
#include "sim/logging.hh"
#include "stat_laws.hh"

namespace pva
{
namespace
{

/** Run @p kernel at @p stride (alignment 0) on a fresh @p kind system
 *  built from @p config and check the stat laws on it. */
void
expectLawsAfterKernel(SystemKind kind, const SystemConfig &config,
                      KernelId kernel, std::uint32_t stride)
{
    const KernelSpec &spec = kernelSpec(kernel);
    auto sys = makeSystem(kind, config);
    WorkloadConfig wl;
    wl.stride = stride;
    wl.lineWords = config.bc.lineWords;
    wl.streamBases = streamBases(alignmentPresets()[0], spec.numStreams,
                                 stride, wl.elements);
    KernelTrace trace = buildTrace(spec, wl, sys->memory());
    test::CommandTotals commands;
    for (const KernelOp &op : trace.ops)
        commands.add(config.geometry, op.cmd);

    RunLimits limits;
    limits.clocking = config.clocking;
    RunResult r = runTrace(*sys, trace, limits);
    ASSERT_EQ(r.mismatches, 0u) << spec.name << " stride " << stride;
    EXPECT_TRUE(test::statLawsHold(sys->stats(), config, r.cycles,
                                   commands))
        << spec.name << " stride " << stride;
}

using GridCase = std::tuple<SystemKind, ClockingMode>;

class StatLawsGrid : public ::testing::TestWithParam<GridCase>
{
};

TEST_P(StatLawsGrid, HoldAtEveryKernelAndStride)
{
    SystemConfig config;
    config.clocking = std::get<1>(GetParam());
    for (KernelId kernel : allKernels()) {
        for (std::uint32_t stride : paperStrides())
            expectLawsAfterKernel(std::get<0>(GetParam()), config, kernel,
                                  stride);
    }
}

INSTANTIATE_TEST_SUITE_P(
    PvaSystemsBothClockings, StatLawsGrid,
    ::testing::Combine(::testing::Values(SystemKind::PvaSdram,
                                         SystemKind::PvaSram),
                       ::testing::Values(ClockingMode::Event,
                                         ClockingMode::Exhaustive)));

TEST(StatLaws, HoldAcrossBankCountsAndInterleaves)
{
    // The hit set takes the first 2^(m-s) elements under word
    // interleave and every element under block interleave: check both
    // at bank counts from 1 to 256, with strides that are odd, a power
    // of two below and at 16, and a multiple of the bank count.
    for (unsigned banks : {1u, 2u, 4u, 8u, 32u, 64u, 256u}) {
        for (unsigned interleave : {1u, 4u}) {
            SystemConfig config;
            config.geometry = Geometry(banks, interleave);
            for (KernelId kernel : {KernelId::Copy, KernelId::Vaxpy}) {
                for (std::uint32_t stride : {1u, 3u, 8u, 16u, 19u, 256u})
                    expectLawsAfterKernel(SystemKind::PvaSdram, config,
                                          kernel, stride);
            }
        }
    }
}

TEST(StatLaws, HoldOverATrafficRunWithAnIndirectStream)
{
    SystemConfig config;
    std::vector<StreamConfig> streams(3);
    for (unsigned i = 0; i < streams.size(); ++i) {
        StreamConfig &s = streams[i];
        s.name = csprintf("s%u", i);
        s.seed = 11 + i;
        s.requests = 300;
        s.window = 6;
        s.pattern.regionBase = WordAddr{i} << 22;
        s.pattern.maxStride = 19;
        s.pattern.minLength = 4;
        s.pattern.readFraction = 0.7;
    }
    streams[1].pattern.mode = VectorCommand::Mode::Indirect;
    streams[2].mode = ArrivalMode::OpenLoop;
    streams[2].requestsPerKilocycle = 40.0;

    // The production arbiter with the streams in one seat, as
    // runTraffic seats them.
    std::vector<fleet::TenantSeat> seats(1);
    std::vector<std::string> names;
    for (unsigned i = 0; i < streams.size(); ++i) {
        seats[0].sources.emplace_back(streams[i], i, config.bc.lineWords);
        names.push_back(streams[i].name);
    }
    ServiceStats service(names);
    seats[0].stats = &service;
    auto sys = makeSystem(SystemKind::PvaSdram, config);
    test::RecordingSystem recorder(*sys);
    fleet::MessageBus bus;
    fleet::FleetArbiter arbiter(ArbiterConfig{}, std::move(seats), bus);
    Simulation sim(*sys, config.clocking);
    fleet::runToDrain(sim, arbiter, recorder, RunLimits{10000000});

    ASSERT_EQ(recorder.accepted.size(), 900u);
    test::CommandTotals commands;
    bool indirect = false;
    for (const VectorCommand &c : recorder.accepted) {
        commands.add(config.geometry, c);
        indirect |= c.mode == VectorCommand::Mode::Indirect;
    }
    ASSERT_TRUE(indirect);
    EXPECT_TRUE(
        test::statLawsHold(sys->stats(), config, sim.now(), commands));
}

} // anonymous namespace
} // namespace pva
