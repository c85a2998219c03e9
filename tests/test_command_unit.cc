/**
 * @file
 * Vector Command Unit tests: dependence enforcement, out-of-order
 * issue past blocked operations, gathered-data capture, and the
 * consistency semantics of section 5.2.4 at the system level.
 */

#include <gtest/gtest.h>

#include "core/command_unit.hh"
#include "core/pva_unit.hh"
#include "expect_sim_error.hh"
#include "kernels/runner.hh"
#include "recording_system.hh"
#include "sim/simulation.hh"

namespace pva
{
namespace
{

KernelOp
makeRead(WordAddr base, std::uint32_t stride = 1)
{
    KernelOp op;
    op.cmd.base = base;
    op.cmd.stride = stride;
    op.cmd.length = 32;
    op.cmd.isRead = true;
    return op;
}

KernelOp
makeWrite(WordAddr base, Word seed, std::vector<std::size_t> deps,
          std::uint32_t stride = 1)
{
    KernelOp op;
    op.cmd.base = base;
    op.cmd.stride = stride;
    op.cmd.length = 32;
    op.cmd.isRead = false;
    op.deps = std::move(deps);
    op.writeData.resize(32);
    for (unsigned i = 0; i < 32; ++i)
        op.writeData[i] = seed + i;
    return op;
}

TEST(CommandUnit, WriteWaitsForItsReads)
{
    // A write depending on a read must not be submitted before the
    // read completes. Detect via the PVA stats: at no point may the
    // write's VEC_WRITE precede the read completion — easiest check is
    // the final latency relation plus functional correctness.
    KernelTrace trace;
    trace.ops.push_back(makeRead(0));
    trace.ops.push_back(makeWrite(4096, 100, {0}));
    trace.expectedWrites.clear();
    for (unsigned i = 0; i < 32; ++i)
        trace.expectedWrites.emplace_back(4096 + i, 100 + i);

    PvaUnit sys("pva", SystemConfig{});
    RunResult r = runTrace(sys, trace);
    EXPECT_EQ(r.mismatches, 0u);
    // Serialized: read (~26 cycles) then write (~20+): well above the
    // overlapped lower bound of ~35.
    EXPECT_GT(r.cycles, 45u);
}

TEST(CommandUnit, IndependentOpsOverlap)
{
    // Two independent reads pipeline on the bus; a dependent pair
    // cannot. Compare total cycles.
    KernelTrace indep;
    indep.ops.push_back(makeRead(0));
    indep.ops.push_back(makeRead(8192));

    KernelTrace dep;
    dep.ops.push_back(makeRead(0));
    dep.ops.push_back(makeRead(8192));
    dep.ops[1].deps = {0};

    PvaUnit a("a", SystemConfig{}), b("b", SystemConfig{});
    Cycle t_indep = runTrace(a, indep).cycles;
    Cycle t_dep = runTrace(b, dep).cycles;
    EXPECT_LT(t_indep, t_dep);
}

TEST(CommandUnit, IssuesPastBlockedOps)
{
    // Op 1 depends on op 0; op 2 is independent and must issue without
    // waiting for op 1 (out-of-order issue window).
    KernelTrace trace;
    trace.ops.push_back(makeRead(0));
    trace.ops.push_back(makeWrite(4096, 5, {0}));
    trace.ops.push_back(makeRead(16384));

    PvaUnit sys("pva", SystemConfig{});
    Simulation sim(sys);
    VectorCommandUnit vcu(sys, trace);

    // After a few cycles, ops 0 and 2 must be in flight (2 reads
    // submitted) while op 1 waits.
    for (int i = 0; i < 3; ++i) {
        vcu.service();
        sim.step();
    }
    EXPECT_EQ(sys.stats().scalar("frontend.reads"), 2u);
    EXPECT_EQ(sys.stats().scalar("frontend.writes"), 0u);

    sim.runUntil([&] { return vcu.service(); });
    EXPECT_EQ(sys.stats().scalar("frontend.writes"), 1u);
}

TEST(CommandUnit, ARefusalHoldsUntilACompletionDrains)
{
    // Two transaction slots and twelve independent reads: the unit
    // fills both slots and is refused. It may offer again only after
    // a completion drains, and it submits lowest index first.
    SystemConfig config;
    config.bc.transactions = 2;
    PvaUnit pva("pva", config);
    test::RecordingSystem sys(pva);
    KernelTrace trace;
    for (unsigned i = 0; i < 12; ++i)
        trace.ops.push_back(makeRead(i * 4096, 1 + i % 5));
    Simulation sim(pva);
    VectorCommandUnit vcu(sys, trace);
    vcu.run(sim, 1000000);

    EXPECT_GT(sys.refusals, 0u);
    EXPECT_EQ(sys.offersBeforeDrain, 0u);
    ASSERT_EQ(sys.acceptedTags.size(), trace.ops.size());
    for (std::size_t i = 0; i < trace.ops.size(); ++i)
        EXPECT_EQ(sys.acceptedTags[i], i);
}

TEST(CommandUnit, ADependenceOutsideTheTraceIsRefused)
{
    KernelTrace trace;
    trace.ops.push_back(makeRead(0));
    trace.ops.push_back(makeWrite(4096, 1, {0, 5}));
    PvaUnit sys("pva", SystemConfig{});
    test::expectSimError([&] { VectorCommandUnit vcu(sys, trace); },
                         SimErrorKind::Config,
                         "op 1 depends on op 5 of a 2-op trace");
}

TEST(CommandUnit, CapturesGatheredData)
{
    KernelTrace trace;
    trace.ops.push_back(makeRead(100, 3));
    PvaUnit sys("pva", SystemConfig{});
    for (unsigned i = 0; i < 32; ++i)
        sys.memory().write(100 + 3 * i, 0x40 + i);

    Simulation sim(sys);
    VectorCommandUnit vcu(sys, trace);
    sim.runUntil([&] { return vcu.service(); });

    ASSERT_EQ(vcu.readData()[0].size(), 32u);
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_EQ(vcu.readData()[0][i], 0x40 + i);
}

TEST(CommandUnit, RunCommandsSlicesWriteValuesAndConcatenatesReads)
{
    // Two scatters take consecutive slices of the values; a later
    // gather of both lines returns them concatenated in command order.
    std::vector<VectorCommand> writes(2);
    for (unsigned k = 0; k < 2; ++k) {
        writes[k].base = 500 + 7 * 32 * k;
        writes[k].stride = 7;
        writes[k].length = 32;
        writes[k].isRead = false;
    }
    std::vector<Word> values(64);
    for (unsigned i = 0; i < 64; ++i)
        values[i] = 0x900 + i;

    PvaUnit sys("pva", SystemConfig{});
    Simulation sim(sys);
    EXPECT_TRUE(runCommands(sys, sim, writes, 100000, &values).empty());
    std::vector<VectorCommand> reads = writes;
    for (VectorCommand &c : reads)
        c.isRead = true;
    EXPECT_EQ(runCommands(sys, sim, reads, 100000), values);

    test::expectSimError(
        [&] { runCommands(sys, sim, writes, 100000); },
        SimErrorKind::Config, "write values run out");
    values.pop_back();
    test::expectSimError(
        [&] { runCommands(sys, sim, writes, 100000, &values); },
        SimErrorKind::Config, "write values run out");
}

TEST(CommandUnit, RunReturnsTheLastCompletionCycle)
{
    KernelTrace trace;
    trace.ops.push_back(makeRead(100, 3));
    trace.ops.push_back(makeRead(9000, 5));
    PvaUnit sys("pva", SystemConfig{});
    Simulation sim(sys);
    VectorCommandUnit vcu(sys, trace);
    const Cycle end = vcu.run(sim, 100000);
    EXPECT_EQ(end, sim.now());
    EXPECT_GT(end, 0u);
    EXPECT_TRUE(vcu.done());

    // A second unit on the same Simulation starts where the first
    // stopped, and its budget counts from there.
    VectorCommandUnit again(sys, trace);
    test::expectSimError([&] { again.run(sim, 5); },
                         SimErrorKind::Watchdog, "after 5 cycles");
}

TEST(Consistency, ReadAfterWriteThroughDependences)
{
    // RAW at the same addresses: with the dependence edge the gather
    // sees the scattered data (the section 5.2.4 guarantee relies on
    // the bus ordering that our dependence edges preserve).
    KernelTrace trace;
    trace.ops.push_back(makeWrite(2048, 77, {}));
    trace.ops.push_back(makeRead(2048));
    trace.ops[1].deps = {0};

    PvaUnit sys("pva", SystemConfig{});
    Simulation sim(sys);
    VectorCommandUnit vcu(sys, trace);
    sim.runUntil([&] { return vcu.service(); });
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_EQ(vcu.readData()[1][i], 77u + i);
}

TEST(Consistency, BackToBackWritesLastValueWins)
{
    // WAW to the same vector, ordered by a dependence edge: the second
    // write's data must be the final memory image.
    KernelTrace trace;
    trace.ops.push_back(makeWrite(2048, 100, {}));
    trace.ops.push_back(makeWrite(2048, 900, {0}));

    PvaUnit sys("pva", SystemConfig{});
    runTrace(sys, trace);
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_EQ(sys.memory().read(2048 + i), 900u + i);
}

TEST(Stats, LatencyDistributionsAreSampled)
{
    KernelTrace trace;
    trace.ops.push_back(makeRead(0));
    trace.ops.push_back(makeWrite(4096, 1, {}));
    PvaUnit sys("pva", SystemConfig{});
    runTrace(sys, trace);
    std::ostringstream os;
    sys.stats().dump(os);
    EXPECT_NE(os.str().find("frontend.readLatency.samples 1"),
              std::string::npos);
    EXPECT_NE(os.str().find("frontend.writeLatency.samples 1"),
              std::string::npos);
}

} // anonymous namespace
} // namespace pva
