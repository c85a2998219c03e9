#include "kernels/runner.hh"

#include "core/command_unit.hh"

namespace pva
{

RunResult
runTrace(MemorySystem &sys, const KernelTrace &trace,
         const RunLimits &limits)
{
    Simulation sim(sys, limits.clocking);
    VectorCommandUnit vcu(sys, trace);

    Cycle start = sim.now();
    Cycle end = vcu.run(sim, limits.maxCycles, limits.timeoutMillis);

    RunResult r;
    r.cycles = end - start;
    r.mismatches = verifyTrace(trace, sys.memory());
    r.simTicks = sim.simTicks();
    r.cyclesSkipped = sim.cyclesSkipped();
    r.wallMillis = sim.wallMillis();
    r.cyclesPerSecond = sim.cyclesPerSecond();
    return r;
}

RunResult
runKernelOn(MemorySystem &sys, KernelId kernel, const WorkloadConfig &config,
            const RunLimits &limits)
{
    KernelTrace trace = buildTrace(kernelSpec(kernel), config,
                                   sys.memory());
    return runTrace(sys, trace, limits);
}

} // namespace pva
