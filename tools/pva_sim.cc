/**
 * @file
 * pva_sim — command-line driver for the kernel harness.
 *
 * Runs one grid point and prints the cycle count, or with --sweep the
 * full chapter 6 grid (under the configured system knobs) on a worker
 * pool, writing the CSV rows to stdout; each point is isolated by the
 * executor's retry/watchdog harness and the final SweepReport
 * accounts for every point.
 *
 * Flags come from the shared ToolApp layer (tools/tool_app.hh), so
 * the vocabulary matches pva_replay and pva_loadgen; run `pva_sim
 * --help` for the generated list. --json replaces the human-readable
 * lines with one versioned JSON envelope (docs/API.md) on stdout
 * (single run) or stderr (--sweep, keeping the CSV on stdout; the
 * sweep's progress, failure and --stats lines are left out);
 * --trace-out writes a Chrome/Perfetto event trace of the run
 * (docs/OBSERVABILITY.md, needs a PVA_TRACE=ON build).
 *
 * --check attaches the redundant TimingChecker; --fault-* enable
 * deterministic fault injection (see docs/ROBUSTNESS.md). Structured
 * simulation errors (SimError) exit with status 1 and a one-line
 * diagnostic instead of aborting.
 */

#include <cstdio>
#include <iostream>

#include "kernels/runner.hh"
#include "kernels/sweep_executor.hh"
#include "options.hh"
#include "sim/json.hh"
#include "tool_app.hh"

using namespace pva;
using namespace pva::tools;

namespace
{

int
runSweep(const ToolApp &app, const ToolOptions &opts)
{
    SweepExecutor executor(opts.jobs);
    executor.setMaxAttempts(opts.retries);
    executor.setQuarantineDir(opts.quarantineDir);
    if (!opts.json) {
        executor.onProgress([](const SweepProgress &p) {
            if (p.done % 160 == 0 || p.done == p.total)
                inform("sweep: %zu/%zu points done", p.done, p.total);
        });
    }
    std::vector<SweepRequest> grid =
        SweepExecutor::chapter6Grid(opts.elements, opts.config);
    if (opts.pointTimeout > 0.0) {
        for (SweepRequest &req : grid)
            req.limits.timeoutMillis = opts.pointTimeout;
    }
    SweepReport report = executor.runReport(grid);
    writeCsv(std::cout, report.points);
    if (opts.json) {
        // The CSV owns stdout under --sweep; the envelope goes to
        // stderr so both can be captured independently. It is all of
        // stderr: its stats and sweep sections carry what the text
        // lines below would say.
        JsonEnvelope env(std::cerr, app, opts.config,
                         {{"elements", opts.elements}});
        executor.stats().dumpJson(env.section("stats").nested());
        report.dumpJson(env.section("sweep").nested());
        env.traceSection(app);
    } else {
        for (const TaskFailure &f : report.failures) {
            const SweepPoint &p = report.points[f.index];
            warn("sweep point %zu (%s/%s stride %u alignment %u) "
                 "failed after %u attempts: %s",
                 f.index, systemShortName(p.system),
                 kernelSpec(p.kernel).name.c_str(), p.stride,
                 p.alignment, f.attempts, f.error.c_str());
        }
        for (const QuarantineRecord &q : report.quarantine) {
            if (q.capsulePath.empty()) {
                warn("cannot write repro capsule for point %zu: %s",
                     q.index, q.capsuleError.c_str());
            } else {
                inform("quarantined point %zu: repro capsule %s "
                       "(pva_replay --repro)",
                       q.index, q.capsulePath.c_str());
            }
        }
        if (opts.stats)
            executor.stats().dump(std::cerr);
    }
    bool clean = report.allOk() &&
                 executor.stats().scalar("sweep.mismatches") == 0;
    return clean ? 0 : 1;
}

int
runOnce(const ToolApp &app, const ToolOptions &opts)
{
    const KernelSpec &spec = kernelSpec(opts.kernel);
    WorkloadConfig wl = workloadFor(opts);

    auto sys = makeSystem(opts.system, opts.config);
    RunLimits limits;
    limits.clocking = opts.config.clocking;
    if (opts.pointTimeout > 0.0)
        limits.timeoutMillis = opts.pointTimeout;
    RunResult r = runKernelOn(*sys, opts.kernel, wl, limits);
    if (opts.json) {
        JsonEnvelope env(std::cout, app, opts.config,
                         {{"kernel", spec.name},
                          {"system", systemShortName(opts.system)},
                          {"stride", opts.stride},
                          {"alignment", opts.alignment},
                          {"elements", opts.elements}});
        json::Writer &w = env.section("run").beginObject();
        w.field("cycles", r.cycles).field("mismatches", r.mismatches);
        w.field("simTicks", r.simTicks);
        w.field("cyclesSkipped", r.cyclesSkipped);
        w.field("cyclesPerSecond", r.cyclesPerSecond).end();
        sys->stats().dumpJson(env.section("stats").nested());
        env.traceSection(app);
    } else {
        std::printf("%s stride=%u alignment=%s system=%s elements=%u: "
                    "%llu cycles, %zu mismatches\n",
                    spec.name.c_str(), opts.stride,
                    alignmentPresets()[opts.alignment].name.c_str(),
                    systemShortName(opts.system), opts.elements,
                    static_cast<unsigned long long>(r.cycles),
                    r.mismatches);
        std::printf("clocking=%s simTicks=%llu cyclesSkipped=%llu "
                    "cyclesPerSecond=%llu\n",
                    clockingModeName(opts.config.clocking),
                    static_cast<unsigned long long>(r.simTicks),
                    static_cast<unsigned long long>(r.cyclesSkipped),
                    static_cast<unsigned long long>(r.cyclesPerSecond));
    }
    if (opts.stats)
        sys->stats().dump(opts.json ? std::cerr : std::cout);
    return r.mismatches == 0 ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    ToolOptions opts;
    ToolApp app("pva_sim");
    app.addWorkloadFlags(opts);
    app.addSystemFlags(opts.config);
    app.flag("--sweep", "run the full chapter 6 grid",
             [&opts] { opts.sweep = true; });
    app.option("--quarantine-dir", "DIR",
               "write a standalone repro capsule per failed point "
               "into DIR (pva_replay --repro)",
               [&opts](const std::string &v) {
                   opts.quarantineDir = v;
               });
    app.addExecutorFlags(opts.jobs, opts.retries, opts.pointTimeout);
    app.addOutputFlags(opts.stats, opts.json);
    app.addTraceFlags();
    app.parse(argc, argv);
    if (!opts.quarantineDir.empty() && !opts.sweep)
        fatal("--quarantine-dir only applies to --sweep");
    return app.run([&] {
        return opts.sweep ? runSweep(app, opts) : runOnce(app, opts);
    });
}
