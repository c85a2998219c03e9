/**
 * @file
 * Parallel, fault-tolerant execution of evaluation-grid sweeps.
 *
 * Every grid point is an independent simulation (its own MemorySystem,
 * Simulation clock, and backing store), so the chapter 6 grid is
 * embarrassingly parallel. The SweepExecutor fans requests out to a
 * std::thread pool and aggregates results in *issue order*: the result
 * vector is indexed by request position, so the output — and any CSV
 * derived from it — is byte-identical no matter how many workers ran
 * or how they interleaved.
 *
 * A sweep always completes. Each point runs under a try/catch with a
 * bounded retry budget and per-point watchdogs (simulated cycles and
 * wall clock, see RunLimits): a SimError — protocol violation,
 * detected corruption, bad configuration — fails the attempt, a fresh
 * system is built for the next attempt, and a point whose budget is
 * exhausted is marked Failed in the final SweepReport instead of
 * taking the process down. Watchdog expiries are not retried (a hung
 * point hangs deterministically). When fault injection is enabled, the
 * fault seed is advanced between attempts so a retry explores a
 * different fault timeline rather than replaying the failure. Under
 * setQuarantineDir() each point that failed with a SimError also
 * leaves a standalone repro capsule (kernels/repro_capsule.hh). A
 * sweep cut short is rerun, not resumed: every point is deterministic,
 * so the rerun reproduces every byte.
 *
 * Progress and timing are reported through the standard stats layer:
 * the executor owns a StatSet with completed-point / simulated-cycle /
 * retry / failure counters and a per-point wall-time distribution, and
 * an optional progress callback fires (serialized, in completion
 * order) after each point for live reporting.
 */

#ifndef PVA_KERNELS_SWEEP_EXECUTOR_HH
#define PVA_KERNELS_SWEEP_EXECUTOR_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "kernels/sweep.hh"
#include "sim/stats.hh"

namespace pva
{

/** One generic task that exhausted its attempt budget. */
struct TaskFailure
{
    std::size_t index = 0;  ///< Position in the task batch
    unsigned attempts = 0;  ///< Attempts consumed before giving up
    std::string error;      ///< what() of the last attempt's exception
    /** Was the last attempt's exception a SimError? */
    bool simError = false;
    /** The last attempt's SimError kind (Watchdog for any other
     *  exception). */
    SimErrorKind kind = SimErrorKind::Watchdog;
};

/** Outcome of a runTasks() batch: every task accounted for. */
struct TaskReport
{
    std::size_t ok = 0;      ///< Succeeded on the first attempt
    std::size_t retried = 0; ///< Succeeded after at least one retry
    std::size_t failed = 0;  ///< Exhausted the attempt budget
    std::vector<TaskFailure> failures; ///< In batch (index) order

    bool allOk() const { return failed == 0; }
};

/** Per-task completion snapshot passed to runTasks() observers
 *  (serialized under the executor's lock, in completion order). */
struct TaskProgress
{
    std::size_t index = 0;  ///< Which task finished
    unsigned attempts = 0;  ///< Attempts it consumed
    bool ok = false;        ///< Did any attempt succeed?
    double millis = 0.0;    ///< Wall-clock time across its attempts
    std::size_t done = 0;   ///< Tasks completed so far (this one incl.)
    std::size_t total = 0;  ///< Tasks in the batch
};

/** Snapshot passed to the progress callback after each point. */
struct SweepProgress
{
    std::size_t done;  ///< Points completed so far (including this one)
    std::size_t total; ///< Points in the sweep
    const SweepPoint &point; ///< The point that just completed
    double millis;     ///< Its wall-clock run time
};

/** One quarantined grid point: its failure plus the standalone repro
 *  capsule `pva_replay --repro` re-executes (docs/ROBUSTNESS.md). */
struct QuarantineRecord
{
    std::size_t index = 0;  ///< Position in the request grid
    unsigned attempts = 0;  ///< Attempts consumed before quarantine
    /** fingerprintRequest() of the failing attempt's effective
     *  request (retry-advanced fault seed included). */
    std::uint64_t fingerprint = 0;
    std::uint64_t faultSeed = 0; ///< Effective fault seed of that attempt
    std::string error;           ///< As reported in failures[]
    /** The written repro capsule; empty when writing it failed. */
    std::string capsulePath;
    std::string capsuleError; ///< Why the capsule was not written
};

/** Outcome of a resilient sweep: the engine's TaskReport over the
 *  grid (a failure's coordinates are points[failure.index]; a
 *  SimError's text ends in the fingerprint and fault seed of its last
 *  attempt) plus every point. */
struct SweepReport : TaskReport
{
    /** One entry per request, in request order. Failed points carry
     *  status == PointStatus::Failed and zeroed cycle counts. */
    std::vector<SweepPoint> points;
    std::uint64_t simTicks = 0;      ///< Cycles processed, all points
    std::uint64_t cyclesSkipped = 0; ///< Cycles jumped (event clocking)
    /** Points that failed with a SimError, in request order (only
     *  populated under SweepExecutor::setQuarantineDir()). */
    std::vector<QuarantineRecord> quarantine;

    /** Machine-readable summary (see docs/ROBUSTNESS.md). */
    void dumpJson(std::ostream &os) const;
};

/** Runs sweep grids on a worker pool with deterministic results. */
class SweepExecutor
{
  public:
    /**
     * @param jobs worker thread count; 0 picks
     *             std::thread::hardware_concurrency(). 1 runs inline
     *             on the calling thread (the serial reference path).
     */
    explicit SweepExecutor(unsigned jobs = 0);

    unsigned jobs() const { return workerCount; }

    /** Attempt budget per task (>= 1; default 3). */
    void setMaxAttempts(unsigned attempts);

    /** Write a repro capsule per failed point of subsequent
     *  runReport() calls into @p dir (docs/ROBUSTNESS.md), creating
     *  it if missing; empty (the default) writes none. */
    void setQuarantineDir(std::string dir)
    {
        quarantineDir = std::move(dir);
    }

    using ProgressFn = std::function<void(const SweepProgress &)>;

    /** Install a progress callback. Invoked under an internal lock —
     *  at most one call at a time, in completion order. */
    void onProgress(ProgressFn callback) { progress = std::move(callback); }

    /**
     * Run every request with retry/watchdog isolation; returns the
     * full per-point accounting, in request order regardless of the
     * worker count.
     */
    SweepReport runReport(const std::vector<SweepRequest> &grid);

    /** A generic unit of work: @p index identifies the task, @p
     *  attempt counts retries from 0. Failure is an exception. */
    using TaskFn = std::function<void(std::size_t index,
                                      unsigned attempt)>;

    /** Completion observer; called under the executor's lock, at most
     *  one call at a time, in completion order. */
    using TaskDoneFn = std::function<void(const TaskProgress &)>;

    /**
     * The one engine underneath runReport(), the traffic layer's
     * offered-load sweeps and the sharded fleets: run @p count
     * independent tasks on the worker pool, and decide alone how a
     * task is attempted. Each task runs under its own trace processes,
     * "<process><index>/..." (trace::ProcessPrefix), so a traced batch
     * exports the same bytes at any worker count. A thrown
     * SimError(Watchdog) is final at once (a hung task hangs
     * deterministically); any other exception consumes one attempt of
     * the budget. A task injects faults under
     * FaultPlan::forAttempt(attempt), so a retry explores a different
     * fault timeline. It reports results by side effect into
     * caller-owned, index-addressed storage, which keeps aggregate
     * output deterministic across worker counts.
     */
    TaskReport runTasks(std::size_t count, const char *process,
                        const TaskFn &task,
                        const TaskDoneFn &observer = nullptr);

    /** Executor statistics: "sweep.points", "sweep.simCycles",
     *  "sweep.simTicks", "sweep.cyclesSkipped", "sweep.mismatches",
     *  "sweep.retries", "sweep.failures", and the "sweep.pointMillis"
     *  distribution. Accumulates across runReport() calls; runTasks()
     *  alone counts nothing. */
    StatSet &stats() { return statSet; }

    /**
     * The full chapter 6 evaluation grid (4 systems x 8 kernels x
     * 6 strides x 5 alignments) in canonical order: systems outermost,
     * then kernels, strides, alignments.
     */
    static std::vector<SweepRequest>
    chapter6Grid(std::uint32_t elements = 1024,
                 const SystemConfig &config = {});

  private:
    unsigned workerCount;
    unsigned attemptBudget = 3;
    std::string quarantineDir;
    ProgressFn progress;

    StatSet statSet;
    Scalar statPoints;
    Scalar statSimCycles;
    Scalar statSimTicks;
    Scalar statCyclesSkipped;
    Scalar statMismatches;
    Scalar statRetries;
    Scalar statFailures;
    Distribution statPointMillis{5};
};

/** @name Grid CSV emission
 * The machine-readable format shared by `pva_sim --sweep` and the
 * determinism and full-grid tests:
 * `system,kernel,stride,alignment,cycles,mismatches` with the paper's
 * system and alignment-preset names.
 * @{ */
void writeCsvHeader(std::ostream &os);
void writeCsvRow(std::ostream &os, const SweepPoint &point);
void writeCsv(std::ostream &os, const std::vector<SweepPoint> &points);
/** @} */

} // namespace pva

#endif // PVA_KERNELS_SWEEP_EXECUTOR_HH
