/**
 * @file
 * Orchestration of traffic runs and offered-load sweeps.
 *
 * runTraffic() runs one TrafficConfig — N stream sources, an
 * arbitration policy, one memory system — as a one-seat fleet: the
 * streams are a single tenant of a fleet::FleetArbiter, the arbiter
 * every traffic run grants through, driven to drain by
 * fleet::runToDrain under the standard watchdogs. It reduces the
 * per-stream ServiceStats and the arbiter's occupancy samples into a
 * TrafficResult (throughput, latency percentiles, occupancy,
 * bank-controller utilization).
 *
 * runLoadSweep() evaluates a ladder of offered loads across memory
 * systems on the SweepExecutor's generic task engine, inheriting its
 * worker pool, retry policy, and determinism guarantees; the resulting
 * throughput-latency curves export as CSV or JSON for plotting.
 */

#ifndef PVA_TRAFFIC_TRAFFIC_RUNNER_HH
#define PVA_TRAFFIC_TRAFFIC_RUNNER_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "kernels/sweep.hh"
#include "kernels/sweep_executor.hh"
#include "traffic/arbiter.hh"
#include "traffic/service_stats.hh"
#include "traffic/stream.hh"

namespace pva
{

/** Everything one traffic run needs. */
struct TrafficConfig
{
    SystemKind system = SystemKind::PvaSdram;
    SystemConfig config{};       ///< System construction knobs
    ArbiterConfig arbiter{};
    std::vector<StreamConfig> streams;
    RunLimits limits{};          ///< Watchdog budgets
};

/** One stream's slice of a TrafficResult. */
struct StreamResult
{
    std::string name;
    std::uint64_t requests = 0;  ///< Emitted requests, queued or shed
    std::uint64_t completed = 0;
    std::uint64_t deferrals = 0; ///< Backpressured admission cycles
    std::uint64_t shedDeadline = 0; ///< Dropped past the deadline budget
    std::uint64_t shedOverload = 0; ///< Dropped at the high watermark
    std::uint64_t queuePeak = 0; ///< Deepest bounded-queue occupancy
    std::uint64_t words = 0;     ///< Elements moved (read + written)
    LatencySummary queueDelay;
    LatencySummary serviceLatency;
    LatencySummary totalLatency;
};

/** Outcome of one traffic run. */
struct TrafficResult
{
    Cycle cycles = 0;
    std::uint64_t completed = 0;
    std::uint64_t words = 0;
    double requestsPerKilocycle = 0.0; ///< Achieved throughput
    double wordsPerCycle = 0.0;        ///< Achieved bandwidth
    double meanInFlight = 0.0;  ///< Mean context occupancy (sampled)
    double bcUtilization = 0.0; ///< Mean BC scheduler duty cycle (PVA)
    std::uint64_t shed = 0; ///< Requests dropped (both causes, all streams)
    /** shed / (completed + shed): the fraction of consumed work the
     *  arbiter dropped to protect the latency of the rest. */
    double shedRate = 0.0;
    std::uint64_t simTicks = 0;      ///< Cycles actually processed
    std::uint64_t cyclesSkipped = 0; ///< Cycles jumped (event clocking)
    /** Bank-controller ticks run (sim.bcTicks; 0 on systems without
     *  bank controllers). */
    std::uint64_t bcTicks = 0;
    std::uint64_t cyclesPerSecond = 0; ///< Simulated cycles per wall second
    LatencySummary queueDelay;
    LatencySummary serviceLatency;
    LatencySummary totalLatency;
    std::vector<StreamResult> streams;

    /** Deterministic single-object JSON dump. */
    void dumpJson(std::ostream &os) const;
};

/**
 * Run @p config to completion. Throws SimError on unsupportable
 * configuration or watchdog expiry (callers running point grids go
 * through SweepExecutor::runTasks for isolation). When @p stats_dump
 * is non-null, the full ServiceStats registry and the memory system's
 * own StatSet (context occupancy, FIFO depths, ...) are dumped to it
 * before teardown.
 */
TrafficResult runTraffic(const TrafficConfig &config,
                         std::ostream *stats_dump = nullptr);

/** An offered-load ladder across memory systems. */
struct LoadSweepConfig
{
    /** Template run: its streams are re-rated per point (every stream
     *  is forced open-loop; aggregate load splits evenly). */
    TrafficConfig base;
    /** Aggregate offered loads, requests per kilocycle. */
    std::vector<double> offeredLoads;
    /** Systems to sweep (curve per system). */
    std::vector<SystemKind> systems{SystemKind::PvaSdram,
                                    SystemKind::CacheLine,
                                    SystemKind::Gathering};
    unsigned jobs = 0;    ///< Worker threads (0 = hardware)
    unsigned retries = 3; ///< Attempt budget per point
};

/** One point of a throughput-latency curve. */
struct LoadPoint
{
    SystemKind system = SystemKind::PvaSdram;
    double offered = 0.0; ///< Aggregate requests per kilocycle
    TrafficResult result;
    bool failed = false;
    unsigned attempts = 1;
    std::string error;
};

/**
 * Run the ladder on a SweepExecutor worker pool (parallel,
 * fault-tolerant, deterministic across worker counts). Points are
 * ordered systems-outer, loads-inner (ascending offered load), so
 * curves come out monotone in offered load.
 */
std::vector<LoadPoint> runLoadSweep(const LoadSweepConfig &config);

/** @name Throughput-latency curve export
 * CSV: one row per point; JSON: {"points": [...]} with per-stream
 * detail. Both deterministic for a given input.
 * @{ */
void writeLoadCsvHeader(std::ostream &os);
void writeLoadCsvRow(std::ostream &os, const LoadPoint &point);
void writeLoadCsv(std::ostream &os,
                  const std::vector<LoadPoint> &points);
void writeLoadJson(std::ostream &os,
                   const std::vector<LoadPoint> &points);
/** @} */

} // namespace pva

#endif // PVA_TRAFFIC_TRAFFIC_RUNNER_HH
