/**
 * @file
 * Sharded execution of fleet-scale traffic scenarios.
 *
 * runFleet() stamps a fleet of tenants out of TenantSpec templates,
 * partitions them across shards (tenant t lives on shard t % shards),
 * and runs one MemorySystem + FleetArbiter per shard on the
 * SweepExecutor's generic task engine — inheriting its worker pool,
 * retry policy, and index-addressed determinism. Shard results merge
 * in shard-index order with associative reductions (counter sums,
 * LogHistogram bucket adds), so a FleetResult is byte-identical for a
 * given (config, shards) at any --jobs.
 *
 * Stream seeding is derived from the global stream index, never from
 * the shard, so the offered load of every stream is a pure function of
 * the scenario — resharding changes only which streams contend for a
 * memory system, not what they ask of it.
 */

#ifndef PVA_FLEET_FLEET_RUNNER_HH
#define PVA_FLEET_FLEET_RUNNER_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "kernels/sweep.hh"
#include "traffic/arbiter.hh"
#include "traffic/service_stats.hh"
#include "traffic/stream.hh"

namespace pva::fleet
{

/** A group of identically-shaped tenants. */
struct TenantSpec
{
    std::string name = "tenant"; ///< Group name; tenants get "<name><t>"
    unsigned count = 1;          ///< Tenants stamped from this spec
    unsigned streamsPerTenant = 1;
    /** Stream template. Per stream, the name becomes "s<local>", the
     *  seed is mixed with the global stream index (splitmix64 step),
     *  and — when regionStrideWords > 0 — the pattern region shifts by
     *  global_stream * regionStrideWords (disjoint regions, which is
     *  what keeps --check composable at fleet scale). */
    StreamConfig stream;
    std::uint64_t regionStrideWords = 0;
};

/** Everything one fleet run needs. */
struct FleetConfig
{
    SystemKind system = SystemKind::PvaSdram;
    SystemConfig config{};  ///< Per-shard system construction knobs
    ArbiterConfig arbiter{};
    std::vector<TenantSpec> tenants;
    RunLimits limits{};     ///< Per-shard watchdog budgets
    unsigned shards = 1;    ///< Clamped to the tenant count
    unsigned jobs = 0;      ///< Worker threads (0 = hardware)
    unsigned retries = 1;   ///< Attempt budget per shard
};

/** One tenant's slice of a FleetResult. */
struct TenantResult
{
    std::string name;
    unsigned shard = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t completed = 0;
    std::uint64_t deferrals = 0;
    std::uint64_t shedDeadline = 0;
    std::uint64_t shedOverload = 0;
    std::uint64_t queuePeak = 0;
    std::uint64_t words = 0;
    LatencySummary queueDelay;
    LatencySummary serviceLatency;
    LatencySummary totalLatency;
};

/** Merged outcome of one fleet run. */
struct FleetResult
{
    Cycle cycles = 0; ///< Makespan: the slowest shard's drain cycle
    unsigned shards = 0;
    std::uint64_t tenants = 0;
    std::uint64_t streams = 0;
    std::uint64_t completed = 0;
    std::uint64_t words = 0;
    std::uint64_t grants = 0;
    std::uint64_t shed = 0;
    double shedRate = 0.0;
    double requestsPerKilocycle = 0.0; ///< Against the makespan
    double wordsPerCycle = 0.0;
    double meanInFlight = 0.0; ///< Occupancy-weighted across shards
    std::uint64_t simTicks = 0;      ///< Summed over shards
    std::uint64_t cyclesSkipped = 0; ///< Summed over shards
    /** Bus-telemetry cross-check: grants/sheds counted by a decoupled
     *  MessageBus subscriber, not the arbiter (must equal grants and
     *  shed above — the differential test holds this). */
    std::uint64_t busGrants = 0;
    std::uint64_t busSheds = 0;
    LatencySummary queueDelay;
    LatencySummary serviceLatency;
    LatencySummary totalLatency;
    std::vector<TenantResult> tenantResults; ///< Global tenant order

    /** Deterministic single-line JSON dump (no trailing newline). */
    void dumpJson(std::ostream &os) const;
};

/**
 * Run @p config to completion. Throws SimError on invalid
 * configuration, watchdog expiry, or any shard failing its attempt
 * budget.
 */
FleetResult runFleet(const FleetConfig &config);

} // namespace pva::fleet

#endif // PVA_FLEET_FLEET_RUNNER_HH
