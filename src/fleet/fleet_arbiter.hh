/**
 * @file
 * The traffic layer's one production arbiter: admission control and
 * multiplexing of streams onto one memory system's limited
 * transaction resources.
 *
 * Every traffic run grants through a FleetArbiter: runFleet seats
 * each shard's tenants on one, and runTraffic seats a flat run's
 * streams as a single tenant. It keeps one array of streams indexed
 * by global id (its seats' streams, seat after seat) and replaces
 * every scan with an event worklist or a lazy-deletion heap: an
 * admission worklist, an open-loop arrival heap, head and priority
 * heaps for grant candidates, a round-robin set of non-empty queues
 * and a deadline-expiry heap. A quiescent stream costs nothing, every
 * mutation is O(log n), and nextWake lets event clocking skip every
 * cycle on which nothing can change.
 *
 * Tenants are a statistics partition, not an arbitration tier: each
 * stream records into its tenant's ServiceStats under its tenant-local
 * index, and grants pick over all streams alike. The MessageBus
 * (fleet/message_bus.hh) carries only telemetry; the arbiter publishes
 * each grant and each shed request for whatever sink subscribed. In
 * traced builds the arbiter's lifecycle instants (enqueue, defer,
 * shed-overload, shed-deadline, grant, complete, each naming the
 * global stream id) go to the "traffic/arbiter" track.
 *
 * Semantics contract: a FleetArbiter is cycle-exact against the O(n)
 * reference StreamArbiter (traffic/arbiter.hh), which scans every
 * stream on every cycle, over the same streams in global-id order —
 * same grant order, same tags, same per-stream statistics, same
 * occupancy, same drain cycle — across all policies, shedding
 * configurations, and both clocking modes (the differential test in
 * tests/test_fleet.cc holds this). The phase order, policy
 * tie-breaking and deferral accounting below are therefore
 * deliberate replicas of the reference; change them together or not
 * at all.
 */

#ifndef PVA_FLEET_FLEET_ARBITER_HH
#define PVA_FLEET_FLEET_ARBITER_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/memory_system.hh"
#include "fleet/message_bus.hh"
#include "sim/pool.hh"
#include "traffic/arbiter.hh"
#include "traffic/service_stats.hh"
#include "traffic/stream.hh"

namespace pva
{
class Simulation;
struct RunLimits;
} // namespace pva

namespace pva::fleet
{

/** One tenant's streams and name, ready to seat in a FleetArbiter. */
struct TenantSeat
{
    std::string name;
    std::vector<StreamSource> sources;
    ServiceStats *stats = nullptr; ///< Must outlive the arbiter
};

/** Multiplexes a fleet of tenants' streams onto one MemorySystem. */
class FleetArbiter
{
  public:
    /** Seats the tenants (taking ownership of their sources). Grants
     *  and shed requests are published on @p bus, which must outlive
     *  the arbiter, as must the seats' ServiceStats. */
    FleetArbiter(const ArbiterConfig &config,
                 std::vector<TenantSeat> seats, MessageBus &bus);

    /**
     * One service step at cycle @p now: drain completions, admit
     * arrivals, shed expired heads, grant until the system refuses
     * (StreamArbiter::service's phases). Returns true when every
     * stream is exhausted, every queue empty, and nothing is in
     * flight.
     */
    bool service(MemorySystem &sys, Cycle now);

    /**
     * Earliest cycle after @p now with self-scheduled arbiter work
     * (for Simulation::requestWake under ClockingMode::Event): now + 1
     * after a step that changed something (completion, admission,
     * shed or grant), since admissions and grants may cascade;
     * otherwise the earlier of the next open-loop arrival and the
     * next live deadline expiry. Closed-loop arrivals need no wake of
     * their own: only a completion unblocks them, and completions
     * ride the memory system's wakes. The next service credits the
     * skipped cycles (occupancy samples, deferrals), exact because
     * arbiter and system state are frozen over the span. Non-const:
     * finding the live expiry prunes stale heap entries.
     */
    Cycle nextWake(Cycle now);

    /** @name Occupancy: the memory system's in-flight count, sampled
     * at the end of every step and credited over skipped cycles.
     * Owned here (not per tenant) so merged tenant stats never
     * multiply the cycle count by the tenant count. @{ */
    std::uint64_t occupancyCycles() const { return occCycles; }
    std::uint64_t occupancySum() const { return occSum; }
    /** @} */

    /** Requests granted (one tag each). */
    std::uint64_t grants() const { return nextTag; }

  private:
    struct InFlight
    {
        unsigned stream = 0; ///< Global id
        Cycle arrival = 0;
        Cycle submitted = 0;
        std::uint32_t words = 0;
        bool isRead = true;
    };

    /** (cycle, global id) min-heap. */
    using CycleHeap =
        std::priority_queue<std::pair<Cycle, unsigned>,
                            std::vector<std::pair<Cycle, unsigned>>,
                            std::greater<>>;

    /** Tenant-local index of stream @p g (its ServiceStats slot). */
    unsigned
    localOf(unsigned g) const
    {
        return g - tenantBase[tenantOf[g]];
    }
    ServiceStats &
    statsOf(unsigned g) const
    {
        return *tenantStats[tenantOf[g]];
    }
    /** Does stream @p g's current head carry @p arrival? (The lazy
     *  heaps' liveness test: every head change pushes a fresh entry.) */
    bool
    headArrivedAt(unsigned g, Cycle arrival) const
    {
        return !queues[g].empty() && queues[g].front().arrival == arrival;
    }

    void admit(unsigned g, Cycle now, bool &changed);
    bool shedExpired(Cycle now);
    /** The queue of @p g gained a (new) head: index it. */
    void newHead(unsigned g);
    /** The head of @p g was granted or shed: index the next one. */
    void headPopped(unsigned g);
    /** Retire @p g once it is exhausted with an empty queue. */
    void checkRetired(unsigned g);
    void setDeferred(unsigned g, bool deferred);
    /** First live deadline expiry (kNeverCycle if none). */
    Cycle liveExpiry();
    bool oldestHead(unsigned &g, Cycle &arrival);
    bool pick(Cycle now, unsigned &g);

    ArbiterConfig cfg;
    Channel<GrantEvent> &grantChannel;
    Channel<ShedEvent> &shedChannel;

    /** @name Per stream, by global id @{ */
    std::vector<StreamSource> sources;
    std::vector<RingDeque<TrafficRequest>> queues;
    std::vector<unsigned> tenantOf;
    /** Precomputed shed thresholds (empty when shedding is off). */
    std::vector<Cycle> shedDeadline;
    std::vector<std::size_t> shedDepth;
    std::vector<Cycle> admitStamp; ///< now + 1 when admitted at now
    std::vector<std::uint32_t> deferredPos; ///< kNotDeferred when absent
    std::vector<char> hasArrivalEntry;
    std::vector<char> retired;
    /** @} */

    /** @name Per tenant @{ */
    std::vector<unsigned> tenantBase; ///< First global id
    std::vector<ServiceStats *> tenantStats;
    /** @} */

    /** @name Admission worklists
     * A stream is admitted at most once per step (admitStamp).
     * nextStepWork holds streams that must retry at the next step: an
     * overload shed (the reference's per-step one-drop bound) or a
     * deadline shed that freed a closed-loop window slot. @{ */
    std::vector<unsigned> admitWork;
    std::vector<unsigned> nextStepWork;
    /** @} */

    /** @name Deferred (backpressured) streams
     * Swap-removable list; retried every step and credited every
     * skipped cycle, exactly like the reference's full scan. @{ */
    std::vector<unsigned> deferredList;
    std::vector<unsigned> deferredScratch;
    /** @} */

    /** Open-loop arrival schedule: at most one entry per stream
     *  (hasArrivalEntry), popped exactly when due, so never stale. */
    CycleHeap arrivalHeap;
    /** Lazy head heap (arrival, id): the Fifo pick and the Priority
     *  policy's aging pick. */
    CycleHeap headHeap;
    /** Lazy priority heap: top = highest priority, then oldest, then
     *  lowest id (the Priority policy's pick). */
    struct PrioWorse
    {
        bool
        operator()(const std::tuple<unsigned, Cycle, unsigned> &x,
                   const std::tuple<unsigned, Cycle, unsigned> &y) const
        {
            if (std::get<0>(x) != std::get<0>(y))
                return std::get<0>(x) < std::get<0>(y);
            if (std::get<1>(x) != std::get<1>(y))
                return std::get<1>(x) > std::get<1>(y);
            return std::get<2>(x) > std::get<2>(y);
        }
    };
    std::priority_queue<std::tuple<unsigned, Cycle, unsigned>,
                        std::vector<std::tuple<unsigned, Cycle, unsigned>>,
                        PrioWorse>
        prioHeap;
    std::set<unsigned> rrSet; ///< Non-empty queues (RoundRobin pick)
    CycleHeap expiryHeap;     ///< Lazy deadline expiries (expiry, id)

    std::unordered_map<std::uint64_t, InFlight> inFlight;
    std::vector<Completion> drainedCompletions;
    std::uint64_t nextTag = 0;
    unsigned lastGranted = 0;      ///< RoundRobin cursor
    std::size_t activeStreams = 0; ///< Streams not yet retired

    /** @name Occupancy + event-clocking bookkeeping @{ */
    std::uint64_t occCycles = 0;
    std::uint64_t occSum = 0;
    bool changedLastService = false;
    bool everServiced = false;
    Cycle lastServiceAt = 0;
    std::size_t lastInFlightSample = 0;
    /** @} */
    std::uint32_t traceTrackId = 0; ///< "traffic/arbiter"; 0 = untraced
};

/**
 * Service @p arbiter against @p sys at every cycle @p sim processes,
 * posting the arbiter's own wakes, until it drains. The caller adds
 * the system to @p sim. Throws SimError(Watchdog) when @p limits
 * expire.
 */
void runToDrain(Simulation &sim, FleetArbiter &arbiter,
                MemorySystem &sys, const RunLimits &limits);

} // namespace pva::fleet

#endif // PVA_FLEET_FLEET_ARBITER_HH
