/**
 * @file
 * Hierarchical stream arbitration for fleet-scale traffic.
 *
 * The flat StreamArbiter (traffic/arbiter.hh) scans every stream every
 * service step, which is perfect at paper scale (a handful of streams)
 * and hopeless at fleet scale (10^4-10^6 modeled streams). This file
 * splits the same arbitration semantics into two tiers:
 *
 *  - TenantArbiter: owns one tenant's streams, bounded queues, and
 *    ServiceStats. All per-step work is event-driven worklists plus
 *    lazy-deletion heaps (admission worklist, open-loop arrival heap,
 *    head/priority heaps for grant candidates, deadline-expiry heap),
 *    so a quiescent stream costs nothing and every mutation is
 *    O(log n_tenant).
 *  - FleetArbiter: drives the per-step phase order (gap credit,
 *    completions, admission, deadline shed, grant, occupancy sample)
 *    across tenants and picks grants globally through root-level
 *    lazy heaps over per-tenant candidates, O(log) per grant.
 *
 * A tenant tells its root about state changes by direct call: its
 * grant candidate may have changed (markDirty), its queues went empty
 * or non-empty (setNonEmpty), or a stream retired (streamRetired).
 * The root pulls arrival and expiry schedules from the tenant after
 * each step it runs there. The MessageBus (fleet/message_bus.hh)
 * carries only telemetry: the root publishes each grant and the
 * tenants each shed request, for whatever sink subscribed.
 *
 * Semantics contract: with one tenant, a FleetArbiter is cycle-exact
 * against the flat StreamArbiter — same grant order, same tags, same
 * per-stream statistics, same drain cycle — across all policies,
 * shedding configurations, and both clocking modes (the differential
 * test in tests/test_fleet.cc holds this). The phase order, policy
 * tie-breaking, deferral accounting, and nextWake contract below are
 * therefore deliberate replicas of traffic/arbiter.cc; change them
 * together or not at all.
 */

#ifndef PVA_FLEET_FLEET_ARBITER_HH
#define PVA_FLEET_FLEET_ARBITER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/memory_system.hh"
#include "fleet/message_bus.hh"
#include "traffic/arbiter.hh"
#include "traffic/service_stats.hh"
#include "traffic/stream.hh"

namespace pva::fleet
{

class FleetArbiter;

/** One tenant's streams and name, ready to seat in a FleetArbiter. */
struct TenantSeat
{
    std::string name;
    std::vector<StreamSource> sources;
    ServiceStats *stats = nullptr; ///< Must outlive the arbiter
};

/**
 * One tenant's arbitration state: bounded queues plus the event-driven
 * index structures the root tier picks grants from. Constructed and
 * driven only by FleetArbiter.
 */
class TenantArbiter
{
  public:
    TenantArbiter(unsigned index, const ArbiterConfig &config,
                  std::vector<StreamSource> sources_,
                  ServiceStats &stats_, FleetArbiter &root_);

    /** @name Per-step phases (called by FleetArbiter) @{ */
    /** Credit @p gap skipped cycles of backpressure to every stream
     *  that was deferred at the last processed step. */
    void creditDeferredGap(Cycle gap);
    /** Run admission for this step's worklist (due open-loop
     *  arrivals, freed closed-loop windows, deferred retries).
     *  @return true if anything changed (enqueue or overload shed). */
    bool admitStep(Cycle now);
    /** Drop queue heads whose deadline budget expired by @p now.
     *  @return true if anything was shed. */
    bool shedExpired(Cycle now);
    /** A completion for local stream @p local matured at @p now. */
    void onComplete(unsigned local, Cycle service_latency,
                    Cycle total_latency, std::uint32_t words,
                    bool is_read);
    /** @} */

    /** @name Grant candidates (lazy heap peeks, amortized O(log n)) @{ */
    /** Oldest queue head: (arrival, local), ties lowest local id. */
    bool fifoBest(Cycle &arrival, unsigned &local);
    /** Highest-priority head; ties oldest, then lowest local id. */
    bool prioBest(unsigned &prio, Cycle &arrival, unsigned &local);
    /** Round-robin: smallest non-empty local id >= @p from_local. */
    bool rrFirstAtLeast(unsigned from_local, unsigned &local) const;
    /** Round-robin wrap: smallest non-empty local id. */
    bool rrFirst(unsigned &local) const;
    /** @} */

    const TrafficRequest &head(unsigned local) const
    {
        return queues[local].front();
    }
    /** Pop the granted head of @p local (records onSubmit). */
    void popGranted(unsigned local, Cycle now);

    /** Earliest pending open-loop arrival (kNeverCycle if none). */
    Cycle minArrival() const;
    /** Earliest queued-head deadline expiry (kNeverCycle if none). */
    Cycle minExpiry();

    /** Any admission work queued for this or the next step? */
    bool admissionPending() const
    {
        return !admitWork.empty() || !nextStepWork.empty() ||
               !deferredList.empty();
    }
    bool hasDeferred() const { return !deferredList.empty(); }

  private:
    void processAdmission(unsigned local, Cycle now, bool &changed);
    /** The queue of @p local gained a (new) head: refresh candidate
     *  structures and tell the root. */
    void newHead(unsigned local);
    void queueBecameEmpty(unsigned local);
    /** Retire @p local once it is exhausted with an empty queue. */
    void checkRetired(unsigned local);
    void pushArrivalEntry(Cycle arrival, unsigned local);
    void addDeferred(unsigned local);
    void removeDeferred(unsigned local);

    unsigned tenantIndex;
    ArbiterConfig cfg;
    std::vector<StreamSource> sources;
    ServiceStats &stats;
    FleetArbiter &root;

    /** Precomputed per-stream shed thresholds (traffic/arbiter.cc). */
    std::vector<Cycle> shedDeadline;
    std::vector<std::size_t> shedDepth;

    std::vector<std::deque<TrafficRequest>> queues;

    /** @name Admission worklists
     * A stream is processed at most once per step (admitStamp).
     * nextStepWork holds overload-shed streams that must retry at the
     * next step (the flat arbiter's per-step one-drop bound). @{ */
    std::vector<unsigned> admitWork;
    std::vector<unsigned> nextStepWork;
    std::vector<Cycle> admitStamp; ///< now + 1 when processed at now
    /** @} */

    /** @name Deferred (backpressured) streams
     * Swap-removable list + position index; iterated every step to
     * retry admission and count per-cycle deferrals, exactly like the
     * flat arbiter's full scan does. @{ */
    std::vector<unsigned> deferredList;
    std::vector<std::uint32_t> deferredPos; ///< kNotDeferred when absent
    std::vector<unsigned> deferredScratch;
    /** @} */

    /** Open-loop arrival schedule: (arrival, local) min-heap with at
     *  most one live entry per stream (hasArrivalEntry). */
    std::priority_queue<std::pair<Cycle, unsigned>,
                        std::vector<std::pair<Cycle, unsigned>>,
                        std::greater<>>
        arrivalHeap;
    std::vector<char> hasArrivalEntry;

    /** Lazy head heap: (arrival, local); an entry is live iff the
     *  stream's current front has that arrival. Fifo + aging pick. */
    std::priority_queue<std::pair<Cycle, unsigned>,
                        std::vector<std::pair<Cycle, unsigned>>,
                        std::greater<>>
        headHeap;

    /** Lazy priority heap: top = highest priority, then oldest, then
     *  lowest local id (Priority policy pick). */
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
                        std::vector<std::tuple<unsigned, Cycle,
                                               unsigned>>,
                        PrioWorse>
        prioHeap;

    /** Non-empty queues by local id (RoundRobin pick). */
    std::set<unsigned> rrSet;

    /** Lazy deadline-expiry heap: (expiry, local). */
    std::priority_queue<std::pair<Cycle, unsigned>,
                        std::vector<std::pair<Cycle, unsigned>>,
                        std::greater<>>
        expiryHeap;

    std::vector<char> retired;
    std::size_t nonEmptyCount = 0;

    friend class FleetArbiter;
};

/** Multiplexes a fleet of tenants onto one MemorySystem. */
class FleetArbiter
{
  public:
    /** Seats the tenants (taking ownership of their sources). Grants
     *  and shed requests are published on @p bus, which must outlive
     *  the arbiter, as must the seats' ServiceStats. */
    FleetArbiter(const ArbiterConfig &config,
                 std::vector<TenantSeat> seats, MessageBus &bus);
    ~FleetArbiter();

    /**
     * One service step at cycle @p now, same contract as
     * StreamArbiter::service: returns true when every stream is
     * exhausted, every queue empty, and nothing is in flight.
     */
    bool service(MemorySystem &sys, Cycle now);

    /**
     * Earliest cycle after @p now with self-scheduled arbiter work
     * (StreamArbiter::nextWake contract). Non-const: validating the
     * fleet-level arrival/expiry heaps prunes stale entries, which is
     * what keeps the wake exact — never earlier or later than the
     * flat arbiter would report.
     */
    Cycle nextWake(Cycle now);

    /** @name Fleet-level occupancy sampling
     * Owned here (not per-tenant) so merged tenant stats never
     * multiply the cycle count by the tenant count. @{ */
    std::uint64_t occupancyCycles() const { return occCycles; }
    std::uint64_t occupancySum() const { return occSum; }
    double
    meanInFlight() const
    {
        return occCycles == 0 ? 0.0
                              : static_cast<double>(occSum) /
                                    static_cast<double>(occCycles);
    }
    /** @} */

    std::uint64_t grants() const { return grantCount; }

  private:
    struct FleetInFlight
    {
        unsigned tenant = 0;
        unsigned local = 0;
        Cycle arrival = 0;
        Cycle submitted = 0;
        std::uint32_t words = 0;
        bool isRead = true;
    };

    /** @name Tenant-to-root notifications (called by TenantArbiter) @{ */
    /** Tenant @p t's grant candidate may have changed (head enqueue,
     *  grant, or shed); its root entries refresh before the next pick. */
    void markDirty(unsigned t);
    /** Tenant @p t crossed the empty <-> non-empty boundary (any
     *  queued request at all): the round-robin occupancy set. */
    void setNonEmpty(unsigned t, bool non_empty);
    /** A stream retired (exhausted with an empty queue): counted down
     *  to detect fleet drain in O(1). */
    void streamRetired() { --activeStreams; }
    /** @} */

    unsigned tenantOf(unsigned gid) const;
    void markPending(unsigned t);
    void markShedPending(unsigned t);
    void drainDirty();
    void refreshCandidate(unsigned t);
    /** Re-arm the fleet arrival/expiry heaps after processing @p t. */
    void reprimeArrival(unsigned t);
    void reprimeExpiry(unsigned t);

    bool pickFifo(unsigned &t, unsigned &local, Cycle &arrival);
    bool pickPriority(Cycle now, unsigned &t, unsigned &local);
    bool pickRoundRobin(unsigned &t, unsigned &local);

    ArbiterConfig cfg;
    Channel<GrantEvent> &grantChannel;
    Channel<ShedEvent> &shedChannel;
    std::vector<std::unique_ptr<TenantArbiter>> tenants;
    std::vector<unsigned> bases; ///< bases[t] = first global id of t
    std::size_t totalStreams = 0;

    std::unordered_map<std::uint64_t, FleetInFlight> inFlight;
    std::vector<Completion> drainedCompletions;
    std::uint64_t nextTag = 0;
    std::uint64_t grantCount = 0;
    unsigned lastGrantedGid = 0;

    /** @name Root grant candidates (lazy heaps over tenant bests) @{ */
    std::priority_queue<std::pair<Cycle, unsigned>,
                        std::vector<std::pair<Cycle, unsigned>>,
                        std::greater<>>
        rootFifo; ///< (arrival, global id)
    struct RootPrioWorse
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
                        std::vector<std::tuple<unsigned, Cycle,
                                               unsigned>>,
                        RootPrioWorse>
        rootPrio; ///< (priority, arrival, global id)
    std::set<unsigned> nonEmptyTenants; ///< RoundRobin occupancy
    std::vector<char> dirtyFlag;
    std::vector<unsigned> dirtyList;
    /** @} */

    /** @name Fleet-level wake schedules
     * Lazy min-heaps of (cycle, tenant); the cache holds the smallest
     * outstanding entry per tenant so each tenant keeps at most one
     * live entry (plus prunable stale ones). @{ */
    std::priority_queue<std::pair<Cycle, unsigned>,
                        std::vector<std::pair<Cycle, unsigned>>,
                        std::greater<>>
        fleetArrival;
    std::vector<Cycle> arrivalCache;
    std::priority_queue<std::pair<Cycle, unsigned>,
                        std::vector<std::pair<Cycle, unsigned>>,
                        std::greater<>>
        fleetExpiry;
    std::vector<Cycle> expiryCache;
    /** @} */

    /** @name Per-step tenant worklists @{ */
    std::vector<unsigned> pendingTenants;
    std::vector<char> pendingFlag;
    std::vector<unsigned> pendingScratch;
    std::vector<unsigned> shedPending;
    std::vector<char> shedPendingFlag;
    /** Tenants with any deferred stream (gap credit set). */
    std::set<unsigned> deferredTenants;
    /** @} */

    std::size_t activeStreams = 0; ///< Streams not yet retired

    /** @name Fleet occupancy + event-clocking bookkeeping @{ */
    std::uint64_t occCycles = 0;
    std::uint64_t occSum = 0;
    bool changedLastService = false;
    bool everServiced = false;
    Cycle lastServiceAt = 0;
    std::size_t lastInFlightSample = 0;
    /** @} */

    friend class TenantArbiter;
};

} // namespace pva::fleet

#endif // PVA_FLEET_FLEET_ARBITER_HH
