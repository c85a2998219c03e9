/**
 * @file
 * The arbitration vocabulary of the traffic layer — policies, shedding
 * knobs, per-stream shed thresholds — and StreamArbiter, the O(n)
 * reference arbiter the production FleetArbiter (fleet/fleet_arbiter.hh)
 * is checked against.
 *
 * Each stream owns a bounded queue. Every service step an arbiter
 *
 *  1. drains completions, crediting service/total latency to the
 *     owning stream and releasing closed-loop window slots;
 *  2. admits pending arrivals into the per-stream queues — a full
 *     queue defers the arrival (backpressure, counted per deferred
 *     cycle; open-loop requests keep their scheduled arrival stamp, so
 *     deferral shows up as queueing delay, not lost load);
 *  2b. with shedding on, drops queue heads past their deadline;
 *  3. submits queue heads to MemorySystem::trySubmit under the
 *     configured policy until the system refuses (its Vector Contexts
 *     / transaction slots are full).
 *
 * Policies:
 *  - Fifo: globally oldest arrival first (ties: lowest stream id).
 *  - RoundRobin: rotate a grant cursor over non-empty queues.
 *  - Priority: highest StreamConfig::priority first — but any head
 *    request that has waited longer than agingThreshold cycles is
 *    served oldest-first regardless of priority, which bounds every
 *    stream's wait (starvation-freedom).
 *
 * StreamArbiter spells those phases out as plain scans over every
 * stream and has no wake of its own: nextWake is always now + 1, so
 * it is stepped on every cycle and needs no skipped-span credit. Only
 * tests and benchmark probes build it; every traffic run grants
 * through a FleetArbiter.
 *
 * All decisions are pure functions of (config, stream seeds, cycle),
 * so a traffic run is bit-reproducible anywhere, including under the
 * SweepExecutor worker pool.
 */

#ifndef PVA_TRAFFIC_ARBITER_HH
#define PVA_TRAFFIC_ARBITER_HH

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/memory_system.hh"
#include "traffic/service_stats.hh"
#include "traffic/stream.hh"

namespace pva
{

/** Stream-multiplexing policies. */
enum class ArbPolicy
{
    Fifo,
    RoundRobin,
    Priority,
};

/** The name table: "fifo", "rr", "priority". */
const Vocabulary<ArbPolicy> &arbPolicies();

/** arbPolicies().name(@p policy) */
const char *arbPolicyName(ArbPolicy policy);

/** Arbitration knobs. */
struct ArbiterConfig
{
    ArbPolicy policy = ArbPolicy::Fifo;
    /** Priority policy: a head request older than this many cycles is
     *  served FIFO ahead of any fresher higher-priority work. */
    Cycle agingThreshold = 1024;

    /**
     * Graceful degradation under overload (docs/TRAFFIC.md). Disabled
     * by default; with shedding off the arbiter's behaviour is
     * bit-identical to a build without this feature.
     *
     * Two shedding causes, accounted separately in ServiceStats:
     *
     *  - deadline: a queued request whose queueing delay exceeds its
     *    stream's budget is dropped instead of served, so stale work
     *    cannot clog the queue ahead of fresh work;
     *  - overload: when a stream's queue reaches the high watermark,
     *    one new arrival per service step is dropped on admission,
     *    relieving pressure before the queue hits capacity
     *    backpressure.
     *
     * A shed request releases its stream's window slot (closed loop
     * keeps offering load) and is excluded from latency histograms —
     * the p99 of *served* requests stays bounded by the deadline.
     */
    struct ShedConfig
    {
        bool enabled = false;
        /** Queueing-delay budget for streams that leave
         *  StreamConfig::deadline at 0 (cycles; 0 = no deadline). */
        Cycle defaultDeadline = 0;
        /** Queue-depth fraction (of queueCapacity) at which overload
         *  shedding starts; >= 1.0 disables overload shedding. */
        double queueHighWatermark = 1.0;
    };
    ShedConfig shed;
};

/** ShedConfig::enabled's name table: "on", "off". */
const Vocabulary<bool> &shedSwitch();

/** @name A stream's shedding thresholds under ArbiterConfig::shed @{ */
/** Queueing-delay budget of @p stream (cycles; 0 = no deadline). */
Cycle shedDeadlineOf(const ArbiterConfig &config,
                     const StreamConfig &stream);
/** Queue depth at which @p stream's arrivals are shed (its queue
 *  capacity when the watermark is off). */
std::size_t shedDepthOf(const ArbiterConfig &config,
                        const StreamConfig &stream);
/** @} */

/** The reference arbiter: every phase a scan over every stream. */
class StreamArbiter
{
  public:
    /** Takes ownership of @p sources; @p stats must outlive the
     *  arbiter and have one stream slot per source. */
    StreamArbiter(const ArbiterConfig &config,
                  std::vector<StreamSource> sources,
                  ServiceStats &stats);

    /**
     * One service step at cycle @p now. Call it on every cycle, before
     * the system's tick (from a Simulation::runUntil predicate, with
     * nextWake posted as a wake under event clocking).
     *
     * @return true when every stream is exhausted, every queue is
     *         empty, and no request is in flight.
     */
    bool service(MemorySystem &sys, Cycle now);

    /** Always @p now + 1: the reference is stepped on every cycle. */
    Cycle nextWake(Cycle now) const { return now + 1; }

  private:
    /** Pick the next stream to grant; returns false if all empty. */
    bool pick(Cycle now, unsigned &out) const;

    struct InFlight
    {
        unsigned stream = 0;
        Cycle arrival = 0;
        Cycle submitted = 0;
        std::uint32_t words = 0;
        bool isRead = true;
    };

    ArbiterConfig cfg;
    std::vector<StreamSource> sources;
    ServiceStats &stats;
    /** @name Per-stream shedding thresholds (precomputed; empty
     *  vectors when shedding is disabled) @{ */
    std::vector<Cycle> shedDeadline;     ///< 0 = no deadline
    std::vector<std::size_t> shedDepth;  ///< >= capacity = no watermark
    /** @} */
    std::vector<std::deque<TrafficRequest>> queues;
    std::unordered_map<std::uint64_t, InFlight> inFlight;
    /** Drain buffer reused across service() steps (storage shuttles
     *  between arbiter and memory system; lines are recycled). */
    std::vector<Completion> drainedCompletions;
    std::uint64_t nextTag = 0;
    unsigned lastGranted = 0; ///< RoundRobin cursor
};

} // namespace pva

#endif // PVA_TRAFFIC_ARBITER_HH
