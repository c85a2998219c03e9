/**
 * @file
 * Service-level metrics for the traffic subsystem, built on sim/stats.
 *
 * ServiceStats owns, per stream and in aggregate, the counters a
 * serving stack would report: arrivals, admissions, completions,
 * backpressure deferrals, sheds, queue-depth peaks, words moved, and
 * three log-scale latency histograms with percentile queries —
 *
 *   queueDelay      arrival -> submit (admission + arbitration wait)
 *   serviceLatency  submit -> completion (the memory system itself)
 *   totalLatency    arrival -> completion (what a client observes)
 *
 * Everything registers into one StatSet ("<prefix>.<name>.*" per
 * stream, "<prefix>.agg.*" aggregate), so text/JSON dumps come for
 * free and tests can assert on named values. Readers take a stream's
 * or the aggregate's Counters through stream(i) and total().
 * Occupancy is not a per-stream quantity; the arbiter samples it
 * (FleetArbiter::occupancySum/occupancyCycles).
 */

#ifndef PVA_TRAFFIC_SERVICE_STATS_HH
#define PVA_TRAFFIC_SERVICE_STATS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/json.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace pva
{

/** A latency histogram reduced to the reporting quartet. */
struct LatencySummary
{
    std::uint64_t samples = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    double mean = 0.0;
    std::uint64_t p50 = 0;
    std::uint64_t p95 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t p999 = 0;
};

LatencySummary summarize(const LogHistogram &h);

/** Write member @p key as {"samples": ..., "p999": ...}: the one JSON
 *  shape of a summary in every traffic and fleet result. */
void jsonSummary(json::Writer &w, const char *key, const LatencySummary &s);

/** Per-stream and aggregate service accounting. */
class ServiceStats
{
  public:
    /**
     * How much per-stream state to keep. A fleet-scale tenant
     * (src/fleet/) modeling 10^4+ streams keeps AggregateOnly stats —
     * three preallocated histograms per *stream* would dominate its
     * memory footprint — while a flat traffic run (runTraffic) keeps
     * the full per-stream registry.
     */
    enum class Detail
    {
        PerStream,     ///< Per-stream counters + histograms + aggregate
        AggregateOnly, ///< Aggregate counters/histograms only
    };

    /**
     * @param names one display name per stream (used as stat prefix).
     * @param detail per-stream registry or aggregate-only (see Detail).
     * @param prefix stat-name namespace ("traffic" for a flat run;
     *        tenants use their own name so merged registries cannot
     *        collide).
     */
    explicit ServiceStats(const std::vector<std::string> &names,
                          Detail detail = Detail::PerStream,
                          const std::string &prefix = "traffic");

    /** One stream's, or the aggregate's, counters and histograms. */
    struct Counters
    {
        Scalar arrivals; ///< Emitted requests, queued or shed
        Scalar submitted;
        Scalar completed;
        Scalar deferrals;
        Scalar shedDeadline; ///< Requests dropped past their deadline
        Scalar shedOverload; ///< Requests dropped at the high watermark
        Scalar queuePeak;
        Scalar wordsRead;
        Scalar wordsWritten;
        LogHistogram queueDelay;
        LogHistogram serviceLatency;
        LogHistogram totalLatency;

        /** Elements moved, read plus written. */
        std::uint64_t
        words() const
        {
            return wordsRead.value() + wordsWritten.value();
        }
        /** Requests dropped, both causes. */
        std::uint64_t
        shed() const
        {
            return shedDeadline.value() + shedOverload.value();
        }

        /** Fold @p from in: counts add, the queue peak is the larger,
         *  histograms merge bucket-wise. */
        void merge(const Counters &from);
    };

    /** @name Event hooks (called by the arbiters) @{ */
    void onArrival(unsigned stream);
    void onDeferred(unsigned stream);       ///< Backpressure: queue full
    void onShedDeadline(unsigned stream);   ///< Dropped: deadline missed
    void onShedOverload(unsigned stream);   ///< Dropped: high watermark
    void onQueueDepth(unsigned stream, std::size_t depth);
    void onSubmit(unsigned stream, Cycle queue_delay);
    void onComplete(unsigned stream, Cycle service_latency,
                    Cycle total_latency, std::uint32_t words,
                    bool is_read);
    /** Skipped-span credit: under ClockingMode::Event the arbiter is
     *  not called on cycles where nothing can change, so a stream
     *  deferred across @p cycles skipped cycles is credited here. */
    void onDeferredGap(unsigned stream, Cycle cycles);
    /** @} */

    /**
     * Fold @p other into this instance: aggregate counters add,
     * aggregate histograms merge bucket-wise, and — when both sides
     * keep per-stream detail with the same stream count — per-stream
     * slots merge index-wise. Associative
     * and order-independent (see LogHistogram::merge), which is what
     * makes sharded fleet runs reduce to one deterministic result.
     */
    void mergeFrom(const ServiceStats &other);

    /** Stream @p i's counters (Detail::PerStream only). */
    const Counters &stream(unsigned i) const { return *perStream[i]; }
    /** The aggregate over all streams (either Detail). */
    const Counters &total() const { return aggregate; }
    /** total().completed, the count perfbench's arbiter probe reads. */
    std::uint64_t completedTotal() const
    {
        return aggregate.completed.value();
    }

    /** The registered stat registry (for dump/dumpJson/queries). */
    StatSet &set() { return statSet; }
    const StatSet &set() const { return statSet; }

  private:
    StatSet statSet;
    /** unique_ptr keeps registered stat addresses stable. Empty under
     *  Detail::AggregateOnly. */
    std::vector<std::unique_ptr<Counters>> perStream;
    Counters aggregate;
};

/** Copy @p c into the fields a result row (StreamResult, TenantResult)
 *  shares with it. */
template <typename Row>
void
copyCounters(const ServiceStats::Counters &c, Row &row)
{
    row.completed = c.completed.value();
    row.deferrals = c.deferrals.value();
    row.shedDeadline = c.shedDeadline.value();
    row.shedOverload = c.shedOverload.value();
    row.queuePeak = c.queuePeak.value();
    row.words = c.words();
    row.queueDelay = summarize(c.queueDelay);
    row.serviceLatency = summarize(c.serviceLatency);
    row.totalLatency = summarize(c.totalLatency);
}

/**
 * Fill the run-level figures a result (TrafficResult, FleetResult)
 * derives from the aggregate @p total over its r.cycles, and its mean
 * occupancy from @p occupancy_sum over @p occupancy_cycles samples.
 */
template <typename Result>
void
copyTotals(const ServiceStats::Counters &total,
           std::uint64_t occupancy_sum, std::uint64_t occupancy_cycles,
           Result &r)
{
    r.completed = total.completed.value();
    r.words = total.words();
    r.shed = total.shed();
    if (r.completed + r.shed > 0) {
        r.shedRate = static_cast<double>(r.shed) /
                     static_cast<double>(r.completed + r.shed);
    }
    if (r.cycles > 0) {
        r.requestsPerKilocycle = static_cast<double>(r.completed) *
                                 1000.0 / static_cast<double>(r.cycles);
        r.wordsPerCycle = static_cast<double>(r.words) /
                          static_cast<double>(r.cycles);
    }
    if (occupancy_cycles > 0) {
        r.meanInFlight = static_cast<double>(occupancy_sum) /
                         static_cast<double>(occupancy_cycles);
    }
    r.queueDelay = summarize(total.queueDelay);
    r.serviceLatency = summarize(total.serviceLatency);
    r.totalLatency = summarize(total.totalLatency);
}

} // namespace pva

#endif // PVA_TRAFFIC_SERVICE_STATS_HH
