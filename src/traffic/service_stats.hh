/**
 * @file
 * Service-level metrics for the traffic subsystem, built on sim/stats.
 *
 * ServiceStats owns, per stream and in aggregate, the counters a
 * serving stack would report: arrivals, admissions, completions,
 * backpressure deferrals, queue-depth peaks, words moved, and three
 * log-scale latency histograms with percentile queries —
 *
 *   queueDelay      arrival -> submit (admission + arbitration wait)
 *   serviceLatency  submit -> completion (the memory system itself)
 *   totalLatency    arrival -> completion (what a client observes)
 *
 * — plus per-cycle samples of the memory system's in-flight
 * transaction count (Vector Context occupancy on the PVA). Everything
 * registers into one StatSet ("traffic.<name>.*" per stream,
 * "traffic.agg.*" aggregate), so text/JSON dumps come for free and
 * tests can assert on named values.
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
     * memory footprint — while the classic traffic path keeps the
     * full per-stream registry.
     */
    enum class Detail
    {
        PerStream,     ///< Per-stream counters + histograms + aggregate
        AggregateOnly, ///< Aggregate counters/histograms only
    };

    /**
     * @param names one display name per stream (used as stat prefix).
     * @param detail per-stream registry or aggregate-only (see Detail).
     * @param prefix stat-name namespace ("traffic" for the classic
     *        arbiter; tenants use their own name so merged registries
     *        cannot collide).
     */
    explicit ServiceStats(const std::vector<std::string> &names,
                          Detail detail = Detail::PerStream,
                          const std::string &prefix = "traffic");

    /** @name Event hooks (called by the StreamArbiter) @{ */
    void onArrival(unsigned stream);
    void onDeferred(unsigned stream);       ///< Backpressure: queue full
    void onShedDeadline(unsigned stream);   ///< Dropped: deadline missed
    void onShedOverload(unsigned stream);   ///< Dropped: high watermark
    void onQueueDepth(unsigned stream, std::size_t depth);
    void onSubmit(unsigned stream, Cycle queue_delay);
    void onComplete(unsigned stream, Cycle service_latency,
                    Cycle total_latency, std::uint32_t words,
                    bool is_read);
    void onCycle(std::size_t in_flight); ///< Context-occupancy sample
    /** @} */

    /** @name Skipped-span credit (event clocking)
     * Under ClockingMode::Event the arbiter is not called on cycles
     * where nothing can change; these credit the per-cycle counters
     * for @p cycles skipped cycles whose state was frozen. @{ */
    void onCycleGap(Cycle cycles, std::size_t in_flight);
    void onDeferredGap(unsigned stream, Cycle cycles);
    /** @} */

    std::size_t streams() const { return streamCount; }

    /**
     * Fold @p other into this instance: aggregate counters add,
     * aggregate histograms merge bucket-wise, occupancy samples add,
     * and — when both sides keep per-stream detail with the same
     * stream count — per-stream slots merge index-wise. Associative
     * and order-independent (see LogHistogram::merge), which is what
     * makes sharded fleet runs reduce to one deterministic result.
     */
    void mergeFrom(const ServiceStats &other);

    /** @name Aggregate histogram access (for cross-shard merging) @{ */
    const LogHistogram &aggregateQueueDelayHist() const
    {
        return aggregate.queueDelay;
    }
    const LogHistogram &aggregateServiceLatencyHist() const
    {
        return aggregate.serviceLatency;
    }
    const LogHistogram &aggregateTotalLatencyHist() const
    {
        return aggregate.totalLatency;
    }
    /** @} */

    /** The registered stat registry (for dump/dumpJson/queries). */
    StatSet &set() { return statSet; }
    const StatSet &set() const { return statSet; }

    /** @name Convenience queries
     * The per-stream overloads require Detail::PerStream; the *Total
     * forms work in either mode. @{ */
    std::uint64_t completed(unsigned stream) const;
    std::uint64_t completedTotal() const;
    std::uint64_t arrivalsTotal() const;
    std::uint64_t deferralsTotal() const;
    std::uint64_t shedDeadlineTotal() const;
    std::uint64_t shedOverloadTotal() const;
    std::uint64_t queuePeakTotal() const; ///< Deepest queue, any stream
    std::uint64_t wordsTotal() const;
    std::uint64_t deferrals(unsigned stream) const;
    std::uint64_t shedDeadline(unsigned stream) const;
    std::uint64_t shedOverload(unsigned stream) const;
    std::uint64_t shedTotal() const; ///< All streams, both causes
    std::uint64_t queuePeak(unsigned stream) const;
    LatencySummary queueDelay(unsigned stream) const;
    LatencySummary serviceLatency(unsigned stream) const;
    LatencySummary totalLatency(unsigned stream) const;
    LatencySummary aggregateQueueDelay() const;
    LatencySummary aggregateServiceLatency() const;
    LatencySummary aggregateTotalLatency() const;
    /** Mean in-flight transactions over the sampled cycles. */
    double meanInFlight() const;
    /** @} */

  private:
    struct StreamCounters
    {
        Scalar arrivals;
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
    };

    StatSet statSet;
    std::size_t streamCount = 0;
    /** unique_ptr keeps registered stat addresses stable. Empty under
     *  Detail::AggregateOnly. */
    std::vector<std::unique_ptr<StreamCounters>> perStream;
    StreamCounters aggregate;
    Scalar statCycles;          ///< Occupancy samples taken
    Scalar statOccupancySum;    ///< Sum of sampled in-flight counts
};

} // namespace pva

#endif // PVA_TRAFFIC_SERVICE_STATS_HH
