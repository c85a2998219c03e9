/**
 * @file
 * Minimal gem5-flavoured statistics package.
 *
 * Components own Scalar and Distribution stats registered with a StatSet;
 * harnesses dump the set as text or JSON at the end of a run.
 */

#ifndef PVA_SIM_STATS_HH
#define PVA_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace pva
{

/** A named monotonically accumulated counter. */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator++() { ++count; return *this; }
    Scalar &operator+=(std::uint64_t n) { count += n; return *this; }
    /** Overwrite the value; for gauges copied in at end of run. */
    void set(std::uint64_t v) { count = v; }
    void reset() { count = 0; }

    std::uint64_t value() const { return count; }

  private:
    std::uint64_t count = 0;
};

/** A sampled distribution tracking min/max/mean and a coarse histogram. */
class Distribution
{
  public:
    /** @param bucket_width width of each histogram bucket (>= 1). */
    explicit Distribution(std::uint64_t bucket_width = 1);

    void sample(std::uint64_t value);
    void reset();

    std::uint64_t samples() const { return sampleCount; }
    std::uint64_t minValue() const { return minSeen; }
    std::uint64_t maxValue() const { return maxSeen; }
    double mean() const;

    /** Histogram buckets: bucket i counts values in
     *  [i*width, (i+1)*width). */
    const std::vector<std::uint64_t> &buckets() const { return histogram; }
    std::uint64_t bucketWidth() const { return width; }

  private:
    std::uint64_t width;
    std::uint64_t sampleCount = 0;
    std::uint64_t sum = 0;
    std::uint64_t minSeen = 0;
    std::uint64_t maxSeen = 0;
    std::vector<std::uint64_t> histogram;
};

/**
 * A fixed-bucket log-scale histogram with percentile queries.
 *
 * Values are binned HDR-style: 8 linear sub-buckets per power of two,
 * so relative bucket error is bounded at ~12.5% across the whole
 * 64-bit range while storage stays a fixed 512-slot array. Built for
 * latency samples (cycles), where percentile tails — p99/p999 — are
 * the interesting signal and a linear Distribution either loses the
 * tail or wastes thousands of buckets on it.
 */
class LogHistogram
{
  public:
    /** Sub-bucket resolution: 2^kSubBits linear slots per octave. */
    static constexpr unsigned kSubBits = 3;
    static constexpr unsigned kBucketCount =
        (64 - kSubBits + 1) << kSubBits;

    void sample(std::uint64_t value);
    void reset();

    /**
     * Allocate the bucket array now instead of on the first sample.
     * Hot-path callers (ServiceStats, per-cycle hooks) preallocate at
     * construction so sample() never allocates mid-run.
     */
    void preallocate();

    /**
     * Fold @p other into this histogram: bucket-wise count addition
     * plus combined min/max/sum/samples. Because buckets are a fixed
     * global partition of the value axis, merging is associative and
     * commutative — any merge tree over the same sample multiset
     * yields identical buckets, so percentile queries after a merge
     * carry the same ~12.5% relative bucket error bound as sampling
     * every value into one histogram directly. This is what lets the
     * fleet layer shard scenario fleets and still report exact
     * aggregate tail latencies (src/fleet/, docs/TRAFFIC.md).
     */
    void merge(const LogHistogram &other);

    std::uint64_t samples() const { return sampleCount; }
    std::uint64_t minValue() const { return minSeen; }
    std::uint64_t maxValue() const { return maxSeen; }
    double mean() const;

    /**
     * The smallest recorded-bucket upper edge v such that at least
     * p percent of the samples are <= v, clamped to [min, max] so
     * percentile(0) == min and percentile(100) == max. @p p in
     * [0, 100]; with no samples, returns 0.
     */
    std::uint64_t percentile(double p) const;

    /** Shorthands for the service-metric quartet. */
    std::uint64_t p50() const { return percentile(50.0); }
    std::uint64_t p95() const { return percentile(95.0); }
    std::uint64_t p99() const { return percentile(99.0); }
    std::uint64_t p999() const { return percentile(99.9); }

    /** Bucket index a value falls in (exposed for tests). */
    static unsigned bucketIndex(std::uint64_t value);

    /** Inclusive lower edge of bucket @p index. */
    static std::uint64_t bucketLowerBound(unsigned index);

    /** Non-empty (lowerBound, count) pairs in ascending value order. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>>
    nonZeroBuckets() const;

  private:
    std::uint64_t sampleCount = 0;
    std::uint64_t sum = 0;
    std::uint64_t minSeen = 0;
    std::uint64_t maxSeen = 0;
    std::vector<std::uint64_t> counts; ///< Allocated on first sample

};

/**
 * A registry of named statistics belonging to one simulated system.
 *
 * Stats objects are owned by their components; the StatSet stores
 * non-owning pointers plus dotted names (e.g. "pva.bc3.rowHits").
 */
class StatSet
{
  public:
    void addScalar(const std::string &name, const Scalar *stat);
    void addDistribution(const std::string &name, const Distribution *stat);
    void addHistogram(const std::string &name, const LogHistogram *stat);

    /** Look up a scalar's current value; panics if not registered. */
    std::uint64_t scalar(const std::string &name) const;

    /** True iff a scalar with this name is registered. */
    bool hasScalar(const std::string &name) const;

    /** Look up a distribution; panics if not registered. */
    const Distribution &distribution(const std::string &name) const;

    /** True iff a distribution with this name is registered. */
    bool hasDistribution(const std::string &name) const;

    /** Look up a log histogram; panics if not registered. */
    const LogHistogram &histogram(const std::string &name) const;

    /** True iff a log histogram with this name is registered. */
    bool hasHistogram(const std::string &name) const;

    /** Dump all stats, one per line, "name value" sorted by name. */
    void dump(std::ostream &os) const;

    /**
     * Dump as a JSON object for structured harness export:
     * {"scalars": {name: value, ...},
     *  "distributions": {name: {"samples": n, "min": lo, "max": hi,
     *                           "mean": m, "bucketWidth": w,
     *                           "buckets": [...]}, ...},
     *  "histograms": {name: {"samples": n, "min": lo, "max": hi,
     *                        "mean": m, "p50": v, "p95": v, "p99": v,
     *                        "p999": v}, ...}}
     * Keys are sorted (map order), so the output is deterministic.
     */
    void dumpJson(std::ostream &os) const;

  private:
    std::map<std::string, const Scalar *> scalars;
    std::map<std::string, const Distribution *> distributions;
    std::map<std::string, const LogHistogram *> histograms;
};

} // namespace pva

#endif // PVA_SIM_STATS_HH
