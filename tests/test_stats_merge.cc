/**
 * @file
 * Merge-algebra tests for LogHistogram and ServiceStats.
 *
 * The fleet layer's determinism contract rests on one property: the
 * reductions that fold shard results into a FleetResult are
 * associative and order-independent, so any execution schedule over
 * the same work yields byte-identical aggregates. These tests pin
 * that algebra directly — merge trees vs sequential folds, shuffled
 * merge orders, and the quantile error bound surviving a merge.
 */

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "sim/stats.hh"
#include "traffic/service_stats.hh"

using namespace pva;

namespace
{

std::vector<std::uint64_t>
lcgValues(std::uint64_t seed, std::size_t count, std::uint64_t span)
{
    std::vector<std::uint64_t> out;
    std::uint64_t x = seed;
    for (std::size_t i = 0; i < count; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        out.push_back((x >> 16) % span);
    }
    return out;
}

LogHistogram
histOf(const std::vector<std::uint64_t> &values)
{
    LogHistogram h;
    for (std::uint64_t v : values)
        h.sample(v);
    return h;
}

void
expectHistEq(const LogHistogram &a, const LogHistogram &b)
{
    EXPECT_EQ(a.samples(), b.samples());
    EXPECT_EQ(a.minValue(), b.minValue());
    EXPECT_EQ(a.maxValue(), b.maxValue());
    EXPECT_DOUBLE_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.nonZeroBuckets(), b.nonZeroBuckets());
}

} // anonymous namespace

TEST(LogHistogramMerge, MergeEqualsDirectSampling)
{
    const auto all = lcgValues(7, 4000, 1 << 20);
    LogHistogram direct = histOf(all);

    LogHistogram merged;
    for (std::size_t part = 0; part < 4; ++part) {
        LogHistogram h;
        for (std::size_t i = part; i < all.size(); i += 4)
            h.sample(all[i]);
        merged.merge(h);
    }
    expectHistEq(merged, direct);
}

TEST(LogHistogramMerge, MergeIsAssociative)
{
    const auto a = lcgValues(1, 500, 1 << 12);
    const auto b = lcgValues(2, 700, 1 << 18);
    const auto c = lcgValues(3, 300, 1 << 6);

    // (a + b) + c
    LogHistogram left = histOf(a);
    left.merge(histOf(b));
    left.merge(histOf(c));

    // a + (b + c)
    LogHistogram bc = histOf(b);
    bc.merge(histOf(c));
    LogHistogram right = histOf(a);
    right.merge(bc);

    expectHistEq(left, right);
}

TEST(LogHistogramMerge, MergeIsOrderIndependent)
{
    std::vector<LogHistogram> parts;
    for (std::uint64_t s = 0; s < 8; ++s)
        parts.push_back(histOf(lcgValues(s + 1, 250, 1 << (8 + s))));

    LogHistogram forward;
    for (const LogHistogram &h : parts)
        forward.merge(h);

    std::vector<std::size_t> order{3, 7, 0, 5, 1, 6, 2, 4};
    LogHistogram shuffled;
    for (std::size_t i : order)
        shuffled.merge(parts[i]);

    expectHistEq(forward, shuffled);
    for (double p : {50.0, 95.0, 99.0, 99.9}) {
        EXPECT_EQ(forward.percentile(p), shuffled.percentile(p))
            << "p" << p;
    }
}

TEST(LogHistogramMerge, MergingEmptyIsIdentity)
{
    LogHistogram h = histOf(lcgValues(11, 100, 1000));
    const auto before = h.nonZeroBuckets();
    LogHistogram empty;
    h.merge(empty);
    EXPECT_EQ(h.nonZeroBuckets(), before);
    EXPECT_EQ(h.samples(), 100u);

    LogHistogram onto;
    onto.merge(h);
    expectHistEq(onto, h);
}

TEST(LogHistogramMerge, QuantileErrorBoundSurvivesMerge)
{
    // Buckets are a fixed global partition with 2^3 linear slots per
    // octave, so any percentile answer is the upper edge of the
    // sample's bucket: at most one sub-bucket (~1/8 relative) above
    // the true value. Merging must not widen that bound.
    const auto all = lcgValues(23, 8000, 1 << 24);
    std::vector<std::uint64_t> sorted = all;
    std::sort(sorted.begin(), sorted.end());

    LogHistogram merged;
    for (std::size_t part = 0; part < 8; ++part) {
        LogHistogram h;
        for (std::size_t i = part; i < all.size(); i += 8)
            h.sample(all[i]);
        merged.merge(h);
    }

    for (double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
        const std::uint64_t est = merged.percentile(p);
        const std::size_t rank = static_cast<std::size_t>(
            std::min<double>(sorted.size() - 1,
                             p / 100.0 * sorted.size()));
        const std::uint64_t exact = sorted[rank];
        EXPECT_GE(est, exact) << "p" << p;
        // Upper edge of the exact value's bucket is the worst case.
        const std::uint64_t edge = LogHistogram::bucketLowerBound(
            LogHistogram::bucketIndex(exact) + 1);
        EXPECT_LE(est, edge) << "p" << p;
        const double rel =
            exact ? (static_cast<double>(est) - exact) / exact : 0.0;
        EXPECT_LE(rel, 0.125 + 1e-9) << "p" << p;
    }
}

namespace
{

/** Feed deterministic pseudo-traffic into a two-stream ServiceStats. */
ServiceStats
syntheticStats(std::uint64_t seed, unsigned events,
               ServiceStats::Detail detail)
{
    ServiceStats s({"a", "b"}, detail, "t");
    std::uint64_t x = seed;
    auto next = [&x] {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        return x >> 33;
    };
    for (unsigned i = 0; i < events; ++i) {
        const unsigned stream = next() % 2;
        s.onArrival(stream);
        s.onQueueDepth(stream, next() % 16);
        switch (next() % 8) {
          case 0:
            s.onDeferred(stream);
            break;
          case 1:
            s.onShedDeadline(stream);
            break;
          case 2:
            s.onShedOverload(stream);
            break;
          default: {
            const Cycle qd = next() % 500;
            const Cycle svc = 20 + next() % 300;
            s.onSubmit(stream, qd);
            s.onComplete(stream, svc, qd + svc, 8, true);
            break;
          }
        }
    }
    return s;
}

void
expectServiceStatsEq(const ServiceStats &a, const ServiceStats &b)
{
    const ServiceStats::Counters &x = a.total(), &y = b.total();
    EXPECT_EQ(x.arrivals.value(), y.arrivals.value());
    EXPECT_EQ(x.deferrals.value(), y.deferrals.value());
    EXPECT_EQ(x.shedDeadline.value(), y.shedDeadline.value());
    EXPECT_EQ(x.shedOverload.value(), y.shedOverload.value());
    EXPECT_EQ(x.queuePeak.value(), y.queuePeak.value());
    EXPECT_EQ(a.completedTotal(), b.completedTotal());
    EXPECT_EQ(x.words(), y.words());
    expectHistEq(x.queueDelay, y.queueDelay);
    expectHistEq(x.serviceLatency, y.serviceLatency);
    expectHistEq(x.totalLatency, y.totalLatency);
}

} // anonymous namespace

TEST(ServiceStatsMerge, MergeIsAssociative)
{
    const auto detail = ServiceStats::Detail::AggregateOnly;
    // (a + b) + c
    ServiceStats left({}, detail, "m");
    {
        ServiceStats ab({}, detail, "ab");
        ab.mergeFrom(syntheticStats(101, 400, detail));
        ab.mergeFrom(syntheticStats(202, 300, detail));
        left.mergeFrom(ab);
        left.mergeFrom(syntheticStats(303, 500, detail));
    }
    // a + (b + c)
    ServiceStats right({}, detail, "m2");
    {
        ServiceStats bc({}, detail, "bc");
        bc.mergeFrom(syntheticStats(202, 300, detail));
        bc.mergeFrom(syntheticStats(303, 500, detail));
        right.mergeFrom(syntheticStats(101, 400, detail));
        right.mergeFrom(bc);
    }
    expectServiceStatsEq(left, right);
}

TEST(ServiceStatsMerge, MergeIsOrderIndependent)
{
    const auto detail = ServiceStats::Detail::AggregateOnly;
    std::vector<std::uint64_t> seeds{5, 17, 29, 43, 61};

    ServiceStats forward({}, detail, "f");
    for (std::uint64_t s : seeds)
        forward.mergeFrom(syntheticStats(s, 200 + s, detail));

    ServiceStats reverse({}, detail, "r");
    for (auto it = seeds.rbegin(); it != seeds.rend(); ++it)
        reverse.mergeFrom(syntheticStats(*it, 200 + *it, detail));

    expectServiceStatsEq(forward, reverse);
    const LatencySummary fs = summarize(forward.total().totalLatency);
    const LatencySummary rs = summarize(reverse.total().totalLatency);
    EXPECT_EQ(fs.p50, rs.p50);
    EXPECT_EQ(fs.p99, rs.p99);
    EXPECT_EQ(fs.p999, rs.p999);
    EXPECT_EQ(fs.max, rs.max);
}

TEST(ServiceStatsMerge, PerStreamCountersMergeIndexWise)
{
    const auto detail = ServiceStats::Detail::PerStream;
    ServiceStats a = syntheticStats(7, 300, detail);
    const std::uint64_t arrivals_before = a.total().arrivals.value();
    ServiceStats b = syntheticStats(8, 200, detail);
    a.mergeFrom(b);
    EXPECT_EQ(a.total().arrivals.value(),
              arrivals_before + b.total().arrivals.value());
    // The aggregate view over merged per-stream slots must agree with
    // the merged aggregate slot itself.
    ServiceStats agg({}, ServiceStats::Detail::AggregateOnly, "agg");
    agg.mergeFrom(syntheticStats(7, 300, detail));
    agg.mergeFrom(syntheticStats(8, 200, detail));
    expectServiceStatsEq(a, agg);
}
