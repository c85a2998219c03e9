#include "sim/stats.hh"

#include "sim/json.hh"
#include "sim/logging.hh"

namespace pva
{

Distribution::Distribution(std::uint64_t bucket_width)
    : width(bucket_width == 0 ? 1 : bucket_width)
{
}

void
Distribution::sample(std::uint64_t value)
{
    if (sampleCount == 0) {
        minSeen = value;
        maxSeen = value;
    } else {
        if (value < minSeen)
            minSeen = value;
        if (value > maxSeen)
            maxSeen = value;
    }
    ++sampleCount;
    sum += value;
    std::uint64_t bucket = value / width;
    // Cap the histogram resolution; the tail collapses into one bucket.
    constexpr std::uint64_t max_buckets = 4096;
    if (bucket >= max_buckets)
        bucket = max_buckets - 1;
    if (histogram.size() <= bucket)
        histogram.resize(bucket + 1, 0);
    ++histogram[bucket];
}

void
Distribution::reset()
{
    sampleCount = 0;
    sum = 0;
    minSeen = 0;
    maxSeen = 0;
    histogram.clear();
}

double
Distribution::mean() const
{
    return sampleCount == 0
        ? 0.0
        : static_cast<double>(sum) / static_cast<double>(sampleCount);
}

unsigned
LogHistogram::bucketIndex(std::uint64_t value)
{
    constexpr std::uint64_t linear = 1ULL << kSubBits;
    if (value < linear)
        return static_cast<unsigned>(value);
    unsigned msb = 63;
    while (!(value & (1ULL << msb)))
        --msb;
    unsigned shift = msb - kSubBits;
    unsigned sub =
        static_cast<unsigned>((value >> shift) & (linear - 1));
    return ((msb - kSubBits + 1) << kSubBits) | sub;
}

std::uint64_t
LogHistogram::bucketLowerBound(unsigned index)
{
    constexpr std::uint64_t linear = 1ULL << kSubBits;
    if (index < linear)
        return index;
    unsigned top = index >> kSubBits;
    std::uint64_t sub = index & (linear - 1);
    return (1ULL << (kSubBits + top - 1)) | (sub << (top - 1));
}

void
LogHistogram::sample(std::uint64_t value)
{
    if (counts.empty())
        counts.assign(kBucketCount, 0);
    if (sampleCount == 0) {
        minSeen = value;
        maxSeen = value;
    } else {
        if (value < minSeen)
            minSeen = value;
        if (value > maxSeen)
            maxSeen = value;
    }
    ++sampleCount;
    sum += value;
    ++counts[bucketIndex(value)];
}

void
LogHistogram::reset()
{
    sampleCount = 0;
    sum = 0;
    minSeen = 0;
    maxSeen = 0;
    counts.clear();
}

void
LogHistogram::preallocate()
{
    if (counts.empty())
        counts.assign(kBucketCount, 0);
}

void
LogHistogram::merge(const LogHistogram &other)
{
    if (other.sampleCount == 0)
        return;
    if (sampleCount == 0) {
        minSeen = other.minSeen;
        maxSeen = other.maxSeen;
    } else {
        if (other.minSeen < minSeen)
            minSeen = other.minSeen;
        if (other.maxSeen > maxSeen)
            maxSeen = other.maxSeen;
    }
    sampleCount += other.sampleCount;
    sum += other.sum;
    preallocate();
    for (unsigned i = 0; i < kBucketCount; ++i)
        counts[i] += other.counts[i];
}

double
LogHistogram::mean() const
{
    return sampleCount == 0
        ? 0.0
        : static_cast<double>(sum) / static_cast<double>(sampleCount);
}

std::uint64_t
LogHistogram::percentile(double p) const
{
    if (sampleCount == 0)
        return 0;
    if (p <= 0.0)
        return minSeen;
    // The rank of the sample the percentile asks for (1-based,
    // ceiling), clamped to the population.
    auto rank = static_cast<std::uint64_t>(
        p / 100.0 * static_cast<double>(sampleCount) + 0.9999999);
    if (rank > sampleCount)
        rank = sampleCount;
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < kBucketCount; ++i) {
        seen += counts[i];
        if (seen >= rank) {
            // Report the bucket's inclusive upper edge (conservative
            // for latency SLOs), clamped to the observed range.
            std::uint64_t hi = i + 1 < kBucketCount
                ? bucketLowerBound(i + 1) - 1
                : maxSeen;
            if (hi > maxSeen)
                hi = maxSeen;
            if (hi < minSeen)
                hi = minSeen;
            return hi;
        }
    }
    return maxSeen;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
LogHistogram::nonZeroBuckets() const
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    for (unsigned i = 0; i < counts.size(); ++i) {
        if (counts[i])
            out.emplace_back(bucketLowerBound(i), counts[i]);
    }
    return out;
}

void
StatSet::addScalar(const std::string &name, const Scalar *stat)
{
    if (!scalars.emplace(name, stat).second)
        panic("duplicate scalar stat '%s'", name.c_str());
}

void
StatSet::addDistribution(const std::string &name, const Distribution *stat)
{
    if (!distributions.emplace(name, stat).second)
        panic("duplicate distribution stat '%s'", name.c_str());
}

void
StatSet::addHistogram(const std::string &name, const LogHistogram *stat)
{
    if (!histograms.emplace(name, stat).second)
        panic("duplicate histogram stat '%s'", name.c_str());
}

std::uint64_t
StatSet::scalar(const std::string &name) const
{
    auto it = scalars.find(name);
    if (it == scalars.end())
        panic("no scalar stat named '%s'", name.c_str());
    return it->second->value();
}

bool
StatSet::hasScalar(const std::string &name) const
{
    return scalars.find(name) != scalars.end();
}

const Distribution &
StatSet::distribution(const std::string &name) const
{
    auto it = distributions.find(name);
    if (it == distributions.end())
        panic("no distribution stat named '%s'", name.c_str());
    return *it->second;
}

bool
StatSet::hasDistribution(const std::string &name) const
{
    return distributions.find(name) != distributions.end();
}

const LogHistogram &
StatSet::histogram(const std::string &name) const
{
    auto it = histograms.find(name);
    if (it == histograms.end())
        panic("no histogram stat named '%s'", name.c_str());
    return *it->second;
}

bool
StatSet::hasHistogram(const std::string &name) const
{
    return histograms.find(name) != histograms.end();
}

void
StatSet::dump(std::ostream &os) const
{
    for (const auto &[name, stat] : scalars)
        os << name << " " << stat->value() << "\n";
    for (const auto &[name, stat] : distributions) {
        os << name << ".samples " << stat->samples() << "\n";
        os << name << ".min " << stat->minValue() << "\n";
        os << name << ".max " << stat->maxValue() << "\n";
        os << name << ".mean " << stat->mean() << "\n";
    }
    for (const auto &[name, stat] : histograms) {
        os << name << ".samples " << stat->samples() << "\n";
        os << name << ".min " << stat->minValue() << "\n";
        os << name << ".max " << stat->maxValue() << "\n";
        os << name << ".mean " << stat->mean() << "\n";
        os << name << ".p50 " << stat->p50() << "\n";
        os << name << ".p95 " << stat->p95() << "\n";
        os << name << ".p99 " << stat->p99() << "\n";
        os << name << ".p999 " << stat->p999() << "\n";
    }
}

void
StatSet::dumpJson(std::ostream &os) const
{
    json::Writer w(os);
    w.beginObject().key("scalars").beginObject();
    for (const auto &[name, stat] : scalars)
        w.field(name, stat->value());
    w.end().key("distributions").beginObject();
    for (const auto &[name, stat] : distributions) {
        w.key(name).beginObject().field("samples", stat->samples());
        w.field("min", stat->minValue()).field("max", stat->maxValue());
        w.field("mean", stat->mean());
        w.field("bucketWidth", stat->bucketWidth()).key("buckets").beginArray();
        for (std::uint64_t b : stat->buckets())
            w.value(b);
        w.end().end();
    }
    w.end().key("histograms").beginObject();
    for (const auto &[name, stat] : histograms) {
        w.key(name).beginObject().field("samples", stat->samples());
        w.field("min", stat->minValue()).field("max", stat->maxValue());
        w.field("mean", stat->mean()).field("p50", stat->p50());
        w.field("p95", stat->p95()).field("p99", stat->p99());
        w.field("p999", stat->p999()).end();
    }
    w.end().end().newline();
}

} // namespace pva
