#include "traffic/service_stats.hh"

#include "sim/json.hh"

namespace pva
{

LatencySummary
summarize(const LogHistogram &h)
{
    LatencySummary s;
    s.samples = h.samples();
    s.min = h.minValue();
    s.max = h.maxValue();
    s.mean = h.mean();
    s.p50 = h.p50();
    s.p95 = h.p95();
    s.p99 = h.p99();
    s.p999 = h.p999();
    return s;
}

void
jsonSummary(json::Writer &w, const char *key, const LatencySummary &s)
{
    w.key(key).beginObject().field("samples", s.samples);
    w.field("min", s.min).field("max", s.max).field("mean", s.mean);
    w.field("p50", s.p50).field("p95", s.p95).field("p99", s.p99);
    w.field("p999", s.p999).end();
}

ServiceStats::ServiceStats(const std::vector<std::string> &names,
                           Detail detail, const std::string &prefix)
{
    // All traffic metrics live under the "traffic." namespace so the
    // tools' JSON envelope carries one predictable key shape (see
    // docs/API.md). Histograms are preallocated here so the per-cycle
    // hooks (onSubmit/onComplete, gap credits) never allocate.
    auto registerOne = [&](const std::string &prefix, Counters &c) {
        statSet.addScalar(prefix + ".arrivals", &c.arrivals);
        statSet.addScalar(prefix + ".submitted", &c.submitted);
        statSet.addScalar(prefix + ".completed", &c.completed);
        statSet.addScalar(prefix + ".deferrals", &c.deferrals);
        statSet.addScalar(prefix + ".shedDeadline", &c.shedDeadline);
        statSet.addScalar(prefix + ".shedOverload", &c.shedOverload);
        statSet.addScalar(prefix + ".queuePeak", &c.queuePeak);
        statSet.addScalar(prefix + ".wordsRead", &c.wordsRead);
        statSet.addScalar(prefix + ".wordsWritten", &c.wordsWritten);
        statSet.addHistogram(prefix + ".queueDelay", &c.queueDelay);
        statSet.addHistogram(prefix + ".serviceLatency",
                             &c.serviceLatency);
        statSet.addHistogram(prefix + ".totalLatency", &c.totalLatency);
        c.queueDelay.preallocate();
        c.serviceLatency.preallocate();
        c.totalLatency.preallocate();
    };

    if (detail == Detail::PerStream) {
        perStream.reserve(names.size());
        for (const std::string &name : names) {
            perStream.push_back(std::make_unique<Counters>());
            registerOne(prefix + "." + name, *perStream.back());
        }
    }
    registerOne(prefix + ".agg", aggregate);
}

void
ServiceStats::Counters::merge(const Counters &from)
{
    arrivals += from.arrivals.value();
    submitted += from.submitted.value();
    completed += from.completed.value();
    deferrals += from.deferrals.value();
    shedDeadline += from.shedDeadline.value();
    shedOverload += from.shedOverload.value();
    if (from.queuePeak.value() > queuePeak.value())
        queuePeak.set(from.queuePeak.value());
    wordsRead += from.wordsRead.value();
    wordsWritten += from.wordsWritten.value();
    queueDelay.merge(from.queueDelay);
    serviceLatency.merge(from.serviceLatency);
    totalLatency.merge(from.totalLatency);
}

void
ServiceStats::mergeFrom(const ServiceStats &other)
{
    aggregate.merge(other.aggregate);
    if (perStream.size() == other.perStream.size()) {
        for (std::size_t i = 0; i < perStream.size(); ++i)
            perStream[i]->merge(*other.perStream[i]);
    }
}

void
ServiceStats::onArrival(unsigned stream)
{
    if (!perStream.empty())
        ++perStream[stream]->arrivals;
    ++aggregate.arrivals;
}

void
ServiceStats::onDeferred(unsigned stream)
{
    if (!perStream.empty())
        ++perStream[stream]->deferrals;
    ++aggregate.deferrals;
}

void
ServiceStats::onShedDeadline(unsigned stream)
{
    if (!perStream.empty())
        ++perStream[stream]->shedDeadline;
    ++aggregate.shedDeadline;
}

void
ServiceStats::onShedOverload(unsigned stream)
{
    if (!perStream.empty())
        ++perStream[stream]->shedOverload;
    ++aggregate.shedOverload;
}

void
ServiceStats::onQueueDepth(unsigned stream, std::size_t depth)
{
    if (!perStream.empty()) {
        Counters &c = *perStream[stream];
        if (depth > c.queuePeak.value())
            c.queuePeak += depth - c.queuePeak.value();
    }
    if (depth > aggregate.queuePeak.value())
        aggregate.queuePeak += depth - aggregate.queuePeak.value();
}

void
ServiceStats::onSubmit(unsigned stream, Cycle queue_delay)
{
    if (!perStream.empty()) {
        Counters &c = *perStream[stream];
        ++c.submitted;
        c.queueDelay.sample(queue_delay);
    }
    ++aggregate.submitted;
    aggregate.queueDelay.sample(queue_delay);
}

void
ServiceStats::onComplete(unsigned stream, Cycle service_latency,
                         Cycle total_latency, std::uint32_t words,
                         bool is_read)
{
    ++aggregate.completed;
    aggregate.serviceLatency.sample(service_latency);
    aggregate.totalLatency.sample(total_latency);
    if (is_read)
        aggregate.wordsRead += words;
    else
        aggregate.wordsWritten += words;
    if (perStream.empty())
        return;
    Counters &c = *perStream[stream];
    ++c.completed;
    c.serviceLatency.sample(service_latency);
    c.totalLatency.sample(total_latency);
    if (is_read)
        c.wordsRead += words;
    else
        c.wordsWritten += words;
}

void
ServiceStats::onDeferredGap(unsigned stream, Cycle cycles)
{
    if (!perStream.empty())
        perStream[stream]->deferrals += cycles;
    aggregate.deferrals += cycles;
}

} // namespace pva
