#include "traffic/arbiter.hh"

#include <algorithm>
#include <cmath>

namespace pva
{

const Vocabulary<ArbPolicy> &
arbPolicies()
{
    static const Vocabulary<ArbPolicy> table({
        {ArbPolicy::Fifo, "fifo"},
        {ArbPolicy::RoundRobin, "rr"},
        {ArbPolicy::Priority, "priority"},
    });
    return table;
}

const char *
arbPolicyName(ArbPolicy policy)
{
    return arbPolicies().name(policy);
}

const Vocabulary<bool> &
shedSwitch()
{
    static const Vocabulary<bool> table({{true, "on"}, {false, "off"}});
    return table;
}

Cycle
shedDeadlineOf(const ArbiterConfig &config, const StreamConfig &stream)
{
    return stream.deadline > 0 ? stream.deadline
                               : config.shed.defaultDeadline;
}

std::size_t
shedDepthOf(const ArbiterConfig &config, const StreamConfig &stream)
{
    const std::size_t cap = stream.queueCapacity;
    std::size_t depth = cap;
    if (config.shed.queueHighWatermark < 1.0) {
        depth = static_cast<std::size_t>(std::ceil(
            config.shed.queueHighWatermark * static_cast<double>(cap)));
        depth = std::max<std::size_t>(1, std::min(depth, cap));
    }
    return depth;
}

StreamArbiter::StreamArbiter(const ArbiterConfig &config,
                             std::vector<StreamSource> sources_,
                             ServiceStats &stats_)
    : cfg(config), sources(std::move(sources_)), stats(stats_),
      queues(sources.size())
{
    if (!sources.empty())
        lastGranted = static_cast<unsigned>(sources.size()) - 1;
    if (cfg.shed.enabled) {
        shedDeadline.reserve(sources.size());
        shedDepth.reserve(sources.size());
        for (const StreamSource &s : sources) {
            shedDeadline.push_back(shedDeadlineOf(cfg, s.config()));
            shedDepth.push_back(shedDepthOf(cfg, s.config()));
        }
    }
}

bool
StreamArbiter::pick(Cycle now, unsigned &out) const
{
    const unsigned n = static_cast<unsigned>(sources.size());
    bool found = false;

    switch (cfg.policy) {
      case ArbPolicy::RoundRobin: {
        for (unsigned step = 1; step <= n; ++step) {
            unsigned i = (lastGranted + step) % n;
            if (!queues[i].empty()) {
                out = i;
                return true;
            }
        }
        return false;
      }
      case ArbPolicy::Fifo: {
        Cycle best = kNeverCycle;
        for (unsigned i = 0; i < n; ++i) {
            if (queues[i].empty())
                continue;
            Cycle a = queues[i].front().arrival;
            if (!found || a < best) {
                best = a;
                out = i;
                found = true;
            }
        }
        return found;
      }
      case ArbPolicy::Priority: {
        // Starvation guard first: any head past the aging threshold
        // is served strictly oldest-first, whatever its priority.
        Cycle best = kNeverCycle;
        for (unsigned i = 0; i < n; ++i) {
            if (queues[i].empty())
                continue;
            Cycle a = queues[i].front().arrival;
            if (now - a >= cfg.agingThreshold && (!found || a < best)) {
                best = a;
                out = i;
                found = true;
            }
        }
        if (found)
            return true;
        // Otherwise highest priority; ties broken oldest-first, then
        // by stream id (the iteration order).
        unsigned best_prio = 0;
        for (unsigned i = 0; i < n; ++i) {
            if (queues[i].empty())
                continue;
            Cycle a = queues[i].front().arrival;
            unsigned prio = sources[i].config().priority;
            if (!found || prio > best_prio ||
                (prio == best_prio && a < best)) {
                best_prio = prio;
                best = a;
                out = i;
                found = true;
            }
        }
        return found;
      }
    }
    return false;
}

bool
StreamArbiter::service(MemorySystem &sys, Cycle now)
{
    // --- 1. Completions. ---------------------------------------------
    sys.drainCompletionsInto(drainedCompletions);
    for (Completion &c : drainedCompletions) {
        sys.recycleLine(std::move(c.data));
        auto it = inFlight.find(c.tag);
        if (it == inFlight.end())
            continue; // not ours (defensive; tags are arbiter-issued)
        const InFlight &f = it->second;
        stats.onComplete(f.stream, now - f.submitted, now - f.arrival,
                         f.words, f.isRead);
        sources[f.stream].onComplete();
        inFlight.erase(it);
    }

    // --- 2. Admission: pull arrivals into the bounded queues. --------
    for (unsigned i = 0; i < sources.size(); ++i) {
        StreamSource &src = sources[i];
        while (src.arrivalReady(now)) {
            if (queues[i].size() >= src.config().queueCapacity) {
                // Backpressure: the arrival stays pending in the
                // source; open-loop requests keep their scheduled
                // arrival stamp so the wait is visible as queue delay.
                stats.onDeferred(i);
                break;
            }
            if (cfg.shed.enabled && queues[i].size() >= shedDepth[i]) {
                // Overload shed: the queue reached the high watermark,
                // so this arrival is consumed and dropped instead of
                // queued. Releasing the window slot keeps closed-loop
                // streams offering load; at most one drop per stream
                // per step bounds the cascade.
                src.emit(now);
                stats.onArrival(i);
                stats.onShedOverload(i);
                src.onComplete();
                break;
            }
            queues[i].push_back(src.emit(now));
            stats.onArrival(i);
            stats.onQueueDepth(i, queues[i].size());
        }
    }

    // --- 2b. Deadline shed: drop queue heads past their budget. ------
    // A head older than its stream's deadline can only add a stale
    // latency sample ahead of fresh work; dropping it (and releasing
    // the window slot) caps the queueing delay of everything served.
    if (cfg.shed.enabled) {
        for (unsigned i = 0; i < sources.size(); ++i) {
            const Cycle budget = shedDeadline[i];
            if (budget == 0)
                continue;
            while (!queues[i].empty() &&
                   now - queues[i].front().arrival > budget) {
                queues[i].pop_front();
                stats.onShedDeadline(i);
                sources[i].onComplete();
            }
        }
    }

    // --- 3. Grant: submit queue heads until the system refuses. ------
    unsigned chosen = 0;
    while (pick(now, chosen)) {
        TrafficRequest &req = queues[chosen].front();
        std::uint64_t tag = nextTag;
        const std::vector<Word> *wd =
            req.cmd.isRead ? nullptr : &req.writeData;
        if (!sys.trySubmit(req.cmd, tag, wd))
            break; // transaction resources exhausted this cycle
        ++nextTag;
        inFlight.emplace(
            tag, InFlight{chosen, req.arrival, now, req.cmd.length,
                          req.cmd.isRead});
        stats.onSubmit(chosen, now - req.arrival);
        queues[chosen].pop_front();
        lastGranted = chosen;
    }

    bool drained = inFlight.empty();
    for (unsigned i = 0; drained && i < sources.size(); ++i)
        drained = sources[i].exhausted() && queues[i].empty();
    return drained;
}

} // namespace pva
