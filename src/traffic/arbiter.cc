#include "traffic/arbiter.hh"

#include <algorithm>
#include <cmath>

#include "sim/trace.hh"

namespace pva
{

const char *
arbPolicyName(ArbPolicy policy)
{
    switch (policy) {
      case ArbPolicy::Fifo:
        return "fifo";
      case ArbPolicy::RoundRobin:
        return "rr";
      case ArbPolicy::Priority:
        return "priority";
    }
    return "?";
}

bool
parseArbPolicy(const std::string &name, ArbPolicy &out)
{
    if (name == "fifo") {
        out = ArbPolicy::Fifo;
    } else if (name == "rr" || name == "roundrobin") {
        out = ArbPolicy::RoundRobin;
    } else if (name == "priority") {
        out = ArbPolicy::Priority;
    } else {
        return false;
    }
    return true;
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
      queues(sources.size()), wasDeferred(sources.size(), false)
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
    // --- 0. Credit any skipped span [lastServiceAt+1, now-1]. --------
    // Event clocking only reaches here with a gap when neither the
    // system nor the arbiter could change during it, so the occupancy
    // sample and per-stream backpressure flags recorded at the last
    // step held on every skipped cycle.
    if (everServiced && now > lastServiceAt + 1) {
        Cycle gap = now - lastServiceAt - 1;
        stats.onCycleGap(gap, lastInFlightSample);
        for (unsigned i = 0; i < sources.size(); ++i) {
            if (wasDeferred[i])
                stats.onDeferredGap(i, gap);
        }
    }
    bool changed = false;

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
        PVA_TRACE_INSTANT(traceTrackId, now, "complete", "stream",
                          f.stream, "latency", now - f.arrival);
        inFlight.erase(it);
        changed = true;
    }

    // --- 2. Admission: pull arrivals into the bounded queues. --------
    for (unsigned i = 0; i < sources.size(); ++i) {
        StreamSource &src = sources[i];
        bool deferred = false;
        while (src.arrivalReady(now)) {
            if (queues[i].size() >=
                src.config().queueCapacity) {
                // Backpressure: the arrival stays pending in the
                // source; open-loop requests keep their scheduled
                // arrival stamp so the wait is visible as queue delay.
                deferred = true;
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
                PVA_TRACE_INSTANT(traceTrackId, now, "shed-overload",
                                  "stream", i);
                changed = true;
                break;
            }
            queues[i].push_back(src.emit(now));
            stats.onArrival(i);
            stats.onQueueDepth(i, queues[i].size());
            PVA_TRACE_INSTANT(traceTrackId, now, "enqueue", "stream",
                              i, "depth", queues[i].size());
            changed = true;
        }
        if (deferred) {
            stats.onDeferred(i);
            PVA_TRACE_INSTANT(traceTrackId, now, "defer", "stream", i);
        }
        wasDeferred[i] = deferred;
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
                PVA_TRACE_INSTANT(traceTrackId, now, "shed-deadline",
                                  "stream", i);
                changed = true;
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
        PVA_TRACE_INSTANT(traceTrackId, now, "grant", "stream",
                          chosen, "waited", now - req.arrival);
        queues[chosen].pop_front();
        lastGranted = chosen;
        changed = true;
    }

    // --- 4. Occupancy sample (end-of-step in-flight count). ----------
    stats.onCycle(sys.inFlight());

    changedLastService = changed;
    everServiced = true;
    lastServiceAt = now;
    lastInFlightSample = sys.inFlight();

    bool drained = inFlight.empty();
    for (unsigned i = 0; drained && i < sources.size(); ++i)
        drained = sources[i].exhausted() && queues[i].empty();
    return drained;
}

Cycle
StreamArbiter::nextWake(Cycle now) const
{
    if (changedLastService)
        return now + 1;
    Cycle wake = kNeverCycle;
    for (const StreamSource &s : sources) {
        if (s.config().mode != ArrivalMode::OpenLoop || s.exhausted())
            continue;
        Cycle a = s.nextArrivalCycle();
        // An arrival already due but deferred needs no wake of its
        // own: only a completion can free queue space, and completions
        // ride the memory system's wakes (via changedLastService).
        if (a > now && a < wake)
            wake = a;
    }
    // A queued head's deadline expiry is a state change with a clock
    // of its own: nothing else need happen for the shed to become due.
    if (cfg.shed.enabled) {
        for (unsigned i = 0; i < sources.size(); ++i) {
            if (shedDeadline[i] == 0 || queues[i].empty())
                continue;
            Cycle expiry =
                queues[i].front().arrival + shedDeadline[i] + 1;
            if (expiry > now && expiry < wake)
                wake = expiry;
        }
    }
    return wake;
}

} // namespace pva
