#include "fleet/fleet_arbiter.hh"

#include <algorithm>
#include <numeric>

#include "kernels/runner.hh"
#include "sim/simulation.hh"
#include "sim/trace.hh"

namespace pva::fleet
{

namespace
{
constexpr std::uint32_t kNotDeferred = 0xffffffffu;
} // namespace

FleetArbiter::FleetArbiter(const ArbiterConfig &config,
                           std::vector<TenantSeat> seats,
                           MessageBus &bus)
    : cfg(config), grantChannel(bus.channel<GrantEvent>()),
      shedChannel(bus.channel<ShedEvent>())
{
    std::size_t n = 0;
    for (const TenantSeat &seat : seats)
        n += seat.sources.size();
    sources.reserve(n);
    tenantOf.reserve(n);
    tenantBase.reserve(seats.size());
    tenantStats.reserve(seats.size());
    for (unsigned t = 0; t < seats.size(); ++t) {
        tenantBase.push_back(static_cast<unsigned>(sources.size()));
        tenantStats.push_back(seats[t].stats);
        for (StreamSource &s : seats[t].sources) {
            sources.push_back(std::move(s));
            tenantOf.push_back(t);
        }
    }

    queues.resize(n);
    admitStamp.assign(n, 0);
    deferredPos.assign(n, kNotDeferred);
    hasArrivalEntry.assign(n, 0);
    retired.assign(n, 0);
    activeStreams = n;
    if (n > 0)
        lastGranted = static_cast<unsigned>(n) - 1;
    if (cfg.shed.enabled) {
        shedDeadline.reserve(n);
        shedDepth.reserve(n);
        for (const StreamSource &s : sources) {
            shedDeadline.push_back(shedDeadlineOf(cfg, s.config()));
            shedDepth.push_back(shedDepthOf(cfg, s.config()));
        }
    }
    // Every stream gets one initial admission pass (the reference's
    // first full scan); quiescent streams retire there and never cost
    // another cycle of work.
    admitWork.resize(n);
    std::iota(admitWork.begin(), admitWork.end(), 0u);
    PVA_TRACE_BLOCK(
        if (trace::TraceSession *ts = trace::session())
            traceTrackId = ts->registerTrack("traffic", "arbiter"););
}

void
FleetArbiter::setDeferred(unsigned g, bool deferred)
{
    const std::uint32_t pos = deferredPos[g];
    if (deferred == (pos != kNotDeferred))
        return;
    if (deferred) {
        deferredPos[g] = static_cast<std::uint32_t>(deferredList.size());
        deferredList.push_back(g);
        return;
    }
    const unsigned last = deferredList.back();
    deferredList[pos] = last;
    deferredPos[last] = pos;
    deferredList.pop_back();
    deferredPos[g] = kNotDeferred;
}

void
FleetArbiter::checkRetired(unsigned g)
{
    if (retired[g] || !sources[g].exhausted() || !queues[g].empty())
        return;
    retired[g] = 1;
    --activeStreams;
}

void
FleetArbiter::newHead(unsigned g)
{
    const Cycle arrival = queues[g].front().arrival;
    switch (cfg.policy) {
      case ArbPolicy::Fifo:
        headHeap.emplace(arrival, g);
        break;
      case ArbPolicy::Priority:
        // The head heap doubles as the aging (oldest-first) index.
        headHeap.emplace(arrival, g);
        prioHeap.emplace(sources[g].config().priority, arrival, g);
        break;
      case ArbPolicy::RoundRobin:
        rrSet.insert(g);
        break;
    }
    // A head whose expiry would pass 2^64-1 never expires, so it gets
    // no entry (the sum would wrap to a cycle already due).
    if (cfg.shed.enabled && shedDeadline[g] > 0 &&
        shedDeadline[g] < kNeverCycle - arrival)
        expiryHeap.emplace(arrival + shedDeadline[g] + 1, g);
}

void
FleetArbiter::headPopped(unsigned g)
{
    if (!queues[g].empty())
        newHead(g);
    else if (cfg.policy == ArbPolicy::RoundRobin)
        rrSet.erase(g);
}

void
FleetArbiter::admit(unsigned g, Cycle now, bool &changed)
{
    // At most one admission pass per stream per step, however many
    // worklists name it (completion + due arrival + deferred retry).
    if (admitStamp[g] == now + 1)
        return;
    admitStamp[g] = now + 1;

    StreamSource &src = sources[g];
    RingDeque<TrafficRequest> &q = queues[g];
    ServiceStats &stats = statsOf(g);
    const unsigned local = localOf(g);
    bool deferred = false;
    while (src.arrivalReady(now)) {
        if (q.size() >= src.config().queueCapacity) {
            deferred = true;
            break;
        }
        if (cfg.shed.enabled && q.size() >= shedDepth[g]) {
            // Overload shed; one drop per stream per step, so the
            // retry rides the next-step worklist, not this one.
            src.emit(now);
            stats.onArrival(local);
            stats.onShedOverload(local);
            src.onComplete();
            shedChannel.publish(ShedEvent{tenantOf[g], local, false});
            PVA_TRACE_INSTANT(traceTrackId, now, "shed-overload",
                              "stream", g);
            changed = true;
            nextStepWork.push_back(g);
            break;
        }
        q.pushBack() = src.emit(now);
        stats.onArrival(local);
        stats.onQueueDepth(local, q.size());
        PVA_TRACE_INSTANT(traceTrackId, now, "enqueue", "stream", g,
                          "depth", q.size());
        changed = true;
        if (q.size() == 1)
            newHead(g);
    }
    setDeferred(g, deferred);
    if (deferred) {
        stats.onDeferred(local);
        PVA_TRACE_INSTANT(traceTrackId, now, "defer", "stream", g);
        return;
    }
    if (src.config().mode == ArrivalMode::OpenLoop && !src.exhausted()) {
        const Cycle a = src.nextArrivalCycle();
        if (a > now && !hasArrivalEntry[g]) {
            arrivalHeap.emplace(a, g);
            hasArrivalEntry[g] = 1;
        }
    }
    checkRetired(g);
}

Cycle
FleetArbiter::liveExpiry()
{
    while (!expiryHeap.empty()) {
        const auto [e, g] = expiryHeap.top();
        if (headArrivedAt(g, e - shedDeadline[g] - 1))
            return e;
        expiryHeap.pop();
    }
    return kNeverCycle;
}

bool
FleetArbiter::shedExpired(Cycle now)
{
    bool changed = false;
    while (liveExpiry() <= now) {
        const unsigned g = expiryHeap.top().second;
        expiryHeap.pop();
        RingDeque<TrafficRequest> &q = queues[g];
        const unsigned local = localOf(g);
        while (!q.empty() && now - q.front().arrival > shedDeadline[g]) {
            q.popFront();
            statsOf(g).onShedDeadline(local);
            sources[g].onComplete();
            shedChannel.publish(ShedEvent{tenantOf[g], local, true});
            PVA_TRACE_INSTANT(traceTrackId, now, "shed-deadline",
                              "stream", g);
            changed = true;
        }
        // The released window slot can re-admit a closed-loop
        // arrival, but only at the next step (the reference's phase
        // order runs admission before deadline shed).
        if (sources[g].config().mode != ArrivalMode::OpenLoop)
            nextStepWork.push_back(g);
        headPopped(g);
        checkRetired(g);
    }
    return changed;
}

bool
FleetArbiter::oldestHead(unsigned &g, Cycle &arrival)
{
    while (!headHeap.empty()) {
        const auto [a, h] = headHeap.top();
        if (headArrivedAt(h, a)) {
            g = h;
            arrival = a;
            return true;
        }
        headHeap.pop();
    }
    return false;
}

bool
FleetArbiter::pick(Cycle now, unsigned &g)
{
    switch (cfg.policy) {
      case ArbPolicy::Fifo: {
        Cycle arrival;
        return oldestHead(g, arrival);
      }
      case ArbPolicy::Priority: {
        // Starvation guard: the oldest head is the aged pick if any
        // head is aged at all (max age = now - min arrival).
        Cycle arrival;
        if (oldestHead(g, arrival) && now - arrival >= cfg.agingThreshold)
            return true;
        while (!prioHeap.empty()) {
            const auto [p, a, h] = prioHeap.top();
            if (headArrivedAt(h, a)) {
                g = h;
                return true;
            }
            prioHeap.pop();
        }
        return false;
      }
      case ArbPolicy::RoundRobin: {
        if (rrSet.empty())
            return false;
        // First non-empty id after the last grant, wrapping around.
        const unsigned cursor =
            (lastGranted + 1) % static_cast<unsigned>(sources.size());
        auto it = rrSet.lower_bound(cursor);
        g = it != rrSet.end() ? *it : *rrSet.begin();
        return true;
      }
    }
    return false;
}

bool
FleetArbiter::service(MemorySystem &sys, Cycle now)
{
    // --- 0. Credit any skipped span [lastServiceAt+1, now-1]. --------
    // Event clocking skips a span only when neither the system nor
    // the arbiter could change during it, so the in-flight sample and
    // the deferred set of the last step held on every skipped cycle.
    if (everServiced && now > lastServiceAt + 1) {
        const Cycle gap = now - lastServiceAt - 1;
        occCycles += gap;
        occSum += static_cast<std::uint64_t>(lastInFlightSample) * gap;
        for (unsigned g : deferredList)
            statsOf(g).onDeferredGap(localOf(g), gap);
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
        statsOf(f.stream).onComplete(localOf(f.stream),
                                     now - f.submitted, now - f.arrival,
                                     f.words, f.isRead);
        sources[f.stream].onComplete();
        PVA_TRACE_INSTANT(traceTrackId, now, "complete", "stream",
                          f.stream, "latency", now - f.arrival);
        // A freed window slot can make a closed-loop stream ready this
        // very step: completions are phase 1, admission phase 2.
        if (sources[f.stream].config().mode != ArrivalMode::OpenLoop)
            admitWork.push_back(f.stream);
        inFlight.erase(it);
        changed = true;
    }

    // --- 2. Admission: worklists, due arrivals, deferred retries. ----
    admitWork.insert(admitWork.end(), nextStepWork.begin(),
                     nextStepWork.end());
    nextStepWork.clear();
    while (!arrivalHeap.empty() && arrivalHeap.top().first <= now) {
        const unsigned g = arrivalHeap.top().second;
        arrivalHeap.pop();
        hasArrivalEntry[g] = 0;
        admitWork.push_back(g);
    }
    for (unsigned g : admitWork)
        admit(g, now, changed);
    admitWork.clear();
    if (!deferredList.empty()) {
        // Deferred streams retry every step (and take their onDeferred
        // sample there), exactly like the reference's full scan.
        // Copy first: a successful retry mutates deferredList.
        deferredScratch.assign(deferredList.begin(), deferredList.end());
        for (unsigned g : deferredScratch)
            admit(g, now, changed);
    }

    // --- 2b. Deadline shed: drop queue heads past their budget. ------
    if (cfg.shed.enabled)
        changed |= shedExpired(now);

    // --- 3. Grant: submit queue heads until the system refuses. ------
    unsigned g = 0;
    while (pick(now, g)) {
        RingDeque<TrafficRequest> &q = queues[g];
        const TrafficRequest &req = q.front();
        const std::vector<Word> *wd =
            req.cmd.isRead ? nullptr : &req.writeData;
        if (!sys.trySubmit(req.cmd, nextTag, wd))
            break; // transaction resources exhausted this cycle
        const Cycle waited = now - req.arrival;
        const unsigned local = localOf(g);
        inFlight.emplace(nextTag, InFlight{g, req.arrival, now,
                                           req.cmd.length,
                                           req.cmd.isRead});
        ++nextTag;
        grantChannel.publish(GrantEvent{tenantOf[g], local, waited});
        statsOf(g).onSubmit(local, waited);
        PVA_TRACE_INSTANT(traceTrackId, now, "grant", "stream", g,
                          "waited", waited);
        q.popFront();
        headPopped(g);
        checkRetired(g);
        lastGranted = g;
        changed = true;
    }

    // --- 4. Occupancy sample (end-of-step in-flight count). ----------
    ++occCycles;
    occSum += sys.inFlight();

    changedLastService = changed;
    everServiced = true;
    lastServiceAt = now;
    lastInFlightSample = sys.inFlight();

    return activeStreams == 0 && inFlight.empty();
}

Cycle
FleetArbiter::nextWake(Cycle now)
{
    if (changedLastService)
        return now + 1;
    const Cycle arrival =
        arrivalHeap.empty() ? kNeverCycle : arrivalHeap.top().first;
    return std::min(arrival, liveExpiry());
}

void
runToDrain(Simulation &sim, FleetArbiter &arbiter, MemorySystem &sys,
           const RunLimits &limits)
{
    sim.runUntil(
        [&] {
            const bool done = arbiter.service(sys, sim.now());
            // The arbiter is no MemorySystem, so it has no wake of its
            // own under the wake contract; its self-scheduled work is
            // posted as external wakes (a no-op under exhaustive
            // clocking).
            if (!done)
                sim.requestWake(arbiter.nextWake(sim.now()));
            return done;
        },
        limits.maxCycles, limits.timeoutMillis);
}

} // namespace pva::fleet
