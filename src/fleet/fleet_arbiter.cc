#include "fleet/fleet_arbiter.hh"

#include <algorithm>
#include <cmath>

namespace pva::fleet
{

namespace
{
constexpr std::uint32_t kNotDeferred = 0xffffffffu;
} // namespace

// ---------------------------------------------------------------------
// TenantArbiter
// ---------------------------------------------------------------------

TenantArbiter::TenantArbiter(unsigned index, const ArbiterConfig &config,
                             std::vector<StreamSource> sources_,
                             ServiceStats &stats_, FleetArbiter &root_)
    : tenantIndex(index), cfg(config), sources(std::move(sources_)),
      stats(stats_), root(root_), queues(sources.size()),
      admitStamp(sources.size(), 0),
      deferredPos(sources.size(), kNotDeferred),
      hasArrivalEntry(sources.size(), 0), retired(sources.size(), 0)
{
    if (cfg.shed.enabled) {
        shedDeadline.reserve(sources.size());
        shedDepth.reserve(sources.size());
        for (const StreamSource &s : sources) {
            shedDeadline.push_back(s.config().deadline > 0
                                       ? s.config().deadline
                                       : cfg.shed.defaultDeadline);
            const std::size_t cap = s.config().queueCapacity;
            std::size_t depth = cap;
            if (cfg.shed.queueHighWatermark < 1.0) {
                depth = static_cast<std::size_t>(std::ceil(
                    cfg.shed.queueHighWatermark *
                    static_cast<double>(cap)));
                depth = std::max<std::size_t>(1, std::min(depth, cap));
            }
            shedDepth.push_back(depth);
        }
    }
    // Every stream gets one initial admission pass (the flat arbiter's
    // first full scan); quiescent streams retire there and never cost
    // another cycle of work.
    admitWork.reserve(sources.size());
    for (unsigned i = 0; i < sources.size(); ++i)
        admitWork.push_back(i);
}

void
TenantArbiter::creditDeferredGap(Cycle gap)
{
    for (unsigned local : deferredList)
        stats.onDeferredGap(local, gap);
}

void
TenantArbiter::addDeferred(unsigned local)
{
    if (deferredPos[local] != kNotDeferred)
        return;
    deferredPos[local] = static_cast<std::uint32_t>(deferredList.size());
    deferredList.push_back(local);
}

void
TenantArbiter::removeDeferred(unsigned local)
{
    const std::uint32_t pos = deferredPos[local];
    if (pos == kNotDeferred)
        return;
    const unsigned last = deferredList.back();
    deferredList[pos] = last;
    deferredPos[last] = pos;
    deferredList.pop_back();
    deferredPos[local] = kNotDeferred;
}

void
TenantArbiter::pushArrivalEntry(Cycle arrival, unsigned local)
{
    arrivalHeap.emplace(arrival, local);
    hasArrivalEntry[local] = 1;
}

void
TenantArbiter::checkRetired(unsigned local)
{
    if (retired[local] || !sources[local].exhausted() ||
        !queues[local].empty()) {
        return;
    }
    retired[local] = 1;
    root.streamRetired();
}

void
TenantArbiter::newHead(unsigned local)
{
    const TrafficRequest &req = queues[local].front();
    switch (cfg.policy) {
      case ArbPolicy::Fifo:
        headHeap.emplace(req.arrival, local);
        break;
      case ArbPolicy::Priority:
        // The head heap doubles as the aging (oldest-first) index.
        headHeap.emplace(req.arrival, local);
        prioHeap.emplace(sources[local].config().priority, req.arrival,
                         local);
        break;
      case ArbPolicy::RoundRobin:
        break;
    }
    if (cfg.shed.enabled && shedDeadline[local] > 0)
        expiryHeap.emplace(req.arrival + shedDeadline[local] + 1, local);
    root.markDirty(tenantIndex);
}

void
TenantArbiter::queueBecameEmpty(unsigned local)
{
    if (cfg.policy == ArbPolicy::RoundRobin)
        rrSet.erase(local);
    if (--nonEmptyCount == 0)
        root.setNonEmpty(tenantIndex, false);
    root.markDirty(tenantIndex);
}

void
TenantArbiter::processAdmission(unsigned local, Cycle now, bool &changed)
{
    // At most one admission pass per stream per step, however many
    // worklists name it (completion + due arrival + deferred retry).
    if (admitStamp[local] == now + 1)
        return;
    admitStamp[local] = now + 1;

    StreamSource &src = sources[local];
    std::deque<TrafficRequest> &q = queues[local];
    bool deferred = false;
    while (src.arrivalReady(now)) {
        if (q.size() >= src.config().queueCapacity) {
            deferred = true;
            break;
        }
        if (cfg.shed.enabled && q.size() >= shedDepth[local]) {
            // Overload shed; one drop per stream per step, so the
            // retry rides the next-step worklist, not this one.
            src.emit(now);
            stats.onArrival(local);
            stats.onShedOverload(local);
            src.onComplete();
            root.shedChannel.publish(ShedEvent{tenantIndex, local, false});
            changed = true;
            nextStepWork.push_back(local);
            break;
        }
        const bool wasEmpty = q.empty();
        q.push_back(src.emit(now));
        stats.onArrival(local);
        stats.onQueueDepth(local, q.size());
        changed = true;
        if (wasEmpty) {
            if (++nonEmptyCount == 1)
                root.setNonEmpty(tenantIndex, true);
            if (cfg.policy == ArbPolicy::RoundRobin)
                rrSet.insert(local);
            newHead(local);
        }
    }
    if (deferred) {
        stats.onDeferred(local);
        addDeferred(local);
    } else {
        removeDeferred(local);
        if (src.config().mode == ArrivalMode::OpenLoop &&
            !src.exhausted()) {
            const Cycle a = src.nextArrivalCycle();
            if (a > now && !hasArrivalEntry[local])
                pushArrivalEntry(a, local);
        }
        checkRetired(local);
    }
}

bool
TenantArbiter::admitStep(Cycle now)
{
    bool changed = false;
    if (!nextStepWork.empty()) {
        admitWork.insert(admitWork.end(), nextStepWork.begin(),
                         nextStepWork.end());
        nextStepWork.clear();
    }
    while (!arrivalHeap.empty() && arrivalHeap.top().first <= now) {
        const unsigned local = arrivalHeap.top().second;
        arrivalHeap.pop();
        hasArrivalEntry[local] = 0;
        admitWork.push_back(local);
    }
    for (std::size_t i = 0; i < admitWork.size(); ++i)
        processAdmission(admitWork[i], now, changed);
    admitWork.clear();
    if (!deferredList.empty()) {
        // Deferred streams retry every step (and take their onDeferred
        // sample there), exactly like the flat arbiter's full scan.
        // Copy first: a successful retry mutates deferredList.
        deferredScratch.assign(deferredList.begin(), deferredList.end());
        for (unsigned local : deferredScratch)
            processAdmission(local, now, changed);
    }
    return changed;
}

bool
TenantArbiter::shedExpired(Cycle now)
{
    bool changed = false;
    while (!expiryHeap.empty() && expiryHeap.top().first <= now) {
        const auto [e, local] = expiryHeap.top();
        expiryHeap.pop();
        std::deque<TrafficRequest> &q = queues[local];
        const Cycle budget = shedDeadline[local];
        // Live iff the current head still carries this expiry (every
        // head change pushed a fresh entry, so no live one is missed).
        if (q.empty() || q.front().arrival + budget + 1 != e)
            continue;
        while (!q.empty() && now - q.front().arrival > budget) {
            q.pop_front();
            stats.onShedDeadline(local);
            sources[local].onComplete();
            root.shedChannel.publish(ShedEvent{tenantIndex, local, true});
            changed = true;
        }
        // The released window slot can re-admit a closed-loop
        // arrival, but only at the next step (the flat phase order
        // runs admission before deadline shed).
        if (sources[local].config().mode != ArrivalMode::OpenLoop)
            nextStepWork.push_back(local);
        if (q.empty())
            queueBecameEmpty(local);
        else
            newHead(local);
        checkRetired(local);
    }
    return changed;
}

void
TenantArbiter::onComplete(unsigned local, Cycle service_latency,
                          Cycle total_latency, std::uint32_t words,
                          bool is_read)
{
    stats.onComplete(local, service_latency, total_latency, words,
                     is_read);
    sources[local].onComplete();
    // A freed window slot can make a closed-loop stream ready this
    // very step: completions are phase 1, admission phase 2.
    if (sources[local].config().mode != ArrivalMode::OpenLoop)
        admitWork.push_back(local);
}

bool
TenantArbiter::fifoBest(Cycle &arrival, unsigned &local)
{
    while (!headHeap.empty()) {
        const auto [a, l] = headHeap.top();
        if (!queues[l].empty() && queues[l].front().arrival == a) {
            arrival = a;
            local = l;
            return true;
        }
        headHeap.pop();
    }
    return false;
}

bool
TenantArbiter::prioBest(unsigned &prio, Cycle &arrival, unsigned &local)
{
    while (!prioHeap.empty()) {
        const auto [p, a, l] = prioHeap.top();
        if (!queues[l].empty() && queues[l].front().arrival == a) {
            prio = p;
            arrival = a;
            local = l;
            return true;
        }
        prioHeap.pop();
    }
    return false;
}

bool
TenantArbiter::rrFirstAtLeast(unsigned from_local, unsigned &local) const
{
    auto it = rrSet.lower_bound(from_local);
    if (it == rrSet.end())
        return false;
    local = *it;
    return true;
}

bool
TenantArbiter::rrFirst(unsigned &local) const
{
    if (rrSet.empty())
        return false;
    local = *rrSet.begin();
    return true;
}

void
TenantArbiter::popGranted(unsigned local, Cycle now)
{
    std::deque<TrafficRequest> &q = queues[local];
    stats.onSubmit(local, now - q.front().arrival);
    q.pop_front();
    if (q.empty())
        queueBecameEmpty(local);
    else
        newHead(local);
    checkRetired(local);
}

Cycle
TenantArbiter::minArrival() const
{
    // Arrival entries never go stale: at most one per stream, popped
    // exactly when due.
    return arrivalHeap.empty() ? kNeverCycle : arrivalHeap.top().first;
}

Cycle
TenantArbiter::minExpiry()
{
    while (!expiryHeap.empty()) {
        const auto [e, local] = expiryHeap.top();
        const std::deque<TrafficRequest> &q = queues[local];
        if (!q.empty() && q.front().arrival + shedDeadline[local] + 1 == e)
            return e;
        expiryHeap.pop();
    }
    return kNeverCycle;
}

// ---------------------------------------------------------------------
// FleetArbiter
// ---------------------------------------------------------------------

FleetArbiter::FleetArbiter(const ArbiterConfig &config,
                           std::vector<TenantSeat> seats,
                           MessageBus &bus)
    : cfg(config), grantChannel(bus.channel<GrantEvent>()),
      shedChannel(bus.channel<ShedEvent>())
{
    tenants.reserve(seats.size());
    bases.reserve(seats.size());
    unsigned base = 0;
    for (unsigned t = 0; t < seats.size(); ++t) {
        TenantSeat &seat = seats[t];
        bases.push_back(base);
        const unsigned n = static_cast<unsigned>(seat.sources.size());
        tenants.push_back(std::make_unique<TenantArbiter>(
            t, cfg, std::move(seat.sources), *seat.stats, *this));
        base += n;
    }
    totalStreams = base;
    activeStreams = totalStreams;
    if (totalStreams > 0)
        lastGrantedGid = static_cast<unsigned>(totalStreams) - 1;

    const unsigned tn = static_cast<unsigned>(tenants.size());
    dirtyFlag.assign(tn, 0);
    pendingFlag.assign(tn, 0);
    shedPendingFlag.assign(tn, 0);
    arrivalCache.assign(tn, kNeverCycle);
    expiryCache.assign(tn, kNeverCycle);
    pendingTenants.reserve(tn);
    for (unsigned t = 0; t < tn; ++t)
        markPending(t);
}

FleetArbiter::~FleetArbiter() = default;

void
FleetArbiter::markDirty(unsigned t)
{
    if (!dirtyFlag[t]) {
        dirtyFlag[t] = 1;
        dirtyList.push_back(t);
    }
}

void
FleetArbiter::setNonEmpty(unsigned t, bool non_empty)
{
    if (non_empty)
        nonEmptyTenants.insert(t);
    else
        nonEmptyTenants.erase(t);
}

unsigned
FleetArbiter::tenantOf(unsigned gid) const
{
    // Empty tenants repeat a base value; upper_bound lands past all of
    // them, on the (sole) tenant that actually owns the id range.
    auto it = std::upper_bound(bases.begin(), bases.end(), gid);
    return static_cast<unsigned>((it - bases.begin()) - 1);
}

void
FleetArbiter::markPending(unsigned t)
{
    if (!pendingFlag[t]) {
        pendingFlag[t] = 1;
        pendingTenants.push_back(t);
    }
}

void
FleetArbiter::markShedPending(unsigned t)
{
    if (!shedPendingFlag[t]) {
        shedPendingFlag[t] = 1;
        shedPending.push_back(t);
    }
}

void
FleetArbiter::drainDirty()
{
    for (unsigned t : dirtyList) {
        dirtyFlag[t] = 0;
        refreshCandidate(t);
    }
    dirtyList.clear();
}

void
FleetArbiter::refreshCandidate(unsigned t)
{
    TenantArbiter &ten = *tenants[t];
    switch (cfg.policy) {
      case ArbPolicy::Fifo: {
        Cycle a;
        unsigned l;
        if (ten.fifoBest(a, l))
            rootFifo.emplace(a, bases[t] + l);
        break;
      }
      case ArbPolicy::Priority: {
        Cycle a;
        unsigned l;
        if (ten.fifoBest(a, l))
            rootFifo.emplace(a, bases[t] + l);
        unsigned p;
        if (ten.prioBest(p, a, l))
            rootPrio.emplace(p, a, bases[t] + l);
        break;
      }
      case ArbPolicy::RoundRobin:
        // The nonEmptyTenants set (setNonEmpty) is the only root-side
        // candidate state round-robin needs.
        break;
    }
}

void
FleetArbiter::reprimeArrival(unsigned t)
{
    const Cycle m = tenants[t]->minArrival();
    if (m != kNeverCycle && m < arrivalCache[t]) {
        fleetArrival.emplace(m, t);
        arrivalCache[t] = m;
    }
}

void
FleetArbiter::reprimeExpiry(unsigned t)
{
    if (!cfg.shed.enabled)
        return;
    const Cycle m = tenants[t]->minExpiry();
    if (m != kNeverCycle && m < expiryCache[t]) {
        fleetExpiry.emplace(m, t);
        expiryCache[t] = m;
    }
}

bool
FleetArbiter::pickFifo(unsigned &t, unsigned &local, Cycle &arrival)
{
    while (!rootFifo.empty()) {
        const auto [a, gid] = rootFifo.top();
        const unsigned tt = tenantOf(gid);
        const unsigned ll = gid - bases[tt];
        Cycle a2;
        unsigned l2;
        // A stale entry that happens to match the tenant's current
        // best carries the exact (arrival, global id) pick key, so
        // granting through it is still the flat arbiter's choice.
        if (tenants[tt]->fifoBest(a2, l2) && a2 == a && l2 == ll) {
            t = tt;
            local = ll;
            arrival = a;
            return true;
        }
        rootFifo.pop();
    }
    return false;
}

bool
FleetArbiter::pickPriority(Cycle now, unsigned &t, unsigned &local)
{
    // Starvation guard: the globally oldest head is the aged pick if
    // any head is aged at all (max age = now - min arrival).
    unsigned tf, lf;
    Cycle af;
    if (pickFifo(tf, lf, af) && now - af >= cfg.agingThreshold) {
        t = tf;
        local = lf;
        return true;
    }
    while (!rootPrio.empty()) {
        const auto [p, a, gid] = rootPrio.top();
        const unsigned tt = tenantOf(gid);
        const unsigned ll = gid - bases[tt];
        unsigned p2, l2;
        Cycle a2;
        if (tenants[tt]->prioBest(p2, a2, l2) && p2 == p && a2 == a &&
            l2 == ll) {
            t = tt;
            local = ll;
            return true;
        }
        rootPrio.pop();
    }
    return false;
}

bool
FleetArbiter::pickRoundRobin(unsigned &t, unsigned &local)
{
    if (nonEmptyTenants.empty())
        return false;
    const unsigned cursor =
        (lastGrantedGid + 1) % static_cast<unsigned>(totalStreams);
    const unsigned t0 = tenantOf(cursor);
    // First non-empty stream at or after the cursor within its tenant,
    // then the first non-empty tenant after it, then wrap.
    if (tenants[t0]->rrFirstAtLeast(cursor - bases[t0], local)) {
        t = t0;
        return true;
    }
    auto it = nonEmptyTenants.lower_bound(t0 + 1);
    if (it != nonEmptyTenants.end()) {
        t = *it;
        tenants[t]->rrFirst(local);
        return true;
    }
    it = nonEmptyTenants.begin();
    t = *it;
    tenants[t]->rrFirst(local);
    return true;
}

bool
FleetArbiter::service(MemorySystem &sys, Cycle now)
{
    // --- 0. Credit any skipped span [lastServiceAt+1, now-1]. --------
    // (See traffic/arbiter.cc: the span is only skipped when nothing
    // could change, so the last step's samples held throughout it.)
    if (everServiced && now > lastServiceAt + 1) {
        const Cycle gap = now - lastServiceAt - 1;
        occCycles += gap;
        occSum += static_cast<std::uint64_t>(lastInFlightSample) * gap;
        for (unsigned t : deferredTenants)
            tenants[t]->creditDeferredGap(gap);
    }
    bool changed = false;

    // --- 1. Completions. ---------------------------------------------
    sys.drainCompletionsInto(drainedCompletions);
    for (Completion &c : drainedCompletions) {
        sys.recycleLine(std::move(c.data));
        auto it = inFlight.find(c.tag);
        if (it == inFlight.end())
            continue; // not ours (defensive; tags are arbiter-issued)
        const FleetInFlight &f = it->second;
        tenants[f.tenant]->onComplete(f.local, now - f.submitted,
                                      now - f.arrival, f.words,
                                      f.isRead);
        markPending(f.tenant);
        inFlight.erase(it);
        changed = true;
    }

    // --- 2. Admission, only for tenants with due or queued work. -----
    while (!fleetArrival.empty() && fleetArrival.top().first <= now) {
        const auto [cyc, t] = fleetArrival.top();
        fleetArrival.pop();
        if (arrivalCache[t] == cyc)
            arrivalCache[t] = kNeverCycle;
        markPending(t);
    }
    if (!pendingTenants.empty()) {
        pendingScratch.swap(pendingTenants);
        for (unsigned t : pendingScratch) {
            pendingFlag[t] = 0;
            TenantArbiter &ten = *tenants[t];
            changed |= ten.admitStep(now);
            reprimeArrival(t);
            reprimeExpiry(t);
            if (ten.hasDeferred())
                deferredTenants.insert(t);
            else
                deferredTenants.erase(t);
            if (ten.admissionPending())
                markPending(t);
        }
        pendingScratch.clear();
    }

    // --- 2b. Deadline shed: drop queue heads past their budget. ------
    if (cfg.shed.enabled) {
        while (!fleetExpiry.empty() && fleetExpiry.top().first <= now) {
            const auto [cyc, t] = fleetExpiry.top();
            fleetExpiry.pop();
            if (expiryCache[t] == cyc)
                expiryCache[t] = kNeverCycle;
            markShedPending(t);
        }
        if (!shedPending.empty()) {
            for (unsigned t : shedPending) {
                shedPendingFlag[t] = 0;
                TenantArbiter &ten = *tenants[t];
                changed |= ten.shedExpired(now);
                reprimeExpiry(t);
                if (ten.admissionPending())
                    markPending(t);
            }
            shedPending.clear();
        }
    }

    // --- 3. Grant: submit queue heads until the system refuses. ------
    drainDirty();
    if (totalStreams > 0) {
        while (true) {
            unsigned t = 0, local = 0;
            Cycle arrival = 0;
            bool found = false;
            switch (cfg.policy) {
              case ArbPolicy::Fifo:
                found = pickFifo(t, local, arrival);
                break;
              case ArbPolicy::Priority:
                found = pickPriority(now, t, local);
                break;
              case ArbPolicy::RoundRobin:
                found = pickRoundRobin(t, local);
                break;
            }
            if (!found)
                break;
            TenantArbiter &ten = *tenants[t];
            const TrafficRequest &req = ten.head(local);
            const std::vector<Word> *wd =
                req.cmd.isRead ? nullptr : &req.writeData;
            if (!sys.trySubmit(req.cmd, nextTag, wd))
                break; // transaction resources exhausted this cycle
            inFlight.emplace(nextTag,
                             FleetInFlight{t, local, req.arrival, now,
                                           req.cmd.length,
                                           req.cmd.isRead});
            ++nextTag;
            ++grantCount;
            grantChannel.publish(GrantEvent{t, local, now - req.arrival});
            ten.popGranted(local, now);
            reprimeExpiry(t);
            lastGrantedGid = bases[t] + local;
            changed = true;
            drainDirty();
        }
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
    Cycle wake = kNeverCycle;

    // Validate heap tops against the owning tenant's true minimum so
    // the reported wake is exact (never a stale, earlier entry).
    while (!fleetArrival.empty()) {
        const auto [cyc, t] = fleetArrival.top();
        const Cycle m = tenants[t]->minArrival();
        if (m == cyc && cyc > now) {
            wake = cyc;
            break;
        }
        if (m != kNeverCycle && m <= now)
            return now + 1; // due work pending (defensive)
        fleetArrival.pop();
        if (arrivalCache[t] == cyc)
            arrivalCache[t] = kNeverCycle;
        if (m != kNeverCycle && m < arrivalCache[t]) {
            fleetArrival.emplace(m, t);
            arrivalCache[t] = m;
        }
    }

    if (cfg.shed.enabled) {
        while (!fleetExpiry.empty()) {
            const auto [cyc, t] = fleetExpiry.top();
            if (cyc >= wake)
                break; // cannot improve; prune lazily later
            const Cycle m = tenants[t]->minExpiry();
            if (m == cyc && cyc > now) {
                wake = cyc;
                break;
            }
            if (m != kNeverCycle && m <= now)
                return now + 1; // due shed pending (defensive)
            fleetExpiry.pop();
            if (expiryCache[t] == cyc)
                expiryCache[t] = kNeverCycle;
            if (m != kNeverCycle && m < expiryCache[t]) {
                fleetExpiry.emplace(m, t);
                expiryCache[t] = m;
            }
        }
    }
    return wake;
}

} // namespace pva::fleet
