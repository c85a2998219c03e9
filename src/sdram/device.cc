#include "sdram/device.hh"

#include <algorithm>

#include "sdram/timing_checker.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"
#include "sim/trace.hh"

namespace pva
{

void
checkRefreshRoom(const SdramTiming &t, const BackendPolicy &pol)
{
    if (t.tREFI == 0)
        return;
    auto reject = [&t](const std::string &why) {
        throw SimError(SimErrorKind::Config, "config.timing", kNeverCycle,
                       csprintf("tREFI %u leaves no cycle for an access: "
                                "%s", t.tREFI, why.c_str()));
    };
    // A refresh closes every row, so each access follows an activate
    // by tRCD. An activate a refresh cuts off retries tRC later; below
    // tREFI that lands earlier in the next interval each time, until
    // the access fits.
    if (t.tREFI <= t.tRC)
        reject(csprintf("it must exceed tRC %u", t.tRC));
    if (pol.kind != MemBackend::DeferredRefresh) {
        // A refresh at every boundary: the activate waits out tRFC and
        // its access must issue before the next boundary.
        if (t.tREFI <= static_cast<Cycle>(t.tRFC) + t.tRCD) {
            reject(csprintf("it must exceed tRFC %u + tRCD %u", t.tRFC,
                            t.tRCD));
        }
        return;
    }
    // tickRefreshDeferred() holds a busy boundary until it is forced
    // at due + window. Once idle, the device applies overdue boundaries
    // and pulls the next one in, so refreshes chain until one ends more
    // than window cycles before a boundary; each link gains
    // tREFI - tRFC (>= 1, resolveBackendPolicy) on the boundary grid.
    // The activate in that first free cycle gets `room` cycles before
    // the next forced refresh. If tRCD does not fit, the forced refresh
    // closes its row and the chain repeats unchanged.
    const Cycle gain = t.tREFI - t.tRFC;
    const Cycle room = gain * ((2 * pol.deferWindow + gain) / gain);
    if (t.tRCD >= room) {
        reject(csprintf("with tRFC %u and refreshDeferWindow %llu an "
                        "activate comes %llu cycles before the forced "
                        "refresh, too few for tRCD %u",
                        t.tRFC,
                        static_cast<unsigned long long>(pol.deferWindow),
                        static_cast<unsigned long long>(room), t.tRCD));
    }
}

SdramDevice::SdramDevice(std::string name, unsigned bank_index,
                         const Geometry &geo, const SdramTiming &timing,
                         SparseMemory &backing,
                         const BackendPolicy &policy)
    : BankDevice(std::move(name), bank_index, geo, backing), times(timing)
{
    pol = policy;
    const unsigned slots = pol.slotCount(geo.internalBanks());
    accessReady.assign(slots, 0);
    prechargeReady.assign(slots, 0);
    activateReady.assign(slots, 0);
    openRows.assign(slots, 0);
    lastOpenedRows.assign(slots, 0);
    rowOpen.assign(slots, 0);
    everOpened.assign(slots, 0);
    freshActivate.assign(slots, 0);
}

Cycle
SdramDevice::dataCycleOf(const DeviceOp &op, Cycle now) const
{
    // Read data appears after the CAS latency; write data is driven on
    // the cycle after the command (the controller owns the pins then).
    return op.kind == DeviceOp::Kind::Read ? now + times.tCL : now + 1;
}

void
SdramDevice::applyRefresh(Cycle now, Cycle covered)
{
    PVA_TRACE_BLOCK(
        // Only a refresh starting from idle opens a span; an overlap
        // extension would nest B/E pairs on the track.
        if (refreshBusyUntil <= now) {
            PVA_TRACE_BEGIN(traceTrack(), now, "refresh");
            PVA_TRACE_END(traceTrack(), now + times.tRFC, "refresh");
        });
    refreshBusyUntil = std::max(refreshBusyUntil, now + times.tRFC);
    for (std::size_t b = 0; b < rowOpen.size(); ++b) {
        rowOpen[b] = 0;
        activateReady[b] = std::max(activateReady[b], refreshBusyUntil);
    }
    if (checker)
        checker->onRefresh(bankIndex, now, refreshBusyUntil, covered);
}

void
SdramDevice::tickRefresh(Cycle now)
{
    if (injector && injector->refreshStall()) {
        ++statInjectedRefreshes;
        applyRefresh(now, 0);
    }
    if (times.tREFI == 0)
        return;
    if (pol.kind == MemBackend::DeferredRefresh) {
        tickRefreshDeferred(now);
        return;
    }
    // Catch up on every boundary reached so far, in order. The event
    // stepper only skips spans where this bank controller is idle, so
    // a multi-boundary catch-up happens with no row open and no access
    // pending; applying each refresh at its boundary cycle reproduces
    // the exhaustive stepper's state and refresh count exactly.
    Cycle latest = (now / times.tREFI) * times.tREFI;
    while (lastRefreshApplied < latest) {
        Cycle boundary = lastRefreshApplied + times.tREFI;
        lastRefreshApplied = boundary;
        ++statRefreshes;
        applyRefresh(boundary, boundary);
    }
}

void
SdramDevice::tickRefreshDeferred(Cycle now)
{
    // Push-out: an overdue boundary waits while work is in flight, up
    // to deferWindow cycles past its due time, then is forced. Applied
    // in order; stacked overdue refreshes coalesce at the same cycle
    // (applyRefresh only extends the busy period monotonically), which
    // bounds the debt at ceil(window / tREFI) + 1 boundaries.
    Cycle due = lastRefreshApplied + times.tREFI;
    while (due <= now) {
        if (now < due + pol.deferWindow && busyForRefresh())
            return; // defer; later boundaries wait in order too
        lastRefreshApplied = due;
        ++statRefreshes;
        if (now > due)
            ++statDeferredRefreshes;
        applyRefresh(now, due);
        due += times.tREFI;
    }
    // Pull-in: while fully idle, take the next boundary early (at most
    // deferWindow ahead) so future work finds the debt already paid.
    if (due - now <= pol.deferWindow && refreshBusyUntil <= now &&
        !busyForRefresh()) {
        lastRefreshApplied = due;
        ++statRefreshes;
        ++statAdvancedRefreshes;
        applyRefresh(now, due);
    }
}

Cycle
SdramDevice::nextRefreshAfter(Cycle now) const
{
    Cycle refresh;
    if (pol.kind == MemBackend::DeferredRefresh) {
        // When tickRefreshDeferred() next applies a refresh, with
        // busyForRefresh() held at its current answer: a busy device
        // holds the due boundary until its forced deadline; an idle one
        // takes it once due, or earlier as a pull-in — no sooner than
        // deferWindow ahead of it and after the last refresh ends.
        const Cycle due = lastRefreshApplied + times.tREFI;
        if (busyForRefresh()) {
            refresh = due + pol.deferWindow;
        } else {
            const Cycle opens =
                due > pol.deferWindow ? due - pol.deferWindow : 0;
            refresh = std::min(due, std::max(opens, refreshBusyUntil));
        }
        refresh = std::max(refresh, now + 1);
    } else {
        refresh = (now / times.tREFI + 1) * times.tREFI;
    }
    return refresh;
}

void
SdramDevice::enableFaults(const FaultPlan &plan, std::uint64_t stream)
{
    injector = std::make_unique<FaultInjector>(plan, stream);
}

void
SdramDevice::issue(const DeviceOp &op, Cycle now)
{
    if (!canIssue(op, now)) {
        throw SimError(SimErrorKind::Protocol, name(), now,
                       csprintf("illegal command kind %d issued (restimer "
                                "scoreboard disagreement)",
                                static_cast<int>(op.kind)));
    }
    if (checker)
        checker->onCommand(name(), bankIndex, op, now);
    lastCommandCycle = now;

    switch (op.kind) {
      case DeviceOp::Kind::Activate: {
        DeviceCoords c = geometry.decompose(op.addr);
        const unsigned ib = slotIndex(c.internalBank, c.row);
        rowOpen[ib] = 1;
        openRows[ib] = c.row;
        lastOpenedRows[ib] = c.row;
        everOpened[ib] = 1;
        freshActivate[ib] = 1;
        accessReady[ib] = now + times.tRCD;
        prechargeReady[ib] = now + times.tRAS;
        activateReady[ib] = now + times.tRC;
        ++statActivates;
        PVA_TRACE_INSTANT(traceTrack(), now, "activate", "ibank",
                          c.internalBank, "row", c.row);
        break;
      }
      case DeviceOp::Kind::Precharge: {
        const unsigned ib = (op.internalBank << pol.subBits) | op.subarray;
        rowOpen[ib] = 0;
        activateReady[ib] = std::max(activateReady[ib], now + times.tRP);
        ++statPrecharges;
        PVA_TRACE_INSTANT(traceTrack(), now, "precharge", "ibank",
                          op.internalBank);
        break;
      }
      case DeviceOp::Kind::Read:
      case DeviceOp::Kind::Write: {
        DeviceCoords c = geometry.decompose(op.addr);
        const unsigned ib = slotIndex(c.internalBank, c.row);
        bool is_read = op.kind == DeviceOp::Kind::Read;
        Cycle data = dataCycleOf(op, now);
        PVA_TRACE_BLOCK(
            if (anyDataYet && is_read != lastDataWasRead)
                PVA_TRACE_INSTANT(traceTrack(), now, "turnaround");
            PVA_TRACE_INSTANT(traceTrack(), now,
                              is_read ? "cas_read" : "cas_write",
                              "txn", op.txn, "data", data););
        lastDataCycle = data;
        lastDataWasRead = is_read;
        anyDataYet = true;

        if (!freshActivate[ib])
            ++statRowHitAccesses;
        freshActivate[ib] = 0;

        if (is_read) {
            ++statReads;
            Word value = memory.read(op.addr);
            if (checker)
                checker->onReadData(bankIndex, op, value);
            ReadReturn &rr = pending.pushBack();
            rr.readyAt = data;
            rr.data = value;
            rr.txn = op.txn;
            rr.slot = op.slot;
        } else {
            ++statWrites;
            memory.write(op.addr, op.writeData);
            if (checker)
                checker->onWriteData(bankIndex, op);
            prechargeReady[ib] =
                std::max(prechargeReady[ib], data + times.tWR);
        }

        if (op.autoPrecharge) {
            // The device performs the precharge internally once tRAS and
            // tWR are satisfied; from the controller's view the row is
            // closed now and a new activate is legal tRP after that.
            Cycle internal_start =
                std::max(prechargeReady[ib],
                         is_read ? now + 1 : data + times.tWR);
            rowOpen[ib] = 0;
            activateReady[ib] =
                std::max(activateReady[ib], internal_start + times.tRP);
            ++statPrecharges;
            PVA_TRACE_INSTANT(traceTrack(), now, "auto_precharge",
                              "ibank", c.internalBank);
        }
        break;
      }
    }
}

void
SdramDevice::throwClosedRowQuery(unsigned ibank) const
{
    throw SimError(SimErrorKind::Protocol, name(), kNeverCycle,
                   csprintf("openRow queried on closed internal bank %u",
                            ibank));
}

void
SdramDevice::registerStats(StatSet &set, const std::string &prefix) const
{
    set.addScalar(prefix + ".activates", &statActivates);
    set.addScalar(prefix + ".precharges", &statPrecharges);
    set.addScalar(prefix + ".reads", &statReads);
    set.addScalar(prefix + ".writes", &statWrites);
    set.addScalar(prefix + ".rowHitAccesses", &statRowHitAccesses);
    set.addScalar(prefix + ".refreshes", &statRefreshes);
    set.addScalar(prefix + ".injectedRefreshes", &statInjectedRefreshes);
    set.addScalar(prefix + ".deferredRefreshes", &statDeferredRefreshes);
    set.addScalar(prefix + ".advancedRefreshes", &statAdvancedRefreshes);
}

} // namespace pva
