#include "core/bank_controller.hh"

#include <bit>

#include "sim/logging.hh"
#include "sim/sim_error.hh"
#include "sim/trace.hh"

namespace pva
{

const Vocabulary<RowPolicy> &
rowPolicies()
{
    static const Vocabulary<RowPolicy> table({
        {RowPolicy::Managed, "managed"},
        {RowPolicy::AlwaysOpen, "open"},
        {RowPolicy::AlwaysClose, "close"},
    });
    return table;
}

const char *
rowPolicyName(RowPolicy policy)
{
    return rowPolicies().name(policy);
}

BankController::BankController(std::string name, unsigned bank,
                               const Geometry &geo_, const BcConfig &config,
                               BankDevice &dev_)
    : ctrlName(std::move(name)), geo(geo_), cfg(config), dev(dev_),
      sdram(dynamic_cast<SdramDevice *>(&dev_)),
      bpol(dev_.backendPolicy()),
      pla(FirstHitPla::shared(geo_.bankBits())),
      staging(config.transactions),
      autoPrePredict(bpol.slotCount(geo_.internalBanks()), false)
{
    if (bank >= geo.banks()) {
        throw SimError(SimErrorKind::Config, this->name(), kNeverCycle,
                       csprintf("bank index %u out of range (%u banks)",
                                bank, geo.banks()));
    }
    bankIndex = bank;
    fifo.reserve(cfg.fifoEntries);
    vcs.reserve(cfg.vectorContexts);
    sharesCompleted.reserve(cfg.transactions);
}

void
BankController::enableFaults(const FaultPlan &plan, std::uint64_t stream)
{
    injector = std::make_unique<FaultInjector>(plan, stream);
}

bool
BankController::observeVecCommand(Cycle now, const VectorCommand &cmd)
{
    // The broadcast may grow the FIFO below: credit any cycles this BC
    // sat out first, while the queue sizes are still frozen.
    creditFrozen(now);
    ++statCommandsSeen;
    if (cmd.txn >= staging.size()) {
        throw SimError(SimErrorKind::Overflow, name(), now,
                       csprintf("transaction id %u out of range (%zu "
                                "staging units)",
                                cmd.txn, staging.size()));
    }
    Staging &st = staging[cmd.txn];
    if (st.active) {
        throw SimError(SimErrorKind::Protocol, name(), now,
                       csprintf("transaction id %u reused while active",
                                cmd.txn));
    }

    st.active = true;
    st.isRead = cmd.isRead;
    st.got = 0;
    if (injector)
        st.cmd = CommandHeader(cmd);
    // A hit sizes the read line buffer (a write may have left it
    // shorter); its slots need no clearing, since collectInto() copies
    // only those drainDeviceReturns() marks gathered.
    auto stageRead = [&] {
        if (cmd.isRead)
            st.line.resize(cfg.lineWords);
    };

    if (cmd.mode != VectorCommand::Mode::Stride || geo.interleave() > 1) {
        // Extension modes (chapter 7) snoop the broadcast element stream
        // and select elements with a bank bit-mask; block-interleaved
        // systems (section 4.3.1) run N parallel FirstHit units whose
        // merged output is the same explicit list. Expand into the
        // scratch lists, then swap into the queued request so the list
        // capacity circulates through the FIFO ring.
        scratchAddrs.clear();
        scratchSlots.clear();
        // Room for the whole command: each list then grows once, not
        // whenever a larger share first reaches it in the rotation.
        scratchAddrs.reserve(cmd.length);
        scratchSlots.reserve(cmd.length);
        if (cmd.mode != VectorCommand::Mode::Stride) {
            for (std::uint32_t i = 0; i < cmd.length; ++i) {
                WordAddr a = cmd.element(i);
                if (geo.bankOf(a) == bankIndex) {
                    scratchAddrs.push_back(a);
                    scratchSlots.push_back(
                        static_cast<std::uint8_t>(i));
                }
            }
        } else {
            for (std::uint32_t i :
                 expandBankIndices(cmd, bankIndex, geo)) {
                scratchAddrs.push_back(cmd.element(i));
                scratchSlots.push_back(static_cast<std::uint8_t>(i));
            }
        }
        st.expected = static_cast<std::uint32_t>(scratchAddrs.size());
        if (st.expected == 0)
            return false; // nothing here; trivially complete
        ++statCommandsHit;
        stageRead();
        if (fifo.size() >= cfg.fifoEntries) {
            throw SimError(SimErrorKind::Overflow, name(), now,
                           "request FIFO overflow");
        }
        if (injector) {
            st.respAddrs = scratchAddrs;
            st.respSlots = scratchSlots;
        }
        Request &req = fifo.pushBack();
        req.cmd = CommandHeader(cmd);
        req.sub = SubVector{};
        req.explicitAddrs.swap(scratchAddrs);
        req.explicitSlots.swap(scratchSlots);
        if (cmd.mode == VectorCommand::Mode::Indirect) {
            // Indices broadcast two per cycle after the command.
            req.visibleAt = now + 1 + (cmd.length + 1) / 2;
        } else if (cmd.mode == VectorCommand::Mode::BitReversal) {
            // Pattern generated locally (one extra cycle, like the
            // power-of-two FHP path).
            req.visibleAt = now + 2;
        } else {
            req.visibleAt = isPowerOfTwo(cmd.stride)
                                ? now + 2
                                : now + 2 + cfg.fhcLatency;
        }
        PVA_TRACE_INSTANT(traceTrack(), now, "observe", "txn",
                          cmd.txn, "elems", st.expected);
        return true;
    }

    // --- FirstHit Predictor (1 cycle) ---------------------------------
    const unsigned m = geo.bankBits();
    const std::uint32_t M = 1u << m;
    const unsigned b0 = static_cast<unsigned>(cmd.base & (M - 1));
    const std::uint32_t d = (bankIndex + M - b0) & (M - 1);
    const std::uint32_t sm = cmd.stride & (M - 1);

    FirstHit fh = pla.lookup(sm, d, cmd.length);
    if (!fh.hit) {
        // No element of this vector lives here: this BC's share of the
        // transaction is trivially complete.
        st.expected = 0;
        return false;
    }
    ++statCommandsHit;

    SubVector sub;
    sub.hit = true;
    sub.firstIndex = fh.index;
    sub.delta = pla.delta(sm);
    sub.count = 1 + (cmd.length - 1 - fh.index) / sub.delta;

    if (injector && injector->corruptFirstHit()) {
        // Fault injection: the FHP yields a wrong sub-vector. The BC
        // proceeds in good faith; only the TimingChecker's shadow
        // gather model (or the end-of-run functional check) can tell.
        ++statCorruptedFirstHits;
        if (sub.count > 1) {
            --sub.count; // lost the tail element
        } else {
            st.expected = 0; // predicted no-hit: sub-vector dropped
            return false;
        }
    }
    st.expected = sub.count;
    stageRead();

    if (fifo.size() >= cfg.fifoEntries) {
        throw SimError(SimErrorKind::Overflow, name(), now,
                       "request FIFO overflow (bus transaction limit "
                       "violated?)");
    }
    if (injector) {
        st.respAddrs.clear();
        st.respSlots.clear();
        for (std::uint32_t j = 0; j < sub.count; ++j) {
            std::uint32_t idx = sub.index(j);
            st.respAddrs.push_back(
                cmd.base + static_cast<WordAddr>(cmd.stride) * idx);
            st.respSlots.push_back(static_cast<std::uint8_t>(idx));
        }
    }

    // --- Latency through FHP / RQF / FHC (sections 5.2.2-5.2.3) -------
    const Cycle enq = now + 1; // FHP takes one cycle
    Cycle visible;
    const bool pow2 = isPowerOfTwo(cmd.stride);
    if (pow2) {
        // FHP computed the address; ACC is set on entry.
        bool bypass = cfg.bypassEnabled && fifo.empty() &&
                      vcs.size() < cfg.vectorContexts;
        visible = bypass ? now + 1 : now + 2;
        if (bypass)
            ++statBypasses;
    } else {
        // FHC: 2-cycle multiply-and-add, serialized over queued
        // requests, plus a register-file writeback unless the bypass
        // path applies (single outstanding request).
        Cycle start = std::max(enq, fhcBusyUntil);
        Cycle fhc_done = start + cfg.fhcLatency;
        fhcBusyUntil = fhc_done;
        bool bypass = cfg.bypassEnabled && fifo.empty() && vcs.empty();
        visible = bypass ? fhc_done : fhc_done + 1;
        if (bypass)
            ++statBypasses;
    }

    Request &req = fifo.pushBack();
    req.cmd = CommandHeader(cmd);
    req.sub = sub;
    req.visibleAt = visible;
    req.explicitAddrs.clear();
    req.explicitSlots.clear();
    PVA_TRACE_INSTANT(traceTrack(), now, "fh_hit", "txn", cmd.txn,
                      "elems", st.expected);
    return true;
}

void
BankController::loadWriteLine(std::uint8_t txn, const std::vector<Word> &line)
{
    Staging &st = staging[txn];
    st.line = line;
    st.haveWriteData = true;
}

void
BankController::collectInto(std::uint8_t txn, std::vector<Word> &out) const
{
    const Staging &st = staging[txn];
    for (std::size_t w = 0; w < st.gathered.size(); ++w) {
        for (std::uint64_t bits = st.gathered[w]; bits != 0;
             bits &= bits - 1) {
            std::size_t i = w * 64 + std::countr_zero(bits);
            if (i < out.size())
                out[i] = st.line[i];
        }
    }
}

void
BankController::releaseTxn(std::uint8_t txn)
{
    staging[txn].reset();
}

void
BankController::drainDeviceReturns(Cycle now)
{
    ReadReturn r;
    while (dev.popReady(now, r)) {
        if (injector && injector->dropTransfer()) {
            // Fault injection: the word is lost between the device
            // pins and the staging unit. maybeRecover() re-fetches it
            // once the transaction is otherwise quiescent.
            ++statDroppedReturns;
            continue;
        }
        Staging &st = staging[r.txn];
        if (!st.active || !st.isRead) {
            throw SimError(SimErrorKind::Protocol, name(), now,
                           csprintf("stray read return for transaction "
                                    "%u", r.txn));
        }
        st.line[r.slot] = r.data;
        st.markGathered(r.slot);
        if (++st.got == st.expected) {
            sharesCompleted.push_back(r.txn);
            PVA_TRACE_INSTANT(traceTrack(), now, "sub_complete", "txn",
                              r.txn);
        }
    }
}

bool
BankController::hasWorkFor(std::uint8_t txn) const
{
    for (std::size_t i = 0; i < fifo.size(); ++i) {
        if (fifo[i].cmd.txn == txn)
            return true;
    }
    for (std::size_t i = 0; i < vcs.size(); ++i) {
        if (vcs[i].cmd.txn == txn && !vcs[i].done())
            return true;
    }
    return false;
}

void
BankController::maybeRecover(Cycle now)
{
    if (!injector || !dev.quiescent())
        return;
    for (std::size_t t = 0; t < staging.size(); ++t) {
        Staging &st = staging[t];
        if (!st.active || !st.isRead || st.got >= st.expected)
            continue;
        if (st.respAddrs.empty() ||
            hasWorkFor(static_cast<std::uint8_t>(t)))
            continue;
        if (vcs.size() >= cfg.vectorContexts)
            return; // no free vector context; retry next cycle

        // Every element this BC owed is accounted for except the
        // dropped ones: re-expand exactly the missing slots into a
        // fresh explicit-list vector context.
        VectorContext &vc = vcs.pushBack();
        vc.cmd = st.cmd;
        vc.sub = SubVector{};
        vc.issued = 0;
        vc.firstAddr = 0;
        vc.stepWords = 0;
        vc.firstOpDone = false;
        vc.explicitAddrs.clear();
        vc.explicitSlots.clear();
        for (std::size_t i = 0; i < st.respSlots.size(); ++i) {
            if (!st.isGathered(st.respSlots[i])) {
                vc.explicitAddrs.push_back(st.respAddrs[i]);
                vc.explicitSlots.push_back(st.respSlots[i]);
            }
        }
        if (vc.explicitAddrs.empty()) {
            vcs.popBack();
            continue;
        }
        loadHead(vc);
        ++statRecoveries;
        PVA_TRACE_INSTANT(traceTrack(), now, "recover", "txn",
                          vc.cmd.txn, "elems", vc.explicitAddrs.size());
        (void)now;
    }
}

void
BankController::dequeueIntoVc(Cycle now)
{
    if (fifo.empty() || vcs.size() >= cfg.vectorContexts)
        return;
    if (fifo.front().visibleAt > now)
        return;
    if (lastDequeue != kNeverCycle && lastDequeue == now)
        return; // one dequeue per cycle
    lastDequeue = now;

    Request &req = fifo.front();

    PVA_TRACE_INSTANT(traceTrack(), now, "vc_dequeue", "txn",
                      req.cmd.txn);

    VectorContext &vc = vcs.pushBack();
    vc.cmd = req.cmd;
    vc.sub = req.sub;
    vc.issued = 0;
    vc.firstOpDone = false;
    // Swap, don't move: the retired FIFO slot inherits the VC slot's
    // old list capacity and both keep circulating in their rings.
    vc.explicitAddrs.swap(req.explicitAddrs);
    vc.explicitSlots.swap(req.explicitSlots);
    if (vc.explicitAddrs.empty()) {
        vc.firstAddr =
            req.cmd.base +
            static_cast<WordAddr>(req.cmd.stride) * req.sub.firstIndex;
        vc.stepWords =
            static_cast<WordAddr>(req.cmd.stride) * req.sub.delta;
    } else {
        vc.firstAddr = 0;
        vc.stepWords = 0;
    }
    loadHead(vc);
    fifo.popFront();
}

bool
BankController::otherVcHitsOpenRow(const DeviceCoords &target,
                                   const VectorContext *except) const
{
    if (!devSlotRowOpen(target))
        return false;
    std::uint32_t open = devOpenRowAt(target);
    unsigned tslot = slotOf(target);
    for (std::size_t i = 0; i < vcs.size(); ++i) {
        const VectorContext &vc = vcs[i];
        if (&vc == except || vc.done())
            continue;
        const DeviceCoords &c = vc.headCoords;
        if (slotOf(c) == tslot && c.row == open)
            return true;
    }
    return false;
}

bool
BankController::olderVcHitsOpenRow(const DeviceCoords &target,
                                   std::size_t vc_index) const
{
    if (!devSlotRowOpen(target))
        return false;
    std::uint32_t open = devOpenRowAt(target);
    unsigned tslot = slotOf(target);
    for (std::size_t i = 0; i < vc_index && i < vcs.size(); ++i) {
        const VectorContext &vc = vcs[i];
        if (vc.done())
            continue;
        const DeviceCoords &c = vc.headCoords;
        if (slotOf(c) == tslot && c.row == open)
            return true;
    }
    return false;
}

bool
BankController::anyVcMissesOpenRow(const DeviceCoords &target) const
{
    if (!devSlotRowOpen(target))
        return false;
    std::uint32_t open = devOpenRowAt(target);
    unsigned tslot = slotOf(target);
    for (std::size_t i = 0; i < vcs.size(); ++i) {
        const VectorContext &vc = vcs[i];
        if (vc.done())
            continue;
        const DeviceCoords &c = vc.headCoords;
        if (slotOf(c) == tslot && c.row != open)
            return true;
    }
    return false;
}

bool
BankController::tryActivatePrecharge(Cycle now)
{
    // "Promote row opens and precharges above read and write operations,
    // as long as they do not conflict with the open rows being used by
    // some other VC" — oldest VC first (the daisy chain). A precharge is
    // only vetoed by *older* VCs' hit predictions; a younger VC cannot
    // hold an older one hostage (it may itself be polarity-stalled
    // behind the older VC, which would deadlock).
    for (std::size_t vi = 0; vi < vcs.size(); ++vi) {
        VectorContext &vc = vcs[vi];
        if (vc.done())
            continue;
        DeviceOp op;
        if (!rowCommandFor(vi, op) || !devCanIssue(op, now))
            continue;
        if (op.kind == DeviceOp::Kind::Activate && !vc.firstOpDone) {
            // Autoprecharge predictor: a new request whose first row
            // differs from the row last open in this row slot predicts
            // "close after use".
            const DeviceCoords &c = vc.headCoords;
            autoPrePredict[slotOf(c)] = devLastRowAt(c) != c.row;
            vc.firstOpDone = true;
        }
        devIssue(op, now);
        return true;
    }
    return false;
}

bool
BankController::decideAutoPrecharge(const VectorContext &vc,
                                    const DeviceCoords &c)
{
    if (cfg.rowPolicy == RowPolicy::AlwaysClose)
        return true;
    if (cfg.rowPolicy == RowPolicy::AlwaysOpen)
        return false;
    bool last_element = vc.issued + 1 >= vc.count();
    if (last_element) {
        if (otherVcHitsOpenRow(c, &vc))
            return false; // bank_morehit_predict: leave open
        if (anyVcMissesOpenRow(c))
            return true; // bank_close_predict: close it
        return autoPrePredict[slotOf(c)];
    }
    DeviceCoords nc = geo.decompose(vc.addrAt(vc.issued + 1));
    if (nc.internalBank == c.internalBank && nc.row == c.row)
        return false; // our own next access hits the same row
    if (otherVcHitsOpenRow(c, &vc))
        return false;
    return true;
}

bool
BankController::tryReadWrite(Cycle now)
{
    bool issued = false;
    forEachAccessCandidate([&](std::size_t vi) {
        VectorContext &vc = vcs[vi];
        DeviceOp op = accessOp(vc);
        if (!devCanIssue(op, now))
            return false;
        const DeviceCoords &c = vc.headCoords;
        op.autoPrecharge = decideAutoPrecharge(vc, c);
        if (!vc.cmd.isRead)
            op.writeData = staging[vc.cmd.txn].line[vc.slotAt(vc.issued)];
        if (!vc.firstOpDone) {
            autoPrePredict[slotOf(c)] = devLastRowAt(c) != c.row;
            vc.firstOpDone = true;
        }
        devIssue(op, now);
        lastDirRead = vc.cmd.isRead;
        anyDirYet = true;
        ++statElements;
        if (!vc.cmd.isRead) {
            Staging &wst = staging[vc.cmd.txn];
            if (++wst.got == wst.expected) { // committed to SDRAM
                sharesCompleted.push_back(vc.cmd.txn);
                PVA_TRACE_INSTANT(traceTrack(), now, "sub_complete",
                                  "txn", vc.cmd.txn);
            }
        }
        ++vc.issued;
        if (vc.done())
            vcs.eraseAt(vi);
        else
            loadHead(vc);
        issued = true;
        return true;
    });
    return issued;
}

void
BankController::tick(Cycle now)
{
    creditFrozen(now); // bring occupancy stats current through now - 1
    sharesCompleted.clear();
    devTick(now); // apply auto-refresh before scheduling decisions
    drainDeviceReturns(now);
    if (injector && injector->bcStall()) {
        // Fault injection: the scheduler loses this cycle (delayed
        // bank-controller response). Returns were still drained; all
        // dequeue/issue work waits for the next cycle.
        ++statStallCycles;
        PVA_TRACE_INSTANT(traceTrack(), now, "stall");
        accountCycle(now);
        return;
    }
    maybeRecover(now);
    dequeueIntoVc(now);
    if (tryActivatePrecharge(now) || tryReadWrite(now))
        ++statSchedActiveCycles;

    // Occupancy accounting (end-of-tick state, so a full pipeline
    // shows vectorContexts, not a transient).
    accountCycle(now);

    PVA_TRACE_BLOCK(
        // Occupancy counters, emitted only on change to bound the
        // trace volume on long runs.
        if (traceTrack() != 0) {
            if (vcs.size() != traceLastVcs) {
                traceLastVcs = vcs.size();
                PVA_TRACE_COUNTER(traceTrack(), now, "vcs",
                                  traceLastVcs);
            }
            if (fifo.size() != traceLastFifo) {
                traceLastFifo = fifo.size();
                PVA_TRACE_COUNTER(traceTrack(), now, "fifo",
                                  traceLastFifo);
            }
        });
}

bool
BankController::idle() const
{
    return fifo.empty() && vcs.empty() && dev.quiescent();
}

Cycle
BankController::nextWakeAfter(Cycle now) const
{
    if (injector)
        return now + 1; // keep the fault RNG stream tick-indexed
    Cycle wake = devNextEventAfter(now);
    auto consider = [&](Cycle c) {
        if (c < wake)
            wake = c;
    };
    if (!fifo.empty() && vcs.size() < cfg.vectorContexts)
        consider(std::max(fifo.front().visibleAt, now + 1));
    if (wake == now + 1)
        return wake; // nothing can come sooner
    // Each VC's activate or precharge, then the reads/writes the
    // polarity rule admits: exactly the commands tick() would try.
    for (std::size_t vi = 0; vi < vcs.size(); ++vi) {
        DeviceOp op;
        if (!vcs[vi].done() && rowCommandFor(vi, op))
            consider(devLegalCycleAfter(op, now));
    }
    forEachAccessCandidate([&](std::size_t vi) {
        consider(devLegalCycleAfter(accessOp(vcs[vi]), now));
        return false;
    });
    return wake;
}

void
BankController::registerStats(StatSet &set, const std::string &prefix) const
{
    set.addScalar(prefix + ".commandsSeen", &statCommandsSeen);
    set.addScalar(prefix + ".commandsHit", &statCommandsHit);
    set.addScalar(prefix + ".elements", &statElements);
    set.addScalar(prefix + ".bypasses", &statBypasses);
    set.addScalar(prefix + ".schedActiveCycles", &statSchedActiveCycles);
    set.addScalar(prefix + ".stallCycles", &statStallCycles);
    set.addScalar(prefix + ".droppedReturns", &statDroppedReturns);
    set.addScalar(prefix + ".recoveries", &statRecoveries);
    set.addScalar(prefix + ".corruptedFirstHits",
                  &statCorruptedFirstHits);
    set.addScalar(prefix + ".vcOccupancy", &statVcOccupancy);
    set.addScalar(prefix + ".vcFullCycles", &statVcFullCycles);
    set.addScalar(prefix + ".fifoOccupancy", &statFifoOccupancy);
    set.addScalar(prefix + ".fifoPeak", &statFifoPeak);
}

} // namespace pva
