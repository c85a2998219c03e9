#include "core/pva_unit.hh"

#include <algorithm>
#include <bit>

#include "sdram/sram_device.hh"
#include "sdram/timing_checker.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"
#include "sim/trace.hh"

namespace pva
{

PvaUnit::PvaUnit(std::string name, const SystemConfig &config,
                 bool use_sram)
    : MemorySystem(std::move(name)), cfg(config.validate()),
      vectorBus(config.bc.lineWords), txns(config.bc.transactions)
{
    const unsigned banks = cfg.geometry.banks();
    const BackendPolicy pol = cfg.backendPolicy();
    if (cfg.timingCheck) {
        checker = std::make_unique<TimingChecker>(
            cfg.geometry, cfg.timing, banks, cfg.bc.transactions,
            cfg.bc.lineWords, pol);
    }
    devices.reserve(banks);
    bcs.reserve(banks);
    for (unsigned b = 0; b < banks; ++b) {
        std::string dev_name = csprintf("%s.dev%u", this->name().c_str(), b);
        if (use_sram) {
            devices.push_back(std::make_unique<SramDevice>(
                dev_name, b, cfg.geometry, backing));
        } else {
            auto dev = std::make_unique<SdramDevice>(
                dev_name, b, cfg.geometry, cfg.timing, backing, pol);
            if (cfg.faults.enabled())
                dev->enableFaults(cfg.faults, b * 2);
            devices.push_back(std::move(dev));
        }
        devices.back()->setChecker(checker.get());
        bcs.push_back(std::make_unique<BankController>(
            csprintf("%s.bc%u", this->name().c_str(), b), b, cfg.geometry,
            cfg.bc, *devices.back()));
        if (cfg.faults.enabled())
            bcs.back()->enableFaults(cfg.faults, b * 2 + 1);
    }
    bcWake.assign(banks, 0);
    hitBank.assign(banks, 0);
    for (Txn &t : txns)
        t.hitBcs.reserve(banks);
    submitOrder.reserve(cfg.bc.transactions);
    reserveLines(cfg.bc.transactions);

    PVA_TRACE_BLOCK(
        // One trace "process" per memory system, one track per
        // component. Registration happens once here; the hot paths
        // only ever touch the resulting integer ids.
        if (trace::TraceSession *s = trace::session()) {
            const std::string &proc = this->name();
            setTraceTrack(s->registerTrack(proc, "frontend"));
            vectorBus.setTraceTrack(s->registerTrack(proc, "bus"));
            txnTracks.assign(txns.size(), 0);
            for (std::size_t i = 0; i < txns.size(); ++i) {
                txnTracks[i] =
                    s->registerTrack(proc, csprintf("txn%zu", i));
            }
            for (unsigned b = 0; b < banks; ++b) {
                bcs[b]->setTraceTrack(
                    s->registerTrack(proc, csprintf("bc%u", b)));
                devices[b]->setTraceTrack(
                    s->registerTrack(proc, csprintf("dev%u", b)));
            }
        });
}

PvaUnit::~PvaUnit() = default;

StatSet &
PvaUnit::stats()
{
    if (statsRegistered)
        return statSet;
    statsRegistered = true;
    vectorBus.registerStats(statSet, "bus");
    if (checker)
        checker->registerStats(statSet, "checker");
    statSet.addScalar("frontend.reads", &statReads);
    statSet.addScalar("frontend.writes", &statWrites);
    statSet.addScalar("frontend.ctxOccupancy", &statCtxOccupancy);
    statSet.addScalar("frontend.ctxFullCycles", &statCtxFullCycles);
    statSet.addDistribution("frontend.readLatency", &statReadLatency);
    statSet.addDistribution("frontend.writeLatency", &statWriteLatency);
    registerSimStats(statSet);
    statSet.addScalar("sim.bcTicks", &statBcTicks);
    for (unsigned b = 0; b < bcs.size(); ++b) {
        bcs[b]->registerStats(statSet, csprintf("bc%u", b));
        devices[b]->registerStats(statSet, csprintf("dev%u", b));
    }
    return statSet;
}

bool
PvaUnit::trySubmit(const VectorCommand &cmd, std::uint64_t tag,
                   const std::vector<Word> *write_data)
{
    if (cmd.length == 0 || cmd.length > cfg.bc.lineWords) {
        throw SimError(SimErrorKind::Config, name(), lastTickCycle,
                       csprintf("vector command length %u out of range "
                                "(1..%u)", cmd.length, cfg.bc.lineWords));
    }
    if (!cmd.isRead &&
        (write_data == nullptr || write_data->size() < cmd.length)) {
        throw SimError(SimErrorKind::Config, name(), lastTickCycle,
                       "write command lacks write data");
    }
    if (activeTxns == txns.size())
        return false; // every slot busy until a completion drains

    for (std::uint8_t id = 0; id < txns.size(); ++id) {
        if (txns[id].state != TxnState::Free)
            continue;
        Txn &t = txns[id];
        t.cmd = cmd;
        t.cmd.txn = id;
        t.tag = tag;
        t.state = cmd.isRead ? TxnState::QueuedRead : TxnState::QueuedWrite;
        t.acceptedAt = lastTickCycle;
        if (!cmd.isRead)
            t.writeData = *write_data;
        else
            t.writeData.clear();
        submitOrder.pushBack() = id;
        ++activeTxns;
        if (cmd.isRead)
            ++statReads;
        else
            ++statWrites;
        PVA_TRACE_BEGIN(txnTrack(id), t.acceptedAt,
                        cmd.isRead ? "read" : "write", "stride",
                        cmd.stride, "len", cmd.length);
        return true;
    }
    return false;
}

void
PvaUnit::broadcast(std::uint8_t id, Cycle now)
{
    Txn &t = txns[id];
    const VectorCommand &cmd = t.cmd;
    if (checker)
        checker->beginTxn(cmd);

    // The hit set: the banks of the first n elements. Under word
    // interleave a stride of 2^s times an odd number returns to a bank
    // every NextHit = 2^(m-s) elements (Theorem 4.4), so the first
    // min(L, 2^(m-s)) elements name each hit bank exactly once; block
    // interleave and the extension modes take every element.
    const Geometry &geo = cfg.geometry;
    std::uint32_t n = cmd.length;
    if (cmd.mode == VectorCommand::Mode::Stride && geo.interleave() == 1) {
        const unsigned m = geo.bankBits();
        const unsigned s = std::countr_zero(cmd.stride | (1u << m));
        n = std::min(n, std::uint32_t{1} << (m - s));
    }
    for (std::uint32_t i = 0; i < n; ++i)
        hitBank[geo.bankOf(cmd.element(i))] = 1;

    // Only the hit controllers snoop the command; every other one's
    // FirstHit predictor would miss, which costs it nothing but the
    // count. A called controller may still miss (an injected FirstHit
    // corruption), so the list holds every controller called and the
    // complete line counts only those that queued a request.
    t.hitBcs.clear();
    t.outstanding = 0;
    for (unsigned b = 0; b < bcs.size(); ++b) {
        BankController &bc = *bcs[b];
        if (!hitBank[b]) {
            ++bc.statCommandsSeen;
            continue;
        }
        hitBank[b] = 0;
        t.hitBcs.push_back(b);
        if (bc.observeVecCommand(now, cmd)) {
            ++t.outstanding;
            bcWake[b] = now; // new work: it must tick this cycle
            minBcWake = now;
        }
        // The STAGE_WRITE data cycles are over; a controller can use
        // the words only from its VEC_WRITE on.
        if (!cmd.isRead)
            bc.loadWriteLine(id, t.writeData);
    }
    if (t.outstanding == 0)
        step1Due = std::min(step1Due, now + 1); // nothing to wait for
}

void
PvaUnit::finishRead(std::uint8_t id, Cycle now)
{
    Txn &t = txns[id];
    statReadLatency.sample(now - t.acceptedAt);
    Completion &c = completions.emplace_back();
    c.tag = t.tag;
    c.data = takeLine();
    c.data.assign(t.cmd.length, 0);
    for (unsigned b : t.hitBcs)
        bcs[b]->collectInto(id, c.data);
    if (checker) {
        checker->verifyGather(t.cmd, c.data, now);
        checker->releaseTxn(id);
    }
    for (unsigned b : t.hitBcs)
        bcs[b]->releaseTxn(id);
    t.state = TxnState::Free;
    --activeTxns;
    PVA_TRACE_END(txnTrack(id), now, "read", "latency",
                  now - t.acceptedAt);
}

void
PvaUnit::finishWrite(std::uint8_t id, Cycle now)
{
    Txn &t = txns[id];
    statWriteLatency.sample(now - t.acceptedAt);
    if (checker) {
        checker->verifyScatter(t.cmd, t.writeData, now);
        checker->releaseTxn(id);
    }
    Completion &c = completions.emplace_back();
    c.tag = t.tag;
    c.data.clear();
    for (unsigned b : t.hitBcs)
        bcs[b]->releaseTxn(id);
    t.state = TxnState::Free;
    --activeTxns;
    PVA_TRACE_END(txnTrack(id), now, "write", "latency",
                  now - t.acceptedAt);
}

void
PvaUnit::tick(Cycle now)
{
    lastTickCycle = now;
    tickActivity = false;

    // BC occupancy accounting is lazy: each controller credits its own
    // sat-out cycles at the top of its tick, and observeVecCommand
    // credits before a broadcast grows the FIFO. A controller that
    // sleeps to the end of the run needs no credit at all — it could
    // only sleep that long with empty queues, whose frozen
    // contribution is zero.

    // --- 1. Untimed/timed state transitions (observing BC state as of
    //        the end of the previous cycle). They can happen no earlier
    //        than step1Due: the first data-cycle end still ahead, or
    //        the cycle after a transaction-complete line deasserted. --
    if (now >= step1Due) {
        step1Due = kNeverCycle;
        for (std::uint8_t id = 0; id < txns.size(); ++id) {
            Txn &t = txns[id];
            switch (t.state) {
              case TxnState::Gathering:
                if (t.outstanding == 0) {
                    t.state = TxnState::StagePending;
                    tickActivity = true;
                    PVA_TRACE_INSTANT(txnTrack(id), now, "gathered");
                }
                break;
              case TxnState::Staging:
                if (now >= t.readyAt) {
                    finishRead(id, now);
                    tickActivity = true;
                } else {
                    step1Due = std::min(step1Due, t.readyAt);
                }
                break;
              case TxnState::WriteData:
                if (now >= t.readyAt) {
                    t.state = TxnState::VecWritePending;
                    tickActivity = true;
                } else {
                    step1Due = std::min(step1Due, t.readyAt);
                }
                break;
              case TxnState::Scattering:
                if (t.outstanding == 0) {
                    finishWrite(id, now);
                    tickActivity = true;
                }
                break;
              default:
                break;
            }
        }
    }

    // --- 2. Bus arbitration: at most one request cycle. ---------------
    if (vectorBus.requestFree(now)) {
        // Priority 1: stage completed reads (frees transaction slots).
        std::uint8_t chosen = 0;
        bool found = false;
        for (std::uint8_t id = 0; id < txns.size(); ++id) {
            if (txns[id].state == TxnState::StagePending) {
                chosen = id;
                found = true;
                break;
            }
        }
        if (found) {
            vectorBus.drive(now, BusOpcode::StageRead, chosen);
            txns[chosen].state = TxnState::Staging;
            txns[chosen].readyAt = now + vectorBus.dataCycles();
            step1Due = std::min(step1Due, txns[chosen].readyAt);
            tickActivity = true;
            PVA_TRACE_INSTANT(txnTrack(chosen), now, "stage");
        } else {
            // Priority 2: broadcast VEC_WRITE for writes whose data
            // cycles have finished.
            for (std::uint8_t id = 0; id < txns.size(); ++id) {
                if (txns[id].state == TxnState::VecWritePending) {
                    chosen = id;
                    found = true;
                    break;
                }
            }
            if (found) {
                Txn &t = txns[chosen];
                vectorBus.drive(now, BusOpcode::VecWrite, chosen);
                broadcast(chosen, now);
                t.state = TxnState::Scattering;
                tickActivity = true;
                PVA_TRACE_INSTANT(txnTrack(chosen), now, "scatter");
            } else if (!submitOrder.empty()) {
                // Priority 3: start the oldest queued command.
                std::uint8_t id = submitOrder.front();
                Txn &t = txns[id];
                if (t.state == TxnState::QueuedRead) {
                    submitOrder.popFront();
                    vectorBus.drive(now, BusOpcode::VecRead, id);
                    broadcast(id, now);
                    t.state = TxnState::Gathering;
                    tickActivity = true;
                    PVA_TRACE_INSTANT(txnTrack(id), now, "broadcast");
                } else if (t.state == TxnState::QueuedWrite) {
                    submitOrder.popFront();
                    // No BC wake or line load: only the VEC_WRITE gives
                    // the controllers work (broadcast()).
                    vectorBus.drive(now, BusOpcode::StageWrite, id);
                    t.state = TxnState::WriteData;
                    t.readyAt = now + vectorBus.dataCycles();
                    step1Due = std::min(step1Due, t.readyAt);
                    tickActivity = true;
                    PVA_TRACE_INSTANT(txnTrack(id), now, "write_data");
                }
            }
        }
    }

    // --- 3. Clock the bank controllers (and through them the DRAMs). --
    // Unless exhaustive, skip controllers whose cached wake (their own
    // nextWakeAfter answer, reset to `now` by a broadcast they hit
    // above) is still in the future — their state provably cannot
    // change — and the whole loop while the earliest of them is.
    const bool sleepers = !tickEveryBc;
    if (!sleepers || minBcWake <= now) {
        Cycle min_wake = kNeverCycle;
        for (std::size_t b = 0; b < bcs.size(); ++b) {
            if (sleepers && bcWake[b] > now) {
                min_wake = std::min(min_wake, bcWake[b]);
                continue;
            }
            BankController &bc = *bcs[b];
            bc.tick(now);
            ++statBcTicks;
            bcWake[b] = bc.nextWakeAfter(now);
            min_wake = std::min(min_wake, bcWake[b]);
            // The wired-OR line deasserts with the last hit BC's share;
            // step 1 acts on it in the next cycle.
            for (std::uint8_t id : bc.completedShares()) {
                if (--txns[id].outstanding == 0) {
                    tickActivity = true;
                    step1Due = now + 1;
                }
            }
        }
        minBcWake = min_wake;
    }

    // Context-occupancy accounting (end-of-tick in-flight count).
    std::size_t active = activeTxns;
    statCtxOccupancy += active;
    if (active >= txns.size())
        ++statCtxFullCycles;
    lastProcessedTick = now;
    tickedYet = true;

    PVA_TRACE_BLOCK(
        if (traceTrack() != 0 && active != traceLastActive) {
            traceLastActive = active;
            PVA_TRACE_COUNTER(traceTrack(), now, "inFlight", active);
        });
}

void
PvaUnit::onCycleBegin(Cycle now)
{
    // Event clocking skipped (now - lastProcessedTick - 1) cycles with
    // all queues frozen; credit the per-cycle occupancy stats before
    // anything (trySubmit, observeVecCommand) mutates this cycle. Each
    // BC keeps its own accounting watermark, which also covers cycles
    // the tick loop let it sleep through.
    if (tickedYet && now > lastProcessedTick + 1) {
        Cycle gap = now - lastProcessedTick - 1;
        std::size_t active = activeTxns;
        statCtxOccupancy += active * gap;
        if (active >= txns.size())
            statCtxFullCycles += gap;
    }
    // trySubmit stamps acceptedAt with the last *ticked* cycle, which
    // under the exhaustive stepper is always now - 1 at this point.
    lastTickCycle = now == 0 ? 0 : now - 1;
}

Cycle
PvaUnit::nextWakeAfter(Cycle now) const
{
    // A tick that changed state pins the wake at now + 1; nothing the
    // scans below find can come earlier, so skip them.
    if (tickActivity)
        return now + 1;
    Cycle wake = kNeverCycle;
    auto consider = [&](Cycle c) {
        if (c > now && c < wake)
            wake = c;
    };
    for (const Txn &t : txns) {
        switch (t.state) {
          case TxnState::Staging:
          case TxnState::WriteData:
            consider(t.readyAt > now ? t.readyAt : now + 1);
            break;
          case TxnState::QueuedRead:
          case TxnState::QueuedWrite:
          case TxnState::StagePending:
          case TxnState::VecWritePending: {
            // Waiting on the request bus.
            Cycle free_at = vectorBus.busyUntil();
            consider(free_at > now ? free_at : now + 1);
            break;
          }
          default:
            break; // Free / Gathering / Scattering: BC wakes cover it
        }
    }
    // The cached BC wakes are exactly the answers the controllers gave
    // at their last tick, so their minimum stands in for re-polling
    // them.
    consider(minBcWake);
    return wake;
}

void
PvaUnit::drainCompletionsInto(std::vector<Completion> &out)
{
    out.clear();
    std::swap(out, completions);
}

bool
PvaUnit::busy() const
{
    return activeTxns != 0;
}

} // namespace pva
