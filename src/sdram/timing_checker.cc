#include "sdram/timing_checker.hh"

#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace pva
{

TimingChecker::TimingChecker(const Geometry &geo, const SdramTiming &timing,
                             unsigned banks, unsigned transactions,
                             unsigned line_words,
                             const BackendPolicy &policy)
    : geometry(geo), times(timing), pol(policy), devs(banks),
      txnSlots(transactions,
               std::vector<SlotRecord>(line_words))
{
    for (DeviceState &d : devs)
        d.ibanks.resize(pol.slotCount(geo.internalBanks()));
}

void
TimingChecker::violation(const std::string &device, Cycle now,
                         const std::string &detail) const
{
    throw SimError(SimErrorKind::Protocol, "checker." + device, now,
                   detail);
}

void
TimingChecker::onCommand(const std::string &device, unsigned bank,
                         const DeviceOp &op, Cycle now)
{
    ++statCommands;
    DeviceState &d = devs.at(bank);

    if (d.lastCommandAt != kNeverCycle && now <= d.lastCommandAt) {
        violation(device, now,
                  csprintf("command bus driven twice (previous command "
                           "at cycle %llu)",
                           static_cast<unsigned long long>(
                               d.lastCommandAt)));
    }
    if (now < d.refreshBusyUntil) {
        violation(device, now,
                  csprintf("command issued during refresh (busy until "
                           "cycle %llu)",
                           static_cast<unsigned long long>(
                               d.refreshBusyUntil)));
    }
    if (times.tREFI != 0) {
        if (pol.kind == MemBackend::DeferredRefresh) {
            // Refresh-debt bound: the oldest uncovered boundary may be
            // deferred at most deferWindow cycles; past its deadline
            // no further command is legal until it is paid.
            Cycle next_due = d.refreshSeenThrough + times.tREFI;
            if (next_due + pol.deferWindow < now) {
                violation(device, now,
                          csprintf("refresh debt bound exceeded: "
                                   "boundary %llu deferred past its "
                                   "deadline %llu",
                                   static_cast<unsigned long long>(
                                       next_due),
                                   static_cast<unsigned long long>(
                                       next_due + pol.deferWindow)));
            }
        } else {
            // Skipped-span audit: every scheduled tREFI boundary up to
            // now must have been applied (and reported via onRefresh)
            // before a command may issue — event clocking is not
            // allowed to jump a refresh boundary away.
            Cycle due = (now / times.tREFI) * times.tREFI;
            if (due > d.refreshSeenThrough) {
                violation(device, now,
                          csprintf("scheduled refresh at cycle %llu was "
                                   "skipped (refresh seen through cycle "
                                   "%llu)",
                                   static_cast<unsigned long long>(due),
                                   static_cast<unsigned long long>(
                                       d.refreshSeenThrough)));
            }
        }
    }
    d.lastCommandAt = now;

    switch (op.kind) {
      case DeviceOp::Kind::Activate: {
        DeviceCoords c = geometry.decompose(op.addr);
        // SALP subarray scoping: the row-cycle rules (tRP/tRC here,
        // tRAS/tRCD/tWR below) bind per row slot, so activates to
        // different subarrays of one internal bank may overlap.
        IBankState &ib = d.ibanks.at(pol.slotOf(c.internalBank, c.row));
        if (ib.open) {
            violation(device, now,
                      csprintf("activate on open internal bank %u "
                               "subarray %u (missing precharge)",
                               c.internalBank, pol.subarrayOf(c.row)));
        }
        if (ib.everPrecharged &&
            now < ib.prechargeStartAt + times.tRP) {
            violation(device, now,
                      csprintf("tRP violated: activate %llu cycles "
                               "after precharge, need %u",
                               static_cast<unsigned long long>(
                                   now - ib.prechargeStartAt),
                               times.tRP));
        }
        if (ib.everActivated && now < ib.activateAt + times.tRC) {
            violation(device, now,
                      csprintf("tRC violated: activate %llu cycles "
                               "after activate, need %u",
                               static_cast<unsigned long long>(
                                   now - ib.activateAt),
                               times.tRC));
        }
        ib.open = true;
        ib.row = c.row;
        ib.activateAt = now;
        ib.everActivated = true;
        break;
      }
      case DeviceOp::Kind::Precharge: {
        if (op.subarray >= pol.subarrays()) {
            violation(device, now,
                      csprintf("precharge names subarray %u but the "
                               "backend has %u per internal bank",
                               op.subarray, pol.subarrays()));
        }
        IBankState &ib = d.ibanks.at(
            (op.internalBank << pol.subBits) | op.subarray);
        if (!ib.open) {
            violation(device, now,
                      csprintf("precharge on closed internal bank %u",
                               op.internalBank));
        }
        if (now < ib.activateAt + times.tRAS) {
            violation(device, now,
                      csprintf("tRAS violated: precharge %llu cycles "
                               "after activate, need %u",
                               static_cast<unsigned long long>(
                                   now - ib.activateAt),
                               times.tRAS));
        }
        if (ib.everWritten && now < ib.writeDataAt + times.tWR) {
            violation(device, now,
                      csprintf("tWR violated: precharge %llu cycles "
                               "after write data, need %u",
                               static_cast<unsigned long long>(
                                   now - ib.writeDataAt),
                               times.tWR));
        }
        ib.open = false;
        ib.prechargeStartAt = now;
        ib.everPrecharged = true;
        break;
      }
      case DeviceOp::Kind::Read:
      case DeviceOp::Kind::Write: {
        DeviceCoords c = geometry.decompose(op.addr);
        IBankState &ib = d.ibanks.at(pol.slotOf(c.internalBank, c.row));
        bool is_read = op.kind == DeviceOp::Kind::Read;
        if (!ib.open) {
            violation(device, now,
                      csprintf("%s on closed internal bank %u",
                               is_read ? "read" : "write",
                               c.internalBank));
        }
        if (ib.row != c.row) {
            violation(device, now,
                      csprintf("%s to row %u but row %u is open",
                               is_read ? "read" : "write", c.row,
                               ib.row));
        }
        if (now < ib.activateAt + times.tRCD) {
            violation(device, now,
                      csprintf("tRCD violated: access %llu cycles "
                               "after activate, need %u",
                               static_cast<unsigned long long>(
                                   now - ib.activateAt),
                               times.tRCD));
        }
        Cycle data = is_read ? now + times.tCL : now + 1;
        if (d.anyDataYet) {
            if (data <= d.lastDataAt) {
                violation(device, now,
                          csprintf("data bus conflict: data cycle %llu "
                                   "not after %llu",
                                   static_cast<unsigned long long>(data),
                                   static_cast<unsigned long long>(
                                       d.lastDataAt)));
            }
            if (is_read != d.lastDataWasRead &&
                data < d.lastDataAt + 2) {
                violation(device, now,
                          csprintf("bus turnaround violated: polarity "
                                   "reversal with data cycles %llu and "
                                   "%llu adjacent",
                                   static_cast<unsigned long long>(
                                       d.lastDataAt),
                                   static_cast<unsigned long long>(
                                       data)));
            }
        }
        d.lastDataAt = data;
        d.lastDataWasRead = is_read;
        d.anyDataYet = true;
        if (!is_read) {
            ib.writeDataAt = data;
            ib.everWritten = true;
        }
        if (op.autoPrecharge) {
            // The device starts the internal precharge once tRAS (and
            // tWR for writes) allow; model the same effective start so
            // the follow-up activate's tRP check is exact.
            Cycle start = ib.activateAt + times.tRAS;
            if (is_read)
                start = std::max(start, now + 1);
            else
                start = std::max(start, data + times.tWR);
            if (ib.everWritten)
                start = std::max(start, ib.writeDataAt + times.tWR);
            ib.open = false;
            ib.prechargeStartAt = start;
            ib.everPrecharged = true;
        }
        break;
      }
    }
}

void
TimingChecker::onRefresh(unsigned bank, Cycle now, Cycle busy_until,
                         Cycle covered)
{
    DeviceState &d = devs.at(bank);
    d.refreshBusyUntil = std::max(d.refreshBusyUntil, busy_until);
    if (covered != 0 && times.tREFI != 0) {
        if (pol.kind == MemBackend::DeferredRefresh) {
            // Coverage must be in order (no boundary skipped) and the
            // applying refresh within deferWindow of its boundary on
            // either side.
            Cycle expect = d.refreshSeenThrough + times.tREFI;
            if (covered != expect) {
                violation(csprintf("bank%u", bank), now,
                          csprintf("refresh covers boundary %llu out "
                                   "of order (expected %llu)",
                                   static_cast<unsigned long long>(
                                       covered),
                                   static_cast<unsigned long long>(
                                       expect)));
            }
            if (covered > now + pol.deferWindow) {
                violation(csprintf("bank%u", bank), now,
                          csprintf("refresh pulled in %llu cycles "
                                   "before boundary %llu (window %llu)",
                                   static_cast<unsigned long long>(
                                       covered - now),
                                   static_cast<unsigned long long>(
                                       covered),
                                   static_cast<unsigned long long>(
                                       pol.deferWindow)));
            }
            if (now > covered + pol.deferWindow) {
                violation(csprintf("bank%u", bank), now,
                          csprintf("refresh deferred %llu cycles past "
                                   "boundary %llu (window %llu)",
                                   static_cast<unsigned long long>(
                                       now - covered),
                                   static_cast<unsigned long long>(
                                       covered),
                                   static_cast<unsigned long long>(
                                       pol.deferWindow)));
            }
            d.refreshSeenThrough = covered;
        } else if (covered > d.refreshSeenThrough) {
            d.refreshSeenThrough = covered;
        }
    }
    for (IBankState &ib : d.ibanks) {
        ib.open = false;
        // A post-refresh activate is legal exactly at busy_until; the
        // tRP rule is expressed through the precharge start time.
        ib.prechargeStartAt =
            busy_until > times.tRP ? busy_until - times.tRP : 0;
        ib.everPrecharged = true;
        (void)now;
    }
}

TimingChecker::SlotRecord &
TimingChecker::slotOf(unsigned bank, const DeviceOp &op)
{
    (void)bank;
    return txnSlots.at(op.txn).at(op.slot);
}

void
TimingChecker::onReadData(unsigned bank, const DeviceOp &op, Word data)
{
    SlotRecord &rec = slotOf(bank, op);
    rec.seen = true;
    rec.addr = op.addr;
    rec.data = data;
}

void
TimingChecker::onWriteData(unsigned bank, const DeviceOp &op)
{
    SlotRecord &rec = slotOf(bank, op);
    rec.seen = true;
    rec.addr = op.addr;
    rec.data = op.writeData;
}

void
TimingChecker::beginTxn(const VectorCommand &cmd)
{
    for (SlotRecord &rec : txnSlots.at(cmd.txn))
        rec = SlotRecord{};
}

void
TimingChecker::verifyGather(const VectorCommand &cmd,
                            const std::vector<Word> &line, Cycle now)
{
    ++statGathers;
    const std::vector<SlotRecord> &slots = txnSlots.at(cmd.txn);
    for (std::uint32_t i = 0; i < cmd.length; ++i) {
        const SlotRecord &rec = slots.at(i);
        if (!rec.seen) {
            throw SimError(
                SimErrorKind::Corruption, "checker.gather", now,
                csprintf("txn %u slot %u was never gathered (element "
                         "address %llu)",
                         cmd.txn, i,
                         static_cast<unsigned long long>(
                             cmd.element(i))));
        }
        if (rec.addr != cmd.element(i)) {
            throw SimError(
                SimErrorKind::Corruption, "checker.gather", now,
                csprintf("txn %u slot %u gathered from address %llu, "
                         "command names %llu",
                         cmd.txn, i,
                         static_cast<unsigned long long>(rec.addr),
                         static_cast<unsigned long long>(
                             cmd.element(i))));
        }
        if (i < line.size() && line[i] != rec.data) {
            throw SimError(
                SimErrorKind::Corruption, "checker.gather", now,
                csprintf("txn %u slot %u staged %u but the device "
                         "read %u",
                         cmd.txn, i, line[i], rec.data));
        }
    }
}

void
TimingChecker::verifyScatter(const VectorCommand &cmd,
                             const std::vector<Word> &data, Cycle now)
{
    ++statScatters;
    const std::vector<SlotRecord> &slots = txnSlots.at(cmd.txn);
    for (std::uint32_t i = 0; i < cmd.length; ++i) {
        const SlotRecord &rec = slots.at(i);
        if (!rec.seen) {
            throw SimError(
                SimErrorKind::Corruption, "checker.scatter", now,
                csprintf("txn %u slot %u was never written (element "
                         "address %llu)",
                         cmd.txn, i,
                         static_cast<unsigned long long>(
                             cmd.element(i))));
        }
        if (rec.addr != cmd.element(i)) {
            throw SimError(
                SimErrorKind::Corruption, "checker.scatter", now,
                csprintf("txn %u slot %u written to address %llu, "
                         "command names %llu",
                         cmd.txn, i,
                         static_cast<unsigned long long>(rec.addr),
                         static_cast<unsigned long long>(
                             cmd.element(i))));
        }
        if (i < data.size() && rec.data != data[i]) {
            throw SimError(
                SimErrorKind::Corruption, "checker.scatter", now,
                csprintf("txn %u slot %u committed %u but the line "
                         "holds %u",
                         cmd.txn, i, rec.data, data[i]));
        }
    }
}

void
TimingChecker::releaseTxn(std::uint8_t txn)
{
    for (SlotRecord &rec : txnSlots.at(txn))
        rec = SlotRecord{};
}

void
TimingChecker::registerStats(StatSet &set, const std::string &prefix) const
{
    set.addScalar(prefix + ".commands", &statCommands);
    set.addScalar(prefix + ".gathers", &statGathers);
    set.addScalar(prefix + ".scatters", &statScatters);
}

} // namespace pva
