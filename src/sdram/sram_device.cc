#include "sdram/sram_device.hh"

#include "sdram/timing_checker.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace pva
{

SramDevice::SramDevice(std::string name, unsigned bank_index,
                       const Geometry &geo, SparseMemory &backing)
    : BankDevice(std::move(name), bank_index, geo, backing)
{
}

Cycle
SramDevice::firstLegalFrom(const DeviceOp &op, Cycle from) const
{
    if (op.kind == DeviceOp::Kind::Activate ||
        op.kind == DeviceOp::Kind::Precharge)
        return kNeverCycle; // rows are always open; never needed
    Cycle at = from;
    if (lastCommandCycle != kNeverCycle && lastCommandCycle + 1 > at)
        at = lastCommandCycle + 1; // one command per cycle
    // One word per data-pin cycle; the access completes next cycle.
    if (anyDataYet && lastDataCycle > at)
        at = lastDataCycle;
    return at;
}

void
SramDevice::issue(const DeviceOp &op, Cycle now)
{
    if (!canIssue(op, now)) {
        throw SimError(SimErrorKind::Protocol, name(), now,
                       "illegal SRAM op (scoreboard disagreement)");
    }
    lastCommandCycle = now;
    lastDataCycle = now + 1;
    anyDataYet = true;

    if (op.kind == DeviceOp::Kind::Read) {
        Word value = memory.read(op.addr);
        if (checker)
            checker->onReadData(bankIndex, op, value);
        ReadReturn &rr = pending.pushBack();
        rr.readyAt = now + 1;
        rr.data = value;
        rr.txn = op.txn;
        rr.slot = op.slot;
    } else {
        memory.write(op.addr, op.writeData);
        if (checker)
            checker->onWriteData(bankIndex, op);
    }
}

} // namespace pva
