/**
 * @file
 * Idealized SRAM bank device for the paper's PVA-SRAM comparison.
 *
 * Section 6.1: "Based on static RAM, this system incurs no precharge or
 * RAS latencies: all memory accesses take a single cycle." Rows are
 * always considered open so the scheduler never issues activates or
 * precharges; reads return data the next cycle. The data pins still
 * carry at most one word per cycle so that bank-level serialization —
 * the one source of alignment sensitivity left in an SRAM system —
 * is preserved.
 */

#ifndef PVA_SDRAM_SRAM_DEVICE_HH
#define PVA_SDRAM_SRAM_DEVICE_HH

#include "sdram/device.hh"

namespace pva
{

/** Single-cycle static-RAM bank. */
class SramDevice final : public BankDevice
{
  public:
    SramDevice(std::string name, unsigned bank_index, const Geometry &geo,
               SparseMemory &backing);

    bool
    canIssue(const DeviceOp &op, Cycle now) const override
    {
        return firstLegalFrom(op, now) == now;
    }

    void issue(const DeviceOp &op, Cycle now) override;
    bool isRowOpen(unsigned, std::uint32_t) const override { return true; }
    bool slotRowOpen(unsigned, std::uint32_t) const override
    {
        return true;
    }
    std::uint32_t openRowAt(unsigned, std::uint32_t) const override
    {
        return 0;
    }
    std::uint32_t lastRowAt(unsigned, std::uint32_t) const override
    {
        return 0;
    }

    Cycle
    legalCycleAfter(const DeviceOp &op, Cycle now) const override
    {
        return firstLegalFrom(op, now + 1);
    }

  private:
    /** First cycle >= @p from in which @p op is legal (kNeverCycle for
     *  activates and precharges, which an SRAM never needs). */
    Cycle firstLegalFrom(const DeviceOp &op, Cycle from) const;

    Cycle lastCommandCycle = kNeverCycle;
    Cycle lastDataCycle = 0;
    bool anyDataYet = false;
};

} // namespace pva

#endif // PVA_SDRAM_SRAM_DEVICE_HH
