/**
 * @file
 * SDRAM device model with restimer-style timing enforcement.
 *
 * One BankDevice represents the 32-bit-wide SDRAM behind one external
 * bank of the memory system (the prototype builds it from Micron
 * 256 Mbit x16 parts). It has four internal banks, each with an open-row
 * register, and enforces the timing constraints the paper's "restimers"
 * scoreboard (section 5.2.5): tRCD, CAS latency, tRP, tRAS, tRC, tWR,
 * plus the one-cycle data-bus turnaround on polarity reversal.
 *
 * Protocol: the bank controller calls canIssue() to probe legality in
 * the current cycle and issue() to commit an operation. At most one
 * command per cycle may be issued (one command bus). Read data appears
 * tCL cycles later and is retrieved with popReady().
 *
 * Protocol for sleeping callers: legalCycleAfter() answers when a
 * given command would pass canIssue() if nothing else happens first,
 * and nextEventAfter() when the device would change state on its own
 * (a read return, a refresh). Together they let the bank controller
 * skip every cycle in which it could not act.
 *
 * Hot-path layout (docs/PERFORMANCE.md): the per-row-slot state lives
 * in struct-of-arrays form — the three restimer deadlines in
 * contiguous Cycle arrays, the open/row registers in parallel arrays
 * touched by the row predicates the bank-controller scheduler polls.
 * The row predicates, the legality checks and the idle-tick fast path
 * are defined inline and SdramDevice is final, so a caller holding a
 * concrete SdramDevice* (the bank controller's devirtualized fast
 * path, which measured faster than virtual calls: docs/PERFORMANCE.md,
 * "Devirtualized dispatch") pays no virtual dispatch.
 *
 * Backends (docs/DEVICE.md): a "row slot" is one row buffer with its
 * own restimers. The legacy backend has one slot per internal bank —
 * exactly the original model. The SALP backend splits each internal
 * bank into subarrays with a slot each (shared command bus and data
 * pins); the deferred-refresh backend keeps legacy slots but moves
 * tREFI boundaries within a bounded window around in-flight work. All
 * three are data-driven off a resolved BackendPolicy, so the one
 * final class keeps the devirtualized dispatch.
 */

#ifndef PVA_SDRAM_DEVICE_HH
#define PVA_SDRAM_DEVICE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sdram/backend.hh"
#include "sdram/geometry.hh"
#include "sim/fault.hh"
#include "sim/memory.hh"
#include "sim/pool.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace pva
{

class TimingChecker;

/** SDRAM timing parameters in memory-clock cycles. */
struct SdramTiming
{
    unsigned tRCD = 2; ///< Activate to read/write (the paper's 2-cycle RAS)
    unsigned tCL = 2;  ///< Read command to data (2-cycle CAS)
    unsigned tRP = 2;  ///< Precharge to activate
    unsigned tRAS = 5; ///< Activate to precharge
    unsigned tRC = 7;  ///< Activate to activate, same internal bank
    unsigned tWR = 2;  ///< Write data to precharge
    /**
     * Auto-refresh interval in cycles (0 disables refresh, the paper's
     * idealization). A 64 ms / 8192-row part at 100 MHz refreshes every
     * ~781 cycles.
     */
    unsigned tREFI = 0;
    unsigned tRFC = 10; ///< Refresh cycle time (all banks unavailable)

    bool operator==(const SdramTiming &) const = default;
};

/**
 * Throw SimError(Config) naming tREFI when @p timing refreshes too
 * often for an access ever to issue under @p policy: every kernel would
 * run into the cycle watchdog instead (docs/DEVICE.md, "Refresh room").
 * @p policy must come from resolveBackendPolicy() for @p timing.
 */
void checkRefreshRoom(const SdramTiming &timing, const BackendPolicy &policy);

/** One operation a bank controller can ask a device to perform. */
struct DeviceOp
{
    enum class Kind { Activate, Precharge, Read, Write };

    Kind kind;
    WordAddr addr = 0;        ///< Flat word address (Read/Write/Activate)
    bool autoPrecharge = false; ///< Read/Write with auto-precharge
    Word writeData = 0;
    std::uint8_t txn = 0;     ///< Transaction id tag
    std::uint8_t slot = 0;    ///< Word index within the cache line
    unsigned internalBank = 0; ///< For Precharge (no address needed)
    /** For Precharge on a SALP backend: which subarray of
     *  @c internalBank to close (always 0 on single-slot backends). */
    unsigned subarray = 0;
};

/** A read completion: data valid on the device pins at @c readyAt. */
struct ReadReturn
{
    Cycle readyAt;
    Word data;
    std::uint8_t txn;
    std::uint8_t slot;
};

/**
 * Abstract bank-storage device, a part its bank controller ticks.
 * SdramDevice implements the full dynamic RAM behaviour; SramDevice
 * (sram_device.hh) the idealized static RAM of the paper's PVA-SRAM
 * comparison system.
 */
class BankDevice
{
  public:
    BankDevice(std::string name, unsigned bank_index, const Geometry &geo,
               SparseMemory &backing)
        : deviceName(std::move(name)), bankIndex(bank_index), geometry(geo),
          memory(backing)
    {
    }
    virtual ~BankDevice() = default;

    BankDevice(const BankDevice &) = delete;
    BankDevice &operator=(const BankDevice &) = delete;

    /** Instance name, used in diagnostics. */
    const std::string &name() const { return deviceName; }

    /** @name Trace track handle (see sim/trace.hh; 0 = untraced) @{ */
    void setTraceTrack(std::uint32_t id) { traceTrackId = id; }
    std::uint32_t traceTrack() const { return traceTrackId; }
    /** @} */

    /** Register this device's statistics under @p prefix; a device
     *  without counters (the SRAM) registers none. */
    virtual void
    registerStats(StatSet &set, const std::string &prefix) const
    {
        (void)set;
        (void)prefix;
    }

    /** May @p op legally issue in cycle @p now? Side-effect free. */
    virtual bool canIssue(const DeviceOp &op, Cycle now) const = 0;

    /** Commit @p op in cycle @p now. Throws SimError(Protocol) if
     *  illegal (scoreboard bug). */
    virtual void issue(const DeviceOp &op, Cycle now) = 0;

    /** Attach the redundant protocol/data checker (may be null). */
    void setChecker(TimingChecker *c) { checker = c; }

    /** Is row @p row open (in its row slot of internal bank @p ibank)? */
    virtual bool isRowOpen(unsigned ibank, std::uint32_t row) const = 0;

    /** @name Row-slot predicates
     * The scheduler's view: all three address the row slot that holds
     * @p row on this backend (the whole internal bank on legacy, its
     * subarray on SALP). @{ */
    /** Does the slot holding @p row currently have some row open? */
    virtual bool slotRowOpen(unsigned ibank, std::uint32_t row) const = 0;

    /** The row open in @p row's slot (valid iff slotRowOpen()). */
    virtual std::uint32_t openRowAt(unsigned ibank,
                                    std::uint32_t row) const = 0;

    /** The row last opened in @p row's slot (0xffffffff if never). */
    virtual std::uint32_t lastRowAt(unsigned ibank,
                                    std::uint32_t row) const = 0;
    /** @} */

    /** The resolved backend policy (legacy single-slot by default). */
    const BackendPolicy &backendPolicy() const { return pol; }

    /** Pop a read completion whose data is valid at or before @p now. */
    bool
    popReady(Cycle now, ReadReturn &out)
    {
        if (pending.empty() || pending.front().readyAt > now)
            return false;
        out = pending.front();
        pending.popFront();
        return true;
    }

    /** True iff no read data remains in flight. */
    bool quiescent() const { return pending.empty(); }

    /**
     * Earliest cycle (> @p now) at which canIssue(@p op) holds if the
     * device state stays as it is — no command issues and no refresh
     * applies in between: the latest of every threshold @p op must
     * clear. kNeverCycle when @p op cannot become legal without
     * another command first (an activate into an open row slot, a
     * precharge or access of a closed one). Exact, so the owning bank
     * controller may sleep until the earliest such cycle over its
     * queued commands (BankController::nextWakeAfter).
     */
    virtual Cycle legalCycleAfter(const DeviceOp &op, Cycle now) const = 0;

    /**
     * Earliest cycle (> @p now) at which ticking this device changes
     * its state on its own, given that no command issues first: the
     * oldest read return maturing (and, on SDRAM, the next refresh).
     * kNeverCycle if none.
     */
    virtual Cycle
    nextEventAfter(Cycle now) const
    {
        if (pending.empty())
            return kNeverCycle;
        Cycle ready = pending.front().readyAt;
        return ready > now ? ready : now + 1;
    }

    /** Apply the device's own state changes due by @p now (SDRAM
     *  refresh); its bank controller calls this as it ticks. */
    virtual void tick(Cycle now) { (void)now; }

  private:
    std::string deviceName;
    std::uint32_t traceTrackId = 0;

  protected:
    unsigned bankIndex;
    const Geometry &geometry;
    SparseMemory &memory;
    TimingChecker *checker = nullptr;
    BackendPolicy pol{}; ///< Resolved by the concrete device's ctor.
    RingDeque<ReadReturn> pending; ///< Ordered by readyAt.
};

/** The dynamic-RAM device with full timing state. */
class SdramDevice final : public BankDevice
{
  public:
    /** @p policy must come from resolveBackendPolicy() (the default is
     *  the legacy single-slot part). */
    SdramDevice(std::string name, unsigned bank_index, const Geometry &geo,
                const SdramTiming &timing, SparseMemory &backing,
                const BackendPolicy &policy = BackendPolicy{});

    bool
    canIssue(const DeviceOp &op, Cycle now) const override
    {
        return firstLegalFrom(op, now) == now;
    }

    void issue(const DeviceOp &op, Cycle now) override;

    /** Row-slot index of (@p ibank, @p row) under this backend. */
    unsigned
    slotIndex(unsigned ibank, std::uint32_t row) const
    {
        return pol.slotOf(ibank, row);
    }

    /** Is some row open (bank active) in internal bank @p ibank? */
    bool
    anyRowOpen(unsigned ibank) const
    {
        const unsigned base = ibank << pol.subBits;
        for (unsigned s = base; s < base + pol.subarrays(); ++s) {
            if (rowOpen[s] != 0)
                return true;
        }
        return false;
    }

    bool
    isRowOpen(unsigned ibank, std::uint32_t row) const override
    {
        const unsigned s = slotIndex(ibank, row);
        return rowOpen[s] != 0 && openRows[s] == row;
    }

    bool
    slotRowOpen(unsigned ibank, std::uint32_t row) const override
    {
        return rowOpen[slotIndex(ibank, row)] != 0;
    }

    std::uint32_t
    openRowAt(unsigned ibank, std::uint32_t row) const override
    {
        return openRows[slotIndex(ibank, row)];
    }

    std::uint32_t
    lastRowAt(unsigned ibank, std::uint32_t row) const override
    {
        const unsigned s = slotIndex(ibank, row);
        return everOpened[s] ? lastOpenedRows[s] : 0xffffffffu;
    }

    /**
     * Apply pending auto-refresh: at each tREFI boundary all internal
     * banks precharge and the device is unavailable for tRFC cycles.
     * Called by the bank controller at the top of every processed
     * cycle; under event clocking it catches up on every boundary the
     * skipped span crossed, in order, so the refresh count and row
     * state match the exhaustive stepper exactly. The common case —
     * refresh disabled, no fault injector — is an inline early-out.
     */
    void
    tick(Cycle now) override
    {
        if (injector || times.tREFI != 0)
            tickRefresh(now);
    }

    Cycle
    legalCycleAfter(const DeviceOp &op, Cycle now) const override
    {
        return firstLegalFrom(op, now + 1);
    }

    /**
     * The oldest read return, or the next refresh: the tREFI boundary
     * on legacy and SALP parts; on the deferred-refresh part the cycle
     * tickRefreshDeferred() next applies one, computed from the
     * current busyForRefresh() answer. That answer changes only when
     * a command issues or a read return drains, both in a bank
     * controller tick after which the controller asks again.
     */
    Cycle
    nextEventAfter(Cycle now) const override
    {
        Cycle wake = BankDevice::nextEventAfter(now); // oldest return
        if (times.tREFI == 0)
            return wake;
        return std::min(wake, nextRefreshAfter(now));
    }

    /** Enable fault injection (spontaneous refresh stalls) for this
     *  device, drawing decisions from the plan's stream @p stream. */
    void enableFaults(const FaultPlan &plan, std::uint64_t stream);

    /** @name Statistics @{ */
    Scalar statActivates;
    Scalar statPrecharges;
    Scalar statReads;
    Scalar statWrites;
    Scalar statRowHitAccesses; ///< Read/write without a fresh activate
    Scalar statRefreshes;
    Scalar statInjectedRefreshes; ///< Fault-injected refresh stalls
    Scalar statDeferredRefreshes; ///< Applied after their boundary
    Scalar statAdvancedRefreshes; ///< Pulled in before their boundary
    /** @} */

    void registerStats(StatSet &set,
                       const std::string &prefix) const override;

  private:
    /** When would @p op's word occupy the device data pins? */
    Cycle dataCycleOf(const DeviceOp &op, Cycle now) const;

    /**
     * The restimer scoreboard: the first cycle >= @p from in which @p op
     * is legal if the state stays as it is (kNeverCycle if another
     * command must come first). Legality is a conjunction of "cycle >=
     * threshold" rules, so this is the latest threshold; canIssue() and
     * legalCycleAfter() are its two readings.
     */
    Cycle
    firstLegalFrom(const DeviceOp &op, Cycle from) const
    {
        Cycle at = from;
        auto clear = [&](Cycle c) {
            if (c > at)
                at = c;
        };
        if (lastCommandCycle != kNeverCycle)
            clear(lastCommandCycle + 1); // one command per cycle
        clear(refreshBusyUntil); // mid-refresh: the device is unavailable

        switch (op.kind) {
          case DeviceOp::Kind::Activate: {
            DeviceCoords c = geometry.decompose(op.addr);
            const unsigned s = slotIndex(c.internalBank, c.row);
            if (rowOpen[s] != 0)
                return kNeverCycle;
            clear(activateReady[s]);
            return at;
          }
          case DeviceOp::Kind::Precharge: {
            const unsigned s = (op.internalBank << pol.subBits) | op.subarray;
            if (rowOpen[s] == 0)
                return kNeverCycle;
            clear(prechargeReady[s]);
            return at;
          }
          case DeviceOp::Kind::Read:
          case DeviceOp::Kind::Write: {
            // With auto-precharge the device delays the internal
            // precharge until tRAS/tWR allow, so no extra condition.
            DeviceCoords c = geometry.decompose(op.addr);
            const unsigned s = slotIndex(c.internalBank, c.row);
            if (rowOpen[s] == 0 || openRows[s] != c.row)
                return kNeverCycle;
            clear(accessReady[s]);
            if (anyDataYet) {
                // One word per pin-cycle, monotonically increasing, and
                // a one-cycle turnaround on polarity reversal (section
                // 5.2.5); the word lands `lead` cycles after the
                // command (dataCycleOf).
                const bool is_read = op.kind == DeviceOp::Kind::Read;
                const Cycle first_data =
                    lastDataCycle + (is_read != lastDataWasRead ? 2 : 1);
                const Cycle lead = is_read ? times.tCL : 1;
                if (first_data > lead)
                    clear(first_data - lead);
            }
            return at;
          }
        }
        return kNeverCycle;
    }

    /** Close every row slot and hold the device busy for tRFC.
     *  @p covered names the tREFI boundary this refresh satisfies
     *  (0 for an injected refresh that satisfies none). */
    void applyRefresh(Cycle now, Cycle covered);

    /** Refresh/fault slow path behind the inline tick() early-out. */
    void tickRefresh(Cycle now);

    /** The refresh term of nextEventAfter() (tREFI != 0). */
    Cycle nextRefreshAfter(Cycle now) const;

    /** The DeferredRefresh discipline: pull-in/push-out within the
     *  policy window, forced at boundary + window. */
    void tickRefreshDeferred(Cycle now);

    /** Would a refresh right now collide with in-flight work (open
     *  rows, read data still maturing)? Deferral predicate; depends
     *  only on device state, never on the clock, so skipped spans
     *  cannot change its answer (event-clocking exactness). */
    bool
    busyForRefresh() const
    {
        if (!pending.empty())
            return true;
        for (std::uint8_t open : rowOpen) {
            if (open)
                return true;
        }
        return false;
    }

    SdramTiming times;

    /** @name Per-row-slot state, struct-of-arrays
     * Indexed by row slot (BackendPolicy::slotOf — the internal bank
     * on legacy backends, (ibank, subarray) on SALP). The three
     * restimer deadlines and the row registers sit in their own
     * arrays for the scheduler's row predicates and legality queries.
     * @{ */
    std::vector<Cycle> accessReady;    ///< tRCD satisfied
    std::vector<Cycle> prechargeReady; ///< tRAS / tWR satisfied
    std::vector<Cycle> activateReady;  ///< tRP / tRC satisfied
    std::vector<std::uint32_t> openRows;
    std::vector<std::uint32_t> lastOpenedRows;
    std::vector<std::uint8_t> rowOpen;
    std::vector<std::uint8_t> everOpened;
    std::vector<std::uint8_t> freshActivate; ///< No access since activate
    /** @} */

    std::unique_ptr<FaultInjector> injector;

    Cycle lastCommandCycle = kNeverCycle; ///< One command bus per device
    Cycle lastDataCycle = 0;              ///< Data pin occupancy high-water
    bool lastDataWasRead = true;
    bool anyDataYet = false;
    Cycle lastRefreshApplied = 0;
    Cycle refreshBusyUntil = 0;
};

} // namespace pva

#endif // PVA_SDRAM_DEVICE_HH
