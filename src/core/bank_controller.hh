/**
 * @file
 * The PVA Bank Controller (section 5.2.2).
 *
 * One BC owns one external SDRAM (or SRAM) bank and, for every vector
 * command broadcast on the Vector Bus, independently identifies and
 * accesses the sub-vector that lives in its bank. Its subcomponents
 * mirror figure 6 of the paper:
 *
 *  - FirstHit Predictor (FHP): snoops broadcasts; 1 cycle to decide
 *    hit/no-hit and, for power-of-two strides, to compute the firsthit
 *    address.
 *  - Request FIFO (RQF) over a Register File (RF): 8 entries buffering
 *    requests not yet assigned to vector contexts.
 *  - FirstHit Calculate (FHC): a 2-cycle multiply-and-add that finishes
 *    the firsthit address for non-power-of-two strides, working in
 *    parallel with the scheduler so its latency hides when the BC is
 *    busy.
 *  - Access Scheduler (SCHED) with 4 Vector Contexts (VCs) and
 *    daisy-chained Scheduling Policy Units: expands each sub-vector by
 *    shift-and-add, reorders activates/precharges above reads/writes
 *    when they do not conflict with rows in use, and applies the
 *    ManageRow() open-row policy with per-internal-bank autoprecharge
 *    predictors.
 *  - Staging Units: per-transaction line buffers for gathered read data
 *    and scattered write data, driving the wired-OR
 *    transaction-complete lines.
 *
 * Bypass paths (section 5.2.3): with an empty RQF a power-of-two-stride
 * request goes straight to a VC one cycle early, and a lone
 * non-power-of-two request skips the register-file writeback cycle.
 *
 * Hot-path notes (docs/PERFORMANCE.md): the RQF and VC window live in
 * RingDeques so the busy tick path recycles queue slots instead of
 * allocating; staging units reset in place, keeping their line-buffer
 * capacity across transactions; and the BC caches a concrete
 * SdramDevice pointer so every per-cycle device query (row predicates,
 * refresh tick, restimer probes) devirtualizes — the virtual BankDevice
 * interface is only exercised for the SRAM comparison system.
 */

#ifndef PVA_CORE_BANK_CONTROLLER_HH
#define PVA_CORE_BANK_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/firsthit.hh"
#include "core/pla.hh"
#include "core/vector_command.hh"
#include "sdram/device.hh"
#include "sim/component.hh"
#include "sim/fault.hh"
#include "sim/pool.hh"
#include "sim/stats.hh"

namespace pva
{

/** Open-row management policy (ablation of the ManageRow heuristics). */
enum class RowPolicy
{
    Managed,     ///< The paper's predictor-driven ManageRow() algorithm
    AlwaysClose, ///< Auto-precharge every access (closed-page policy)
    AlwaysOpen,  ///< Never auto-precharge (open-page policy)
};

/** Structural configuration of a bank controller. */
struct BcConfig
{
    unsigned fifoEntries = 8;     ///< Request FIFO / Register File depth
    unsigned vectorContexts = 4;  ///< VC window size
    unsigned lineWords = 32;      ///< Elements per cache-line command
    unsigned transactions = 8;    ///< Outstanding bus transactions
    unsigned fhcLatency = 2;      ///< Multiply-and-add cycles (section 5.3)
    bool bypassEnabled = true;    ///< Section 5.2.3 bypass paths
    RowPolicy rowPolicy = RowPolicy::Managed;

    bool operator==(const BcConfig &) const = default;
};

/** One bank's controller. */
class BankController final : public Component
{
  public:
    BankController(std::string name, unsigned bank, const Geometry &geo,
                   const BcConfig &config, BankDevice &dev);

    /**
     * FHP snoop: called in the cycle a VEC_READ/VEC_WRITE broadcast
     * appears on the bus. Decides participation and queues the request.
     * Returns true iff the FirstHit predictor hit — some element lives
     * in this bank and a request was queued. A controller that misses
     * takes no part in the transaction: its share is complete at once
     * and its schedule (and wake) are untouched.
     */
    bool observeVecCommand(Cycle now, const VectorCommand &cmd);

    /**
     * Deliver scattered write data for transaction @p txn (the full
     * cache line as sent during the STAGE_WRITE data cycles; the BC
     * keeps the words its sub-vector needs).
     */
    void loadWriteLine(std::uint8_t txn, const std::vector<Word> &line);

    /** Has this BC finished its share of transaction @p txn? (Its
     *  contribution to the wired-OR transaction-complete line, whose
     *  edges the front end takes from completedShares().) */
    bool
    txnComplete(std::uint8_t txn) const
    {
        const Staging &st = staging[txn];
        return st.active && st.got >= st.expected;
    }

    /** Copy this BC's gathered words for @p txn into the line buffer
     *  @p out (indexed by vector element position). Only meaningful on
     *  a controller whose observeVecCommand() hit for @p txn. */
    void collectInto(std::uint8_t txn, std::vector<Word> &out) const;

    /** Free the staging resources of @p txn after the line is staged. */
    void releaseTxn(std::uint8_t txn);

    void tick(Cycle now) override;

    /**
     * Wake contract (sim/component.hh): the next cycle this BC can act,
     * given no new broadcast. That is the earliest of: the cycle each
     * VC's next command becomes legal (SdramDevice::legalCycleAfter —
     * the activate, precharge or polarity-eligible read/write the
     * scheduler would pick for it), the FIFO head's visibility cycle
     * while a VC is free, and the device's own events (the oldest read
     * return, the next refresh). Nothing else in a tick depends on the
     * cycle, so every skipped cycle would have been a no-op tick.
     *
     * Only an attached fault injector answers now + 1 instead: it
     * draws from its RNG stream once per tick, so the BC ticks every
     * cycle to keep fault timelines identical across modes. The one
     * piece of BC state another component reads, the wired-OR
     * transaction-complete line, needs the *reader* awake next cycle,
     * not this BC: the owning PvaUnit counts completedShares() down
     * per transaction and wakes itself at now + 1 when a count reaches
     * zero.
     *
     * The same contract backs both the Simulation event core and the
     * owning PvaUnit's batched per-BC ticking (its cached wake cycles).
     */
    Cycle nextWakeAfter(Cycle now) const override;

    /**
     * Bring the occupancy statistics current through cycle @p now - 1,
     * crediting every not-yet-accounted cycle with the frozen queue
     * state. Cycles this BC did not tick — whether skipped by event
     * clocking or by the front end's batched per-BC ticking — left the
     * queues untouched, so the frozen credit reproduces the exhaustive
     * every-cycle accounting exactly. Called before anything mutates
     * the BC in cycle @p now; ticking accounts @p now itself.
     */
    void
    creditFrozen(Cycle now)
    {
        if (now <= accountedCycles)
            return;
        Cycle gap = now - accountedCycles;
        statVcOccupancy += vcs.size() * gap;
        if (vcs.size() >= cfg.vectorContexts)
            statVcFullCycles += gap;
        statFifoOccupancy += fifo.size() * gap;
        accountedCycles = now;
    }

    /**
     * The transactions whose share the last tick completed (their
     * txnComplete() turned true): this BC's edges on the wired-OR
     * transaction-complete lines. The owning front end counts them
     * down against each transaction's hit controllers.
     */
    const std::vector<std::uint8_t> &
    completedShares() const
    {
        return sharesCompleted;
    }

    /** Nothing queued, scheduled, or in flight. */
    bool idle() const;

    /** Vector Contexts currently holding a request (0..vectorContexts). */
    unsigned vcsInUse() const { return static_cast<unsigned>(vcs.size()); }

    /** Request FIFO entries currently occupied (0..fifoEntries). */
    unsigned fifoDepth() const
    {
        return static_cast<unsigned>(fifo.size());
    }

    /**
     * Enable fault injection for this BC (scheduler stalls, dropped
     * read returns, corrupted FirstHit results) on stream @p stream.
     * Dropped returns are detected and re-fetched by the recovery
     * logic in tick(); corruption is left for the TimingChecker.
     */
    void enableFaults(const FaultPlan &plan, std::uint64_t stream);

    const Geometry &geometry() const { return geo; }
    BankDevice &device() { return dev; }

    /** @name Statistics @{ */
    Scalar statCommandsSeen;
    Scalar statCommandsHit;
    Scalar statElements;
    Scalar statBypasses;
    Scalar statSchedActiveCycles;
    Scalar statStallCycles;       ///< Fault-injected scheduler stalls
    Scalar statDroppedReturns;    ///< Fault-injected lost read words
    Scalar statRecoveries;        ///< Sub-vector re-fetches issued
    Scalar statCorruptedFirstHits; ///< Fault-injected FHP corruptions
    Scalar statVcOccupancy;       ///< Sum over ticks of occupied VCs
    Scalar statVcFullCycles;      ///< Ticks with every VC occupied
    Scalar statFifoOccupancy;     ///< Sum over ticks of RQF entries
    Scalar statFifoPeak;          ///< Deepest RQF occupancy seen
    /** @} */

    void registerStats(StatSet &set, const std::string &prefix) const;

  private:
    /** A queued vector request (Register File entry). */
    struct Request
    {
        VectorCommand cmd;
        SubVector sub;
        Cycle visibleAt; ///< When the scheduler may dequeue it (ACC set)
        /** Explicit element list for Indirect/BitReversal commands
         *  (parallel arrays: device address, line slot). */
        std::vector<WordAddr> explicitAddrs;
        std::vector<std::uint8_t> explicitSlots;
    };

    /** A vector request being expanded by the access scheduler. */
    struct VectorContext
    {
        VectorCommand cmd;
        SubVector sub;
        std::uint32_t issued = 0; ///< Elements already sent to the device
        WordAddr firstAddr = 0;   ///< Address of the firsthit element
        WordAddr stepWords = 0;   ///< stride << (m - s), the VC increment
        bool firstOpDone = false; ///< Autoprecharge predictor captured
        std::vector<WordAddr> explicitAddrs;
        std::vector<std::uint8_t> explicitSlots;
        /** Address and device coordinates of element @c issued — the
         *  one every scheduler scan asks about (set by loadHead()). */
        WordAddr headAddr = 0;
        DeviceCoords headCoords{};

        std::uint32_t
        count() const
        {
            return explicitAddrs.empty()
                ? sub.count
                : static_cast<std::uint32_t>(explicitAddrs.size());
        }

        bool done() const { return issued >= count(); }

        /** Device address of sub-vector element @p j. */
        WordAddr
        addrAt(std::uint32_t j) const
        {
            return explicitAddrs.empty() ? firstAddr + stepWords * j
                                         : explicitAddrs[j];
        }

        /** Line slot (vector index) of sub-vector element @p j. */
        std::uint32_t
        slotAt(std::uint32_t j) const
        {
            return explicitAddrs.empty() ? sub.index(j)
                                         : explicitSlots[j];
        }
    };

    /** Per-transaction staging state. */
    struct Staging
    {
        bool active = false;
        bool isRead = true;
        std::uint32_t expected = 0;
        std::uint32_t got = 0;
        std::vector<Word> line;  ///< Read gather / write scatter data
        std::vector<std::uint8_t> valid; ///< Read slots gathered so far
        bool haveWriteData = false;
        /** The command and sub-vector this BC committed to, captured
         *  at observe time for drop-recovery (populated only under
         *  fault injection; parallel arrays addr/slot). */
        VectorCommand cmd;
        std::vector<WordAddr> respAddrs;
        std::vector<std::uint8_t> respSlots;

        bool complete() const { return !active || got >= expected; }

        /** Return to the inactive state keeping buffer capacity. */
        void
        reset()
        {
            active = false;
            isRead = true;
            expected = 0;
            got = 0;
            haveWriteData = false;
            respAddrs.clear();
            respSlots.clear();
        }
    };

    void drainDeviceReturns(Cycle now);
    void dequeueIntoVc(Cycle now);
    bool tryActivatePrecharge(Cycle now);
    bool tryReadWrite(Cycle now);

    /** Refresh @p vc's cached head after `issued` moved. */
    void
    loadHead(VectorContext &vc)
    {
        if (vc.done())
            return;
        vc.headAddr = vc.addrAt(vc.issued);
        vc.headCoords = geo.decompose(vc.headAddr);
    }

    /**
     * The activate or precharge vcs[@p vi]'s head element needs, if
     * the scheduler would try one: false when its row is already open,
     * or when closing the slot's other row is vetoed because an older
     * VC's head hits it.
     */
    bool
    rowCommandFor(std::size_t vi, DeviceOp &op) const
    {
        const VectorContext &vc = vcs[vi];
        const DeviceCoords &c = vc.headCoords;
        if (devIsRowOpen(c.internalBank, c.row))
            return false; // ready, nothing to open
        if (!devSlotRowOpen(c)) {
            op.kind = DeviceOp::Kind::Activate;
            op.addr = vc.headAddr;
            return true;
        }
        if (olderVcHitsOpenRow(c, vi))
            return false; // an older VC still predicts a hit on that row
        op.kind = DeviceOp::Kind::Precharge;
        op.internalBank = c.internalBank;
        op.subarray = bpol.subarrayOf(c.row);
        return true;
    }

    /** The read or write of @p vc's head element (auto-precharge and
     *  write data are settled only at issue; legality ignores them). */
    DeviceOp
    accessOp(const VectorContext &vc) const
    {
        DeviceOp op;
        op.kind = vc.cmd.isRead ? DeviceOp::Kind::Read
                                : DeviceOp::Kind::Write;
        op.addr = vc.headAddr;
        op.txn = vc.cmd.txn;
        op.slot = static_cast<std::uint8_t>(vc.slotAt(vc.issued));
        return op;
    }

    /**
     * Polarity rule (section 5.2.4): call @p visit(vi) for each VC, in
     * age order, whose read/write the scheduler may try — its row open,
     * its data staged, and the SDRAM data bus at its polarity with no
     * reversal pending in an older VC (the oldest pending VC may always
     * reverse). Stops early when @p visit returns true.
     */
    template <typename Visit>
    void
    forEachAccessCandidate(Visit &&visit) const
    {
        bool reversal_blocked = false;
        bool first_pending = true;
        for (std::size_t vi = 0; vi < vcs.size(); ++vi) {
            const VectorContext &vc = vcs[vi];
            if (vc.done())
                continue;
            bool wants_reversal = anyDirYet && vc.cmd.isRead != lastDirRead;
            bool polarity_ok =
                first_pending || (!reversal_blocked && !wants_reversal);
            const DeviceCoords &c = vc.headCoords;
            if (polarity_ok && devIsRowOpen(c.internalBank, c.row) &&
                (vc.cmd.isRead || staging[vc.cmd.txn].haveWriteData) &&
                visit(vi))
                return;
            if (wants_reversal)
                reversal_blocked = true;
            first_pending = false;
        }
    }

    /** Account cycle @p now's end-of-tick occupancy. */
    void
    accountCycle(Cycle now)
    {
        statVcOccupancy += vcs.size();
        if (vcs.size() >= cfg.vectorContexts)
            ++statVcFullCycles;
        statFifoOccupancy += fifo.size();
        if (fifo.size() > statFifoPeak.value())
            statFifoPeak += fifo.size() - statFifoPeak.value();
        accountedCycles = now + 1;
    }

    /** Re-fetch gathered-but-lost elements of quiescent, incomplete
     *  read transactions (fault-injection recovery path). */
    void maybeRecover(Cycle now);

    /** Is any queued or scheduled work still tagged @p txn? */
    bool hasWorkFor(std::uint8_t txn) const;

    /** Row-slot index of device coordinates @p c under the device's
     *  backend (the internal bank on legacy, (ibank, subarray) on
     *  SALP) — the granularity all row predicates work at. */
    unsigned
    slotOf(const DeviceCoords &c) const
    {
        return bpol.slotOf(c.internalBank, c.row);
    }

    /** Does any VC other than @p except have its next element on the
     *  open row of @p target's row slot? (bank_hit/morehit_predict) */
    bool otherVcHitsOpenRow(const DeviceCoords &target,
                            const VectorContext *except) const;

    /**
     * Does any VC older than vcs[@p vc_index] have its next element on
     * the open row of @p target's row slot? Used to gate precharges:
     * blocking on *younger* VCs' hit predictions would let a
     * polarity-stalled young VC deadlock an old one (the daisy chain
     * gives the oldest pending operation priority).
     */
    bool olderVcHitsOpenRow(const DeviceCoords &target,
                            std::size_t vc_index) const;

    /** Does any VC's next element map to @p target's row slot with a
     *  row different from its open row? (bank_close_predict) */
    bool anyVcMissesOpenRow(const DeviceCoords &target) const;

    /** ManageRow(): should the read/write for @p vc at @p c auto-
     *  precharge its row? */
    bool decideAutoPrecharge(const VectorContext &vc,
                             const DeviceCoords &c);

    /** @name Devirtualized device access
     * The concrete device type is fixed at construction; caching the
     * SdramDevice downcast turns the per-cycle row predicates, refresh
     * tick and restimer probes into direct (mostly inline) calls. The
     * virtual fallback serves the SRAM comparison system.
     * @{ */
    bool
    devIsRowOpen(unsigned ibank, std::uint32_t row) const
    {
        return sdram ? sdram->isRowOpen(ibank, row)
                     : dev.isRowOpen(ibank, row);
    }

    /** Does the row slot holding @p c have some row open? */
    bool
    devSlotRowOpen(const DeviceCoords &c) const
    {
        return sdram ? sdram->slotRowOpen(c.internalBank, c.row)
                     : dev.slotRowOpen(c.internalBank, c.row);
    }

    /** The row open in @p c's slot (valid iff devSlotRowOpen()). */
    std::uint32_t
    devOpenRowAt(const DeviceCoords &c) const
    {
        return sdram ? sdram->openRowAt(c.internalBank, c.row)
                     : dev.openRowAt(c.internalBank, c.row);
    }

    std::uint32_t
    devLastRowAt(const DeviceCoords &c) const
    {
        return sdram ? sdram->lastRowAt(c.internalBank, c.row)
                     : dev.lastRowAt(c.internalBank, c.row);
    }

    bool
    devCanIssue(const DeviceOp &op, Cycle now) const
    {
        return sdram ? sdram->canIssue(op, now) : dev.canIssue(op, now);
    }

    void
    devIssue(const DeviceOp &op, Cycle now)
    {
        if (sdram)
            sdram->issue(op, now);
        else
            dev.issue(op, now);
    }

    void
    devTick(Cycle now)
    {
        if (sdram)
            sdram->tick(now);
        else
            dev.tick(now);
    }

    Cycle
    devLegalCycleAfter(const DeviceOp &op, Cycle now) const
    {
        return sdram ? sdram->legalCycleAfter(op, now)
                     : dev.legalCycleAfter(op, now);
    }

    Cycle
    devNextEventAfter(Cycle now) const
    {
        return sdram ? sdram->nextEventAfter(now)
                     : dev.nextEventAfter(now);
    }
    /** @} */

    const Geometry &geo;
    BcConfig cfg;
    BankDevice &dev;
    SdramDevice *sdram = nullptr; ///< Concrete downcast of dev (or null)
    BackendPolicy bpol;           ///< Copy of dev's resolved policy
    const FirstHitPla &pla;       ///< FirstHitPla::shared(bank bits)
    unsigned bankIndex = 0;

    RingDeque<Request> fifo;      ///< RQF (oldest at front)
    RingDeque<VectorContext> vcs; ///< Oldest at front (highest prio)
    std::vector<Staging> staging; ///< Indexed by transaction id
    std::vector<bool> autoPrePredict; ///< Per row slot (section 5.2.2)
    std::unique_ptr<FaultInjector> injector;

    /** Scratch element lists for observeVecCommand's explicit-mode
     *  expansion (swapped into the queued Request, so capacity
     *  circulates instead of being reallocated per command). */
    std::vector<WordAddr> scratchAddrs;
    std::vector<std::uint8_t> scratchSlots;

    Cycle fhcBusyUntil = 0; ///< FHC pipeline occupancy
    Cycle lastDequeue = kNeverCycle;
    Cycle accountedCycles = 0; ///< Cycles [0, this) occupancy-accounted
    /** Transactions whose share the last tick completed (capacity
     *  reserved for every transaction id, so a tick never allocates). */
    std::vector<std::uint8_t> sharesCompleted;

    bool lastDirRead = true; ///< SDRAM data bus polarity
    bool anyDirYet = false;

    /** @name Trace occupancy caches
     * Last counter values emitted, so the trace records occupancy
     * only when it changes. Unused (but harmless) in untraced builds.
     * @{ */
    std::size_t traceLastVcs = SIZE_MAX;
    std::size_t traceLastFifo = SIZE_MAX;
    /** @} */
};

} // namespace pva

#endif // PVA_CORE_BANK_CONTROLLER_HH
