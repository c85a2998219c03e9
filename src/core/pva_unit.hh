/**
 * @file
 * The Parallel Vector Access unit: bank controllers + vector bus + the
 * memory-controller front end of section 5.2.6.
 *
 * Read transaction lifecycle:
 *   VEC_READ broadcast (1 request cycle) -> every BC holding an
 *   element gathers its sub-vector into its staging unit -> wired-OR
 *   transaction-complete line deasserts -> front end issues
 *   STAGE_READ -> 16 data cycles return the 128-byte line (2 words per
 *   cycle) -> completion.
 *
 * Write transaction lifecycle:
 *   STAGE_WRITE (1 request cycle) -> 16 data cycles carry the line ->
 *   VEC_WRITE broadcast; the BCs holding an element keep their words
 *   of the line and scatter them -> transaction-complete deasserts
 *   when all data is committed to SDRAM -> completion.
 *
 * The same unit instantiated over SramDevice banks is the paper's
 * "parallel vector access SRAM" comparison system.
 *
 * Hit-set broadcast (docs/PERFORMANCE.md): in the paper every BC
 * snoops every VEC_READ/VEC_WRITE and its FirstHit predictor alone
 * decides whether it takes part. The front end computes that decision
 * once per broadcast instead: the banks of the first min(L, 2^(m-s))
 * elements under word interleave with stride 2^s times an odd number
 * (Theorem 4.4: NextHit = 2^(m-s), so each hit bank appears exactly
 * once), otherwise the banks of all L elements. Only those controllers
 * observe the command, in ascending bank order, and each other one is
 * credited the miss in its commandsSeen count. A write's line is
 * loaded into the hit controllers at its VEC_WRITE, the first cycle
 * any of them can use it. The hit set may only err on the safe side:
 * a controller called in vain (an injected FirstHit corruption) just
 * misses, and every controller called is released with the slot.
 *
 * Wired-OR completion (docs/PERFORMANCE.md): each transaction counts
 * the hit controllers whose share is still outstanding. A ticked
 * controller reports the shares its tick completed
 * (BankController::completedShares()) and the front end counts them
 * down; at zero the line deasserts and the front end processes the
 * next cycle, where the transaction leaves Gathering or Scattering.
 * No controller is polled. The scan that moves transactions on runs
 * only from the earliest cycle one can move (step1Due): that next
 * cycle, or the first data-cycle end still ahead.
 *
 * Batched bank-controller ticking (docs/PERFORMANCE.md): the front end
 * caches each BC's wake cycle (the MemorySystem wake contract:
 * the next cycle one of its queued SDRAM commands can issue, a read
 * return lands or a refresh falls due) and their minimum, and skips
 * ticking controllers until then. A VEC_READ/VEC_WRITE broadcast
 * resets the cached wake of the controllers that queued a request —
 * the only ones it gives new work — to the current cycle; the rest
 * keep sleeping. A STAGE_WRITE resets none: no vector context can
 * name a write transaction before its VEC_WRITE. Cycle-exactness
 * follows by the same argument as the event clocking core. Exhaustive
 * clocking is the reference and does not batch: driven by an
 * exhaustive Simulation, every controller ticks every processed cycle
 * (setClocking()).
 */

#ifndef PVA_CORE_PVA_UNIT_HH
#define PVA_CORE_PVA_UNIT_HH

#include <memory>
#include <vector>

#include "bus/vector_bus.hh"
#include "core/bank_controller.hh"
#include "core/memory_system.hh"
#include "core/system_config.hh"
#include "sdram/device.hh"
#include "sdram/geometry.hh"
#include "sim/pool.hh"

namespace pva
{

class TimingChecker;

/** The PVA unit as a complete memory system. */
class PvaUnit : public MemorySystem
{
  public:
    /**
     * Reads the geometry, timing, bank-controller, checker, fault and
     * backend fields of @p config. @p sram builds the banks from
     * SramDevice instead of SdramDevice: the PVA SRAM comparison
     * system of section 6.1.
     */
    PvaUnit(std::string name, const SystemConfig &config,
            bool sram = false);
    ~PvaUnit() override;

    bool trySubmit(const VectorCommand &cmd, std::uint64_t tag,
                   const std::vector<Word> *write_data) override;
    void drainCompletionsInto(std::vector<Completion> &out) override;
    bool busy() const override;
    std::size_t inFlight() const override { return activeTxns; }
    SparseMemory &memory() override { return backing; }

    /**
     * The first call registers every statistic of the unit, its bus,
     * checker, bank controllers and devices (each device registers its
     * own; the SRAM's none); later calls return the same set. The
     * counters accumulate from construction either way, so a set first
     * read after a run holds every value. A system no one asks (a
     * sweep point reads its cycles and its data) never builds the
     * names.
     */
    StatSet &stats() override;

    void tick(Cycle now) override;

    /**
     * Wake contract: earliest of the txn state machine's timed
     * transitions (readyAt), the vector bus freeing for a queued
     * request, and the earliest cached bank-controller wake; now + 1
     * whenever the last tick changed state — its own, or a
     * transaction-complete line deasserting; kNeverCycle when fully
     * drained.
     */
    Cycle nextWakeAfter(Cycle now) const override;

    /**
     * Top-of-cycle hook: brings the per-cycle occupancy stats current
     * (front end and BCs) for any cycles not yet accounted — spans
     * skipped by event clocking and, per BC, by sleeping; state
     * was frozen over those cycles, so the credit is exact — and
     * stamps the acceptedAt reference cycle trySubmit uses, keeping
     * submission timestamps identical to the exhaustive stepper's.
     */
    void onCycleBegin(Cycle now) override;

    /**
     * Adopt the driving Simulation's clocking discipline. Exhaustive
     * ticks every bank controller every processed cycle; Event, and a
     * unit no Simulation drives, skip controllers whose cached wake
     * lies in the future.
     */
    void
    setClocking(ClockingMode mode) override
    {
        tickEveryBc = mode == ClockingMode::Exhaustive;
    }

    /** Direct access for white-box tests. */
    BankController &bankController(unsigned i) { return *bcs[i]; }
    const SystemConfig &config() const { return cfg; }
    VectorBus &bus() { return vectorBus; }

  private:
    enum class TxnState
    {
        Free,
        QueuedRead,     ///< Waiting for a bus cycle to broadcast VEC_READ
        Gathering,      ///< BCs collecting; waiting on complete line
        StagePending,   ///< Complete; waiting for the bus for STAGE_READ
        Staging,        ///< Data cycles in progress
        QueuedWrite,    ///< Waiting for the bus to start STAGE_WRITE
        WriteData,      ///< Write data cycles in progress
        VecWritePending, ///< Data sent; waiting to broadcast VEC_WRITE
        Scattering,     ///< BCs writing to SDRAM
    };

    struct Txn
    {
        TxnState state = TxnState::Free;
        VectorCommand cmd;
        std::uint64_t tag = 0;
        std::vector<Word> writeData;
        Cycle readyAt = 0;   ///< Next state-transition time where timed
        Cycle acceptedAt = 0; ///< For the latency distributions
        /** The BCs broadcast() handed the command, in ascending bank
         *  order: its hit set (capacity reserved for every bank up
         *  front). Released, and read lines collected, through it. */
        std::vector<unsigned> hitBcs;
        /** Hit BCs whose share is not yet complete: the wired-OR
         *  transaction-complete line deasserts when this reaches 0. */
        std::size_t outstanding = 0;
    };

    /** Broadcast transaction @p id's vector command to the BCs of its
     *  hit set (loading a write's line into them), credit the others'
     *  commandsSeen, arm the transaction-complete count and wake the
     *  BCs that queued a request in cycle @p now. With no such BC the
     *  line is already deasserted. */
    void broadcast(std::uint8_t id, Cycle now);

    /** Trace track for transaction slot @p id (0 when untraced). */
    std::uint32_t
    txnTrack(std::uint8_t id) const
    {
        return id < txnTracks.size() ? txnTracks[id] : 0;
    }

    void finishRead(std::uint8_t id, Cycle now);
    void finishWrite(std::uint8_t id, Cycle now);

    SystemConfig cfg;
    SparseMemory backing;
    VectorBus vectorBus;
    std::vector<std::unique_ptr<BankDevice>> devices;
    std::vector<std::unique_ptr<BankController>> bcs;
    /** Redundant protocol/data checker (present iff cfg.timingCheck). */
    std::unique_ptr<TimingChecker> checker;

    std::vector<Txn> txns;
    RingDeque<std::uint8_t> submitOrder; ///< FIFO of queued commands
    std::vector<Completion> completions;

    /** Cached per-BC wake cycle (see file comment); maintained under
     *  both clockings, consulted by the tick loop only under Event. */
    std::vector<Cycle> bcWake;
    Cycle minBcWake = 0; ///< min(bcWake), kept current by tick/broadcast
    /** broadcast()'s per-bank hit marks; all clear between calls. */
    std::vector<std::uint8_t> hitBank;
    bool tickEveryBc = false; ///< Exhaustive reference (setClocking)
    std::size_t activeTxns = 0; ///< Txn slots not Free

    StatSet statSet; ///< Empty until the first stats() call
    bool statsRegistered = false;
    Scalar statReads;
    Scalar statWrites;
    Scalar statCtxOccupancy;  ///< Sum over ticks of in-flight txns
    Scalar statCtxFullCycles; ///< Ticks with no free transaction slot
    /** Bank-controller ticks run (sim.bcTicks: a work counter that
     *  depends on the clocking mode, like sim.simTicks). */
    Scalar statBcTicks;
    Cycle lastTickCycle = 0;
    Cycle lastProcessedTick = 0; ///< Last cycle tick() actually ran
    bool tickedYet = false;
    bool tickActivity = false; ///< Did the last tick change state?
    /** Earliest cycle step 1 of tick() can move a transaction on (a
     *  data-cycle end, or the cycle after a complete line deasserts). */
    Cycle step1Due = 0;

    /** Per-transaction-slot trace tracks; empty when untraced. */
    std::vector<std::uint32_t> txnTracks;
    /** Last in-flight count traced (counter emitted on change only). */
    std::size_t traceLastActive = SIZE_MAX;
    Distribution statReadLatency{4};  ///< Submit-to-data, 4-cycle buckets
    Distribution statWriteLatency{4}; ///< Submit-to-commit
};

} // namespace pva

#endif // PVA_CORE_PVA_UNIT_HH
