/**
 * @file
 * The Parallel Vector Access unit: bank controllers + vector bus + the
 * memory-controller front end of section 5.2.6.
 *
 * Read transaction lifecycle:
 *   VEC_READ broadcast (1 request cycle) -> every BC gathers its
 *   sub-vector into its staging unit -> wired-OR transaction-complete
 *   line deasserts -> front end issues STAGE_READ -> 16 data cycles
 *   return the 128-byte line (2 words per cycle) -> completion.
 *
 * Write transaction lifecycle:
 *   STAGE_WRITE (1 request cycle) -> 16 data cycles push the line into
 *   the BCs' write staging -> VEC_WRITE broadcast -> BCs scatter ->
 *   transaction-complete deasserts when all data is committed to SDRAM
 *   -> completion.
 *
 * The same unit instantiated over SramDevice banks is the paper's
 * "parallel vector access SRAM" comparison system.
 *
 * Wired-OR completion (docs/PERFORMANCE.md): each transaction counts
 * the hit controllers whose share is still outstanding. A ticked
 * controller reports the shares its tick completed
 * (BankController::completedShares()) and the front end counts them
 * down; at zero the line deasserts and the front end processes the
 * next cycle, where the transaction leaves Gathering or Scattering.
 * No controller is polled.
 *
 * Batched bank-controller ticking (docs/PERFORMANCE.md): the front end
 * caches each BC's wake cycle (the Component::nextWakeAfter contract:
 * the next cycle one of its queued SDRAM commands can issue, a read
 * return lands or a refresh falls due) and their minimum, and skips
 * ticking controllers until then. A VEC_READ/VEC_WRITE broadcast
 * resets the cached wake of the controllers whose FirstHit predictor
 * hit — the only ones it gives new work — to the current cycle;
 * controllers that miss keep sleeping. A STAGE_WRITE line delivery
 * resets none: no vector context can name a write transaction before
 * its VEC_WRITE. Cycle-exactness follows by the same argument as the
 * event clocking core. Exhaustive clocking is the reference and does
 * not batch: driven by an exhaustive Simulation, every controller
 * ticks every processed cycle (setClocking()).
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
    void recycleLine(std::vector<Word> &&line) override;
    bool busy() const override;
    std::size_t inFlight() const override { return activeTxns; }
    SparseMemory &memory() override { return backing; }

    /**
     * The first call registers every statistic of the unit, its bus,
     * checker, bank controllers and devices; later calls return the
     * same set. The counters accumulate from construction either way,
     * so a set first read after a run holds every value. A system no
     * one asks (a sweep point reads its cycles and its data) never
     * builds the names.
     */
    StatSet &stats() override;

    /** Final so the Simulation's typed dispatch is a direct call. */
    void tick(Cycle now) final;

    /**
     * Wake contract: earliest of the txn state machine's timed
     * transitions (readyAt), the vector bus freeing for a queued
     * request, and the earliest cached bank-controller wake; now + 1
     * whenever the last tick changed state — its own, or a
     * transaction-complete line deasserting; kNeverCycle when fully
     * drained.
     */
    Cycle nextWakeAfter(Cycle now) const final;

    /**
     * Top-of-cycle hook: brings the per-cycle occupancy stats current
     * (front end and BCs) for any cycles not yet accounted — spans
     * skipped by event clocking and, per BC, by sleeping; state
     * was frozen over those cycles, so the credit is exact — and
     * stamps the acceptedAt reference cycle trySubmit uses, keeping
     * submission timestamps identical to the exhaustive stepper's.
     */
    void onCycleBegin(Cycle now) final;

    /**
     * Adopt the driving Simulation's clocking discipline (called by
     * Simulation::add). Exhaustive ticks every bank controller every
     * processed cycle; Event, and a unit no Simulation drives, skip
     * controllers whose cached wake lies in the future.
     */
    void
    setClocking(ClockingMode mode)
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
        /** BCs whose FirstHit predictor hit this transaction's vector
         *  command (capacity reserved for every bank up front). */
        std::vector<unsigned> hitBcs;
        /** Hit BCs whose share is not yet complete: the wired-OR
         *  transaction-complete line deasserts when this reaches 0. */
        std::size_t outstanding = 0;
    };

    /** Broadcast vector command @p cmd of transaction @p id to every
     *  BC, recording the hits, arming the transaction-complete count
     *  and waking the hit BCs in cycle @p now. With no hit the line is
     *  already deasserted. */
    void broadcast(std::uint8_t id, const VectorCommand &cmd, Cycle now);

    /** Trace track for transaction slot @p id (0 when untraced). */
    std::uint32_t
    txnTrack(std::uint8_t id) const
    {
        return id < txnTracks.size() ? txnTracks[id] : 0;
    }

    /** Take a recycled line buffer from the pool (or an empty one). */
    std::vector<Word>
    takeLine()
    {
        if (linePool.empty())
            return {};
        std::vector<Word> line = std::move(linePool.back());
        linePool.pop_back();
        return line;
    }

    void finishRead(std::uint8_t id, Cycle now);
    void finishWrite(std::uint8_t id, Cycle now);

    SystemConfig cfg;
    const bool sram; ///< SramDevice banks (see the constructor)
    SparseMemory backing;
    VectorBus vectorBus;
    std::vector<std::unique_ptr<BankDevice>> devices;
    std::vector<std::unique_ptr<BankController>> bcs;
    /** Redundant protocol/data checker (present iff cfg.timingCheck). */
    std::unique_ptr<TimingChecker> checker;

    std::vector<Txn> txns;
    RingDeque<std::uint8_t> submitOrder; ///< FIFO of queued commands
    std::vector<Completion> completions;
    /** Recycled read-line buffers (recycleLine() -> finishRead()). */
    std::vector<std::vector<Word>> linePool;

    /** Cached per-BC wake cycle (see file comment); maintained under
     *  both clockings, consulted by the tick loop only under Event. */
    std::vector<Cycle> bcWake;
    Cycle minBcWake = 0; ///< min(bcWake), kept current by tick/broadcast
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

    /** Per-transaction-slot trace tracks; empty when untraced. */
    std::vector<std::uint32_t> txnTracks;
    /** Last in-flight count traced (counter emitted on change only). */
    std::size_t traceLastActive = SIZE_MAX;
    Distribution statReadLatency{4};  ///< Submit-to-data, 4-cycle buckets
    Distribution statWriteLatency{4}; ///< Submit-to-commit
};

} // namespace pva

#endif // PVA_CORE_PVA_UNIT_HH
