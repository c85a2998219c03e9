/**
 * @file
 * Common interface all evaluated memory systems implement, and the
 * simulator's one clocked interface.
 *
 * The kernel harness drives each of the paper's four memory systems
 * (PVA SDRAM, cache-line interleaved serial SDRAM, gathering pipelined
 * serial SDRAM, PVA SRAM) through this interface: submit cache-line
 * vector commands, tick the clock, drain completions.
 *
 * The simulator is cycle-driven. A Simulation clocks one memory system
 * by calling its tick() at every *processed* cycle; the system ticks
 * its own parts. The PVA front end drives the vector bus, then its
 * bank controllers, in bank order, sample the broadcast in the same
 * cycle (section 5.2.6) and clock their devices.
 *
 * Under ClockingMode::Event (sim/clocking.hh) not every cycle is
 * processed: after ticking a cycle, the Simulation asks the system's
 * nextWakeAfter() and jumps the clock directly to the earliest wake
 * (the system's own answer folds in its parts', as the PVA front end's
 * running minimum of its controllers' wakes does), or to an external
 * wake if that comes first. The wake contract a system must honor:
 *
 *  - nextWakeAfter(now) returns the earliest future cycle at which the
 *    system could change observable state, given no external input.
 *    Returning kNeverCycle means "quiescent until someone drives me".
 *    Waking *early* is always safe (an extra tick must be a no-op);
 *    waking *late* breaks cycle-exactness.
 *  - A tick that changed state *another part reads* must be followed
 *    by a processed cycle at now + 1 — the part's own wake or its
 *    reader's — so the reader samples the change on the next cycle
 *    exactly as the exhaustive stepper would. State only the part
 *    itself reads needs no such wake: its next action is already
 *    bounded by the timers that state arms. (The bank controller is
 *    the example: its queues, rows and restimers are private, so it
 *    wakes when its next command can issue; only completing its share
 *    of a transaction — its edge on the wired-OR transaction-complete
 *    line, which the front end counts down — can need a processed
 *    cycle at now + 1, and the front end, as owner and reader, asks
 *    for it when the line deasserts. The simplest correct choice,
 *    now + 1 after any work, remains valid everywhere.)
 *  - The default (now + 1) keeps a system on the every-cycle
 *    schedule, which is always correct, just slower.
 *
 * onCycleBegin() runs at the top of each processed cycle, before the
 * run predicate and before any tick. Systems use it to settle
 * bookkeeping that the exhaustive stepper got for free from being
 * ticked every cycle (e.g. crediting per-cycle occupancy stats for the
 * cycles skipped since the last tick).
 */

#ifndef PVA_CORE_MEMORY_SYSTEM_HH
#define PVA_CORE_MEMORY_SYSTEM_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/vector_command.hh"
#include "sim/clocking.hh"
#include "sim/memory.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace pva
{

/** A finished vector transaction returned to the issuing processor. */
struct Completion
{
    std::uint64_t tag;      ///< Caller-chosen identifier
    std::vector<Word> data; ///< Gathered line for reads; empty for writes
};

/** Abstract vector-capable memory system: the clocked unit a
 *  Simulation drives. */
class MemorySystem
{
  public:
    explicit MemorySystem(std::string name) : systemName(std::move(name))
    {
    }
    virtual ~MemorySystem() = default;

    MemorySystem(const MemorySystem &) = delete;
    MemorySystem &operator=(const MemorySystem &) = delete;

    /** Advance the system by one processed clock cycle. */
    virtual void tick(Cycle now) = 0;

    /**
     * Earliest future cycle (> @p now) at which this system could
     * change observable state without external input; kNeverCycle if
     * fully quiescent. Called after tick(@p now) under event clocking.
     * Conservative (early) answers are safe; late answers are bugs.
     */
    virtual Cycle nextWakeAfter(Cycle now) const { return now + 1; }

    /**
     * Hook run at the top of every processed cycle @p now, before the
     * run predicate and before any tick. State must be exactly as of
     * the end of the previous processed cycle when this is called;
     * implementations may account for skipped cycles here.
     */
    virtual void onCycleBegin(Cycle now) { (void)now; }

    /** Instance name, used in stats, traces and diagnostics. */
    const std::string &name() const { return systemName; }

    /**
     * @name Trace track handle
     * The system's own trace track id (sim/trace.hh), assigned at
     * construction; 0 means untraced — either tracing is off, no
     * session is installed, or --trace-filter excluded the track.
     * Plain data, present in all builds, so wiring code needs no
     * conditional compilation.
     * @{
     */
    void setTraceTrack(std::uint32_t id) { traceTrackId = id; }
    std::uint32_t traceTrack() const { return traceTrackId; }
    /** @} */

    /**
     * Submit a vector command. For writes, @p write_data supplies the
     * dense line to scatter (cmd.length words). Returns false if the
     * system has no free transaction resources this cycle; the caller
     * retries later.
     *
     * Refusal contract: a refusal holds, for every command, until one
     * of this system's completions has been drained. Resources free
     * only as transactions complete, so a caller may skip retrying
     * until drainCompletionsInto() hands it a completion
     * (VectorCommandUnit does). A refused call changes no state.
     *
     * @param tag caller identifier reported back in the Completion.
     */
    virtual bool trySubmit(const VectorCommand &cmd, std::uint64_t tag,
                           const std::vector<Word> *write_data) = 0;

    /**
     * Move the completions that matured since the last drain into
     * @p out (replacing its contents). The primitive drain operation:
     * callers that care about steady-state allocation (the vector
     * command unit, the traffic arbiter) keep one vector alive across
     * calls so buffers shuttle between caller and system instead of
     * cycling through the allocator.
     */
    virtual void drainCompletionsInto(std::vector<Completion> &out) = 0;

    /** Convenience drain returning a fresh vector. */
    std::vector<Completion>
    drainCompletions()
    {
        std::vector<Completion> out;
        drainCompletionsInto(out);
        return out;
    }

    /**
     * Hand a consumed completion's line buffer back to the system for
     * reuse by a future read completion (takeLine()). The pool keeps
     * what fits in the room reserveLines() made, never growing, and
     * frees the rest.
     */
    virtual void
    recycleLine(std::vector<Word> &&line)
    {
        if (line.capacity() != 0 && linePool.size() < linePool.capacity())
            linePool.push_back(std::move(line));
    }

    /** Any transaction still in flight or queued? */
    virtual bool busy() const = 0;

    /**
     * Transactions currently accepted and not yet completed (queued or
     * in flight). Used by the traffic layer's occupancy sampling;
     * systems without a meaningful notion may keep the default 0.
     */
    virtual std::size_t inFlight() const { return 0; }

    /** Functional backing store (for test setup and verification). */
    virtual SparseMemory &memory() = 0;

    /** Registered statistics of this system. */
    virtual StatSet &stats() = 0;

    /** Adopt the driving Simulation's clocking (its constructor calls
     *  this); a decorator forwards it to the system it wraps. */
    virtual void setClocking(ClockingMode mode) { (void)mode; }

    /**
     * Set this system's clocking gauges (sim.simTicks /
     * sim.cyclesSkipped / sim.cyclesPerSecond) so they survive the
     * Simulation and appear in every stats dump. Simulation::runUntil
     * writes them as it returns.
     */
    void
    recordSimPerf(std::uint64_t ticks, std::uint64_t skipped,
                  std::uint64_t cycles_per_second)
    {
        statSimTicks.set(ticks);
        statSimCyclesSkipped.set(skipped);
        statSimCyclesPerSecond.set(cycles_per_second);
    }

  protected:
    /** Make room to pool @p lines recycled line buffers (a system's
     *  bound on completions in flight); without it none are kept. */
    void reserveLines(std::size_t lines) { linePool.reserve(lines); }

    /** A recycled line buffer from the pool, or an empty one. */
    std::vector<Word>
    takeLine()
    {
        if (linePool.empty())
            return {};
        std::vector<Word> line = std::move(linePool.back());
        linePool.pop_back();
        return line;
    }

    /** Concrete systems call this where they register their own
     *  statistics. */
    void
    registerSimStats(StatSet &set)
    {
        set.addScalar("sim.simTicks", &statSimTicks);
        set.addScalar("sim.cyclesSkipped", &statSimCyclesSkipped);
        set.addScalar("sim.cyclesPerSecond", &statSimCyclesPerSecond);
    }

    Scalar statSimTicks;
    Scalar statSimCyclesSkipped;
    Scalar statSimCyclesPerSecond;

  private:
    std::string systemName;
    std::uint32_t traceTrackId = 0;
    std::vector<std::vector<Word>> linePool; ///< See recycleLine()
};

} // namespace pva

#endif // PVA_CORE_MEMORY_SYSTEM_HH
