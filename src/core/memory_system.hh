/**
 * @file
 * Common interface all evaluated memory systems implement.
 *
 * The kernel harness drives each of the paper's four memory systems
 * (PVA SDRAM, cache-line interleaved serial SDRAM, gathering pipelined
 * serial SDRAM, PVA SRAM) through this interface: submit cache-line
 * vector commands, tick the clock, drain completions.
 */

#ifndef PVA_CORE_MEMORY_SYSTEM_HH
#define PVA_CORE_MEMORY_SYSTEM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/vector_command.hh"
#include "sim/clocking.hh"
#include "sim/component.hh"
#include "sim/memory.hh"
#include "sim/stats.hh"

namespace pva
{

/** A finished vector transaction returned to the issuing processor. */
struct Completion
{
    std::uint64_t tag;      ///< Caller-chosen identifier
    std::vector<Word> data; ///< Gathered line for reads; empty for writes
};

/** Abstract vector-capable memory system. */
class MemorySystem : public Component
{
  public:
    using Component::Component;

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
     * reuse by a future read completion. Optional — systems without a
     * buffer pool simply free it.
     */
    virtual void recycleLine(std::vector<Word> &&line) { (void)line; }

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
};

} // namespace pva

#endif // PVA_CORE_MEMORY_SYSTEM_HH
