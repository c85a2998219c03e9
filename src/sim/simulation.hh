/**
 * @file
 * Cycle-driven simulation driver with two clocking disciplines.
 *
 * A Simulation clocks one memory system; the system ticks its own
 * parts (the PVA front end its bank controllers and devices, in bank
 * order) under the same wake contract (core/memory_system.hh).
 * ClockingMode::Exhaustive is the reference stepper (tick the system
 * every cycle). ClockingMode::Event keeps the same processed cycles
 * semantically identical but skips spans where the system reports
 * itself quiescent: after ticking cycle C it takes the earlier of the
 * system's nextWakeAfter(C) and any externally requested wake, and
 * advances the clock directly there. The speedup comes purely from
 * not processing provably idle cycles. See docs/SIMULATION.md for the
 * wake contract and exactness argument.
 */

#ifndef PVA_SIM_SIMULATION_HH
#define PVA_SIM_SIMULATION_HH

#include <functional>
#include <queue>
#include <vector>

#include "sim/clocking.hh"
#include "sim/types.hh"

namespace pva
{

class MemorySystem;

/** Owns the clock of one memory system, which the caller keeps alive
 *  for the duration of the run. */
class Simulation
{
  public:
    /** Clock @p system under @p mode, which the system adopts
     *  (MemorySystem::setClocking). */
    explicit Simulation(MemorySystem &system,
                        ClockingMode mode = ClockingMode::Event);

    /** Current cycle (number of completed ticks). */
    Cycle now() const { return currentCycle; }

    /**
     * Schedule an external wake at @p cycle. Used by run predicates
     * (e.g. the traffic arbiter's open-loop arrival schedule) that
     * know about future work the system cannot see yet. Ignored under
     * Exhaustive clocking (every cycle is processed anyway), and for
     * cycles not strictly in the future.
     */
    void requestWake(Cycle cycle);

    /**
     * Advance exactly one cycle, ticking the system (legacy stepper
     * semantics regardless of clocking mode). White-box tests drive
     * the system manually through this.
     */
    void step();

    /**
     * Run until @p done returns true, checking at every processed
     * cycle.
     *
     * Two watchdogs guard against a hung model: a cycle budget and an
     * optional wall-clock budget. Either expiring throws
     * SimError(Watchdog) so callers — notably the sweep executor — can
     * report the point and move on instead of aborting the process.
     * Under Event clocking a jump is clamped to the cycle-budget edge,
     * so the watchdog observes the same cycle it would have under the
     * exhaustive stepper; a run with no pending wakes degrades to
     * stepping one cycle at a time until a watchdog fires, exactly as
     * the exhaustive stepper would on the same deadlock.
     *
     * As it returns or throws, after accounting its wall time, it
     * writes the counters below into the system's sim.* gauges
     * (MemorySystem::recordSimPerf).
     *
     * @param done              Completion predicate.
     * @param max_cycles        Simulated-cycle watchdog.
     * @param wall_limit_millis Wall-clock watchdog; 0 disables it.
     * @return the cycle count when @p done first held.
     */
    Cycle runUntil(const std::function<bool()> &done,
                   Cycle max_cycles = 100000000,
                   double wall_limit_millis = 0.0);

    /** @name Clocking performance counters
     * Accumulated across all runUntil calls on this instance.
     * @{ */
    /** Processed cycles (the system ticked). */
    std::uint64_t simTicks() const { return ticksProcessed; }
    /** Cycles skipped by event clocking (0 under Exhaustive). */
    std::uint64_t cyclesSkipped() const { return skippedCycles; }
    /** Wall-clock time spent inside runUntil, in milliseconds. */
    double wallMillis() const { return accumWallMillis; }
    /** Simulated cycles (processed + skipped) per wall-clock second. */
    std::uint64_t cyclesPerSecond() const;
    /** @} */

  private:
    MemorySystem &system;
    Cycle currentCycle = 0;
    ClockingMode mode;

    /** External wakes (min-heap); drained as the clock passes them. */
    std::priority_queue<Cycle, std::vector<Cycle>, std::greater<Cycle>>
        wakeHeap;

    std::uint64_t ticksProcessed = 0;
    std::uint64_t skippedCycles = 0;
    double accumWallMillis = 0.0;

    /** Trace track for clock/wake decisions ("sim" process). */
    std::uint32_t traceTrackId = 0;
};

} // namespace pva

#endif // PVA_SIM_SIMULATION_HH
