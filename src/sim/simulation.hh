/**
 * @file
 * Cycle-driven simulation driver with two clocking disciplines.
 *
 * ClockingMode::Exhaustive is the reference stepper (tick every
 * component every cycle). ClockingMode::Event keeps the same processed
 * cycles semantically identical but skips spans where every component
 * reports itself quiescent: after ticking cycle C it computes the
 * minimum of each component's nextWakeAfter(C) and any externally
 * requested wakes, and advances the clock directly there. Both modes
 * tick *all* registered components at every processed cycle, in
 * registration order, so intra-cycle signal visibility is untouched;
 * the speedup comes purely from not processing provably idle cycles.
 * See docs/SIMULATION.md for the wake contract and exactness argument.
 */

#ifndef PVA_SIM_SIMULATION_HH
#define PVA_SIM_SIMULATION_HH

#include <functional>
#include <queue>
#include <vector>

#include "sim/clocking.hh"
#include "sim/component.hh"
#include "sim/types.hh"

namespace pva
{

/**
 * Owns the clock and ticks registered components in registration order.
 *
 * Components are not owned by the Simulation; the caller keeps them alive
 * for the duration of the run. This mirrors the structural composition of
 * the hardware: the top level wires up subcomponents, then the clock runs.
 */
class Simulation
{
  public:
    explicit Simulation(ClockingMode mode = ClockingMode::Event);

    /**
     * Register a component. Order of registration is tick order.
     *
     * A PvaUnit is recognized once here (one dynamic_cast per
     * registration) so the per-cycle tick/wake loops call its final
     * methods directly instead of through three virtual calls per
     * processed cycle; every other component takes the virtual path.
     * A PvaUnit also adopts this simulation's clocking
     * (PvaUnit::setClocking).
     */
    void add(Component *c);

    /** Current cycle (number of completed ticks). */
    Cycle now() const { return currentCycle; }

    /** Clocking discipline this simulation runs under. */
    ClockingMode clocking() const { return mode; }

    /**
     * Schedule an external wake at @p cycle. Used by run predicates
     * (e.g. the traffic arbiter's open-loop arrival schedule) that
     * know about future work no registered component can see yet.
     * Ignored under Exhaustive clocking (every cycle is processed
     * anyway), and for cycles not strictly in the future.
     */
    void requestWake(Cycle cycle);

    /**
     * Advance exactly one cycle, ticking every component (legacy
     * stepper semantics regardless of clocking mode). White-box tests
     * drive components manually through this.
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
    /** Processed cycles (every component ticked). */
    std::uint64_t simTicks() const { return ticksProcessed; }
    /** Cycles skipped by event clocking (0 under Exhaustive). */
    std::uint64_t cyclesSkipped() const { return skippedCycles; }
    /** Wall-clock time spent inside runUntil, in milliseconds. */
    double wallMillis() const { return accumWallMillis; }
    /** Simulated cycles (processed + skipped) per wall-clock second. */
    std::uint64_t cyclesPerSecond() const;
    /** @} */

  private:
    /** Concrete component type, resolved at registration (see add()). */
    enum class CompKind : std::uint8_t
    {
        Generic, ///< Virtual dispatch
        Pva,     ///< PvaUnit (hot virtuals are final)
    };

    /** One registered component with its pre-resolved dispatch tag. */
    struct TickEntry
    {
        Component *c;
        CompKind kind;
    };

    static void tickOne(const TickEntry &e, Cycle now);
    static void beginOne(const TickEntry &e, Cycle now);
    static Cycle wakeOne(const TickEntry &e, Cycle now);

    std::vector<TickEntry> components;
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
