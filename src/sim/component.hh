/**
 * @file
 * Base class for clocked hardware components.
 *
 * The simulator is cycle-driven. A Simulation clocks one memory system
 * (itself a Component) by calling its tick() at every *processed*
 * cycle; the system ticks its own parts under the same wake contract.
 * The PVA front end drives the vector bus, then its bank controllers,
 * in bank order, sample the broadcast in the same cycle (section
 * 5.2.6) and clock their devices.
 *
 * Under ClockingMode::Event (sim/clocking.hh) not every cycle is
 * processed: after ticking a cycle, the Simulation asks the system's
 * nextWakeAfter() and jumps the clock directly to the earliest wake
 * (the system's own answer folds in its parts', as the PVA front end's
 * running minimum of its controllers' wakes does), or to an external
 * wake if that comes first. The wake contract a component must honor:
 *
 *  - nextWakeAfter(now) returns the earliest future cycle at which the
 *    component could change observable state, given no external input.
 *    Returning kNeverCycle means "quiescent until someone drives me".
 *    Waking *early* is always safe (an extra tick must be a no-op);
 *    waking *late* breaks cycle-exactness.
 *  - A tick that changed state *another component reads* must be
 *    followed by a processed cycle at now + 1 — the component's own
 *    wake or its reader's — so the reader samples the change on the
 *    next cycle exactly as the exhaustive stepper would. State only
 *    the component itself reads needs no such wake: its next action
 *    is already bounded by the timers that state arms. (The bank
 *    controller is the example: its queues, rows and restimers are
 *    private, so it wakes when its next command can issue; only
 *    completing its share of a transaction — its edge on the wired-OR
 *    transaction-complete line, which the front end counts down — can
 *    need a processed cycle at now + 1, and the front end, as owner
 *    and reader, asks for it when the line deasserts. The simplest
 *    correct choice, now + 1 after any work, remains valid
 *    everywhere.)
 *  - The default (now + 1) keeps unconverted components on the legacy
 *    every-cycle schedule, which is always correct, just slower.
 *
 * onCycleBegin() runs at the top of each processed cycle, before the
 * run predicate and before any tick. Components use it to settle
 * bookkeeping that the exhaustive stepper got for free from being
 * ticked every cycle (e.g. crediting per-cycle occupancy stats for the
 * cycles skipped since the last tick).
 */

#ifndef PVA_SIM_COMPONENT_HH
#define PVA_SIM_COMPONENT_HH

#include <string>
#include <utility>

#include "sim/types.hh"

namespace pva
{

/**
 * A clocked component. Derived classes implement tick(), which is called
 * once per processed simulated cycle.
 */
class Component
{
  public:
    explicit Component(std::string name) : componentName(std::move(name)) {}
    virtual ~Component() = default;

    Component(const Component &) = delete;
    Component &operator=(const Component &) = delete;

    /** Advance this component by one clock cycle. */
    virtual void tick(Cycle cycle) = 0;

    /**
     * Earliest future cycle (> @p now) at which this component could
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

    /** Instance name, used in stats and diagnostics. */
    const std::string &name() const { return componentName; }

    /**
     * @name Trace track handle
     * The owning system assigns each component a trace track id at
     * construction (sim/trace.hh); 0 means untraced — either tracing
     * is off, no session is installed, or the component was excluded
     * by --trace-filter. Plain data, present in all builds, so wiring
     * code needs no conditional compilation.
     * @{
     */
    void setTraceTrack(std::uint32_t id) { traceTrackId = id; }
    std::uint32_t traceTrack() const { return traceTrackId; }
    /** @} */

  private:
    std::string componentName;
    std::uint32_t traceTrackId = 0;
};

} // namespace pva

#endif // PVA_SIM_COMPONENT_HH
