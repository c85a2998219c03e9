#include "sim/simulation.hh"

#include <chrono>

#include "core/memory_system.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"
#include "sim/trace.hh"

namespace pva
{

namespace
{

using SteadyClock = std::chrono::steady_clock;

double
millisSince(SteadyClock::time_point start)
{
    return std::chrono::duration<double, std::milli>(SteadyClock::now() -
                                                     start)
        .count();
}

} // anonymous namespace

Simulation::Simulation(MemorySystem &system_, ClockingMode mode)
    : system(system_), mode(mode)
{
    system.setClocking(mode);
    PVA_TRACE_BLOCK(
        if (trace::TraceSession *s = trace::session())
            traceTrackId = s->registerTrack("sim", "clock"););
}

void
Simulation::step()
{
    system.tick(currentCycle);
    ++currentCycle;
    ++ticksProcessed;
}

void
Simulation::requestWake(Cycle cycle)
{
    // Exhaustive clocking processes every cycle anyway; dropping the
    // request keeps the heap from growing without bound under
    // predicates that re-post their schedule every cycle.
    if (mode == ClockingMode::Exhaustive)
        return;
    if (cycle == kNeverCycle || cycle <= currentCycle)
        return;
    wakeHeap.push(cycle);
}

std::uint64_t
Simulation::cyclesPerSecond() const
{
    if (accumWallMillis <= 0.0)
        return 0;
    double cycles =
        static_cast<double>(ticksProcessed + skippedCycles);
    return static_cast<std::uint64_t>(cycles * 1000.0 /
                                      accumWallMillis);
}

Cycle
Simulation::runUntil(const std::function<bool()> &done, Cycle max_cycles,
                     double wall_limit_millis)
{
    // Check the wall clock only once per stripe of work; a
    // steady_clock read per processed cycle would dominate the run.
    // The stripe is capped both in loop iterations (many same-cycle
    // external wakes) and in advanced cycles (event skips can cross
    // millions of cycles in one iteration).
    constexpr std::uint64_t kWallCheckStride = 4096;

    const Cycle start = currentCycle;
    // Saturating budget edge: event jumps are clamped here so the
    // cycle watchdog observes the same cycle as the exhaustive stepper.
    const Cycle limit = max_cycles > kNeverCycle - start
                            ? kNeverCycle
                            : start + max_cycles;

    // Account the wall time, then write the system's gauges, also
    // when a watchdog throws.
    struct Finish
    {
        Simulation &sim;
        const SteadyClock::time_point started = SteadyClock::now();
        ~Finish()
        {
            sim.accumWallMillis += millisSince(started);
            sim.system.recordSimPerf(sim.ticksProcessed, sim.skippedCycles,
                                     sim.cyclesPerSecond());
        }
    } finish{*this};
    // Force a wall check on the first iteration, matching the legacy
    // stepper's (cycle - start) % stride == 0 cadence at cycle 0.
    std::uint64_t iters_since = kWallCheckStride;
    std::uint64_t cycles_since = 0;

    while (true) {
        system.onCycleBegin(currentCycle);
        if (done())
            return currentCycle;
        if (currentCycle - start >= max_cycles) {
            throw SimError(SimErrorKind::Watchdog, "simulation",
                           currentCycle,
                           csprintf("cycle watchdog expired after %llu "
                                    "cycles",
                                    static_cast<unsigned long long>(
                                        max_cycles)));
        }
        if (wall_limit_millis > 0.0 &&
            (iters_since >= kWallCheckStride ||
             cycles_since >= kWallCheckStride)) {
            iters_since = 0;
            cycles_since = 0;
            double elapsed_ms = millisSince(finish.started);
            if (elapsed_ms >= wall_limit_millis) {
                throw SimError(
                    SimErrorKind::Watchdog, "simulation", currentCycle,
                    csprintf("wall-clock watchdog expired after %.0f ms "
                             "(%llu cycles simulated)",
                             elapsed_ms,
                             static_cast<unsigned long long>(
                                 currentCycle - start)));
            }
        }

        system.tick(currentCycle);
        ++ticksProcessed;

        Cycle next = currentCycle + 1;
        if (mode == ClockingMode::Event) {
            next = system.nextWakeAfter(currentCycle);
            while (!wakeHeap.empty() && wakeHeap.top() <= currentCycle)
                wakeHeap.pop();
            // Ties go to the system, so the trace attributes the wake
            // to it.
            const bool external =
                !wakeHeap.empty() && wakeHeap.top() < next;
            if (external)
                next = wakeHeap.top();
            // No pending wake anywhere: the model is deadlocked. Step
            // one cycle at a time so the watchdogs fire exactly as
            // they would under the exhaustive stepper.
            if (next == kNeverCycle)
                next = currentCycle + 1;
            if (next > limit)
                next = limit;
            if (next <= currentCycle)
                next = currentCycle + 1;
            skippedCycles += next - currentCycle - 1;
            PVA_TRACE_BLOCK(
                if (trace::session() && next > currentCycle + 1) {
                    Cycle skipped = next - currentCycle - 1;
                    PVA_TRACE_INSTANT(traceTrackId, currentCycle,
                                      "skip", "cycles", skipped, "to",
                                      next);
                    if (!external) {
                        PVA_TRACE_INSTANT(system.traceTrack(), next,
                                          "wake", "skipped", skipped);
                    } else {
                        PVA_TRACE_INSTANT(traceTrackId, next,
                                          "extern_wake", "skipped",
                                          skipped);
                    }
                });
        }
        cycles_since += next - currentCycle;
        ++iters_since;
        currentCycle = next;
    }
}

} // namespace pva
