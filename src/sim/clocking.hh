/**
 * @file
 * Clocking discipline of a Simulation (docs/SIMULATION.md).
 *
 * Exhaustive is the legacy reference stepper: the memory system (and
 * every PVA bank controller) ticks every cycle. Event is the
 * wake-scheduled fast path: the Simulation asks the system how long it
 * is quiescent (MemorySystem::nextWakeAfter, under the wake contract
 * of core/memory_system.hh), merges in externally requested wakes
 * (Simulation::requestWake), and advances the clock directly to the
 * earliest pending wake — skipping the idle cycles in between. The two
 * modes are cycle-exact equivalents; the differential tests
 * (tests/test_event_clocking.cc) hold them to byte-identical stats.
 */

#ifndef PVA_SIM_CLOCKING_HH
#define PVA_SIM_CLOCKING_HH

#include <string>

#include "sim/vocabulary.hh"

namespace pva
{

/** How Simulation::runUntil advances the clock. */
enum class ClockingMode
{
    Exhaustive, ///< Tick the system every cycle (reference)
    Event,      ///< Skip to the earliest pending wake (default)
};

/** The name table: "exhaustive", "event". */
const Vocabulary<ClockingMode> &clockingModes();

/** clockingModes().name(@p mode) */
const char *clockingModeName(ClockingMode mode);

} // namespace pva

#endif // PVA_SIM_CLOCKING_HH
