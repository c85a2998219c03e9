/**
 * @file
 * Stat-dump filtering shared by the differential tests: two runs that
 * must be cycle-exact are compared on everything but the "sim.*"
 * gauges, which count the stepper's own work (processed cycles, bank
 * controller ticks) or its wall-clock rate and so legitimately differ
 * between clocking modes.
 */

#ifndef PVA_TESTS_STAT_DUMP_HH
#define PVA_TESTS_STAT_DUMP_HH

#include <sstream>
#include <string>

#include "sim/stats.hh"

namespace pva::test
{

/** @p dump (one "name value" line per stat) without its "sim.*" lines. */
inline std::string
withoutSimGauges(const std::string &dump)
{
    std::istringstream in(dump);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("sim.", 0) != 0)
            out << line << '\n';
    }
    return out.str();
}

/** The text dump of @p set without its "sim.*" gauges. */
inline std::string
withoutSimGauges(const StatSet &set)
{
    std::ostringstream raw;
    set.dump(raw);
    return withoutSimGauges(raw.str());
}

} // namespace pva::test

#endif // PVA_TESTS_STAT_DUMP_HH
