/**
 * @file
 * Reductions shared by the workloads: percentiles, and summing a PVA
 * system's per-bank statistics into the per-layer counts.
 *
 * Counts come only from public results: a PVA system's public counters
 * and MemorySystem::stats() (or its text dump, which is how runTraffic
 * hands it out), RunResult, TrafficResult and FleetResult. Helper keys
 * that only feed a ratio start with '_' and are removed by
 * finishLayerRatios().
 */

#ifndef PERFBENCH_COUNTS_HH
#define PERFBENCH_COUNTS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/memory_system.hh"
#include "workload.hh"

namespace perfbench
{

/** Nearest-rank percentile @p p (0..100) of @p values; 0 if empty. */
std::uint64_t percentileOf(std::vector<std::uint64_t> values, double p);

/** Linear-interpolated quantile @p q (0..1) of @p values; 0 if empty. */
double quantileOf(std::vector<double> values, double q);

inline double
medianOf(std::vector<double> values)
{
    return quantileOf(std::move(values), 0.5);
}

/** Parse a StatSet::dump() text ("name value" lines) into a map of the
 *  integer-valued entries. */
std::map<std::string, std::uint64_t> parseStatDump(const std::string &text);

/**
 * Add one finished system's statistics to @p layer when it is a PVA
 * system: front end, bank controllers and devices summed over banks,
 * bus cycles, and @p cycles simulated cycles as the utilization
 * denominator. Other systems add nothing.
 */
void addPvaStats(pva::MemorySystem &sys, std::uint64_t cycles,
                 std::map<std::string, double> &layer);

/** As above, from a parsed StatSet::dump(). */
void addPvaStats(const std::map<std::string, std::uint64_t> &dump,
                 unsigned banks, std::uint64_t cycles,
                 std::map<std::string, double> &layer);

/** Add processed and skipped cycles of one simulation. */
void addSimCycles(std::uint64_t ticks, std::uint64_t skipped,
                  std::map<std::string, double> &layer);

/** Derive the ratio metrics and drop the '_' helper keys. */
void finishLayerRatios(std::map<std::string, double> &layer);

/** Copy every integer-valued layer count into @p r's signature. */
void signLayerCounts(PassResult &r);

} // namespace perfbench

#endif // PERFBENCH_COUNTS_HH
