/**
 * @file
 * Isolated layer probes: each times one public function of one layer
 * on inputs drawn from the workload and the seed, reported per call
 * (ns) or per operation (ms). Each figure is the median over several
 * batches.
 *
 * Arbitration is timed against NullSystem, a MemorySystem that
 * completes every command the moment it is submitted, so the figure
 * is the cost of a grant alone — no memory system, no construction.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fleet/fleet_runner.hh"
#include "traffic/stream.hh"

namespace perfbench
{

/**
 * FirstHit (PLA lookup, sub-vector), device (canIssue, issue), one
 * bank controller's tick, and StatSet::dumpJson of a finished PVA
 * system, on line-sized commands at the workload's @p strides from
 * seeded bases: firsthit.pla_lookup_ns, firsthit.subvector_ns,
 * dev.can_issue_ns, dev.issue_ns, bc.tick_ns, stats.dump_json_ms.
 */
void runCoreProbes(const std::vector<std::uint32_t> &strides,
                   std::uint64_t seed, std::map<std::string, double> &out);

/** StreamArbiter::service per grant over @p streams, closed loop:
 *  traffic.arbiter_service_ns. */
void probeStreamArbiter(const std::vector<pva::StreamConfig> &streams,
                        std::map<std::string, double> &out);

/** FleetArbiter construction over every seat of @p fleet, and
 *  FleetArbiter::service per grant: fleet.arbiter_build_ms,
 *  fleet.arbiter_service_ns. */
void probeFleetArbiter(const pva::fleet::FleetConfig &fleet,
                       std::map<std::string, double> &out);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
