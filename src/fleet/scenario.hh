/**
 * @file
 * Fleet scenario files: JSON in, FleetConfig out, result JSON back.
 *
 * A scenario is one JSON document describing a whole fleet run —
 * system, arbitration policy, shedding, sharding, and the tenant
 * groups — so capacity-planning runs are reviewable artifacts instead
 * of flag soup (`pva_loadgen --scenario FILE`). Parsing is strict
 * (json::Reader): unknown keys, wrong types, and out-of-range values
 * all throw SimError(Config) with the offending key path, so a typo
 * fails loudly instead of silently running the default.
 *
 * The canonical shape (all keys except "kind" and "tenants" optional):
 *
 *   {
 *     "kind": "fleet",
 *     "name": "capacity-a",
 *     "system": "pva",
 *     "policy": "fifo",
 *     "aging": 1024,
 *     "clocking": "event",
 *     "check": false,
 *     "shards": 4,
 *     "seed": 1,
 *     "maxCycles": 50000000,
 *     "shed": {"enabled": true, "deadline": 200, "watermark": 0.75},
 *     "tenants": [
 *       {"name": "web", "count": 8, "streamsPerTenant": 4,
 *        "regionStrideWords": 4096,
 *        "stream": {"mode": "closed", "window": 4, "rate": 10.0,
 *                   "requests": 256, "priority": 0, "queueCap": 16,
 *                   "deadline": 0,
 *                   "pattern": {"regionBase": 0, "regionWords": 4096,
 *                               "minStride": 1, "maxStride": 8,
 *                               "minLength": 8, "maxLength": 8,
 *                               "readFraction": 1.0,
 *                               "indirect": false}}}
 *     ]
 *   }
 *
 * Execution knobs that belong to the invoking machine, not the
 * workload — worker threads, retry budget — stay on the command line;
 * callers set FleetConfig::jobs/retries after parsing.
 */

#ifndef PVA_FLEET_SCENARIO_HH
#define PVA_FLEET_SCENARIO_HH

#include <iosfwd>
#include <string>

#include "fleet/fleet_runner.hh"
#include "sim/json.hh"

namespace pva::fleet
{

/** A parsed scenario: its display name plus the run configuration. */
struct Scenario
{
    std::string name = "fleet";
    FleetConfig config;
};

/** Convert a parsed JSON document. Throws SimError(Config). */
Scenario parseScenario(const json::Value &doc);

/** Parse @p text as JSON and convert. Throws SimError(Config). */
Scenario parseScenarioText(const std::string &text);

/** Read @p path, parse, convert. Throws SimError(Config) on IO or
 *  parse failure. */
Scenario loadScenarioFile(const std::string &path);

/**
 * Write the versioned result document for one scenario run — one
 * line, newline-terminated:
 *   {"schemaVersion": 1, "tool": "pva_loadgen", "scenario": "...",
 *    "fleet": {...}}
 * One line per run, so a shell loop over --scenario files yields a
 * JSONL stream.
 */
void writeScenarioResult(std::ostream &os, const Scenario &scenario,
                         const FleetResult &result);

} // namespace pva::fleet

#endif // PVA_FLEET_SCENARIO_HH
