/**
 * @file
 * Committed outputs of the traffic and fleet layers, held byte for
 * byte like the chapter 6 grid CSV:
 *
 *  - tests/expected/traffic_ladder.csv: runLoadSweep + writeLoadCsv on
 *    all four memory systems, with strided read/write, strided
 *    write-only and indirect streams at loads 5-60, then one shed-on
 *    ladder;
 *  - tests/expected/fleet.json: FleetResult::dumpJson of a small
 *    multi-tenant fleet under the priority and the round-robin policy,
 *    without the work counters (simTicks, cyclesSkipped) that count
 *    the stepper's processed cycles rather than simulated results.
 *
 * The event-vs-exhaustive differential tests compare the code with
 * itself, so a change that moves a result the same way under both
 * clockings passes them; these files pin the results themselves.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "fleet/fleet_runner.hh"
#include "golden.hh"
#include "traffic/traffic_runner.hh"

namespace pva
{
namespace
{

/** Three open-loop stream shapes: strided with a 30% write mix,
 *  strided writes only, and indirect gathers. */
std::vector<StreamConfig>
ladderStreams()
{
    std::vector<StreamConfig> streams;
    for (unsigned i = 0; i < 3; ++i) {
        StreamConfig s;
        s.mode = ArrivalMode::OpenLoop;
        s.requests = 96;
        s.seed = 31 + i;
        s.pattern.regionBase = static_cast<WordAddr>(i) << 16;
        s.pattern.regionWords = 1 << 16;
        s.pattern.minLength = 8;
        s.pattern.maxLength = 32;
        s.pattern.minStride = 1;
        s.pattern.maxStride = 64;
        if (i == 0) {
            s.pattern.readFraction = 0.7;
        } else if (i == 1) {
            s.pattern.readFraction = 0.0;
        } else {
            s.pattern.mode = VectorCommand::Mode::Indirect;
        }
        streams.push_back(s);
    }
    return streams;
}

TEST(OutputGolden, TrafficLadderMatchesTheCommittedCsv)
{
    LoadSweepConfig sweep;
    sweep.base.streams = ladderStreams();
    sweep.offeredLoads = {5, 20, 35, 50, 60};
    sweep.systems = {SystemKind::PvaSdram, SystemKind::CacheLine,
                     SystemKind::Gathering, SystemKind::PvaSram};
    sweep.jobs = 2;
    std::vector<LoadPoint> points = runLoadSweep(sweep);

    // The shed-on rung: past the knee, with deadline and overload
    // shedding both armed.
    sweep.offeredLoads = {60};
    sweep.base.arbiter.shed.enabled = true;
    sweep.base.arbiter.shed.defaultDeadline = 150;
    sweep.base.arbiter.shed.queueHighWatermark = 0.5;
    for (LoadPoint &p : runLoadSweep(sweep))
        points.push_back(std::move(p));

    for (const LoadPoint &p : points)
        ASSERT_FALSE(p.failed) << p.error;
    std::ostringstream csv;
    writeLoadCsv(csv, points);
    test::expectMatchesGolden(csv.str(), PVA_TRAFFIC_LADDER_CSV);
}

/** Two tenant groups: latency-sensitive closed-loop readers at a high
 *  priority and open-loop batch streams with writes. */
fleet::FleetConfig
smallFleet(ArbPolicy policy)
{
    fleet::FleetConfig fc;
    fc.arbiter.policy = policy;
    fc.arbiter.agingThreshold = 256;
    fc.shards = 2;
    fc.jobs = 2;

    fleet::TenantSpec web;
    web.name = "web";
    web.count = 3;
    web.streamsPerTenant = 2;
    web.stream.mode = ArrivalMode::ClosedLoop;
    web.stream.window = 2;
    web.stream.requests = 48;
    web.stream.priority = 2;
    web.stream.seed = 5;
    web.stream.pattern.regionWords = 1 << 14;
    web.stream.pattern.minLength = 8;
    web.stream.pattern.maxLength = 32;
    web.stream.pattern.maxStride = 19;
    web.regionStrideWords = 1 << 14;
    fc.tenants.push_back(web);

    fleet::TenantSpec batch = web;
    batch.name = "batch";
    batch.count = 2;
    batch.stream.mode = ArrivalMode::OpenLoop;
    batch.stream.requestsPerKilocycle = 30.0;
    batch.stream.requests = 64;
    batch.stream.queueCapacity = 8;
    batch.stream.priority = 0;
    batch.stream.seed = 11;
    batch.stream.pattern.readFraction = 0.6;
    batch.stream.pattern.regionBase = 1 << 20;
    fc.tenants.push_back(batch);
    return fc;
}

/** dumpJson of @p r without its processed-cycle work counters. */
std::string
resultsOnly(const fleet::FleetResult &r)
{
    std::ostringstream os;
    r.dumpJson(os);
    std::string json = os.str();
    for (const char *key : {"\"simTicks\": ", "\"cyclesSkipped\": "}) {
        const std::size_t at = json.find(key);
        if (at != std::string::npos)
            json.erase(at, json.find(", ", at) + 2 - at);
    }
    return json;
}

TEST(OutputGolden, FleetRunMatchesTheCommittedJson)
{
    fleet::FleetConfig rr = smallFleet(ArbPolicy::RoundRobin);
    rr.arbiter.shed.enabled = true;
    rr.arbiter.shed.defaultDeadline = 300;
    rr.arbiter.shed.queueHighWatermark = 0.75;

    const std::string json =
        "{\"priority\": " +
        resultsOnly(fleet::runFleet(smallFleet(ArbPolicy::Priority))) +
        ",\n \"roundRobin\": " + resultsOnly(fleet::runFleet(rr)) +
        "}\n";
    test::expectMatchesGolden(json, PVA_FLEET_JSON);
}

} // anonymous namespace
} // namespace pva
