/**
 * @file
 * Scenario-file tests: the JSON → FleetConfig mapping, the strict
 * unknown-key/type rejection that keeps hand-written input honest,
 * and the one-line result document `pva_loadgen --scenario` emits.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "expect_sim_error.hh"
#include "fleet/scenario.hh"
#include "sim/json.hh"
#include "sim/sim_error.hh"

using namespace pva;

namespace
{

const char *kFull = R"({
  "kind": "fleet",
  "name": "capacity-a",
  "system": "cacheline",
  "policy": "priority",
  "aging": 2048,
  "clocking": "exhaustive",
  "check": true,
  "shards": 3,
  "seed": 42,
  "maxCycles": 123456,
  "shed": {"enabled": true, "deadline": 250, "watermark": 0.5},
  "tenants": [
    {"name": "web", "count": 4, "streamsPerTenant": 2,
     "regionStrideWords": 8192,
     "stream": {"mode": "open", "window": 6, "rate": 33.5,
                "requests": 77, "priority": 3, "queueCap": 9,
                "deadline": 111,
                "pattern": {"regionBase": 64, "regionWords": 8192,
                            "minStride": 2, "maxStride": 5,
                            "minLength": 16, "maxLength": 24,
                            "readFraction": 0.25, "indirect": true}}},
    {"name": "batch", "count": 1, "streamsPerTenant": 1}
  ]
})";

void
expectScenarioError(const std::string &text, const std::string &substr)
{
    test::expectSimError(
        [&] { fleet::parseScenarioText(text); }, SimErrorKind::Config,
        substr);
}

} // anonymous namespace

TEST(FleetScenario, FullDocumentMapsOntoFleetConfig)
{
    const fleet::Scenario sc = fleet::parseScenarioText(kFull);
    EXPECT_EQ(sc.name, "capacity-a");
    const fleet::FleetConfig &fc = sc.config;
    EXPECT_EQ(fc.system, SystemKind::CacheLine);
    EXPECT_EQ(fc.arbiter.policy, ArbPolicy::Priority);
    EXPECT_EQ(fc.arbiter.agingThreshold, 2048u);
    EXPECT_EQ(fc.config.clocking, ClockingMode::Exhaustive);
    EXPECT_TRUE(fc.config.timingCheck);
    EXPECT_EQ(fc.shards, 3u);
    EXPECT_EQ(fc.limits.maxCycles, 123456u);
    EXPECT_TRUE(fc.arbiter.shed.enabled);
    EXPECT_EQ(fc.arbiter.shed.defaultDeadline, 250u);
    EXPECT_DOUBLE_EQ(fc.arbiter.shed.queueHighWatermark, 0.5);

    ASSERT_EQ(fc.tenants.size(), 2u);
    const fleet::TenantSpec &web = fc.tenants[0];
    EXPECT_EQ(web.name, "web");
    EXPECT_EQ(web.count, 4u);
    EXPECT_EQ(web.streamsPerTenant, 2u);
    EXPECT_EQ(web.regionStrideWords, 8192u);
    EXPECT_EQ(web.stream.mode, ArrivalMode::OpenLoop);
    EXPECT_EQ(web.stream.window, 6u);
    EXPECT_DOUBLE_EQ(web.stream.requestsPerKilocycle, 33.5);
    EXPECT_EQ(web.stream.requests, 77u);
    EXPECT_EQ(web.stream.priority, 3u);
    EXPECT_EQ(web.stream.queueCapacity, 9u);
    EXPECT_EQ(web.stream.deadline, 111u);
    EXPECT_EQ(web.stream.seed, 42u); // top-level seed as template base
    EXPECT_EQ(web.stream.pattern.regionBase, 64u);
    EXPECT_EQ(web.stream.pattern.minStride, 2u);
    EXPECT_EQ(web.stream.pattern.maxStride, 5u);
    EXPECT_EQ(web.stream.pattern.minLength, 16u);
    EXPECT_EQ(web.stream.pattern.maxLength, 24u);
    EXPECT_DOUBLE_EQ(web.stream.pattern.readFraction, 0.25);
    EXPECT_EQ(web.stream.pattern.mode, VectorCommand::Mode::Indirect);

    // The minimal tenant rides on defaults.
    const fleet::TenantSpec &batch = fc.tenants[1];
    EXPECT_EQ(batch.name, "batch");
    EXPECT_EQ(batch.stream.mode, ArrivalMode::ClosedLoop);
    EXPECT_EQ(batch.stream.seed, 42u);
}

TEST(FleetScenario, MinimalDocumentUsesDefaults)
{
    const fleet::Scenario sc = fleet::parseScenarioText(
        "{\"kind\": \"fleet\", \"tenants\": [{}]}");
    EXPECT_EQ(sc.name, "fleet");
    EXPECT_EQ(sc.config.system, SystemKind::PvaSdram);
    EXPECT_EQ(sc.config.arbiter.policy, ArbPolicy::Fifo);
    EXPECT_EQ(sc.config.shards, 1u);
    ASSERT_EQ(sc.config.tenants.size(), 1u);
    EXPECT_EQ(sc.config.tenants[0].count, 1u);
    EXPECT_EQ(sc.config.tenants[0].streamsPerTenant, 1u);
}

TEST(FleetScenario, BackendKeyRoundTrips)
{
    const fleet::Scenario sc = fleet::parseScenarioText(
        "{\"kind\": \"fleet\", \"backend\": \"salp\", "
        "\"subarrays\": 8, \"refreshWindow\": 64, \"tenants\": [{}]}");
    EXPECT_EQ(sc.config.config.backend, MemBackend::Salp);
    EXPECT_EQ(sc.config.config.salpSubarrays, 8u);
    EXPECT_EQ(sc.config.config.refreshDeferWindow, 64u);

    // Absent key: the legacy part, exactly as before backends existed.
    const fleet::Scenario def = fleet::parseScenarioText(
        "{\"kind\": \"fleet\", \"tenants\": [{}]}");
    EXPECT_EQ(def.config.config.backend, MemBackend::Legacy);
}

TEST(FleetScenario, UnknownBackendValueIsRejectedWithItsPath)
{
    expectScenarioError(
        "{\"kind\": \"fleet\", \"backend\": \"hbm\", "
        "\"tenants\": [{}]}",
        "scenario.backend");
    expectScenarioError(
        "{\"kind\": \"fleet\", \"backend\": 3, \"tenants\": [{}]}",
        "backend");
}

TEST(FleetScenario, UnknownNamesListTheirTableInOrder)
{
    expectScenarioError(
        "{\"kind\": \"fleet\", \"system\": \"hbm\", \"tenants\": [{}]}",
        "unknown scenario.system 'hbm' (try: pva cacheline gathering "
        "sram)");
    expectScenarioError(
        "{\"kind\": \"fleet\", \"policy\": \"roundrobin\", "
        "\"tenants\": [{}]}",
        "unknown scenario.policy 'roundrobin' (try: fifo rr priority)");
    expectScenarioError(
        "{\"kind\": \"fleet\", \"clocking\": \"warp\", \"tenants\": [{}]}",
        "unknown scenario.clocking 'warp' (try: exhaustive event)");
    expectScenarioError(
        "{\"kind\": \"fleet\", \"backend\": \"hbm\", \"tenants\": [{}]}",
        "unknown scenario.backend 'hbm' (try: legacy salp deferred)");
    expectScenarioError(
        "{\"kind\": \"fleet\", \"tenants\": "
        "[{}, {\"stream\": {\"mode\": \"burst\"}}]}",
        "unknown scenario.tenants[1].stream.mode 'burst' (try: closed "
        "open)");
}

TEST(FleetScenario, UnknownKeysAreRejectedWithTheirPath)
{
    expectScenarioError(
        "{\"kind\": \"fleet\", \"tenant\": []}", "tenant");
    expectScenarioError(
        "{\"kind\": \"fleet\", \"tenants\": [{\"streams\": 4}]}",
        "streams");
    expectScenarioError(
        "{\"kind\": \"fleet\", \"tenants\": "
        "[{\"stream\": {\"rps\": 4}}]}",
        "rps");
    expectScenarioError(
        "{\"kind\": \"fleet\", \"tenants\": "
        "[{\"stream\": {\"pattern\": {\"stride\": 4}}}]}",
        "stride");
    expectScenarioError(
        "{\"kind\": \"fleet\", \"shed\": {\"deadlines\": 5}, "
        "\"tenants\": [{}]}",
        "deadlines");
    // Fleets always keep per-tenant aggregates; the retired opt-in to
    // per-stream detail is an unknown key like any other.
    expectScenarioError(
        "{\"kind\": \"fleet\", \"perStreamStats\": false, "
        "\"tenants\": [{}]}",
        "unknown key 'perStreamStats' in scenario");
}

TEST(FleetScenario, WrongKindsAndTypesAreRejected)
{
    expectScenarioError("[]", "object");
    expectScenarioError("{\"tenants\": [{}]}", "kind");
    expectScenarioError(
        "{\"kind\": \"traffic\", \"tenants\": [{}]}", "kind");
    expectScenarioError(
        "{\"kind\": \"fleet\", \"tenants\": {}}", "tenants");
    expectScenarioError(
        "{\"kind\": \"fleet\", \"tenants\": []}", "tenants");
    expectScenarioError(
        "{\"kind\": \"fleet\", \"shards\": 0, \"tenants\": [{}]}",
        "shards");
    expectScenarioError(
        "{\"kind\": \"fleet\", \"shards\": -2, \"tenants\": [{}]}",
        "shards");
    expectScenarioError(
        "{\"kind\": \"fleet\", \"system\": \"vax\", "
        "\"tenants\": [{}]}",
        "vax");
    expectScenarioError(
        "{\"kind\": \"fleet\", \"policy\": \"lifo\", "
        "\"tenants\": [{}]}",
        "lifo");
    expectScenarioError(
        "{\"kind\": \"fleet\", \"clocking\": \"warp\", "
        "\"tenants\": [{}]}",
        "warp");
    expectScenarioError(
        "{\"kind\": \"fleet\", \"tenants\": "
        "[{\"stream\": {\"mode\": \"batch\"}}]}",
        "mode");
    expectScenarioError(
        "{\"kind\": \"fleet\", \"tenants\": "
        "[{\"stream\": {\"pattern\": {\"readFraction\": 1.5}}}]}",
        "readFraction");
    expectScenarioError(
        "{\"kind\": \"fleet\", \"tenants\": [{\"count\": 0}]}",
        "count");
    expectScenarioError("{\"kind\": \"fleet\", \"tenants\"",
                        "parse failed");
}

TEST(FleetScenario, ResultLineIsVersionedAndSingleLine)
{
    fleet::Scenario sc;
    sc.name = "smoke \"quoted\"";
    fleet::FleetResult r;
    r.cycles = 10;
    r.shards = 1;
    std::ostringstream os;
    fleet::writeScenarioResult(os, sc, r);
    const std::string line = os.str();
    EXPECT_EQ(line.find("{\"schemaVersion\": 1, "
                        "\"tool\": \"pva_loadgen\", "
                        "\"scenario\": \"smoke \\\"quoted\\\"\", "
                        "\"fleet\": {"),
              0u);
    EXPECT_EQ(line.back(), '\n');
    EXPECT_EQ(line.find('\n'), line.size() - 1); // exactly one line
}

TEST(FleetScenario, ResultLineEscapesTenantNames)
{
    // A tenant named a"b reports as a"b0: the result line must still
    // parse, and give the name back intact.
    fleet::Scenario sc = fleet::parseScenarioText(
        R"({"kind": "fleet", "name": "esc", "tenants": [{"name": "a\"b",
            "count": 1, "streamsPerTenant": 1,
            "stream": {"requests": 4}}]})");
    sc.config.jobs = 1;
    std::ostringstream os;
    fleet::writeScenarioResult(os, sc, fleet::runFleet(sc.config));

    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::parse(os.str(), doc, error))
        << error << "\n" << os.str();
    const json::Value *fleet_result = doc.find("fleet");
    ASSERT_NE(fleet_result, nullptr);
    const json::Value *tenants = fleet_result->find("tenantResults");
    ASSERT_NE(tenants, nullptr);
    ASSERT_EQ(tenants->array().size(), 1u);
    const json::Value *name = tenants->array()[0].find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name->string(), "a\"b0");
}

TEST(FleetScenario, ClashingTenantNamesAreRefused)
{
    // Spec "a1" names its one tenant "a1" + index 0, and the eleventh
    // tenant of spec "a" is "a" + index 10: both "a10".
    fleet::Scenario sc = fleet::parseScenarioText(
        R"({"kind": "fleet", "tenants": [
            {"name": "a1", "count": 1, "streamsPerTenant": 1,
             "stream": {"requests": 2}},
            {"name": "a", "count": 11, "streamsPerTenant": 1,
             "stream": {"requests": 2}}]})");
    sc.config.jobs = 1;
    test::expectSimError([&] { fleet::runFleet(sc.config); },
                         SimErrorKind::Config,
                         "tenant specs 'a1' and 'a' both name a tenant "
                         "'a10'");
}
