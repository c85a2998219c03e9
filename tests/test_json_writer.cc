/**
 * @file
 * json::Writer and every document written through it. The writer
 * tests pin its layouts, separators and number formats byte for byte;
 * the round-trip tests feed each writer names and error texts holding
 * a quote, a backslash, a newline, a tab, a 0x01 byte and non-ASCII
 * UTF-8, and check that json::parse accepts the document with every
 * string intact: stat dumps, the config codec, repro capsules, sweep
 * reports, traffic, load-sweep and fleet results, the scenario result
 * line, the tools' envelope (including the run, replay and repro
 * sections pva_sim and pva_replay write) and, in traced builds, the
 * Perfetto export.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/system_config.hh"
#include "fleet/fleet_runner.hh"
#include "fleet/scenario.hh"
#include "kernels/repro_capsule.hh"
#include "kernels/sweep_executor.hh"
#include "sim/json.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "tool_app.hh"
#include "traffic/traffic_runner.hh"

namespace pva
{
namespace
{

/** A string every writer must carry through intact. */
const std::string kNasty = "q\"b\\s\nn\tt\x01u\xc3\xa9";

json::Value
parseOk(const std::string &text)
{
    json::Value v;
    std::string error;
    EXPECT_TRUE(json::parse(text, v, error)) << error << "\n" << text;
    return v;
}

/** The string at @p path (object keys) below @p v, or "<absent>". */
std::string
stringAt(const json::Value &v, std::initializer_list<std::string> path)
{
    const json::Value *at = &v;
    for (const std::string &key : path) {
        at = at->find(key);
        if (!at)
            return "<absent>";
    }
    return at->isString() ? at->string() : "<not a string>";
}

template <typename Fn>
std::string
written(Fn &&write)
{
    std::ostringstream os;
    write(os);
    return os.str();
}

TEST(JsonWriter, InlineLayoutSeparatorsAndNumbers)
{
    const std::string out = written([](std::ostream &os) {
        json::Writer w(os);
        w.beginObject().field("u", std::numeric_limits<std::uint64_t>::max());
        w.field("i", -7).field("t", true).field("f", false);
        w.field("mean", 281.4716).field("rate", 0.1).key("exact");
        w.exact(0.1).key("empty").beginArray().end().key("list");
        w.beginArray().value(1).value("a").beginObject().end().end();
        w.end().newline();
    });
    EXPECT_EQ(out, "{\"u\": 18446744073709551615, \"i\": -7, \"t\": true, "
                   "\"f\": false, \"mean\": 281.472, \"rate\": 0.1, "
                   "\"exact\": 0.10000000000000001, \"empty\": [], "
                   "\"list\": [1, \"a\", {}]}\n");
}

TEST(JsonWriter, BlockLayoutIndentsPerOpenBlock)
{
    constexpr auto block = json::Writer::Layout::Block;
    const std::string two = written([&](std::ostream &os) {
        json::Writer w(os);
        w.beginObject(block).field("n", 1).key("rows").beginArray(block);
        w.beginObject().field("a", 1).field("b", 2).end();
        w.beginObject().end().end().key("none").beginArray(block).end();
        w.key("inline").beginObject().key("deep").beginArray(block);
        w.value(3).end().end().end().newline();
    });
    EXPECT_EQ(two, "{\n  \"n\": 1,\n  \"rows\": [\n    {\"a\": 1, \"b\": 2},"
                   "\n    {}\n  ],\n  \"none\": [],\n  \"inline\": "
                   "{\"deep\": [\n    3\n  ]}\n}\n");

    // Indent 0 keeps every member at column 0 (the Perfetto layout).
    const std::string zero = written([&](std::ostream &os) {
        json::Writer w(os, 0);
        w.beginObject(block).key("e").beginArray(block).value(1).value(2);
        w.end().field("k", "v").end();
    });
    EXPECT_EQ(zero, "{\n\"e\": [\n1,\n2\n],\n\"k\": \"v\"\n}");
}

TEST(JsonWriter, NestedHandsTheNextValueToAnotherWriter)
{
    const std::string out = written([](std::ostream &os) {
        json::Writer outer(os);
        outer.beginObject().field("a", 1);
        json::Writer(outer.key("inner").nested())
            .beginArray().value(2).end().newline();
        outer.field("b", 3).end();
    });
    EXPECT_EQ(out, "{\"a\": 1, \"inner\": [2]\n, \"b\": 3}");
}

TEST(JsonWriter, EscapesKeysAndValues)
{
    const std::string out = written([](std::ostream &os) {
        json::Writer(os).beginObject().field(kNasty, kNasty).end();
    });
    const std::string lit = "\"q\\\"b\\\\s\\nn\\tt\\u0001u\xc3\xa9\"";
    EXPECT_EQ(out, "{" + lit + ": " + lit + "}");
    EXPECT_EQ(stringAt(parseOk(out), {kNasty}), kNasty);
}

TEST(JsonRoundTrip, StatSetDumpEscapesStatNames)
{
    Scalar scalar;
    scalar += 3;
    Distribution dist(4);
    dist.sample(9);
    LogHistogram hist;
    hist.sample(5);
    StatSet set;
    set.addScalar(kNasty, &scalar);
    set.addDistribution(kNasty, &dist);
    set.addHistogram(kNasty, &hist);
    const json::Value doc =
        parseOk(written([&](std::ostream &os) { set.dumpJson(os); }));
    bool ok = true;
    const json::Value *s = doc.find("scalars");
    ASSERT_TRUE(s && s->find(kNasty));
    EXPECT_EQ(s->find(kNasty)->asU64(ok), 3u);
    for (const char *section : {"distributions", "histograms"}) {
        const json::Value *d = doc.find(section);
        ASSERT_TRUE(d && d->find(kNasty)) << section;
        EXPECT_EQ(d->find(kNasty)->find("samples")->asU64(ok), 1u);
    }
    EXPECT_TRUE(ok);
}

TEST(JsonRoundTrip, ConfigAndCapsule)
{
    const SystemConfig config;
    const json::Value cfg = parseOk(configToJson(config));
    EXPECT_TRUE(configFromJson(json::Reader(cfg, "", {"config", ""})) ==
                config);

    ReproCapsule capsule;
    capsule.error = kNasty;
    const json::Value doc = parseOk(
        written([&](std::ostream &os) { writeCapsule(os, capsule); }));
    EXPECT_EQ(stringAt(doc, {"error"}), kNasty);
    const std::string file = testing::TempDir() + "roundtrip-capsule.json";
    writeCapsuleFile(file, capsule);
    EXPECT_EQ(loadCapsule(file).error, kNasty);
}

TEST(JsonRoundTrip, SweepReportCarriesErrorsAndCapsulePaths)
{
    SweepReport report;
    report.points.push_back({SystemKind::PvaSdram, KernelId::Copy, 1, 0,
                             0, 0});
    TaskFailure failure;
    failure.error = kNasty;
    report.failures.push_back(failure);
    QuarantineRecord q;
    q.error = kNasty;
    q.capsulePath = kNasty + ".json";
    report.quarantine.push_back(q);
    const json::Value doc = parseOk(
        written([&](std::ostream &os) { report.dumpJson(os); }));
    ASSERT_EQ(doc.find("failures")->array().size(), 1u);
    EXPECT_EQ(stringAt(doc.find("failures")->array()[0], {"error"}),
              kNasty);
    const json::Value &rec = doc.find("quarantine")->array()[0];
    EXPECT_EQ(stringAt(rec, {"error"}), kNasty);
    EXPECT_EQ(stringAt(rec, {"capsule"}), kNasty + ".json");
}

TEST(JsonRoundTrip, TrafficLoadAndFleetResultsCarryNames)
{
    TrafficResult traffic;
    traffic.streams.push_back({});
    traffic.streams[0].name = kNasty;
    const json::Value t = parseOk(
        written([&](std::ostream &os) { traffic.dumpJson(os); }));
    EXPECT_EQ(stringAt(t.find("streams")->array()[0], {"name"}), kNasty);
    EXPECT_TRUE(t.find("totalLatency")->find("p999"));

    LoadPoint point;
    point.result = traffic;
    const json::Value load = parseOk(written([&](std::ostream &os) {
        writeLoadJson(os, {point, point});
    }));
    const auto &points = load.find("points")->array();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(stringAt(points[1].find("result")->find("streams")->array()[0],
                       {"name"}),
              kNasty);

    fleet::FleetResult fleetResult;
    fleetResult.tenantResults.push_back({});
    fleetResult.tenantResults[0].name = kNasty;
    const json::Value f = parseOk(
        written([&](std::ostream &os) { fleetResult.dumpJson(os); }));
    EXPECT_EQ(stringAt(f.find("tenantResults")->array()[0], {"name"}),
              kNasty);

    fleet::Scenario scenario;
    scenario.name = kNasty;
    const json::Value line = parseOk(written([&](std::ostream &os) {
        fleet::writeScenarioResult(os, scenario, fleetResult);
    }));
    EXPECT_EQ(stringAt(line, {"scenario"}), kNasty);
    EXPECT_EQ(stringAt(line.find("fleet")->find("tenantResults")->array()[0],
                       {"name"}),
              kNasty);
}

TEST(JsonRoundTrip, ToolEnvelopeSectionsAndTraceSection)
{
    tools::ToolApp app(kNasty);
    app.addTraceFlags();
    std::string tool = kNasty, flag = "--trace-out";
    std::string out = kNasty + ".trace.json";
    std::vector<char *> argv = {tool.data(), flag.data(), out.data()};
    app.parse(static_cast<int>(argv.size()), argv.data());

    Scalar scalar;
    StatSet stats;
    stats.addScalar(kNasty, &scalar);
    std::ostringstream os;
    {
        tools::JsonEnvelope env(os, app, SystemConfig{},
                                {{"name", kNasty}, {"count", 7u}});
        env.section("run").beginObject().field("error", kNasty).end();
        stats.dumpJson(env.section("stats").nested());
        env.traceSection(app);
    }
    const json::Value doc = parseOk(os.str());
    EXPECT_EQ(stringAt(doc, {"tool"}), kNasty);
    EXPECT_EQ(stringAt(doc, {"config", "name"}), kNasty);
    EXPECT_EQ(stringAt(doc, {"run", "error"}), kNasty);
    EXPECT_EQ(stringAt(doc, {"trace", "out"}), out);
    EXPECT_TRUE(doc.find("stats")->find("scalars")->find(kNasty));
}

/** Run @p command through the shell and return its stdout. */
std::string
capture(const std::string &command)
{
    std::string out;
    if (FILE *pipe = popen(command.c_str(), "r")) {
        char buf[4096];
        for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), pipe));)
            out.append(buf, n);
        pclose(pipe);
    }
    return out;
}

TEST(JsonRoundTrip, ToolRunReplayAndReproSections)
{
    const json::Value run = parseOk(
        capture(std::string(PVA_SIM_TOOL) + " --elements 64 --json"));
    EXPECT_TRUE(run.find("run") && run.find("run")->find("cycles"));

    // The trace file and the capsule carry the hostile string in their
    // names (and the capsule in its error), so the replay and repro
    // sections must escape what the tool was given.
    const std::string dir = testing::TempDir();
    const std::string trace = dir + kNasty + ".trace";
    std::ofstream(trace) << "poke 4096 42\nread 4096 19 32\n";
    const json::Value replay = parseOk(capture(
        std::string(PVA_REPLAY_TOOL) + " '" + trace + "' --json"));
    EXPECT_EQ(stringAt(replay, {"config", "traceFile"}), trace);
    EXPECT_EQ(replay.find("replay")->find("readChecksum")->string().size(),
              16u);

    ReproCapsule capsule;
    capsule.request.elements = 32;
    capsule.error = kNasty;
    const std::string file = dir + kNasty + ".capsule.json";
    writeCapsuleFile(file, capsule);
    const json::Value repro = parseOk(capture(
        std::string(PVA_REPLAY_TOOL) + " --repro '" + file + "' --json"));
    EXPECT_EQ(stringAt(repro, {"config", "capsule"}), file);
    EXPECT_EQ(stringAt(repro, {"repro", "recordedError"}), kNasty);
    EXPECT_EQ(stringAt(repro, {"repro", "observedError"}), "");
}

#if PVA_TRACE_ENABLED

TEST(JsonRoundTrip, PerfettoExportKeepsControlCharacters)
{
    trace::TraceSession s;
    const std::uint32_t track = s.registerTrack(kNasty, kNasty);
    ASSERT_NE(track, 0u);
    s.record(track, trace::Phase::Instant, 1, "e");
    const json::Value doc =
        parseOk(written([&](std::ostream &os) { s.exportChromeJson(os); }));
    const auto &events = doc.find("traceEvents")->array();
    ASSERT_GE(events.size(), 3u);
    EXPECT_EQ(stringAt(events[0], {"args", "name"}), kNasty); // process
    EXPECT_EQ(stringAt(events[1], {"args", "name"}), kNasty); // track
}

#endif // PVA_TRACE_ENABLED

} // anonymous namespace
} // namespace pva
