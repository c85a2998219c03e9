/**
 * @file
 * pva_loadgen — multi-stream traffic driver (docs/TRAFFIC.md).
 *
 * Default: one traffic run (closed-loop, 4 streams, FIFO arbitration)
 * on the selected system; prints a human-readable service summary,
 * the versioned JSON envelope with --json (docs/API.md), a CSV row
 * with --csv, or the whole registered stat set with --stats.
 *
 * With --load-sweep: forces every stream open-loop and runs the
 * offered-load ladder (--loads, aggregate requests per kilocycle)
 * across the systems of --systems on the SweepExecutor worker pool,
 * emitting the throughput-latency curves as CSV to stdout (or JSON
 * with --json). Points are deterministic for a given seed regardless
 * of --jobs; failed points survive as status=failed rows.
 *
 * Stream i gets seed (--seed + i) and, with --priority-ramp,
 * priority i (stream N-1 most urgent) for exercising the priority
 * policy's starvation guard.
 *
 * Shared flags (system knobs, --clocking, --check, --fault-*,
 * --stats/--json, --trace-*) come from the ToolApp layer
 * (tools/tool_app.hh) with the same vocabulary as pva_sim and
 * pva_replay; run `pva_loadgen --help` for the generated list.
 * --trace-out writes a Chrome/Perfetto event trace of the run
 * (docs/OBSERVABILITY.md, needs a PVA_TRACE=ON build).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/system_config.hh"
#include "fleet/scenario.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"
#include "tool_app.hh"
#include "traffic/traffic_runner.hh"

using namespace pva;
using namespace pva::tools;

namespace
{

/** Everything one pva_loadgen invocation configures. */
struct LoadgenOptions
{
    unsigned streams = 4;
    /** Policy, aging and shedding (deadline/overload; the overload
     *  watermark defaults to 0.75 here). */
    ArbiterConfig arbiter{.shed = {.queueHighWatermark = 0.75}};
    ArrivalMode mode = ArrivalMode::ClosedLoop;
    unsigned window = 4;
    double rate = 10.0;          ///< Per-stream open-loop rate
    std::uint64_t requests = 256;
    std::uint64_t seed = 1;
    unsigned queueCap = 16;
    /** Explicit-set tracking so flag contradictions (a shed knob with
     *  shedding off) fail loudly instead of being silently ignored. */
    bool deadlineSet = false;
    bool watermarkSet = false;
    bool priorityRamp = false;
    PatternConfig pattern;
    SystemKind system = SystemKind::PvaSdram;
    std::string systems = "pva,cacheline,gathering"; ///< As typed
    std::vector<SystemKind> sweepSystems = LoadSweepConfig{}.systems;
    bool loadSweep = false;
    std::string loads = "2,5,10,20,40,80";
    unsigned jobs = 0;
    unsigned retries = 3;
    Cycle maxCycles = 50000000;
    double pointTimeout = 0.0;
    bool stats = false;
    bool json = false;
    bool csv = false;
    // Fleet mode (docs/TRAFFIC.md "Fleet-scale traffic").
    bool fleet = false;
    unsigned tenants = 4;
    unsigned streamsPerTenant = 4;
    unsigned shards = 1;
    std::string scenarioPath;
    SystemConfig config{};
};

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos)
            comma = list.size();
        if (comma > start)
            out.push_back(list.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

void
addLoadgenFlags(ToolApp &app, LoadgenOptions &opts)
{
    app.numOption("--streams", "N", "concurrent request streams",
                  opts.streams);
    app.choice("--policy", "arbitration policy", arbPolicies(),
               opts.arbiter.policy);
    app.numOption("--aging", "N", "priority aging threshold (cycles)",
                  opts.arbiter.agingThreshold);
    app.choice("--mode", "arrival process", arrivalModes(), opts.mode);
    app.numOption("--window", "N", "closed-loop window per stream",
                  opts.window);
    app.realOption("--rate", "R",
                   "per-stream open-loop rate (req/kilocycle)",
                   [&opts](double d) { opts.rate = d; });
    app.numOption("--requests", "N", "requests per stream", opts.requests);
    app.numOption("--seed", "S", "base pattern seed (stream i: S+i)",
                  opts.seed);
    app.numOption("--queue-cap", "N", "per-stream admission queue cap",
                  opts.queueCap);
    app.choice("--shed",
               "deadline/overload load shedding (docs/TRAFFIC.md; "
               "default off, off is bit-identical to older builds)",
               shedSwitch(), opts.arbiter.shed.enabled);
    app.numOption("--deadline", "N",
                  "queueing-delay budget before a request is shed "
                  "(cycles; 0 = no deadline; needs --shed on)",
                  0, std::numeric_limits<Cycle>::max(),
                  [&opts](unsigned long long n) {
                      opts.arbiter.shed.defaultDeadline = n;
                      opts.deadlineSet = true;
                  });
    app.realOption("--shed-watermark", "F",
                   "queue-depth fraction where overload shedding "
                   "starts (>= 1 disables; default 0.75; needs "
                   "--shed on)",
                   [&opts](double d) {
                       opts.arbiter.shed.queueHighWatermark = d;
                       opts.watermarkSet = true;
                   });
    app.flag("--priority-ramp",
             "give stream i priority i (N-1 most urgent)",
             [&opts] { opts.priorityRamp = true; });
    app.realOption("--read-frac", "F", "fraction of reads in 0..1",
                   [&opts](double d) { opts.pattern.readFraction = d; });
    app.numOption("--min-stride", "N", "minimum generated stride",
                  opts.pattern.minStride);
    app.numOption("--max-stride", "N", "maximum generated stride",
                  opts.pattern.maxStride);
    app.numOption("--min-length", "N", "minimum vector length",
                  opts.pattern.minLength);
    app.numOption("--max-length", "N", "maximum vector length",
                  opts.pattern.maxLength);
    app.numOption("--region-words", "N", "address region per stream",
                  opts.pattern.regionWords);
    app.flag("--indirect", "generate indirect (vector-indexed) accesses",
             [&opts] {
                 opts.pattern.mode = VectorCommand::Mode::Indirect;
             });
    app.addSystemKindFlag(opts.system);
    app.option("--systems", "a,b,c", "systems for --load-sweep",
               [&opts](const std::string &v) {
                   opts.systems = v;
                   opts.sweepSystems.clear();
                   for (const std::string &s : splitCommas(v)) {
                       opts.sweepSystems.push_back(
                           parseChoice(systemKinds(), "--systems", s));
                   }
               });
    app.flag("--load-sweep", "run the offered-load ladder",
             [&opts] { opts.loadSweep = true; });
    app.option("--loads", "A,B,C",
               "offered loads (aggregate req/kilocycle)",
               [&opts](const std::string &v) { opts.loads = v; });
    app.numOption("--max-cycles", "N", "per-run simulated-cycle budget",
                  opts.maxCycles);
    app.flag("--csv", "emit the run as a load-curve CSV row",
             [&opts] { opts.csv = true; });

    // Fleet mode (docs/TRAFFIC.md "Fleet-scale traffic").
    app.flag("--fleet",
             "run a sharded tenant fleet instead of a single flat run",
             [&opts] { opts.fleet = true; });
    app.numOption("--tenants", "N", "tenants in the fleet", opts.tenants);
    app.numOption("--streams-per-tenant", "N",
                  "request streams per tenant",
                  opts.streamsPerTenant);
    app.numOption("--shards", "N",
                  "memory-system shards the fleet is partitioned "
                  "across (results are identical at any --jobs)",
                  opts.shards);
    app.option("--scenario", "FILE",
               "run one fleet scenario JSON file and print its "
               "versioned result line",
               [&opts](const std::string &v) { opts.scenarioPath = v; });
}

/** What a --scenario run takes beside its file: the invoking
 *  machine's knobs. The file says everything else. */
constexpr const char *kScenarioFlags[] = {
    "--scenario",      "--jobs",      "--retries",
    "--point-timeout", "--trace-out", "--trace-filter",
    "--trace-buffer",  "--profile",   "--profile-period"};

/**
 * Reject contradictions instead of silently ignoring a knob: a shed
 * budget or watermark the user explicitly set does nothing while
 * shedding is off, and a system or traffic flag does nothing beside
 * --scenario, which is exactly the kind of quiet misconfiguration a
 * capacity-planning run cannot afford.
 */
void
validateOptions(const ToolApp &app, const LoadgenOptions &opts)
{
    if (!opts.scenarioPath.empty()) {
        for (const std::string &flag : app.givenFlags()) {
            if (std::find(std::begin(kScenarioFlags),
                          std::end(kScenarioFlags),
                          flag) == std::end(kScenarioFlags)) {
                throw SimError(
                    SimErrorKind::Config, "loadgen", kNeverCycle,
                    csprintf("%s does not apply to --scenario (the "
                             "file configures the run, which prints one "
                             "JSON line); beside it pass only --jobs, "
                             "--retries, --point-timeout, --trace-* or "
                             "--profile*",
                             flag.c_str()));
            }
        }
    }
    if (!opts.arbiter.shed.enabled &&
        (opts.deadlineSet || opts.watermarkSet)) {
        throw SimError(
            SimErrorKind::Config, "loadgen", kNeverCycle,
            csprintf("%s has no effect while shedding is off; add "
                     "--shed on or drop the flag",
                     opts.deadlineSet ? "--deadline"
                                      : "--shed-watermark"));
    }
    if (opts.fleet && opts.loadSweep) {
        throw SimError(SimErrorKind::Config, "loadgen", kNeverCycle,
                       "--fleet and --load-sweep are separate modes; "
                       "pick one");
    }
}

RunLimits
limitsFor(const LoadgenOptions &opts)
{
    return {.maxCycles = opts.maxCycles, .timeoutMillis = opts.pointTimeout};
}

TrafficConfig
trafficConfigFor(const LoadgenOptions &opts)
{
    TrafficConfig tc;
    tc.system = opts.system;
    tc.config = opts.config;
    tc.arbiter = opts.arbiter;
    tc.limits = limitsFor(opts);

    for (unsigned i = 0; i < opts.streams; ++i) {
        StreamConfig s;
        s.mode = opts.mode;
        s.window = opts.window;
        s.requestsPerKilocycle = opts.rate;
        s.requests = opts.requests;
        s.priority = opts.priorityRamp ? i : 0;
        s.queueCapacity = opts.queueCap;
        s.seed = opts.seed + i;
        s.pattern = opts.pattern;
        // Disjoint regions keep the streams from aliasing each other.
        s.pattern.regionBase =
            opts.pattern.regionBase + i * opts.pattern.regionWords;
        tc.streams.push_back(std::move(s));
    }
    return tc;
}

/** The queue/service/total latency rows of a traffic or fleet result. */
template <typename Result>
void
printLatencyTable(const Result &r)
{
    const std::pair<const char *, const LatencySummary *> rows[] = {
        {"queue", &r.queueDelay},
        {"service", &r.serviceLatency},
        {"total", &r.totalLatency}};
    for (const auto &[name, s] : rows) {
        std::printf("  %-8s mean %8.1f  p50 %6llu  p95 %6llu  "
                    "p99 %6llu  p999 %6llu  max %6llu\n",
                    name, s->mean,
                    static_cast<unsigned long long>(s->p50),
                    static_cast<unsigned long long>(s->p95),
                    static_cast<unsigned long long>(s->p99),
                    static_cast<unsigned long long>(s->p999),
                    static_cast<unsigned long long>(s->max));
    }
}

int
runSweep(const ToolApp &app, const LoadgenOptions &opts)
{
    LoadSweepConfig sc;
    sc.base = trafficConfigFor(opts);
    for (const std::string &l : splitCommas(opts.loads)) {
        char *end = nullptr;
        const double load = std::strtod(l.c_str(), &end);
        if (*end != '\0' || !std::isfinite(load) || load <= 0.0)
            fatal("--loads expects positive numbers, got '%s'", l.c_str());
        sc.offeredLoads.push_back(load);
    }
    sc.systems = opts.sweepSystems;
    sc.jobs = opts.jobs;
    sc.retries = opts.retries;

    std::vector<LoadPoint> points = runLoadSweep(sc);
    if (opts.json) {
        JsonEnvelope env(std::cout, app, opts.config,
                         {{"loads", opts.loads},
                          {"systems", opts.systems},
                          {"streams", opts.streams}});
        writeLoadJson(env.section("loadSweep").nested(), points);
        env.traceSection(app);
    } else {
        writeLoadCsv(std::cout, points);
    }

    bool clean = true;
    for (const LoadPoint &p : points) {
        if (p.failed) {
            warn("load point %s @ %g req/kc failed after %u "
                 "attempts: %s",
                 systemShortName(p.system), p.offered, p.attempts,
                 p.error.c_str());
            clean = false;
        }
    }
    return clean ? 0 : 1;
}

int
runOnce(const ToolApp &app, const LoadgenOptions &opts)
{
    TrafficConfig tc = trafficConfigFor(opts);
    TrafficResult r =
        runTraffic(tc, opts.stats ? &std::cerr : nullptr);

    if (opts.json) {
        JsonEnvelope env(std::cout, app, opts.config,
                         {{"system", systemShortName(opts.system)},
                          {"policy", arbPolicyName(opts.arbiter.policy)},
                          {"mode", arrivalModes().name(opts.mode)},
                          {"streams", opts.streams},
                          {"requests", opts.requests}});
        r.dumpJson(env.section("traffic").nested());
        env.traceSection(app);
        return 0;
    }
    if (opts.csv) {
        LoadPoint p;
        p.system = tc.system;
        p.offered = opts.rate * opts.streams;
        p.result = r;
        writeLoadCsvHeader(std::cout);
        writeLoadCsvRow(std::cout, p);
        return 0;
    }

    std::printf("system=%s policy=%s streams=%zu: %llu requests "
                "(%llu words) in %llu cycles\n",
                systemShortName(tc.system),
                arbPolicyName(tc.arbiter.policy), tc.streams.size(),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.words),
                static_cast<unsigned long long>(r.cycles));
    std::printf("  throughput %.3f req/kcycle, %.3f words/cycle, "
                "mean in-flight %.2f, bc utilization %.1f%%\n",
                r.requestsPerKilocycle, r.wordsPerCycle,
                r.meanInFlight, 100.0 * r.bcUtilization);
    if (r.shed > 0) {
        std::printf("  shed %llu requests (%.1f%% of consumed work) "
                    "to protect served latency\n",
                    static_cast<unsigned long long>(r.shed),
                    100.0 * r.shedRate);
    }
    std::printf("  clocking=%s simTicks=%llu cyclesSkipped=%llu "
                "cyclesPerSecond=%llu\n",
                clockingModeName(tc.config.clocking),
                static_cast<unsigned long long>(r.simTicks),
                static_cast<unsigned long long>(r.cyclesSkipped),
                static_cast<unsigned long long>(r.cyclesPerSecond));
    printLatencyTable(r);
    for (const StreamResult &s : r.streams) {
        std::printf("  %s: %llu/%llu done, deferrals %llu, "
                    "queue peak %llu, total p99 %llu\n",
                    s.name.c_str(),
                    static_cast<unsigned long long>(s.completed),
                    static_cast<unsigned long long>(s.requests),
                    static_cast<unsigned long long>(s.deferrals),
                    static_cast<unsigned long long>(s.queuePeak),
                    static_cast<unsigned long long>(
                        s.totalLatency.p99));
    }
    return 0;
}

fleet::FleetConfig
fleetConfigFor(const LoadgenOptions &opts)
{
    fleet::FleetConfig fc;
    fc.system = opts.system;
    fc.config = opts.config;
    fc.arbiter = opts.arbiter;
    fc.limits = limitsFor(opts);
    fc.shards = opts.shards;
    fc.jobs = opts.jobs;
    fc.retries = opts.retries;

    fleet::TenantSpec spec;
    spec.count = opts.tenants;
    spec.streamsPerTenant = opts.streamsPerTenant;
    spec.stream.window = opts.window;
    spec.stream.requestsPerKilocycle = opts.rate;
    spec.stream.requests = opts.requests;
    spec.stream.queueCapacity = opts.queueCap;
    spec.stream.seed = opts.seed;
    spec.stream.pattern = opts.pattern;
    spec.stream.mode = opts.mode;
    // Disjoint per-stream regions, same policy as the flat path.
    spec.regionStrideWords = opts.pattern.regionWords;
    fc.tenants.push_back(std::move(spec));
    return fc;
}

int
runFleetOnce(const ToolApp &app, const LoadgenOptions &opts)
{
    const fleet::FleetConfig fc = fleetConfigFor(opts);
    const fleet::FleetResult r = fleet::runFleet(fc);

    if (opts.json) {
        JsonEnvelope env(std::cout, app, opts.config,
                         {{"system", systemShortName(opts.system)},
                          {"policy", arbPolicyName(opts.arbiter.policy)},
                          {"tenants", opts.tenants},
                          {"streamsPerTenant", opts.streamsPerTenant},
                          {"shards", fc.shards}});
        r.dumpJson(env.section("fleet").nested());
        env.traceSection(app);
        return 0;
    }

    std::printf("fleet system=%s policy=%s tenants=%llu streams=%llu "
                "shards=%u\n",
                systemShortName(fc.system),
                arbPolicyName(fc.arbiter.policy),
                static_cast<unsigned long long>(r.tenants),
                static_cast<unsigned long long>(r.streams), r.shards);
    std::printf("  %llu requests (%llu words) in %llu cycles "
                "(makespan), %llu grants\n",
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.words),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.grants));
    std::printf("  throughput %.3f req/kcycle, %.3f words/cycle, "
                "mean in-flight %.2f\n",
                r.requestsPerKilocycle, r.wordsPerCycle,
                r.meanInFlight);
    if (r.shed > 0) {
        std::printf("  shed %llu requests (%.1f%% of consumed work)\n",
                    static_cast<unsigned long long>(r.shed),
                    100.0 * r.shedRate);
    }
    printLatencyTable(r);
    if (opts.stats) {
        for (const fleet::TenantResult &t : r.tenantResults) {
            std::printf("  %s (shard %u): %llu arrivals, %llu done, "
                        "deferrals %llu, shed %llu, queue peak %llu, "
                        "total p99 %llu\n",
                        t.name.c_str(), t.shard,
                        static_cast<unsigned long long>(t.arrivals),
                        static_cast<unsigned long long>(t.completed),
                        static_cast<unsigned long long>(t.deferrals),
                        static_cast<unsigned long long>(
                            t.shedDeadline + t.shedOverload),
                        static_cast<unsigned long long>(t.queuePeak),
                        static_cast<unsigned long long>(
                            t.totalLatency.p99));
        }
    }
    return 0;
}

int
runScenario(const LoadgenOptions &opts)
{
    fleet::Scenario scenario =
        fleet::loadScenarioFile(opts.scenarioPath);
    scenario.config.jobs = opts.jobs;
    scenario.config.retries = opts.retries;
    scenario.config.limits.timeoutMillis = opts.pointTimeout;
    const fleet::FleetResult result = fleet::runFleet(scenario.config);
    fleet::writeScenarioResult(std::cout, scenario, result);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    LoadgenOptions opts;
    ToolApp app("pva_loadgen");
    addLoadgenFlags(app, opts);
    app.addSystemFlags(opts.config);
    app.addExecutorFlags(opts.jobs, opts.retries, opts.pointTimeout);
    app.addOutputFlags(opts.stats, opts.json);
    app.addTraceFlags();
    app.parse(argc, argv);
    return app.run([&] {
        validateOptions(app, opts);
        if (!opts.scenarioPath.empty())
            return runScenario(opts);
        if (opts.fleet)
            return runFleetOnce(app, opts);
        return opts.loadSweep ? runSweep(app, opts)
                              : runOnce(app, opts);
    });
}
