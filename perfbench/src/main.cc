/**
 * @file
 * The benchmark program: runs one workload and reports its metrics.
 *
 *   perfbench --workload sweep|saturated|traffic|fleet --seed N
 *             --seconds S --trace 0|1 --root DIR
 *             [--scale full|tiny] [--trace-out FILE]
 *
 * --trace 0 times untraced passes for S seconds and reports the
 * end-to-end metrics; --trace 1 times untraced and traced passes (half
 * the budget each), runs the isolated layer probes and reports the
 * per-layer metrics, writing the fast-decile traced pass's spans to
 * --trace-out. Every pass is checked; the last line of standard output
 * is one JSON object {"correct", "attempted", "failed", "metrics"} and
 * the exit code is nonzero when any check failed. README.md defines
 * every metric.
 */

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>

#include "counts.hh"
#include "tracer.hh"
#include "workload.hh"

extern char **environ;

using namespace perfbench;

namespace
{

struct Metric
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics, reported by every workload. */
constexpr Metric kEndToEnd[] = {
    {"host_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"sim_cycles", "cycles"},
    {"sim_words_per_cycle", "words/cycle"},
    {"sim_latency_p50_cyc", "cycles"},
    {"sim_latency_p99_cyc", "cycles"},
    {"sim_capacity_req_per_kc", "req/kcycle"},
};

/** The per-layer metrics; 0 where a workload does not reach a layer. */
constexpr Metric kPerLayer[] = {
    {"kernels.point_ms.pva.p50", "ms"},
    {"kernels.point_ms.pva.p95", "ms"},
    {"kernels.point_ms.sram.p50", "ms"},
    {"kernels.point_ms.sram.p95", "ms"},
    {"kernels.point_ms.cacheline.p50", "ms"},
    {"kernels.point_ms.gathering.p50", "ms"},
    {"kernels.build_trace_ms", "ms"},
    {"kernels.run_overhead_ms", "ms"},
    {"kernels.csv_emit_ms", "ms"},
    {"kernels.executor_overhead_ms", "ms"},
    {"construct.make_system_ms.pva", "ms"},
    {"construct.make_system_ms.sram", "ms"},
    {"construct.make_system_ms.baselines", "ms"},
    {"sim.run_until_ms", "ms"},
    {"sim.ticks", "count"},
    {"sim.cycles_skipped", "cycles"},
    {"sim.skip_ratio", "ratio"},
    {"sim.host_ns_per_tick", "ns"},
    {"pva.frontend.reads", "count"},
    {"pva.frontend.writes", "count"},
    {"pva.frontend.ctx_full_cycles", "cycles"},
    {"pva.frontend.ctx_occupancy_mean", "txns"},
    {"bc.commands_seen", "count"},
    {"bc.commands_hit", "count"},
    {"bc.hit_ratio", "ratio"},
    {"bc.elements", "count"},
    {"bc.sched_active_cycles", "cycles"},
    {"bc.stall_cycles", "cycles"},
    {"bc.vc_full_cycles", "cycles"},
    {"bc.fifo_peak", "entries"},
    {"bc.bypasses", "count"},
    {"bc.tick_ns", "ns"},
    {"firsthit.pla_lookup_ns", "ns"},
    {"firsthit.subvector_ns", "ns"},
    {"dev.activates", "count"},
    {"dev.precharges", "count"},
    {"dev.reads", "count"},
    {"dev.writes", "count"},
    {"dev.row_hit_ratio", "ratio"},
    {"dev.refreshes", "count"},
    {"dev.deferred_refreshes", "count"},
    {"dev.can_issue_ns", "ns"},
    {"dev.issue_ns", "ns"},
    {"bus.request_cycles", "cycles"},
    {"bus.data_cycles", "cycles"},
    {"bus.data_util", "ratio"},
    {"traffic.run_ms.p50", "ms"},
    {"traffic.run_ms.max", "ms"},
    {"traffic.run_overhead_ms", "ms"},
    {"traffic.deferrals", "count"},
    {"traffic.queue_peak", "count"},
    {"traffic.emit_ms", "ms"},
    {"traffic.arbiter_service_ns", "ns"},
    {"fleet.run_ms", "ms"},
    {"fleet.grants", "count"},
    {"fleet.ticks", "count"},
    {"fleet.cycles_skipped", "cycles"},
    {"fleet.arbiter_build_ms", "ms"},
    {"fleet.arbiter_service_ns", "ns"},
    {"fleet.emit_ms", "ms"},
    {"stats.dump_json_ms", "ms"},
    {"bench.trace_overhead_s", "s"},
};

/**
 * Whole-pass times are summarized by their fast decile. The host is
 * shared and contention only ever adds time, so a low quantile
 * estimates the uncontended cost far more steadily than the median
 * does, while still ignoring a lone lucky pass.
 */
constexpr double kHostQuantile = 0.1;

/** Set-up probe processes per run (more when passes outnumber them). */
constexpr unsigned kSetupReps = 101;
/** Timed passes per phase, whatever the time budget. */
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMaxPasses = 10000;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string root;
    Scale scale = Scale::Full;
    std::string traceOut;
    /** Set-up probe child: CLOCK_MONOTONIC ns its parent forked at. */
    std::int64_t setupProbeT0 = -1;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "sweep|saturated|traffic|fleet --seed N --seconds S "
                 "--trace 0|1 --root DIR [--scale full|tiny] "
                 "[--trace-out FILE]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            haveSeed = end && *end == '\0' && !value.empty();
            if (!haveSeed)
                usage("bad --seed " + value);
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            if (!end || *end != '\0' || !(o.seconds > 0.0))
                usage("bad --seconds " + value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("bad --trace " + value);
            o.trace = value == "1";
        } else if (flag == "--root") {
            o.root = value;
        } else if (flag == "--scale") {
            if (value != "full" && value != "tiny")
                usage("bad --scale " + value);
            o.scale = value == "tiny" ? Scale::Tiny : Scale::Full;
        } else if (flag == "--trace-out") {
            o.traceOut = value;
        } else if (flag == "--setup-probe") {
            o.setupProbeT0 = std::strtoll(value.c_str(), nullptr, 10);
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (o.workload.empty() || !haveSeed || o.seconds <= 0.0 ||
        o.trace < 0 || o.root.empty())
        usage("--workload, --seed, --seconds, --trace and --root are "
              "required");
    return o;
}

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    if (o.workload == "sweep")
        return makeSweepWorkload(o.root);
    if (o.workload == "saturated")
        return makeSaturatedWorkload();
    if (o.workload == "traffic")
        return makeTrafficWorkload();
    if (o.workload == "fleet")
        return makeFleetWorkload();
    usage("unknown workload " + o.workload);
}

std::int64_t
monotonicNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/**
 * Time set-up as users meet it: from starting a process to its first
 * call into the simulator — exec, dynamic loading, static
 * initialization, option parsing and the workload's input generation.
 * Starts one copy of this binary in set-up probe mode (posix_spawn, so
 * the parent's size does not enter the figure) and returns its set-up
 * time in seconds.
 */
double
probeSetupOnce(int argc, char **argv)
{
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    std::vector<std::string> args(argv, argv + argc);
    args.push_back("--setup-probe");
    args.emplace_back();
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    args.back() = std::to_string(monotonicNs());
    std::vector<char *> cargs;
    for (std::string &a : args)
        cargs.push_back(a.data());
    cargs.push_back(nullptr);
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                               cargs.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string out;
    char buf[256];
    ssize_t n;
    while (rc == 0 && (n = read(fds[0], buf, sizeof buf)) > 0)
        out.append(buf, static_cast<std::size_t>(n));
    close(fds[0]);
    int status = 0;
    if (rc != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0 || out.empty())
        throw std::runtime_error("set-up probe process failed");
    return std::stod(out) / 1e9;
}

/** Operation and check accounting across every pass of the run. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(const PassResult &r)
    {
        attempted += r.attempted;
        failed += r.failed;
        for (const std::string &e : r.errors)
            std::fprintf(stderr, "FAIL: %s\n", e.c_str());
    }

    /**
     * Simulated results must repeat exactly: compare @p r with the
     * reference pass on every signature entry both carry (all of them
     * when @p allKeys). A mismatch is one failed operation.
     */
    void
    sameAs(const PassResult &ref, const PassResult &r, const char *what,
           bool allKeys)
    {
        for (const auto &[name, v] : r.signature) {
            auto it = ref.signature.find(name);
            if (it == ref.signature.end() && !allKeys)
                continue;
            if (it == ref.signature.end() || it->second != v) {
                ++attempted;
                ++failed;
                std::fprintf(stderr,
                             "FAIL: %s: %s differs (%llu vs %llu)\n",
                             what, name.c_str(),
                             static_cast<unsigned long long>(
                                 it == ref.signature.end() ? 0
                                                           : it->second),
                             static_cast<unsigned long long>(v));
                return;
            }
        }
    }
};

/** A pass with its host time; counts are signed in for comparison. */
struct TimedPass
{
    double seconds = 0.0;
    PassResult result;
};

template <typename Fn>
TimedPass
timePass(Fn &&fn)
{
    TimedPass t;
    const auto t0 = Clock::now();
    t.result = fn();
    t.seconds = secondsSince(t0);
    std::vector<double> &segments = t.result.segments;
    segments.push_back(t.seconds - std::accumulate(segments.begin(),
                                                   segments.end(), 0.0));
    signLayerCounts(t.result);
    return t;
}

/**
 * The host time of one pass with the host's contention taken out: the
 * sum over the pass's segments of each segment's shortest time across
 * @p passes. Other tenants of the host contend for its shared cache and
 * memory in bursts, slowing memory-bound code two- to threefold, and a
 * quiet spell seldom lasts more than a few tens of milliseconds: a
 * whole pass rarely falls between bursts, but each short segment often
 * does. A segment cannot run faster than its uncontended time, so the
 * minimum is the steadiest estimate of it.
 */
double
hostSeconds(const std::vector<TimedPass> &passes)
{
    const std::size_t count = passes.front().result.segments.size();
    double sum = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        double shortest = passes.front().result.segments[i];
        for (const TimedPass &p : passes) {
            if (p.result.segments.size() != count)
                throw std::runtime_error("passes cut into unequal segments");
            shortest = std::min(shortest, p.result.segments[i]);
        }
        sum += shortest;
    }
    return sum;
}

/** Index of the pass at the kHostQuantile rank of host time. */
std::size_t
fastDecileIndex(const std::vector<TimedPass> &passes)
{
    std::vector<std::size_t> order(passes.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return passes[a].seconds < passes[b].seconds;
    });
    return order[static_cast<std::size_t>(
        kHostQuantile * static_cast<double>(order.size() - 1))];
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Print the table and the result line; returns the exit code. */
int
report(const Checks &checks, const Metric *metrics, std::size_t count,
       const std::map<std::string, double> &values)
{
    const bool correct = checks.failed == 0;
    for (std::size_t i = 0; i < count; ++i) {
        std::printf("  %-36s %.6g %s\n", metrics[i].name,
                    values.at(metrics[i].name), metrics[i].unit);
    }
    std::printf("  %-36s %.6g ratio (%llu of %llu operations failed)\n",
                "fail_rate",
                checks.attempted
                    ? static_cast<double>(checks.failed) / checks.attempted
                    : 0.0,
                static_cast<unsigned long long>(checks.failed),
                static_cast<unsigned long long>(checks.attempted));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.failed));
    for (std::size_t i = 0; i < count; ++i) {
        double v = values.at(metrics[i].name);
        if (!std::isfinite(v))
            v = 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name, v, metrics[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
}

/** Untraced passes for @p budget seconds (at least kMinPasses). */
std::vector<TimedPass>
untracedPasses(Workload &w, double budget,
               const std::function<void()> &afterPass = {})
{
    std::vector<TimedPass> passes;
    const auto start = Clock::now();
    while (passes.size() < kMinPasses ||
           (secondsSince(start) < budget && passes.size() < kMaxPasses)) {
        passes.push_back(timePass([&] { return w.run(); }));
        if (afterPass)
            afterPass();
    }
    return passes;
}

int
runEndToEnd(Workload &w, const Options &o, int argc, char **argv)
{
    Checks checks;
    // Warm-up: lazy set-up and caches settle before timing. Checked
    // like every pass, and the reference for determinism.
    TimedPass warm = timePass([&] { return w.run(); });
    checks.add(warm.result);
    // After every pass, as many set-up probes as the time spent so far
    // calls for, so that they sample the host across the whole run.
    std::vector<double> setup;
    const auto start = Clock::now();
    auto probeSetup = [&] {
        const double due =
            kSetupReps * std::min(1.0, secondsSince(start) / o.seconds);
        do {
            setup.push_back(probeSetupOnce(argc, argv));
        } while (static_cast<double>(setup.size()) < due);
    };
    std::vector<TimedPass> passes =
        untracedPasses(w, o.seconds, probeSetup);
    while (setup.size() < kSetupReps)
        setup.push_back(probeSetupOnce(argc, argv));
    std::vector<double> hosts;
    for (const TimedPass &p : passes) {
        checks.add(p.result);
        checks.sameAs(warm.result, p.result, "repeat pass", true);
        hosts.push_back(p.seconds);
    }
    const PassResult &r = warm.result;
    std::printf("  passes %zu of %zu segments (pass s min %.6f, fast decile "
                "%.6f, max %.6f), latency samples %llu\n",
                passes.size(), passes.front().result.segments.size(),
                *std::min_element(hosts.begin(), hosts.end()),
                quantileOf(hosts, kHostQuantile),
                *std::max_element(hosts.begin(), hosts.end()),
                static_cast<unsigned long long>(r.latencySamples));
    std::map<std::string, double> values;
    values["host_s"] = hostSeconds(passes);
    // The fastest probe, for the reason hostSeconds() takes each
    // segment's fastest time: a probe takes a few milliseconds.
    values["setup_s"] = *std::min_element(setup.begin(), setup.end());
    values["peak_rss_mb"] = peakRssMb();
    values["sim_cycles"] = static_cast<double>(r.simCycles);
    values["sim_words_per_cycle"] =
        r.simCycles ? static_cast<double>(r.words) / r.simCycles : 0.0;
    values["sim_latency_p50_cyc"] = static_cast<double>(r.latencyP50);
    values["sim_latency_p99_cyc"] = static_cast<double>(r.latencyP99);
    values["sim_capacity_req_per_kc"] = r.capacity;
    return report(checks, kEndToEnd, std::size(kEndToEnd), values);
}

int
runTracedLayers(Workload &w, const Options &o)
{
    Checks checks;
    std::vector<TimedPass> plain = untracedPasses(w, o.seconds / 2);
    for (const TimedPass &p : plain) {
        checks.add(p.result);
        checks.sameAs(plain.front().result, p.result, "repeat pass", true);
    }

    std::vector<TimedPass> traced;
    std::vector<std::unique_ptr<Tracer>> tracers;
    const auto start = Clock::now();
    while (traced.size() < kMinPasses ||
           (secondsSince(start) < o.seconds / 2 &&
            traced.size() < kMaxPasses)) {
        tracers.push_back(std::make_unique<Tracer>());
        Tracer &t = *tracers.back();
        TimedPass p = timePass([&] { return w.runTraced(t); });
        p.seconds = t.rootSeconds();
        checks.add(p.result);
        checks.sameAs(plain.front().result, p.result, "traced vs untraced",
                      false);
        if (!traced.empty()) {
            checks.sameAs(traced.front().result, p.result,
                          "repeat traced pass", true);
        }
        traced.push_back(std::move(p));
    }

    const std::size_t ti = fastDecileIndex(traced);
    const std::size_t ui = fastDecileIndex(plain);
    const Tracer &tracer = *tracers[ti];
    std::map<std::string, double> layer = traced[ti].result.layer;
    for (const auto &[name, v] : plain[ui].result.layer) {
        if (name.rfind("kernels.", 0) == 0)
            layer[name] = v; // Progress-callback figures (sweep)
    }
    for (const auto &[name, ms] : tracer.selfMillisByName()) {
        if (name.rfind("bench.", 0) != 0)
            layer[name] = ms;
    }
    w.probe(o.seed, layer);
    finishLayerRatios(layer);
    const double tracedHost = traced[ti].seconds;
    const double plainHost = plain[ui].seconds;
    layer["bench.trace_overhead_s"] = tracedHost - plainHost;

    std::map<std::string, double> values;
    for (const Metric &m : kPerLayer) {
        auto it = layer.find(m.name);
        values[m.name] = it == layer.end() ? 0.0 : it->second;
    }
    std::printf("  untraced passes %zu (fast decile %.6f s), traced passes "
                "%zu (fast decile %.6f s)\n",
                plain.size(), plainHost, traced.size(), tracedHost);
    if (!o.traceOut.empty()) {
        std::ofstream out(o.traceOut, std::ios::binary | std::ios::trunc);
        tracer.writeChromeTrace(
            out, {{"seed", static_cast<double>(o.seed)},
                  {"traced_host_s", tracedHost},
                  {"untraced_host_s", plainHost},
                  {"trace_overhead_s", tracedHost - plainHost}});
        if (!out) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         o.traceOut.c_str());
            return 2;
        }
        std::printf("  trace written to %s\n", o.traceOut.c_str());
    }
    return report(checks, kPerLayer, std::size(kPerLayer), values);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Options o = parseOptions(argc, argv);
    try {
        std::unique_ptr<Workload> w = makeWorkload(o);
        if (o.setupProbeT0 >= 0) {
            w->setup(o.seed, o.scale);
            std::printf("%lld\n", static_cast<long long>(
                                      monotonicNs() - o.setupProbeT0));
            return 0;
        }
        std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
                    "scale=%s\n",
                    o.workload.c_str(),
                    static_cast<unsigned long long>(o.seed), o.seconds,
                    o.trace, o.scale == Scale::Full ? "full" : "tiny");
        std::fflush(stdout);
        w->setup(o.seed, o.scale);
        return o.trace ? runTracedLayers(*w, o)
                       : runEndToEnd(*w, o, argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
