#include "tool_app.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <utility>

#include "sim/sim_error.hh"
#include "sim/trace.hh"

namespace pva::tools
{

namespace
{

unsigned long long
parseNum(const std::string &flag, const std::string &value,
         unsigned long long min, unsigned long long max)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long n = std::strtoull(value.c_str(), &end, 10);
    if (value.empty() || *end != '\0')
        fatal("%s expects a number, got '%s'", flag.c_str(),
              value.c_str());
    // strtoull negates a leading '-' modulo 2^64 and saturates on
    // overflow; neither may wrap into a small field.
    if (value.find('-') != std::string::npos || errno == ERANGE ||
        n < min || n > max) {
        fatal("%s expects a number in %llu..%llu, got '%s'",
              flag.c_str(), min, max, value.c_str());
    }
    return n;
}

double
parseReal(const std::string &flag, const std::string &value)
{
    char *end = nullptr;
    double d = std::strtod(value.c_str(), &end);
    if (value.empty() || *end != '\0')
        fatal("%s expects a number, got '%s'", flag.c_str(),
              value.c_str());
    return d;
}

#if PVA_TRACE_ENABLED
/** Sampling-profile rows a tool reports, as text or as JSON. */
constexpr std::size_t kProfileRows = 20;
#endif

} // anonymous namespace

/**
 * The live trace session, kept behind a pointer so untraced builds
 * need no trace types at all and ToolApp's layout is identical in
 * both configurations.
 */
struct ToolApp::TraceState
{
#if PVA_TRACE_ENABLED
    std::optional<trace::TraceSession> session;
#endif
};

ToolApp::ToolApp(std::string tool_name)
    : name(std::move(tool_name)),
      traceState(std::make_unique<TraceState>())
{
}

ToolApp::~ToolApp() = default;

void
ToolApp::flag(const char *flag_name, const char *help,
              std::function<void()> handler)
{
    specs.push_back({flag_name, "", help,
                     [handler = std::move(handler)](const std::string &) {
                         handler();
                     }});
}

void
ToolApp::option(const char *flag_name, std::string metavar,
                std::string help,
                std::function<void(const std::string &)> handler)
{
    specs.push_back({flag_name, std::move(metavar), std::move(help),
                     std::move(handler), true});
}

void
ToolApp::numOption(const char *flag_name, const char *metavar,
                   const char *help, unsigned long long min,
                   unsigned long long max,
                   std::function<void(unsigned long long)> handler)
{
    option(flag_name, metavar, help,
           [flag_name, min, max,
            handler = std::move(handler)](const std::string &v) {
               handler(parseNum(flag_name, v, min, max));
           });
}

void
ToolApp::realOption(const char *flag_name, const char *metavar,
                    const char *help,
                    std::function<void(double)> handler)
{
    option(flag_name, metavar, help,
           [flag_name, handler = std::move(handler)](const std::string &v) {
               handler(parseReal(flag_name, v));
           });
}

void
ToolApp::positional(const char *metavar,
                    std::function<void(const std::string &)> handler)
{
    positionalMetavar = metavar;
    positionalHandler = std::move(handler);
}

void
ToolApp::addSystemFlags(SystemConfig &config)
{
    configToValidate = &config;
    constexpr unsigned long long kUnsignedMax =
        std::numeric_limits<unsigned>::max();
    numOption("--banks", "N", "external bank count (power of two)", 0,
              kUnsignedMax, [&config](unsigned long long n) {
                  config.geometry =
                      Geometry(n, config.geometry.interleave());
              });
    numOption("--interleave", "N",
              "words per consecutive block in one bank", 0,
              kUnsignedMax, [&config](unsigned long long n) {
                  config.geometry =
                      Geometry(config.geometry.banks(), n);
              });
    numOption("--vcs", "N", "vector contexts per bank controller",
              config.bc.vectorContexts);
    choice("--row-policy", "bank-controller row management policy",
           rowPolicies(), config.bc.rowPolicy);
    numOption("--refresh", "TREFI",
              "auto-refresh interval in cycles (0 = off)",
              config.timing.tREFI);
    choice("--backend", "memory-device backend (docs/DEVICE.md)",
           memBackends(), config.backend);
    numOption("--subarrays", "N",
              "row-buffer subarrays per internal bank (salp backend)",
              config.salpSubarrays);
    numOption("--refresh-window", "N",
              "max cycles a refresh may move (deferred backend; "
              "0 = tREFI/2)",
              config.refreshDeferWindow);
    choice("--clocking", "simulation clocking discipline",
           clockingModes(), config.clocking);
    flag("--check", "attach the redundant timing/data checker",
         [&config] { config.timingCheck = true; });
    numOption("--fault-seed", "N", "fault-injection RNG seed",
              config.faults.seed);
    realOption("--fault-refresh", "R", "refresh-stall fault rate",
               [&config](double r) {
                   config.faults.refreshStallRate = r;
               });
    realOption("--fault-bc-stall", "R",
               "bank-controller stall fault rate",
               [&config](double r) { config.faults.bcStallRate = r; });
    realOption("--fault-drop", "R", "dropped-transfer fault rate",
               [&config](double r) {
                   config.faults.dropTransferRate = r;
               });
    realOption("--fault-corrupt", "R", "FirstHit corruption fault rate",
               [&config](double r) {
                   config.faults.corruptFirstHitRate = r;
               });
}

void
ToolApp::addWorkloadFlags(ToolOptions &opts)
{
    choice("--kernel", "benchmark kernel (" + kernelIds().joined(" ") + ")",
           kernelIds(), opts.kernel, "NAME");
    numOption("--stride", "N", "element stride in words", opts.stride);
    numOption("--alignment", "0-4", "stream base alignment preset",
              opts.alignment);
    addSystemKindFlag(opts.system);
    numOption("--elements", "N", "vector elements per stream", opts.elements);
}

void
ToolApp::addSystemKindFlag(SystemKind &system)
{
    choice("--system", "memory system under test", systemKinds(), system);
}

void
ToolApp::addExecutorFlags(unsigned &jobs, unsigned &retries,
                          double &point_timeout)
{
    numOption("--jobs", "N", "sweep workers (0 = hardware threads)", jobs);
    numOption("--retries", "N", "attempt budget per sweep point", retries);
    realOption("--point-timeout", "MS",
               "per-point wall-clock watchdog in milliseconds",
               [&point_timeout](double d) { point_timeout = d; });
}

void
ToolApp::addOutputFlags(bool &stats, bool &json)
{
    flag("--stats", "dump the full stat set as text",
         [&stats] { stats = true; });
    flag("--json", "emit the versioned JSON envelope (docs/API.md)",
         [&json] { json = true; });
    jsonFlag = &json;
}

void
ToolApp::addTraceFlags()
{
    traceFlagsAdded = true;
    option("--trace-out", "FILE",
           "write a Chrome/Perfetto event trace (needs PVA_TRACE=ON)",
           [this](const std::string &v) { trace.outPath = v; });
    option("--trace-filter", "GLOBS",
           "comma-separated track globs, e.g. 'bc*,pva/frontend'",
           [this](const std::string &v) { trace.filter = v; });
    numOption("--trace-buffer", "N",
              "trace buffer capacity in events (drops beyond)",
              trace.bufferCap);
    flag("--profile",
         "sampling profile of trace events, reported after the run "
         "(needs PVA_TRACE=ON)",
         [this] {
             if (trace.profilePeriod == 0)
                 trace.profilePeriod = 64;
         });
    numOption("--profile-period", "N",
              "sample every Nth trace event (implies --profile)", 1,
              std::numeric_limits<std::uint32_t>::max(),
              [this](unsigned long long n) {
                  trace.profilePeriod = static_cast<std::uint32_t>(n);
              });
}

const ToolApp::Spec *
ToolApp::find(const std::string &flag) const
{
    for (const Spec &s : specs) {
        if (s.name == flag)
            return &s;
    }
    return nullptr;
}

void
ToolApp::parse(int argc, char **argv)
{
    // Flag handlers and validate() can throw SimError(Config) (e.g.
    // the Geometry constructor on a non-power-of-two --banks); parse
    // runs before run()'s catch, so turn those into the same clean
    // one-line fatal here.
    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--help" || arg == "-h")
                usage();
            bool isFlag =
                arg.size() >= 2 && arg[0] == '-' && arg[1] == '-';
            if (!isFlag && positionalHandler) {
                positionalHandler(arg);
                continue;
            }
            const Spec *spec = find(arg);
            if (!spec)
                usage("unknown option '" + arg + "'");
            given.push_back(spec->name);
            if (!spec->takesValue) {
                spec->apply(std::string());
                continue;
            }
            if (++i >= argc)
                usage(arg + " needs a value");
            spec->apply(argv[i]);
        }
        // Fail fast on unsupportable knob combinations.
        if (configToValidate)
            configToValidate->validate();
    } catch (const SimError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        std::exit(1);
    }
}

void
ToolApp::usage(const std::string &problem) const
{
    if (!problem.empty())
        std::fprintf(stderr, "%s: %s\n", name.c_str(), problem.c_str());
    std::fprintf(stderr, "usage: %s [options]%s%s\n",
                 name.c_str(), positionalMetavar.empty() ? "" : " ",
                 positionalMetavar.c_str());
    for (const Spec &s : specs) {
        std::string head = s.name;
        if (s.takesValue)
            head += " " + s.metavar;
        std::fprintf(stderr, "  %-28s %s\n", head.c_str(),
                     s.help.c_str());
    }
    std::exit(2);
}

int
ToolApp::run(const std::function<int()> &body)
{
#if PVA_TRACE_ENABLED
    if (trace.active() || trace.profiling()) {
        trace::TraceConfig tc;
        tc.bufferCapacity = trace.bufferCap;
        tc.filter = trace.filter;
        tc.profilePeriod = trace.profilePeriod;
        traceState->session.emplace(tc);
        trace::setSession(&*traceState->session);
    }
#else
    if (trace.active())
        fatal("--trace-out needs a traced build; configure with "
              "-DPVA_TRACE=ON");
    if (trace.profiling())
        fatal("--profile needs a traced build; configure with "
              "-DPVA_TRACE=ON");
#endif

    int rc;
    try {
        rc = body();
    } catch (const SimError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }

#if PVA_TRACE_ENABLED
    if (traceState->session) {
        trace::setSession(nullptr);
        trace::TraceSession &s = *traceState->session;
        // Under --json the envelope's trace section said all this.
        const bool text = !(jsonFlag && *jsonFlag);
        if (text && trace.profiling()) {
            // The sampling profile: where the simulation's activity
            // (as seen by the PVA_TRACE instrumentation) concentrated.
            std::vector<trace::ProfileEntry> report =
                s.profileReport();
            inform("profile: %llu samples (1 in %u events), top %zu "
                   "of %zu (track/event: samples ~events)",
                   static_cast<unsigned long long>(s.profileSamples()),
                   s.profilePeriod(),
                   std::min(report.size(), kProfileRows), report.size());
            for (std::size_t i = 0;
                 i < report.size() && i < kProfileRows; ++i) {
                const trace::ProfileEntry &e = report[i];
                inform("  %s/%s %s: %llu ~%llu", e.process.c_str(),
                       e.track.c_str(), e.name ? e.name : "?",
                       static_cast<unsigned long long>(e.samples),
                       static_cast<unsigned long long>(
                           e.estimatedEvents));
            }
        }
        if (trace.active()) {
            std::ofstream out(trace.outPath);
            if (!out)
                fatal("cannot open '%s'", trace.outPath.c_str());
            s.exportChromeJson(out);
            if (text) {
                inform("trace: %llu events (%llu dropped) on %zu "
                       "tracks -> %s",
                       static_cast<unsigned long long>(s.recorded()),
                       static_cast<unsigned long long>(s.dropped()),
                       s.trackCount(), trace.outPath.c_str());
            }
        }
        traceState->session.reset();
    }
#endif
    return rc;
}

void
ToolApp::dumpTraceJson(json::Writer &w) const
{
    std::uint64_t recorded = 0, dropped = 0, tracks = 0;
#if PVA_TRACE_ENABLED
    const trace::TraceSession *s =
        traceState->session ? &*traceState->session : nullptr;
    if (s) {
        recorded = s->recorded();
        dropped = s->dropped();
        tracks = s->trackCount();
    }
#endif
    w.beginObject().field("out", trace.outPath);
    w.field("recorded", recorded).field("dropped", dropped);
    w.field("tracks", tracks);
#if PVA_TRACE_ENABLED
    if (s && trace.profiling()) {
        std::vector<trace::ProfileEntry> report = s->profileReport();
        if (report.size() > kProfileRows)
            report.resize(kProfileRows);
        w.key("profile").beginArray(json::Writer::Layout::Block);
        for (const trace::ProfileEntry &e : report) {
            w.beginObject().field("process", e.process);
            w.field("track", e.track).field("event", e.name ? e.name : "?");
            w.field("samples", e.samples);
            w.field("estimatedEvents", e.estimatedEvents).end();
        }
        w.end();
    }
#endif
    w.end();
}

JsonEnvelope::JsonEnvelope(std::ostream &os, const ToolApp &app,
                           const SystemConfig &config,
                           const std::vector<ConfigExtra> &config_extras)
    : w(os)
{
    w.beginObject().field("schemaVersion", kJsonSchemaVersion);
    w.field("tool", app.toolName()).key("config").beginObject();
    w.field("banks", config.geometry.banks());
    w.field("interleave", config.geometry.interleave());
    w.field("lineWords", config.bc.lineWords);
    w.field("vectorContexts", config.bc.vectorContexts);
    w.field("rowPolicy", rowPolicyName(config.bc.rowPolicy));
    w.field("refreshInterval", config.timing.tREFI);
    w.field("backend", backendName(config.backend));
    w.field("clocking", clockingModeName(config.clocking));
    w.field("timingCheck", config.timingCheck);
    w.field("faultsEnabled", config.faults.enabled());
    for (const auto &[key, value] : config_extras)
        std::visit([&](const auto &v) { w.field(key, v); }, value);
    w.end();
}

void
JsonEnvelope::traceSection(const ToolApp &app)
{
    const TraceOptions &opts = app.traceOptions();
    if (opts.active() || opts.profiling())
        app.dumpTraceJson(section("trace"));
}

} // namespace pva::tools
