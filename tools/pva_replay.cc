/**
 * @file
 * pva_replay — replay a vector-command trace file against a memory
 * system (see src/kernels/trace_file.hh for the format).
 *
 * Flags come from the shared ToolApp layer (tools/tool_app.hh) with
 * the same system/fault/trace vocabulary as pva_sim and pva_loadgen;
 * run `pva_replay --help` for the generated list. The one positional
 * argument is the trace file ('-' or absent reads stdin). --json
 * emits the versioned JSON envelope of docs/API.md; --trace-out
 * writes a Chrome/Perfetto event trace of the replay
 * (docs/OBSERVABILITY.md, needs a PVA_TRACE=ON build).
 */

#include <cstdio>
#include <fstream>
#include <iostream>

#include "kernels/repro_capsule.hh"
#include "kernels/trace_file.hh"
#include "options.hh"
#include "sim/json.hh"
#include "sim/sim_error.hh"
#include "tool_app.hh"

using namespace pva;
using namespace pva::tools;

namespace
{

int
runReplay(const ToolApp &app, const ToolOptions &opts)
{
    TraceFile trace;
    std::string error;
    bool ok;
    if (opts.tracePath == "-") {
        ok = parseTrace(std::cin, trace, error);
    } else {
        std::ifstream in(opts.tracePath);
        if (!in)
            fatal("cannot open '%s'", opts.tracePath.c_str());
        ok = parseTrace(in, trace, error);
    }
    if (!ok)
        fatal("%s: %s", opts.tracePath.c_str(), error.c_str());

    auto sys = makeSystem(opts.system, opts.config);
    ReplayResult r = replayTrace(*sys, trace, opts.config.clocking);
    if (opts.json) {
        JsonEnvelope env(std::cout, app, opts.config,
                         {{"system", systemShortName(opts.system)},
                          {"traceFile", opts.tracePath}});
        json::Writer &w = env.section("replay").beginObject();
        w.field("commands", r.commands).field("cycles", r.cycles);
        w.field("readChecksum",
                csprintf("%016llx",
                         static_cast<unsigned long long>(r.readChecksum)));
        w.end();
        sys->stats().dumpJson(env.section("stats").nested());
        env.traceSection(app);
    } else {
        std::printf("%llu commands in %llu cycles, read checksum "
                    "%016llx\n",
                    static_cast<unsigned long long>(r.commands),
                    static_cast<unsigned long long>(r.cycles),
                    static_cast<unsigned long long>(r.readChecksum));
    }
    if (opts.stats)
        sys->stats().dump(opts.json ? std::cerr : std::cout);
    return 0;
}

/**
 * Re-execute a quarantine capsule (docs/ROBUSTNESS.md). Exit 0 when
 * the replay behaves as the capsule recorded — the same SimError for a
 * failure capsule, clean completion for an empty-error one — and 1
 * when the outcome diverges.
 */
int
runRepro(const ToolApp &app, const ToolOptions &opts)
{
    ReproCapsule capsule = loadCapsule(opts.reproPath);
    inform("repro: %s/%s stride %u alignment %u elements %u "
           "fingerprint %016llx",
           systemShortName(capsule.request.system),
           kernelSpec(capsule.request.kernel).name.c_str(),
           capsule.request.stride, capsule.request.alignment,
           capsule.request.elements,
           static_cast<unsigned long long>(capsule.fingerprint));
    std::string observed;
    SweepPoint point{};
    bool completed = false;
    try {
        point = replayCapsule(capsule);
        completed = true;
    } catch (const SimError &e) {
        observed = e.what();
    }

    bool reproduced = completed ? capsule.error.empty()
                                : sameSimError(observed, capsule.error);
    if (opts.json) {
        JsonEnvelope env(std::cout, app, capsule.request.config,
                         {{"capsule", opts.reproPath}});
        json::Writer &w = env.section("repro").beginObject();
        w.field("reproduced", reproduced).field("completed", completed);
        w.field("recordedError", capsule.error);
        w.field("observedError", observed).end();
        env.traceSection(app);
    } else if (completed) {
        std::printf("replay completed cleanly (%llu cycles, %zu "
                    "mismatches); capsule recorded %s\n",
                    static_cast<unsigned long long>(point.cycles),
                    point.mismatches,
                    capsule.error.empty() ? "a clean run"
                                          : capsule.error.c_str());
    } else {
        std::printf("replay raised: %s\n", observed.c_str());
        std::printf("capsule recorded: %s\n", capsule.error.c_str());
    }
    if (reproduced) {
        inform("repro: outcome matches the capsule");
        return 0;
    }
    warn("repro: outcome DIVERGES from the capsule");
    return 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    ToolOptions opts;
    ToolApp app("pva_replay");
    app.addSystemKindFlag(opts.system);
    app.addSystemFlags(opts.config);
    app.option("--repro", "CAPSULE",
               "re-execute a quarantine repro capsule instead of a "
               "trace (docs/ROBUSTNESS.md); exit 0 iff the recorded "
               "outcome reproduces",
               [&opts](const std::string &v) { opts.reproPath = v; });
    app.addOutputFlags(opts.stats, opts.json);
    app.addTraceFlags();
    app.positional("[trace-file | - for stdin]",
                   [&opts](const std::string &v) {
                       opts.tracePath = v;
                   });
    app.parse(argc, argv);
    return app.run([&] {
        return opts.reproPath.empty() ? runReplay(app, opts)
                                      : runRepro(app, opts);
    });
}
