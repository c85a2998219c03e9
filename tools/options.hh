/**
 * @file
 * Shared option state for the pva tools.
 *
 * ToolOptions is the knob bag pva_sim and pva_replay fill through the
 * ToolApp flag layer (tools/tool_app.hh): one SystemConfig (system
 * construction knobs) plus the workload selection (kernel, stride,
 * alignment, elements) and tool behaviour flags. workloadFor() builds
 * the workload for a selected grid point.
 */

#ifndef PVA_TOOLS_OPTIONS_HH
#define PVA_TOOLS_OPTIONS_HH

#include <string>

#include "core/system_config.hh"
#include "kernels/sweep.hh"
#include "sim/logging.hh"

namespace pva::tools
{

/** Everything a tool invocation can configure. */
struct ToolOptions
{
    KernelId kernel = KernelId::Copy;
    SystemKind system = SystemKind::PvaSdram;
    std::uint32_t stride = 19;
    unsigned alignment = 0;
    std::uint32_t elements = 1024;
    bool stats = false;     ///< Dump the stat set as text after the run
    bool json = false;      ///< Emit the JSON envelope (docs/API.md)
    bool sweep = false;     ///< pva_sim: run the full chapter 6 grid
    unsigned jobs = 0;      ///< Sweep workers (0 = hardware threads)
    unsigned retries = 3;   ///< Sweep attempt budget per point
    double pointTimeout = 0.0; ///< Per-point wall-clock watchdog (ms)
    std::string quarantineDir;  ///< Repro capsules for failed points
    std::string reproPath;      ///< pva_replay: capsule to re-execute
    std::string tracePath = "-"; ///< pva_replay positional argument
    SystemConfig config{};
};

/** Build the workload for the selected kernel/stride/alignment. */
inline WorkloadConfig
workloadFor(const ToolOptions &opts)
{
    if (opts.alignment >= alignmentPresets().size())
        fatal("alignment must be 0..%zu",
              alignmentPresets().size() - 1);
    const KernelSpec &spec = kernelSpec(opts.kernel);
    WorkloadConfig wl;
    wl.stride = opts.stride;
    wl.elements = opts.elements;
    wl.lineWords = opts.config.bc.lineWords;
    wl.streamBases = streamBases(alignmentPresets()[opts.alignment],
                                 spec.numStreams, opts.stride,
                                 opts.elements);
    return wl;
}

} // namespace pva::tools

#endif // PVA_TOOLS_OPTIONS_HH
