/**
 * @file
 * The chapter 6 experimental grid: kernels x strides x alignments x
 * memory systems. Shared by the figure-reproduction benches and the
 * integration tests.
 *
 * All system construction goes through makeSystem(kind, SystemConfig):
 * the config carries every knob (geometry, timing, bank-controller
 * microarchitecture, baseline accounting) so no caller threads loose
 * parameters by hand. SweepRequest bundles one grid point; the
 * SweepExecutor (sweep_executor.hh) runs many of them concurrently.
 */

#ifndef PVA_KERNELS_SWEEP_HH
#define PVA_KERNELS_SWEEP_HH

#include <memory>
#include <string>
#include <vector>

#include "core/memory_system.hh"
#include "core/pva_unit.hh"
#include "core/system_config.hh"
#include "kernels/alignment.hh"
#include "kernels/kernel.hh"
#include "kernels/runner.hh"

namespace pva
{

/** The four memory systems of section 6.1. */
enum class SystemKind
{
    PvaSdram,
    CacheLine,
    Gathering,
    PvaSram,
};

/** The name table of the short names, in the canonical grid (and
 *  CSV) order: "pva", "cacheline", "gathering", "sram". */
const Vocabulary<SystemKind> &systemKinds();

/** systemKinds().values() */
const std::vector<SystemKind> &allSystems();

/** Human-readable system name as used in the paper's figures. */
const char *systemName(SystemKind kind);

/** systemKinds().name(@p kind): the --system spelling. */
const char *systemShortName(SystemKind kind);

/** Instantiate a fresh memory system of the given kind under the
 *  given configuration. */
std::unique_ptr<MemorySystem> makeSystem(SystemKind kind,
                                         const SystemConfig &config = {});

/** One grid point to run: where, what, and under which config. */
struct SweepRequest
{
    SystemKind system = SystemKind::PvaSdram;
    KernelId kernel = KernelId::Copy;
    std::uint32_t stride = 1;
    unsigned alignment = 0; ///< Index into alignmentPresets()
    std::uint32_t elements = 1024;
    SystemConfig config{};
    RunLimits limits{}; ///< Per-point watchdog budgets
};

/** How one grid point concluded (see SweepExecutor retry policy). */
enum class PointStatus : std::uint8_t
{
    Ok,      ///< Succeeded on the first attempt
    Retried, ///< Succeeded after at least one failed attempt
    Failed,  ///< All attempts exhausted (cycles/mismatches invalid)
};

/** Cycle count of one (system, kernel, stride, alignment) point. */
struct SweepPoint
{
    SystemKind system;
    KernelId kernel;
    std::uint32_t stride;
    unsigned alignment; ///< Index into alignmentPresets()
    Cycle cycles;
    std::size_t mismatches;
    std::uint64_t simTicks = 0;      ///< Processed cycles
    std::uint64_t cyclesSkipped = 0; ///< Event-clocking skips
    PointStatus status = PointStatus::Ok;
    unsigned attempts = 1; ///< Attempts consumed (1 = no retries)
};

/** Run one grid point. */
SweepPoint runPoint(const SweepRequest &request);

/** Run one grid point of the default (paper-prototype) configuration
 *  (1024-element vectors unless overridden). */
SweepPoint runPoint(SystemKind system, KernelId kernel,
                    std::uint32_t stride, unsigned alignment,
                    std::uint32_t elements = 1024);

/** Min and max cycles across the five alignment presets. */
struct MinMaxCycles
{
    Cycle min;
    Cycle max;
};

MinMaxCycles runAcrossAlignments(SystemKind system, KernelId kernel,
                                 std::uint32_t stride,
                                 std::uint32_t elements = 1024);

/** The strides the paper evaluates. */
const std::vector<std::uint32_t> &paperStrides();

} // namespace pva

#endif // PVA_KERNELS_SWEEP_HH
