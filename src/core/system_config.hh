/**
 * @file
 * Unified construction-time configuration of the evaluated memory
 * systems.
 *
 * SystemConfig is the one knob bag every harness (benches, tests,
 * tools, the sweep executor) fills in and hands to makeSystem(): the
 * memory geometry (bank count, interleave factor), the SDRAM timing
 * parameters including auto-refresh, the bank-controller
 * microarchitecture (vector contexts, row policy, bypasses), the
 * serial baselines' accounting knobs, and the robustness layer (the
 * TimingChecker switch and the fault-injection plan). It is the only
 * configuration any memory system takes: each concrete system reads
 * the subset that applies to it.
 *
 * validate() rejects unsupportable values with a SimError(Config)
 * naming the offending field, so bad knobs fail fast with a clear
 * message instead of as undefined behavior deep inside a run.
 *
 * configToJson()/configFromJson() are the one wire format of every
 * field (docs/ROBUSTNESS.md): repro capsules embed the object and
 * their fingerprints hash its text. A new knob is added to
 * SystemConfig and to that codec, and nowhere else.
 */

#ifndef PVA_CORE_SYSTEM_CONFIG_HH
#define PVA_CORE_SYSTEM_CONFIG_HH

#include "core/bank_controller.hh"
#include "sdram/device.hh"
#include "sdram/geometry.hh"
#include "sim/clocking.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace pva
{

namespace json
{
class Reader;
} // namespace json

/**
 * Configuration shared by all four evaluated memory systems.
 *
 * The default-constructed value is the paper's prototype point:
 * 16 word-interleaved banks, 2-2-2 SDRAM timing with refresh
 * disabled, 4 vector contexts with the ManageRow policy, no checker,
 * no fault injection.
 */
struct SystemConfig
{
    /** Bank count and interleave factor (all systems). */
    Geometry geometry{16, 1, 9, 2, 13};
    /** SDRAM timing, including tREFI auto-refresh (SDRAM systems). */
    SdramTiming timing{};
    /** Bank-controller microarchitecture (PVA SDRAM / PVA SRAM). */
    BcConfig bc{};
    /** Cache-line baseline: fetch each distinct line once instead of
     *  the paper's accounting (SerialSystem::lineFills). */
    bool optimisticLineReuse = false;
    /** Attach the redundant protocol/data checker (PVA systems). */
    bool timingCheck = false;
    /** Fault-injection plan (PVA systems; disabled by default). */
    FaultPlan faults{};
    /** Clocking discipline of the driving Simulation (all systems).
     *  Event is cycle-exact with Exhaustive; see docs/SIMULATION.md. */
    ClockingMode clocking = ClockingMode::Event;
    /**
     * Memory-device backend (docs/DEVICE.md). Legacy is the paper's
     * part and the default; Salp gives every internal bank
     * salpSubarrays independent row buffers (Kim et al.); Deferred-
     * Refresh moves tREFI boundaries within refreshDeferWindow cycles
     * around in-flight work (Chang et al.). SDRAM systems only — the
     * SRAM comparison system and the serial baselines' analytic
     * timing ignore it.
     */
    MemBackend backend = MemBackend::Legacy;
    /** Row-buffer subarrays per internal bank (Salp; power of two). */
    unsigned salpSubarrays = 4;
    /** Max cycles a refresh may move (DeferredRefresh; 0 = tREFI/2). */
    unsigned refreshDeferWindow = 0;

    bool operator==(const SystemConfig &) const = default;

    /** The resolved device-backend policy (SimError(Config) naming
     *  the offending field on an unsupportable combination). */
    BackendPolicy
    backendPolicy() const
    {
        return resolveBackendPolicy(backend, geometry.rowBits(),
                                    timing.tREFI, timing.tRFC,
                                    salpSubarrays, refreshDeferWindow);
    }

    /**
     * Reject unsupportable configurations with a SimError(Config)
     * naming the offending knob; return this config otherwise. Every
     * memory system validates the config it is given in its first
     * member initializer, so every construction path — tools, benches,
     * sweep points, direct construction — fails fast with a message
     * instead of misbehaving downstream.
     *
     * (Geometry's own constructor already rejects non-power-of-two
     * bank counts and interleave factors.)
     */
    const SystemConfig &
    validate() const
    {
        auto reject = [](const std::string &detail) {
            throw SimError(SimErrorKind::Config, "config", kNeverCycle,
                           detail);
        };
        if (bc.lineWords == 0)
            reject("bc.lineWords must be nonzero");
        if (bc.lineWords % 2 != 0)
            reject(csprintf("bc.lineWords %u must be even (two words "
                            "per bus data cycle)", bc.lineWords));
        if (bc.lineWords > BcConfig::kMaxLineWords)
            reject(csprintf("bc.lineWords %u exceeds %u (line slots are "
                            "8-bit)", bc.lineWords,
                            BcConfig::kMaxLineWords));
        if (bc.transactions == 0 || bc.transactions > 255)
            reject(csprintf("bc.transactions %u must be in 1..255 "
                            "(8-bit transaction ids; 256 would wrap "
                            "the id counters)",
                            bc.transactions));
        if (bc.vectorContexts == 0)
            reject("bc.vectorContexts must be nonzero");
        if (bc.fifoEntries == 0)
            reject("bc.fifoEntries must be nonzero");
        if (geometry.interleave() > bc.lineWords)
            reject(csprintf("interleave factor %u exceeds the %u-word "
                            "cache line", geometry.interleave(),
                            bc.lineWords));
        if (timing.tCL == 0 || timing.tRCD == 0 || timing.tRP == 0)
            reject("SDRAM timing tCL/tRCD/tRP must be nonzero");
        if (timing.tRAS == 0)
            reject("SDRAM timing tRAS must be nonzero");
        if (timing.tRC < timing.tRAS)
            reject(csprintf("tRC %u shorter than tRAS %u (activate-to-"
                            "activate cannot beat activate-to-"
                            "precharge)", timing.tRC, timing.tRAS));
        if (timing.tREFI != 0 && timing.tRFC == 0)
            reject("tRFC must be nonzero when tREFI refresh is "
                   "enabled");
        auto checkRate = [&](double rate, const char *field) {
            if (!(rate >= 0.0 && rate <= 1.0))
                reject(csprintf("fault rate %s = %g outside [0, 1]",
                                field, rate));
        };
        checkRate(faults.refreshStallRate, "refreshStallRate");
        checkRate(faults.bcStallRate, "bcStallRate");
        checkRate(faults.dropTransferRate, "dropTransferRate");
        checkRate(faults.corruptFirstHitRate, "corruptFirstHitRate");
        checkRefreshRoom(timing, backendPolicy());
        return *this;
    }
};

/**
 * The canonical JSON object of every SystemConfig field: one line,
 * fixed key order, fault rates printed %.17g so a round trip through
 * configFromJson() is bit-exact.
 */
std::string configToJson(const SystemConfig &config);

/**
 * Strict inverse of configToJson(): every field is required, unknown
 * keys and names are rejected, and errors are reported through
 * @p in's SimError context.
 */
SystemConfig configFromJson(const json::Reader &in);

} // namespace pva

#endif // PVA_CORE_SYSTEM_CONFIG_HH
