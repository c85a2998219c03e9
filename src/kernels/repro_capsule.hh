/**
 * @file
 * Failure quarantine: standalone repro capsules (docs/ROBUSTNESS.md).
 *
 * When a sweep point exhausts its attempt budget (or trips a
 * watchdog), the executor serializes everything needed to re-execute
 * the failing attempt — the full SystemConfig in its one wire format
 * (configToJson, core/system_config.hh) including the effective fault
 * seed of that attempt, the workload coordinates, the cycle and
 * wall-clock budgets, and the error it died with — as one
 * self-contained JSON file. `pva_replay --repro <capsule>` reloads the capsule and reruns
 * the point bit-exactly, so a failure logged by an overnight sweep is
 * reproducible at a desk from the capsule alone, with no knowledge of
 * the sweep's flags or grid position.
 *
 * Each capsule, and the sweep's failure text, names its attempt by
 * fingerprintRequest(): an FNV-1a digest of everything that
 * determines the point's outcome (system, kernel, stride, alignment,
 * elements, the cycle budget and the full SystemConfig as
 * configToJson writes it), but not the wall-clock budget, which
 * bounds the host and never changes simulated behavior.
 */

#ifndef PVA_KERNELS_REPRO_CAPSULE_HH
#define PVA_KERNELS_REPRO_CAPSULE_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "kernels/sweep.hh"

namespace pva
{

/** Everything needed to re-execute one failed sweep point. */
struct ReproCapsule
{
    /** Capsule format version (the file's schemaVersion field). */
    static constexpr int kSchemaVersion = 3;
    /** The file's kind tag. */
    static constexpr const char *kKind = "pva-repro-capsule";

    /** The failing attempt's exact request: config carries the
     *  *effective* fault seed (base seed plus retry advances), so a
     *  replay walks the same fault timeline. */
    SweepRequest request{};
    unsigned attempts = 0; ///< Attempts the sweep consumed on it
    /** The raw SimError text of the final attempt (as a replay would
     *  reproduce it — without the sweep's log enrichment). */
    std::string error;
    /** fingerprintRequest(request); also embedded in the sweep's log
     *  line, which is how a log line names its capsule. */
    std::uint64_t fingerprint = 0;
};

/** Stable 64-bit digest of @p request's behavior-determining state
 *  (see the file comment). */
std::uint64_t fingerprintRequest(const SweepRequest &request);

/** Serialize @p capsule as a standalone JSON document. */
void writeCapsule(std::ostream &os, const ReproCapsule &capsule);

/** Write @p capsule to @p path; throws SimError(Config) on I/O
 *  failure. */
void writeCapsuleFile(const std::string &path,
                      const ReproCapsule &capsule);

/** Parse a capsule file; throws SimError(Config) on a missing or
 *  malformed file, a schemaVersion other than kSchemaVersion, unknown
 *  keys, or unknown enum names. */
ReproCapsule loadCapsule(const std::string &path);

/**
 * Re-execute the capsule's request exactly (a plain runPoint of the
 * recorded request). Reproducing the quarantined failure means this
 * throws the recorded SimError again; returning normally means the
 * failure did not reproduce.
 */
SweepPoint replayCapsule(const ReproCapsule &capsule);

/**
 * Do two SimError texts describe the same failure? Exact match, with
 * one carve-out: wall-clock watchdog messages embed the elapsed
 * milliseconds, so two reports of the same hang differ textually and
 * are matched on everything but the elapsed time.
 */
bool sameSimError(const std::string &a, const std::string &b);

} // namespace pva

#endif // PVA_KERNELS_REPRO_CAPSULE_HH
