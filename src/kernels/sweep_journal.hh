/**
 * @file
 * Crash-safe checkpointing of sweep progress (docs/ROBUSTNESS.md).
 *
 * A SweepJournal is an append-only JSONL file: one schemaVersion'd
 * header line naming the grid it belongs to (by fingerprint and point
 * count), then one self-contained record line per completed point,
 * flushed and fsync'd before the completion is acknowledged. A sweep
 * killed at any instant therefore leaves a journal whose intact prefix
 * is exactly the set of durably completed points; at worst the final
 * line is torn (partially written), which load() tolerates by
 * truncating to the last intact record.
 *
 * Resume correctness rests on the config fingerprints also defined
 * here: FNV-1a digests over the canonical serialization of everything
 * that determines a point's outcome (system/kernel/stride/alignment/
 * elements, the full SystemConfig as configToJson writes it, and the
 * cycle budget — but not wall-clock budgets, which never change
 * simulated behavior). A journal only resumes against the grid
 * it was written for; any drift is rejected with a SimError(Config)
 * instead of silently splicing incompatible results.
 */

#ifndef PVA_KERNELS_SWEEP_JOURNAL_HH
#define PVA_KERNELS_SWEEP_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "kernels/sweep.hh"

namespace pva
{

/** @name Config fingerprints
 * Stable 64-bit digests of the simulated-behavior-determining state.
 * @{ */
std::uint64_t fingerprintConfig(const SystemConfig &config);
std::uint64_t fingerprintRequest(const SweepRequest &request);
std::uint64_t fingerprintGrid(const std::vector<SweepRequest> &grid);
/** @} */

/** One durably recorded point completion. */
struct JournalRecord
{
    std::size_t index = 0; ///< Position in the request grid
    SweepPoint point{};    ///< Full outcome (status/attempts included)
    std::string error;     ///< Last attempt's error (failed points)
};

/** Append-only, fsync'd JSONL checkpoint of one sweep (see file
 *  comment). Writes happen under the SweepExecutor's completion lock,
 *  so the journal itself needs no synchronization. */
class SweepJournal
{
  public:
    /** Journal format version (the header's schemaVersion field). */
    static constexpr int kSchemaVersion = 3;
    /** The header's kind tag. */
    static constexpr const char *kKind = "pva-sweep-journal";

    /** Outcome of reading an existing journal. */
    struct LoadResult
    {
        bool exists = false; ///< File was present (even if empty)
        std::vector<JournalRecord> records; ///< Journal order
        bool tornTail = false; ///< A partial final line was discarded
        /** Byte length of the intact prefix (header + whole records);
         *  appending must resume from here, not from the torn tail. */
        std::uint64_t validBytes = 0;
    };

    /**
     * Read @p path and parse its records. A missing file returns
     * exists = false (a fresh start, not an error). A header whose
     * schemaVersion, kind, fingerprint, or point count disagrees with
     * @p fingerprint / @p points throws SimError(Config); an
     * unparsable line throws SimError(Corruption) unless it is the
     * final line, which is tolerated as a torn write.
     */
    static LoadResult load(const std::string &path,
                           std::uint64_t fingerprint,
                           std::size_t points);

    /**
     * Open @p path for appending. When @p resume_from is nonzero the
     * file is truncated to that byte length first (discarding a torn
     * tail found by load()); otherwise the file is created fresh and
     * the header line written. Throws SimError(Config) when the file
     * cannot be opened or written.
     */
    SweepJournal(const std::string &path, std::uint64_t fingerprint,
                 std::size_t points, std::uint64_t resume_from = 0);
    ~SweepJournal();

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /** Durably append one record: serialize, flush, fsync. */
    void append(const JournalRecord &record);

    const std::string &path() const { return filePath; }

  private:
    std::string filePath;
    std::FILE *file = nullptr;
};

} // namespace pva

#endif // PVA_KERNELS_SWEEP_JOURNAL_HH
