/**
 * @file
 * Pluggable memory-backend policy for the SDRAM device layer.
 *
 * The device model grew up as the paper's fixed 1999 SDRAM part; the
 * backend seam generalizes its per-internal-bank timing state to
 * per-row-slot state so richer parts slot in without a second device
 * class (docs/DEVICE.md):
 *
 *  - Legacy: one row buffer per internal bank — the paper's part.
 *    One slot per internal bank; bit-identical to the pre-backend
 *    model.
 *  - Salp: subarray-level parallelism (Kim et al., PAPERS.md). Each
 *    internal bank is split into 2^subBits subarrays, each with its
 *    own row buffer and row-cycle timers (tRCD/tRAS/tRC scoped per
 *    subarray); the command bus and data pins stay shared, so a
 *    single access is in flight at a time but activates to different
 *    subarrays of one internal bank may overlap.
 *  - DeferredRefresh: refresh-access parallelism (Chang et al.,
 *    PAPERS.md). tREFI boundaries may be pulled in early while the
 *    device is idle or pushed out past in-flight work, each by at
 *    most deferWindow cycles; at boundary + deferWindow the refresh
 *    is forced regardless.
 *
 * A BackendPolicy is resolved once at construction (geometry- and
 * timing-checked) and then read through inline accessors on the
 * scheduler hot path; slot indices are (ibank << subBits) | subarray,
 * so the legacy policy degenerates to slot == internal bank and the
 * refactored code paths are cycle-exact with the old ones.
 */

#ifndef PVA_SDRAM_BACKEND_HH
#define PVA_SDRAM_BACKEND_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"
#include "sim/vocabulary.hh"

namespace pva
{

/** Which device backend a memory system models. */
enum class MemBackend : std::uint8_t
{
    Legacy,          ///< The paper's SDRAM part (one row buffer / ibank)
    Salp,            ///< Subarray-level parallelism (Kim et al.)
    DeferredRefresh, ///< tREFI pull-in/push-out (Chang et al.)
};

/** The name table: "legacy", "salp", "deferred". */
const Vocabulary<MemBackend> &memBackends();

/** memBackends().name(@p kind) */
const char *backendName(MemBackend kind);

/**
 * Resolved backend policy: the row-slot mapping plus the refresh
 * discipline, shared by SdramDevice, BankController and TimingChecker
 * so all three agree on what a "row slot" is.
 */
struct BackendPolicy
{
    MemBackend kind = MemBackend::Legacy;
    /** log2(subarrays per internal bank); 0 except for Salp. */
    unsigned subBits = 0;
    /**
     * row >> subShift == subarray index. For subBits == 0 the shift
     * lands past every row bit, so the subarray is always 0 and
     * slotOf() degenerates to the internal-bank index.
     */
    unsigned subShift = 31;
    /** Max cycles a tREFI boundary may move (DeferredRefresh only). */
    Cycle deferWindow = 0;

    unsigned subarrays() const { return 1u << subBits; }

    unsigned
    subarrayOf(std::uint32_t row) const
    {
        return static_cast<unsigned>(row >> subShift);
    }

    /** Row-slot index of @p row within internal bank @p ibank. */
    unsigned
    slotOf(unsigned ibank, std::uint32_t row) const
    {
        return (ibank << subBits) | subarrayOf(row);
    }

    /** Total row slots of a device with @p internal_banks banks. */
    unsigned
    slotCount(unsigned internal_banks) const
    {
        return internal_banks << subBits;
    }
};

/**
 * Validate and resolve a backend configuration against the geometry's
 * row width and the refresh timing. Throws SimError(Config) naming the
 * offending knob. @p defer_window 0 means "auto" (tREFI / 2).
 */
BackendPolicy resolveBackendPolicy(MemBackend kind, unsigned row_bits,
                                   unsigned t_refi, unsigned t_rfc,
                                   unsigned salp_subarrays,
                                   unsigned defer_window);

} // namespace pva

#endif // PVA_SDRAM_BACKEND_HH
