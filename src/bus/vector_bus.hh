/**
 * @file
 * The split-transaction Vector Bus of section 5.2.1.
 *
 * The bus multiplexes request cycles (VEC_READ / VEC_WRITE / STAGE_READ /
 * STAGE_WRITE, with a 32-bit address, 32-bit stride, 3-bit transaction id
 * and 2-bit command) and data cycles (64 bits per cycle toward the system
 * bus; physically a 128-bit BC bus driving alternate 64-bit halves every
 * other cycle to avoid turnaround cycles). A 128-byte cache line therefore
 * takes 16 data cycles. Eight wired-OR transaction-complete lines are
 * shared by all bank controllers.
 *
 * This class is a passive arbitration/occupancy model: the PVA front end
 * drives it and hands each VEC_READ/VEC_WRITE straight to the bank
 * controllers it hits, which act on it in the same cycle (they tick
 * after the front end).
 */

#ifndef PVA_BUS_VECTOR_BUS_HH
#define PVA_BUS_VECTOR_BUS_HH

#include <cstdint>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace pva
{

/** The four bus commands of section 5.2.6. */
enum class BusOpcode : std::uint8_t
{
    VecRead,
    VecWrite,
    StageRead,
    StageWrite,
};

/** Occupancy and broadcast model of the shared vector bus. */
class VectorBus
{
  public:
    /** @param line_words words per cache line (data burst length / 2). */
    explicit VectorBus(unsigned line_words = 32);

    /** Number of data cycles one full line occupies. */
    unsigned dataCycles() const { return lineWords / 2; }

    /** Can a request cycle be driven at @p now? */
    bool
    requestFree(Cycle now) const
    {
        return now >= freeAt;
    }

    /**
     * Drive a one-cycle command broadcast of @p opcode for transaction
     * @p txn. STAGE_READ / STAGE_WRITE also reserve the following
     * dataCycles() cycles for the line transfer.
     */
    void drive(Cycle now, BusOpcode opcode, std::uint8_t txn);

    /** Cycle at which the current reservation ends (for completions). */
    Cycle busyUntil() const { return freeAt; }

    /** @name Statistics @{ */
    Scalar statRequestCycles;
    Scalar statDataCycles;
    /** @} */

    void registerStats(StatSet &set, const std::string &prefix) const;

    /** @name Trace track handle (see sim/trace.hh; 0 = untraced) @{ */
    void setTraceTrack(std::uint32_t id) { traceTrackId = id; }
    std::uint32_t traceTrack() const { return traceTrackId; }
    /** @} */

  private:
    unsigned lineWords;
    std::uint32_t traceTrackId = 0;
    Cycle freeAt = 0;
};

} // namespace pva

#endif // PVA_BUS_VECTOR_BUS_HH
