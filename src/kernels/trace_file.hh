/**
 * @file
 * Text trace format for driving a memory system from a file.
 *
 * A trace is a sequence of lines; '#' starts a comment. Commands:
 *
 *     poke <addr> <value>                 write a word functionally
 *     read <base> <stride> <length>       vector gather
 *     write <base> <stride> <length> <seed>
 *                                         vector scatter; element i
 *                                         carries the value seed + i
 *     barrier                             wait for all prior commands
 *
 * Numbers are unsigned decimal (no leading zeros) or 0x-prefixed hex;
 * addresses and strides are in words. Strides, poke values and write
 * seeds must fit 32 bits, and a vector's last element address 64.
 *
 * Barriers cut the trace into segments that run one after another.
 * Every poke of a segment applies when the segment starts, before any
 * of its commands issues, wherever it sits among them: a poke written
 * after a read still lands before that read. Within a segment, reads
 * and writes issue as soon as transaction resources allow, with no
 * ordering among them.
 */

#ifndef PVA_KERNELS_TRACE_FILE_HH
#define PVA_KERNELS_TRACE_FILE_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "core/memory_system.hh"
#include "core/vector_command.hh"
#include "sim/clocking.hh"

namespace pva
{

/** One parsed trace line. */
struct TraceOp
{
    enum class Kind { Poke, Read, Write, Barrier };

    Kind kind;
    WordAddr addr = 0; ///< Poke target
    Word value = 0;    ///< Poke value / write seed
    VectorCommand cmd; ///< Read/Write vector
};

/** A parsed trace. */
struct TraceFile
{
    std::vector<TraceOp> ops;
};

/**
 * Parse a trace from @p in. Throws no exceptions: returns false and
 * fills @p error (with a line number) on malformed input.
 */
bool parseTrace(std::istream &in, TraceFile &out, std::string &error);

/** Result of replaying a trace. */
struct ReplayResult
{
    Cycle cycles = 0;
    std::uint64_t commands = 0;
    /** Order-independent checksum over all gathered read data. */
    std::uint64_t readChecksum = 0;
    /** Cycles actually processed by the clocking core. */
    std::uint64_t simTicks = 0;
    /** Cycles skipped by event clocking (0 under Exhaustive). */
    std::uint64_t cyclesSkipped = 0;
};

/**
 * Replay @p trace against @p sys until every command completes: one
 * VectorCommandUnit per barrier segment, all on one Simulation within a
 * 100,000,000-cycle watchdog (SimError(Watchdog) past it).
 */
ReplayResult replayTrace(MemorySystem &sys, const TraceFile &trace,
                         ClockingMode clocking = ClockingMode::Event);

} // namespace pva

#endif // PVA_KERNELS_TRACE_FILE_HH
