/**
 * @file
 * The Vector Command Unit: the processor-side issue engine, and the
 * operation lists it issues.
 *
 * Models the paper's "infinitely fast CPU that issues memory requests as
 * soon as possible (subject to availability of bus resources)": every
 * cycle it submits, out of order, any trace operation whose dependences
 * have completed, until the memory system's transaction resources fill.
 * Every driver that feeds a command list to a MemorySystem (runTrace,
 * trace replay, the indirect and bit-reversed gathers, the L2 cache,
 * the examples) builds a KernelTrace and runs a unit over it.
 */

#ifndef PVA_CORE_COMMAND_UNIT_HH
#define PVA_CORE_COMMAND_UNIT_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "core/memory_system.hh"
#include "core/vector_command.hh"
#include "sim/simulation.hh"

namespace pva
{

/** One memory operation of a trace. */
struct KernelOp
{
    VectorCommand cmd;             ///< txn id unassigned
    std::vector<std::size_t> deps; ///< Ops that must complete first
    std::vector<Word> writeData;   ///< Dense line for writes
};

/** A complete run: ops in program order plus the expected final memory
 *  image of all written words (kernels/kernel.hh's verifyTrace checks
 *  it; other drivers leave it empty). */
struct KernelTrace
{
    std::vector<KernelOp> ops;
    std::vector<std::pair<WordAddr, Word>> expectedWrites;
};

/** Issues a KernelTrace against a MemorySystem. */
class VectorCommandUnit
{
  public:
    VectorCommandUnit(MemorySystem &sys, const KernelTrace &trace);

    /**
     * Drain completions and submit newly ready operations. Call once per
     * processed cycle (run() does).
     *
     * @return true when every operation has completed.
     */
    bool service();

    /**
     * Service this unit at every processed cycle of @p sim (which
     * drives the unit's memory system) until every operation has
     * completed; returns that cycle. Simulation::runUntil's watchdogs
     * throw SimError(Watchdog).
     */
    Cycle run(Simulation &sim, Cycle max_cycles,
              double wall_limit_millis = 0.0);

    bool done() const { return completedCount == trace.ops.size(); }

    /** Gathered line data per read op (empty for writes / not yet
     *  complete). */
    const std::vector<std::vector<Word>> &readData() const
    {
        return gathered;
    }

  private:
    enum class OpState { Waiting, Submitted, Completed };

    MemorySystem &sys;
    const KernelTrace &trace;
    std::vector<OpState> state;
    std::vector<std::vector<Word>> gathered;
    /** Drain buffer reused across service() calls: completions shuttle
     *  between this vector and the memory system's without touching
     *  the allocator (drainCompletionsInto swaps storage), and each
     *  consumed line buffer is handed back via recycleLine(). */
    std::vector<Completion> drained;
    std::size_t completedCount = 0;
    std::size_t scanFrom = 0; ///< First op not yet completed
};

/**
 * Issue @p cmds, with no dependences among them, through one
 * VectorCommandUnit::run on @p sim within @p max_cycles. Each write
 * takes the next cmd.length words of @p write_values as its line
 * (SimError(Config) if they are missing or run out).
 *
 * @return every read's line, concatenated in command order.
 */
std::vector<Word> runCommands(MemorySystem &sys, Simulation &sim,
                              const std::vector<VectorCommand> &cmds,
                              Cycle max_cycles,
                              const std::vector<Word> *write_values =
                                  nullptr);

} // namespace pva

#endif // PVA_CORE_COMMAND_UNIT_HH
