/**
 * @file
 * The Vector Command Unit: the processor-side issue engine, and the
 * operation lists it issues.
 *
 * Models the paper's "infinitely fast CPU that issues memory requests as
 * soon as possible (subject to availability of bus resources)": every
 * cycle it submits, out of order, any trace operation whose dependences
 * have completed, until the memory system's transaction resources fill.
 * Each op counts its dependences still outstanding; a completion counts
 * down its dependents', and an op whose count reaches zero joins a
 * min-heap of ready ops, so submission goes lowest index first and no
 * cycle rescans the waiting ops. A refused submission is remembered
 * until the next drained completion (MemorySystem::trySubmit's
 * contract), so a full system is not asked again every cycle.
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
    /** SimError(Config) if an op depends on an op index outside
     *  @p trace. */
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
    MemorySystem &sys;
    const KernelTrace &trace;
    std::vector<std::vector<Word>> gathered;
    /** Per op: dependences not yet completed. */
    std::vector<std::size_t> depsLeft;
    /** The ops depending on op i are dependents[dependentsAt[i] ..
     *  dependentsAt[i + 1]) (one entry per listed dependence). */
    std::vector<std::size_t> dependentsAt;
    std::vector<std::size_t> dependents;
    /** Ready, unsubmitted ops: a min-heap on the op index. */
    std::vector<std::size_t> ready;
    /** The memory system refused a submission and has completed
     *  nothing since. */
    bool refused = false;
    /** Drain buffer reused across service() calls: completions shuttle
     *  between this vector and the memory system's without touching
     *  the allocator (drainCompletionsInto swaps storage), and each
     *  consumed line buffer is handed back via recycleLine(). */
    std::vector<Completion> drained;
    std::size_t completedCount = 0;
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
