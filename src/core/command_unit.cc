#include "core/command_unit.hh"

#include <algorithm>
#include <functional>

#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace pva
{

VectorCommandUnit::VectorCommandUnit(MemorySystem &sys_,
                                     const KernelTrace &trace_)
    : sys(sys_), trace(trace_), gathered(trace_.ops.size()),
      depsLeft(trace_.ops.size(), 0),
      dependentsAt(trace_.ops.size() + 1, 0)
{
    // Pre-size every per-op buffer so the issue/complete loop below
    // never allocates (construction is the warmup phase). The
    // dependents lists are laid out flat: count each op's dependents,
    // turn the counts into range ends, then fill every range from its
    // end, which leaves dependentsAt[i] at the start of op i's range.
    const std::size_t n = trace.ops.size();
    for (std::size_t i = 0; i < n; ++i) {
        const KernelOp &op = trace.ops[i];
        if (op.cmd.isRead)
            gathered[i].reserve(op.cmd.length);
        depsLeft[i] = op.deps.size();
        for (std::size_t d : op.deps) {
            if (d >= n) {
                throw SimError(SimErrorKind::Config, "command_unit",
                               kNeverCycle,
                               csprintf("op %zu depends on op %zu of a "
                                        "%zu-op trace", i, d, n));
            }
            ++dependentsAt[d];
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        dependentsAt[i + 1] += dependentsAt[i];
    dependents.resize(dependentsAt[n]);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t d : trace.ops[i].deps)
            dependents[--dependentsAt[d]] = i;
    }
    // Ascending order is already a valid min-heap.
    ready.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (depsLeft[i] == 0)
            ready.push_back(i);
    }
    drained.reserve(16);
}

bool
VectorCommandUnit::service()
{
    sys.drainCompletionsInto(drained);
    for (Completion &c : drained) {
        std::size_t i = static_cast<std::size_t>(c.tag);
        gathered[i].assign(c.data.begin(), c.data.end());
        sys.recycleLine(std::move(c.data));
        ++completedCount;
        for (std::size_t k = dependentsAt[i]; k < dependentsAt[i + 1]; ++k) {
            if (--depsLeft[dependents[k]] == 0) {
                ready.push_back(dependents[k]);
                std::push_heap(ready.begin(), ready.end(), std::greater<>{});
            }
        }
    }
    if (!drained.empty())
        refused = false;

    while (!refused && !ready.empty()) {
        const KernelOp &op = trace.ops[ready.front()];
        const std::vector<Word> *wd =
            op.cmd.isRead ? nullptr : &op.writeData;
        if (!sys.trySubmit(op.cmd, ready.front(), wd)) {
            refused = true; // transaction resources exhausted
            break;
        }
        std::pop_heap(ready.begin(), ready.end(), std::greater<>{});
        ready.pop_back();
    }

    return done();
}

Cycle
VectorCommandUnit::run(Simulation &sim, Cycle max_cycles,
                       double wall_limit_millis)
{
    return sim.runUntil([this] { return service(); }, max_cycles,
                        wall_limit_millis);
}

std::vector<Word>
runCommands(MemorySystem &sys, Simulation &sim,
            const std::vector<VectorCommand> &cmds, Cycle max_cycles,
            const std::vector<Word> *write_values)
{
    KernelTrace trace;
    std::size_t used = 0;
    for (const VectorCommand &c : cmds) {
        KernelOp &op = trace.ops.emplace_back();
        op.cmd = c;
        if (c.isRead)
            continue;
        if (!write_values || write_values->size() - used < c.length) {
            throw SimError(SimErrorKind::Config, "command_unit",
                           kNeverCycle, "write values run out");
        }
        op.writeData.assign(write_values->begin() + used,
                            write_values->begin() + used + c.length);
        used += c.length;
    }

    VectorCommandUnit vcu(sys, trace);
    vcu.run(sim, max_cycles);
    std::vector<Word> words;
    for (const std::vector<Word> &line : vcu.readData())
        words.insert(words.end(), line.begin(), line.end());
    return words;
}

} // namespace pva
