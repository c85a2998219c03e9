#include "core/command_unit.hh"

#include "sim/sim_error.hh"

namespace pva
{

VectorCommandUnit::VectorCommandUnit(MemorySystem &sys_,
                                     const KernelTrace &trace_)
    : sys(sys_), trace(trace_),
      state(trace_.ops.size(), OpState::Waiting),
      gathered(trace_.ops.size())
{
    // Pre-size the per-op result buffers so the issue/complete loop
    // below never allocates (construction is the warmup phase).
    for (std::size_t i = 0; i < trace.ops.size(); ++i) {
        if (trace.ops[i].cmd.isRead)
            gathered[i].reserve(trace.ops[i].cmd.length);
    }
    drained.reserve(16);
}

bool
VectorCommandUnit::service()
{
    sys.drainCompletionsInto(drained);
    for (Completion &c : drained) {
        std::size_t i = static_cast<std::size_t>(c.tag);
        state[i] = OpState::Completed;
        gathered[i].assign(c.data.begin(), c.data.end());
        sys.recycleLine(std::move(c.data));
        ++completedCount;
    }

    while (scanFrom < trace.ops.size() &&
           state[scanFrom] == OpState::Completed) {
        ++scanFrom;
    }

    for (std::size_t i = scanFrom; i < trace.ops.size(); ++i) {
        if (state[i] != OpState::Waiting)
            continue;
        bool ready = true;
        for (std::size_t d : trace.ops[i].deps) {
            if (state[d] != OpState::Completed) {
                ready = false;
                break;
            }
        }
        if (!ready)
            continue;
        const KernelOp &op = trace.ops[i];
        const std::vector<Word> *wd =
            op.cmd.isRead ? nullptr : &op.writeData;
        if (!sys.trySubmit(op.cmd, i, wd))
            break; // transaction resources exhausted this cycle
        state[i] = OpState::Submitted;
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
