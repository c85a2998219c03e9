#include "baselines/serial_system.hh"

#include <algorithm>
#include <unordered_set>

#include "sim/sim_error.hh"

namespace pva
{

SerialSystem::SerialSystem(std::string name, Kind kind,
                           const SystemConfig &config)
    : MemorySystem(std::move(name)), kind(kind), cfg(config.validate()),
      queue(cfg.bc.transactions)
{
    reserveLines(cfg.bc.transactions);
    statSet.addScalar("commands", &statCommands);
    statSet.addScalar(kind == Kind::CacheLine ? "lineFills" : "elements",
                      &statUnits);
    registerSimStats(statSet);
}

unsigned
SerialSystem::distinctLines(const VectorCommand &cmd, unsigned line_words)
{
    std::unordered_set<WordAddr> lines;
    for (std::uint32_t i = 0; i < cmd.length; ++i)
        lines.insert(cmd.element(i) / line_words);
    return static_cast<unsigned>(lines.size());
}

unsigned
SerialSystem::lineFills(const VectorCommand &cmd) const
{
    const unsigned line_words = cfg.bc.lineWords;
    if (cfg.optimisticLineReuse ||
        cmd.mode != VectorCommand::Mode::Stride || cmd.stride == 0)
        return distinctLines(cmd, line_words);
    unsigned per_line = cmd.stride >= line_words
                            ? 1
                            : std::max(1u, line_words / cmd.stride);
    return (cmd.length + per_line - 1) / per_line;
}

bool
SerialSystem::trySubmit(const VectorCommand &cmd, std::uint64_t tag,
                        const std::vector<Word> *write_data)
{
    if (queue.size() >= cfg.bc.transactions)
        return false;
    if (!cmd.isRead &&
        (write_data == nullptr || write_data->size() < cmd.length)) {
        throw SimError(SimErrorKind::Config, name(), kNeverCycle,
                       "write command lacks write data");
    }
    Job &job = queue.pushBack();
    job.cmd = cmd;
    job.tag = tag;
    if (!cmd.isRead)
        job.writeData = *write_data;
    job.started = false;
    ++statCommands;
    return true;
}

void
SerialSystem::finish(Job &job)
{
    Completion c;
    c.tag = job.tag;
    if (job.cmd.isRead) {
        c.data = takeLine();
        c.data.resize(job.cmd.length);
        for (std::uint32_t i = 0; i < job.cmd.length; ++i)
            c.data[i] = backing.read(job.cmd.element(i));
    } else {
        for (std::uint32_t i = 0; i < job.cmd.length; ++i)
            backing.write(job.cmd.element(i), job.writeData[i]);
    }
    completions.push_back(std::move(c));
}

void
SerialSystem::tick(Cycle now)
{
    tickActivity = false;
    if (queue.empty())
        return;
    Job &head = queue.front();
    if (!head.started) {
        const unsigned n = units(head.cmd);
        statUnits += n;
        head.finishAt = now + cyclesFor(n);
        head.started = true;
        tickActivity = true;
    }
    if (now >= head.finishAt) {
        finish(head);
        queue.popFront();
        tickActivity = true;
        // The next command starts on the following tick: the serial
        // controller processes one command at a time.
    }
}

Cycle
SerialSystem::nextWakeAfter(Cycle now) const
{
    if (tickActivity)
        return now + 1;
    if (queue.empty())
        return kNeverCycle;
    const Job &head = queue.front();
    if (!head.started || head.finishAt <= now)
        return now + 1;
    return head.finishAt;
}

void
SerialSystem::drainCompletionsInto(std::vector<Completion> &out)
{
    out.clear();
    std::swap(out, completions);
}

} // namespace pva
