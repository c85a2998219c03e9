#include "core/indirect.hh"

#include <algorithm>
#include <utility>

#include "core/command_unit.hh"
#include "sim/sim_error.hh"

namespace pva
{

std::vector<VectorCommand>
indirectPhase1(WordAddr index_vec_base, std::uint32_t count,
               unsigned line_words)
{
    std::vector<VectorCommand> cmds;
    for (std::uint32_t off = 0; off < count; off += line_words) {
        VectorCommand c;
        c.base = index_vec_base + off;
        c.stride = 1;
        c.length = std::min<std::uint32_t>(line_words, count - off);
        c.isRead = true;
        cmds.push_back(c);
    }
    return cmds;
}

std::vector<VectorCommand>
indirectPhase2(WordAddr target_base, const std::vector<WordAddr> &indices,
               unsigned line_words, bool is_read)
{
    std::vector<VectorCommand> cmds;
    for (std::size_t off = 0; off < indices.size(); off += line_words) {
        VectorCommand c;
        c.mode = VectorCommand::Mode::Indirect;
        c.base = target_base;
        c.length = static_cast<std::uint32_t>(
            std::min<std::size_t>(line_words, indices.size() - off));
        c.isRead = is_read;
        c.indices.assign(indices.begin() + off,
                         indices.begin() + off + c.length);
        cmds.push_back(c);
    }
    return cmds;
}

namespace
{

/** Cycle budget of each phase's run (Simulation::runUntil). */
constexpr Cycle kPhaseCycles = 10000000;

/** Phase 1: load @p count indices from @p index_vec_base. */
std::vector<WordAddr>
loadIndices(MemorySystem &sys, Simulation &sim, WordAddr index_vec_base,
            std::uint32_t count, unsigned line_words)
{
    std::vector<Word> words = runCommands(
        sys, sim, indirectPhase1(index_vec_base, count, line_words),
        kPhaseCycles);
    return {words.begin(), words.end()};
}

} // anonymous namespace

IndirectRunResult
runIndirectGather(MemorySystem &sys, Simulation &sim,
                  WordAddr index_vec_base, std::uint32_t count,
                  WordAddr target_base, unsigned line_words)
{
    Cycle start = sim.now();
    std::vector<WordAddr> indices =
        loadIndices(sys, sim, index_vec_base, count, line_words);

    // Phase 2: broadcast the indices and gather in parallel.
    std::vector<Word> data = runCommands(
        sys, sim, indirectPhase2(target_base, indices, line_words, true),
        kPhaseCycles);
    return {std::move(data), sim.now() - start};
}

Cycle
runIndirectScatter(MemorySystem &sys, Simulation &sim,
                   WordAddr index_vec_base, std::uint32_t count,
                   WordAddr target_base, const std::vector<Word> &values,
                   unsigned line_words)
{
    if (values.size() < count) {
        throw SimError(SimErrorKind::Config, "indirect", kNeverCycle,
                       "scatter values shorter than index count");
    }
    Cycle start = sim.now();
    std::vector<WordAddr> indices =
        loadIndices(sys, sim, index_vec_base, count, line_words);

    runCommands(sys, sim,
                indirectPhase2(target_base, indices, line_words, false),
                kPhaseCycles, &values);
    return sim.now() - start;
}

} // namespace pva
