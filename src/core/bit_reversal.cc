#include "core/bit_reversal.hh"

#include <algorithm>
#include <utility>

#include "core/command_unit.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace pva
{

std::vector<VectorCommand>
bitReversalCommands(WordAddr base, std::uint32_t count, unsigned line_words,
                    bool is_read)
{
    if (!isPowerOfTwo(count)) {
        throw SimError(SimErrorKind::Config, "bitrev", kNeverCycle,
                       csprintf("bit-reversal vector length %u must be a "
                                "power of two", count));
    }
    const unsigned bits = log2Exact(count);
    std::vector<VectorCommand> cmds;
    for (std::uint32_t off = 0; off < count; off += line_words) {
        VectorCommand c;
        c.mode = VectorCommand::Mode::BitReversal;
        c.base = base;
        c.length = std::min<std::uint32_t>(line_words, count - off);
        c.isRead = is_read;
        c.revBits = bits;
        c.revOffset = off;
        cmds.push_back(c);
    }
    return cmds;
}

BitReversalResult
runBitReversedGather(MemorySystem &sys, Simulation &sim, WordAddr base,
                     std::uint32_t count, unsigned line_words)
{
    Cycle start = sim.now();
    std::vector<Word> data = runCommands(
        sys, sim, bitReversalCommands(base, count, line_words, true),
        10000000);
    return {std::move(data), sim.now() - start};
}

} // namespace pva
