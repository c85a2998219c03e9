#include "kernels/trace_file.hh"

#include <charconv>
#include <istream>
#include <limits>
#include <numeric>
#include <sstream>

#include "core/command_unit.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace pva
{

namespace
{

/** Strides, poke values and write seeds are 32-bit fields. */
constexpr std::uint64_t kMaxField =
    std::numeric_limits<std::uint32_t>::max();

/** A token of the format's number grammar: 64-bit unsigned decimal
 *  without a sign or a leading zero (C would read "010" as octal), or
 *  0x-prefixed hex. */
bool
parseNumber(const std::string &tok, std::uint64_t &out)
{
    const bool hex = tok.size() > 2 && tok[0] == '0' &&
                     (tok[1] == 'x' || tok[1] == 'X');
    if (!hex && tok.size() > 1 && tok[0] == '0')
        return false;
    const char *first = tok.data() + (hex ? 2 : 0);
    const char *last = tok.data() + tok.size();
    const auto [end, ec] = std::from_chars(first, last, out, hex ? 16 : 10);
    return ec == std::errc() && end == last;
}

} // anonymous namespace

bool
parseTrace(std::istream &in, TraceFile &out, std::string &error)
{
    out.ops.clear();
    std::string line;
    unsigned line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        std::string::size_type hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream ss(line);
        std::string verb;
        if (!(ss >> verb))
            continue; // blank / comment-only line

        auto fail = [&](const std::string &what) {
            error = csprintf("line %u: %s", line_no, what.c_str());
            return false;
        };

        std::vector<std::uint64_t> args;
        std::string tok;
        while (ss >> tok) {
            std::uint64_t v;
            if (!parseNumber(tok, v))
                return fail("malformed number '" + tok + "'");
            args.push_back(v);
        }

        TraceOp op;
        if (verb == "poke") {
            if (args.size() != 2)
                return fail("poke needs <addr> <value>");
            if (args[1] > kMaxField)
                return fail("poke value exceeds 2^32-1");
            op.kind = TraceOp::Kind::Poke;
            op.addr = args[0];
            op.value = static_cast<Word>(args[1]);
        } else if (verb == "read" || verb == "write") {
            bool is_read = verb == "read";
            std::size_t need = is_read ? 3 : 4;
            if (args.size() != need)
                return fail(is_read
                                ? "read needs <base> <stride> <length>"
                                : "write needs <base> <stride> <length> "
                                  "<seed>");
            if (args[1] == 0)
                return fail("stride must be >= 1");
            if (args[1] > kMaxField)
                return fail("stride exceeds 2^32-1");
            if (args[2] == 0 || args[2] > 32)
                return fail("length must be in 1..32");
            if (!is_read && args[3] > kMaxField)
                return fail("write seed exceeds 2^32-1");
            if ((std::numeric_limits<WordAddr>::max() - args[0]) /
                    args[1] < args[2] - 1) {
                return fail("last element address exceeds 2^64-1");
            }
            op.kind = is_read ? TraceOp::Kind::Read
                              : TraceOp::Kind::Write;
            op.cmd.base = args[0];
            op.cmd.stride = static_cast<std::uint32_t>(args[1]);
            op.cmd.length = static_cast<std::uint32_t>(args[2]);
            op.cmd.isRead = is_read;
            if (!is_read)
                op.value = static_cast<Word>(args[3]);
        } else if (verb == "barrier") {
            if (!args.empty())
                return fail("barrier takes no arguments");
            op.kind = TraceOp::Kind::Barrier;
        } else {
            return fail("unknown verb");
        }
        out.ops.push_back(op);
    }
    error.clear();
    return true;
}

ReplayResult
replayTrace(MemorySystem &sys, const TraceFile &trace,
            ClockingMode clocking)
{
    constexpr Cycle kMaxCycles = 100000000;
    Simulation sim(sys, clocking);

    ReplayResult result;
    std::size_t next = 0; ///< First op of the next barrier segment
    while (next < trace.ops.size()) {
        // One barrier segment: its pokes land before any of its
        // commands issue; the commands issue with no order among them.
        KernelTrace segment;
        std::vector<std::size_t> op_index; ///< Trace index per command
        for (; next < trace.ops.size() &&
               trace.ops[next].kind != TraceOp::Kind::Barrier;
             ++next) {
            const TraceOp &op = trace.ops[next];
            if (op.kind == TraceOp::Kind::Poke) {
                sys.memory().write(op.addr, op.value);
                continue;
            }
            KernelOp &k = segment.ops.emplace_back();
            k.cmd = op.cmd;
            if (op.kind == TraceOp::Kind::Write) {
                k.writeData.resize(op.cmd.length);
                std::iota(k.writeData.begin(), k.writeData.end(),
                          op.value);
            }
            op_index.push_back(next);
        }
        ++next; // the barrier (or the end of the trace)
        if (segment.ops.empty())
            continue;

        VectorCommandUnit vcu(sys, segment);
        vcu.run(sim, kMaxCycles - sim.now());
        result.commands += segment.ops.size();
        for (std::size_t k = 0; k < segment.ops.size(); ++k) {
            const std::vector<Word> &data = vcu.readData()[k];
            for (std::size_t i = 0; i < data.size(); ++i) {
                // Order-independent mix of (op index, slot, value).
                std::uint64_t x = op_index[k] * 1000003u +
                                  i * 0x9e3779b9u + data[i];
                x ^= x >> 33;
                result.readChecksum += x * 0xff51afd7ed558ccdULL;
            }
        }
    }

    result.cycles = sim.now();
    result.simTicks = sim.simTicks();
    result.cyclesSkipped = sim.cyclesSkipped();
    return result;
}

} // namespace pva
