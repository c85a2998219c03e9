#include "kernels/kernel.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace pva
{

namespace
{

/** The scalar "a" of saxpy/scale/vaxpy; arbitrary but fixed. */
constexpr Word kScalarA = 3;

const std::vector<KernelSpec> &
specTable()
{
    static const std::vector<KernelSpec> specs = {
        {KernelId::Copy, "copy", 2, {0}, {1}, 1},
        {KernelId::Saxpy, "saxpy", 2, {0, 1}, {1}, 1},
        {KernelId::Scale, "scale", 1, {0}, {0}, 1},
        {KernelId::Swap, "swap", 2, {0, 1}, {0, 1}, 1},
        {KernelId::Tridiag, "tridiag", 3, {1, 2}, {0}, 1},
        {KernelId::Vaxpy, "vaxpy", 3, {0, 1, 2}, {2}, 1},
        {KernelId::Copy2, "copy2", 2, {0}, {1}, 2},
        {KernelId::Scale2, "scale2", 1, {0}, {0}, 2},
    };
    return specs;
}

/**
 * Compute the reference output values for every written stream.
 * Arithmetic is 32-bit wraparound: exact and platform independent.
 *
 * @param vals  initial element values per stream.
 * @param out   computed values per (written) stream.
 */
void
computeReference(const KernelSpec &spec, const WorkloadConfig &cfg,
                 const SparseMemory &mem,
                 const std::vector<std::vector<Word>> &vals,
                 std::vector<std::vector<Word>> &out)
{
    const std::uint32_t L = cfg.elements;
    out.assign(spec.numStreams, {});

    switch (spec.id) {
      case KernelId::Copy:
      case KernelId::Copy2:
        out[1] = vals[0]; // y[i] = x[i]
        break;
      case KernelId::Saxpy:
        out[1].resize(L);
        for (std::uint32_t i = 0; i < L; ++i)
            out[1][i] = vals[1][i] + kScalarA * vals[0][i];
        break;
      case KernelId::Scale:
      case KernelId::Scale2:
        out[0].resize(L);
        for (std::uint32_t i = 0; i < L; ++i)
            out[0][i] = kScalarA * vals[0][i];
        break;
      case KernelId::Swap:
        out[0] = vals[1];
        out[1] = vals[0];
        break;
      case KernelId::Tridiag: {
        // x[i] = z[i] * (y[i] - x[i-1]); x[-1] is the word before the
        // output stream's base (never written, read once by the CPU).
        out[0].resize(L);
        Word prev = mem.read(cfg.streamBases[0] - cfg.stride);
        for (std::uint32_t i = 0; i < L; ++i) {
            out[0][i] = vals[2][i] * (vals[1][i] - prev);
            prev = out[0][i];
        }
        break;
      }
      case KernelId::Vaxpy:
        out[2].resize(L);
        for (std::uint32_t i = 0; i < L; ++i)
            out[2][i] = vals[2][i] + vals[0][i] * vals[1][i];
        break;
    }
}

} // anonymous namespace

const Vocabulary<KernelId> &
kernelIds()
{
    static const Vocabulary<KernelId> table = [] {
        std::vector<Vocabulary<KernelId>::Entry> entries;
        for (const KernelSpec &s : specTable())
            entries.push_back({s.id, s.name});
        return Vocabulary<KernelId>(std::move(entries));
    }();
    return table;
}

const std::vector<KernelId> &
allKernels()
{
    return kernelIds().values();
}

const KernelSpec &
kernelSpec(KernelId id)
{
    for (const KernelSpec &s : specTable()) {
        if (s.id == id)
            return s;
    }
    panic("unknown kernel id %d", static_cast<int>(id));
}

KernelTrace
buildTrace(const KernelSpec &spec, const WorkloadConfig &cfg,
           const SparseMemory &mem)
{
    if (cfg.streamBases.size() < spec.numStreams) {
        throw SimError(SimErrorKind::Config, "kernel", kNeverCycle,
                       csprintf("kernel %s needs %u stream bases, got %zu",
                                spec.name.c_str(), spec.numStreams,
                                cfg.streamBases.size()));
    }
    if (cfg.stride == 0) {
        throw SimError(SimErrorKind::Config, "kernel", kNeverCycle,
                       "stride must be >= 1");
    }
    if (cfg.elements == 0) {
        throw SimError(SimErrorKind::Config, "kernel", kNeverCycle,
                       "element count must be >= 1");
    }
    if (cfg.elements % cfg.lineWords != 0) {
        throw SimError(SimErrorKind::Config, "kernel", kNeverCycle,
                       csprintf("element count %u must be a multiple of "
                                "the line length %u", cfg.elements,
                                cfg.lineWords));
    }

    const std::uint32_t L = cfg.elements;
    const unsigned lw = cfg.lineWords;
    const std::uint32_t chunks = L / lw;

    // Initial element values per stream.
    std::vector<std::vector<Word>> vals(spec.numStreams);
    for (unsigned s = 0; s < spec.numStreams; ++s) {
        vals[s].resize(L);
        for (std::uint32_t i = 0; i < L; ++i) {
            vals[s][i] = mem.read(cfg.streamBases[s] +
                                  static_cast<WordAddr>(cfg.stride) * i);
        }
    }

    std::vector<std::vector<Word>> out;
    computeReference(spec, cfg, mem, vals, out);

    KernelTrace trace;
    auto chunk_cmd = [&](unsigned stream, std::uint32_t chunk,
                         bool is_read) {
        VectorCommand c;
        c.base = cfg.streamBases[stream] +
                 static_cast<WordAddr>(cfg.stride) * chunk * lw;
        c.stride = cfg.stride;
        c.length = lw;
        c.isRead = is_read;
        return c;
    };

    // Group the commands of `unroll` consecutive chunks per stream
    // (two reads of x, then two writes of y, ...); each write depends
    // on its own chunk's reads. Without unrolling a group is one chunk.
    std::vector<std::vector<std::size_t>> reads_of(spec.unroll);
    for (std::uint32_t c = 0; c < chunks; c += spec.unroll) {
        const std::uint32_t group =
            std::min<std::uint32_t>(spec.unroll, chunks - c);
        for (std::vector<std::size_t> &ids : reads_of)
            ids.clear();
        for (unsigned rs : spec.readStreams) {
            for (std::uint32_t g = 0; g < group; ++g) {
                KernelOp op;
                op.cmd = chunk_cmd(rs, c + g, true);
                reads_of[g].push_back(trace.ops.size());
                trace.ops.push_back(std::move(op));
            }
        }
        for (unsigned ws : spec.writeStreams) {
            for (std::uint32_t g = 0; g < group; ++g) {
                KernelOp op;
                op.cmd = chunk_cmd(ws, c + g, false);
                op.deps = reads_of[g];
                op.writeData.assign(out[ws].begin() + (c + g) * lw,
                                    out[ws].begin() + (c + g + 1) * lw);
                trace.ops.push_back(std::move(op));
            }
        }
    }

    // Expected final memory image. Later writes to the same address win
    // (only relevant for overlapping streams, which presets avoid).
    for (unsigned ws : spec.writeStreams) {
        for (std::uint32_t i = 0; i < L; ++i) {
            trace.expectedWrites.emplace_back(
                cfg.streamBases[ws] +
                    static_cast<WordAddr>(cfg.stride) * i,
                out[ws][i]);
        }
    }
    return trace;
}

std::size_t
verifyTrace(const KernelTrace &trace, const SparseMemory &mem)
{
    std::size_t mismatches = 0;
    for (const auto &[addr, value] : trace.expectedWrites) {
        if (mem.read(addr) != value)
            ++mismatches;
    }
    return mismatches;
}

} // namespace pva
