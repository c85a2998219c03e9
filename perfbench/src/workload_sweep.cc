/**
 * @file
 * sweep: the full chapter-6 grid (4 systems x 8 kernels x 6 strides x
 * 5 alignments, 1024 elements) through SweepExecutor(1)::runReport and
 * writeCsv, exactly as `pva_sim --sweep` runs it, with the CSV compared
 * byte for byte against tests/expected/sweep_legacy.csv.
 *
 * The traced pass runs the same points through the calls runPoint()
 * makes (makeSystem, buildTrace, runTrace), so system construction,
 * trace build, the run and its verify each get a span.
 */

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "counts.hh"
#include "kernels/sweep_executor.hh"
#include "probes.hh"
#include "workload.hh"

namespace perfbench
{

using namespace pva;

namespace
{

/** FNV-1a hash, folding the CSV into one signature entry. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Identifies a CSV row: "system,kernel,stride,alignment". */
std::string
rowKey(SystemKind system, KernelId kernel, std::uint32_t stride,
       unsigned alignment)
{
    return std::string(systemName(system)) + "," +
           kernelSpec(kernel).name + "," + std::to_string(stride) + "," +
           alignmentPresets()[alignment].name;
}

/** Vector commands one point issues: one per 32-element chunk per
 *  read and write stream. */
std::uint64_t
commandsOf(const SweepRequest &req)
{
    const KernelSpec &spec = kernelSpec(req.kernel);
    return (spec.readStreams.size() + spec.writeStreams.size()) *
           (req.elements / req.config.bc.lineWords);
}

const char *
constructSpan(SystemKind kind)
{
    switch (kind) {
      case SystemKind::PvaSdram:
        return "construct.make_system_ms.pva";
      case SystemKind::PvaSram:
        return "construct.make_system_ms.sram";
      default:
        return "construct.make_system_ms.baselines";
    }
}

class SweepWorkload final : public Workload
{
  public:
    explicit SweepWorkload(std::string root_dir) : root(std::move(root_dir))
    {
    }

    void
    setup(std::uint64_t seed, Scale scale) override
    {
        (void)seed; // The grid is fixed; the seed drives the probes.
        grid = SweepExecutor::chapter6Grid(1024);
        if (scale == Scale::Tiny) {
            std::vector<SweepRequest> small;
            for (const SweepRequest &r : grid) {
                if ((r.kernel == KernelId::Copy ||
                     r.kernel == KernelId::Vaxpy) &&
                    (r.stride == 1 || r.stride == 19) && r.alignment == 0)
                    small.push_back(r);
            }
            grid = std::move(small);
        }
        loadExpected();
    }

    PassResult
    run() override
    {
        PassResult r;
        SweepExecutor executor(1);
        std::vector<std::pair<SystemKind, double>> pointMillis;
        pointMillis.reserve(grid.size());
        r.segments.reserve(grid.size());
        Laps laps(r.segments);
        executor.onProgress([&](const SweepProgress &p) {
            pointMillis.emplace_back(p.point.system, p.millis);
            laps.lap();
        });
        const auto t0 = Clock::now();
        SweepReport report = executor.runReport(grid);
        const double reportMs = secondsSince(t0) * 1e3;
        std::ostringstream csv;
        writeCsv(csv, report.points);

        finish(report.points, csv.str(), r);
        recordPointMillis(pointMillis, reportMs, r.layer);
        return r;
    }

    PassResult
    runTraced(Tracer &tracer) override
    {
        PassResult r;
        std::vector<SweepPoint> points;
        points.reserve(grid.size());
        ScopedSpan pass(&tracer, "bench.pass");
        for (std::size_t i = 0; i < grid.size(); ++i) {
            const auto id = static_cast<std::int64_t>(i);
            const SweepRequest &req = grid[i];
            // The body of runPoint(), one span per layer call.
            const KernelSpec &spec = kernelSpec(req.kernel);
            WorkloadConfig cfg;
            cfg.stride = req.stride;
            cfg.elements = req.elements;
            cfg.lineWords = req.config.bc.lineWords;
            cfg.streamBases =
                streamBases(alignmentPresets().at(req.alignment),
                            spec.numStreams, req.stride, req.elements);
            RunLimits limits = req.limits;
            limits.clocking = req.config.clocking;

            std::unique_ptr<MemorySystem> sys;
            {
                ScopedSpan s(&tracer, constructSpan(req.system), id);
                sys = makeSystem(req.system, req.config);
            }
            KernelTrace trace;
            {
                ScopedSpan s(&tracer, "kernels.build_trace_ms", id);
                trace = buildTrace(spec, cfg, sys->memory());
            }
            RunResult rr;
            {
                ScopedSpan s(&tracer, "kernels.run_overhead_ms", id);
                rr = runTrace(*sys, trace, limits);
                tracer.addMeasured("sim.run_until_ms", rr.wallMillis, id);
            }
            SweepPoint p{req.system, req.kernel, req.stride,
                         req.alignment, rr.cycles, rr.mismatches};
            p.simTicks = rr.simTicks;
            p.cyclesSkipped = rr.cyclesSkipped;
            points.push_back(p);
            {
                ScopedSpan s(&tracer, "bench.collect_counts", id);
                r.layer["sim.run_until_ms"] += rr.wallMillis;
                addPvaStats(*sys, rr.cycles, r.layer);
            }
            // runPoint() frees both before returning; charge each
            // teardown to the layer that built it.
            {
                ScopedSpan s(&tracer, "kernels.build_trace_ms", id);
                trace = KernelTrace{};
            }
            ScopedSpan s(&tracer, constructSpan(req.system), id);
            sys.reset();
        }
        std::ostringstream csv;
        {
            ScopedSpan s(&tracer, "kernels.csv_emit_ms");
            writeCsv(csv, points);
        }
        finish(points, csv.str(), r);
        return r;
    }

    void
    probe(std::uint64_t seed, std::map<std::string, double> &out) override
    {
        runCoreProbes(paperStrides(), seed, out);
    }

  private:
    void
    loadExpected()
    {
        const std::string path = root + "/tests/expected/sweep_legacy.csv";
        std::ifstream f(path);
        if (!f)
            throw std::runtime_error("cannot read " + path);
        std::map<std::string, std::string> byKey;
        std::string line;
        std::getline(f, expectedHeader);
        while (std::getline(f, line)) {
            // The key is everything before the fifth comma-separated
            // field (cycles).
            std::size_t cut = 0;
            for (int c = 0; c < 4 && cut != std::string::npos; ++c)
                cut = line.find(',', cut + (c ? 1 : 0));
            if (cut != std::string::npos)
                byKey[line.substr(0, cut)] = line;
        }
        expectedRows.clear();
        for (const SweepRequest &r : grid) {
            auto it = byKey.find(
                rowKey(r.system, r.kernel, r.stride, r.alignment));
            expectedRows.push_back(it == byKey.end() ? "" : it->second);
        }
    }

    /** Check every point against the committed CSV and reduce. */
    void
    finish(const std::vector<SweepPoint> &points, const std::string &csv,
           PassResult &r) const
    {
        std::istringstream in(csv);
        std::string header, row;
        std::getline(in, header);
        r.attempted = points.size();
        std::vector<std::uint64_t> cycles;
        cycles.reserve(points.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            const SweepPoint &p = points[i];
            std::getline(in, row);
            if (p.status == PointStatus::Failed || p.mismatches != 0 ||
                row != expectedRows[i] ||
                (i == 0 && header != expectedHeader)) {
                r.fail(1, "sweep point " + std::to_string(i) + " (" +
                              rowKey(p.system, p.kernel, p.stride,
                                     p.alignment) +
                              "): got '" + row + "'");
            }
            cycles.push_back(p.cycles);
            r.simCycles += p.cycles;
            const std::uint64_t cmds = commandsOf(grid[i]);
            r.requests += cmds;
            r.words += cmds * grid[i].config.bc.lineWords;
            addSimCycles(p.simTicks, p.cyclesSkipped, r.layer);
        }
        r.latencyP50 = percentileOf(cycles, 50.0);
        r.latencyP99 = percentileOf(cycles, 99.0);
        r.latencySamples = cycles.size();
        r.capacity = r.simCycles
            ? static_cast<double>(r.requests) * 1000.0 / r.simCycles
            : 0.0;
        r.signEndToEnd();
        r.signature["csv_fnv1a"] = fnv1a(csv);
        r.signature["sim.ticks"] =
            static_cast<std::uint64_t>(r.layer["sim.ticks"]);
        r.signature["sim.cycles_skipped"] =
            static_cast<std::uint64_t>(r.layer["sim.cycles_skipped"]);
    }

    /** Per-system point wall-time percentiles (progress callback) and
     *  the executor's own overhead around them. */
    static void
    recordPointMillis(
        const std::vector<std::pair<SystemKind, double>> &pointMillis,
        double reportMs, std::map<std::string, double> &layer)
    {
        std::map<SystemKind, std::vector<double>> bySystem;
        double total = 0.0;
        for (const auto &[sys, ms] : pointMillis) {
            bySystem[sys].push_back(ms);
            total += ms;
        }
        auto pct = [&](SystemKind k, double q) {
            return quantileOf(bySystem[k], q);
        };
        layer["kernels.point_ms.pva.p50"] = pct(SystemKind::PvaSdram, 0.5);
        layer["kernels.point_ms.pva.p95"] =
            pct(SystemKind::PvaSdram, 0.95);
        layer["kernels.point_ms.sram.p50"] = pct(SystemKind::PvaSram, 0.5);
        layer["kernels.point_ms.sram.p95"] =
            pct(SystemKind::PvaSram, 0.95);
        layer["kernels.point_ms.cacheline.p50"] =
            pct(SystemKind::CacheLine, 0.5);
        layer["kernels.point_ms.gathering.p50"] =
            pct(SystemKind::Gathering, 0.5);
        layer["kernels.executor_overhead_ms"] = reportMs - total;
    }

    std::string root;
    std::vector<SweepRequest> grid;
    std::string expectedHeader;
    std::vector<std::string> expectedRows; ///< Index-aligned with grid
};

} // anonymous namespace

std::unique_ptr<Workload>
makeSweepWorkload(const std::string &root)
{
    return std::make_unique<SweepWorkload>(root);
}

} // namespace perfbench
