/**
 * @file
 * traffic: a flat offered-load ladder (runLoadSweep) on PVA SDRAM with
 * four open-loop streams — three strided (stride 1-64, 8-32 elements,
 * 70% reads) and one indirect gather — at 5, 20, 35, 45, 50, 55 and 60
 * requests per kilocycle, 3000 requests per stream, shedding off, one
 * rung per call, and the curve emitted as JSON (writeLoadJson). Low
 * rungs are almost all skipped cycles; the top rungs saturate past the
 * knee.
 *
 * The traced pass runs each rung through runTraffic(), re-rated the
 * way runLoadSweep() does it, with the stats dump enabled so the
 * memory system's counters can be read.
 */

#include <sstream>

#include "counts.hh"
#include "probes.hh"
#include "sim/random.hh"
#include "sim/sim_error.hh"
#include "traffic/traffic_runner.hh"
#include "workload.hh"

namespace perfbench
{

using namespace pva;

namespace
{

/** Latency-limit of the capacity metric: 200 cycles (2 us at the
 *  paper's 100 MHz), met by p99 with no growing backlog. */
constexpr std::uint64_t kLatencyLimit = 200;
constexpr double kMinAchievedShare = 0.98;

class TrafficWorkload final : public Workload
{
  public:
    void
    setup(std::uint64_t seed, Scale scale) override
    {
        Random rng(seed);
        const std::uint64_t requests = scale == Scale::Full ? 3000 : 100;
        sweep = LoadSweepConfig{};
        sweep.base.system = SystemKind::PvaSdram;
        sweep.base.streams.clear();
        for (unsigned i = 0; i < 4; ++i) {
            StreamConfig s;
            s.mode = ArrivalMode::OpenLoop;
            s.requests = requests;
            s.seed = rng.next();
            s.pattern.regionBase = static_cast<WordAddr>(i) << 20;
            s.pattern.regionWords = 1 << 20;
            s.pattern.minLength = 8;
            s.pattern.maxLength = 32;
            if (i < 3) {
                s.pattern.minStride = 1;
                s.pattern.maxStride = 64;
                s.pattern.readFraction = 0.7;
            } else {
                s.pattern.mode = VectorCommand::Mode::Indirect;
                s.pattern.readFraction = 1.0;
            }
            sweep.base.streams.push_back(s);
        }
        sweep.offeredLoads = scale == Scale::Full
            ? std::vector<double>{5, 20, 35, 45, 50, 55, 60}
            : std::vector<double>{20, 45, 60};
        sweep.systems = {SystemKind::PvaSdram};
        sweep.jobs = 1;
        // Latency is read at the 35 req/kc rung, about 70% of the
        // ladder's knee (the middle rung at tiny scale).
        latencyRung = scale == Scale::Full ? 2 : 1;
    }

    PassResult
    run() override
    {
        // One runLoadSweep() call per rung, so that each rung is a
        // segment of the pass's host time.
        std::vector<double> segments;
        Laps laps(segments);
        std::vector<LoadPoint> points;
        LoadSweepConfig rung = sweep;
        for (double load : sweep.offeredLoads) {
            rung.offeredLoads = {load};
            for (LoadPoint &p : runLoadSweep(rung))
                points.push_back(std::move(p));
            laps.lap();
        }
        std::ostringstream json;
        writeLoadJson(json, points);
        PassResult r = finish(points);
        r.segments = std::move(segments);
        return r;
    }

    PassResult
    runTraced(Tracer &tracer) override
    {
        ScopedSpan root(&tracer, "bench.pass");
        std::vector<LoadPoint> points;
        std::map<std::string, double> counts;
        for (std::size_t li = 0; li < sweep.offeredLoads.size(); ++li) {
            const auto id = static_cast<std::int64_t>(li);
            // One rung as runLoadSweep() builds it: every stream open
            // loop, the aggregate load split evenly.
            LoadPoint p;
            p.system = sweep.base.system;
            p.offered = sweep.offeredLoads[li];
            TrafficConfig tc = sweep.base;
            for (StreamConfig &s : tc.streams) {
                s.mode = ArrivalMode::OpenLoop;
                s.requestsPerKilocycle =
                    p.offered / static_cast<double>(tc.streams.size());
            }
            std::ostringstream dump;
            try {
                ScopedSpan s(&tracer, "traffic.run_overhead_ms", id);
                p.result = runTraffic(tc, &dump);
                const TrafficResult &tr = p.result;
                const double runUntilMs = tr.cyclesPerSecond
                    ? tr.cycles * 1e3 / static_cast<double>(
                                            tr.cyclesPerSecond)
                    : 0.0;
                tracer.addMeasured("sim.run_until_ms", runUntilMs, id);
                counts["sim.run_until_ms"] += runUntilMs;
            } catch (const SimError &e) {
                p.failed = true;
                p.error = e.what();
            }
            ScopedSpan s(&tracer, "bench.collect_counts", id);
            addPvaStats(parseStatDump(dump.str()),
                        tc.config.geometry.banks(), p.result.cycles,
                        counts);
            points.push_back(std::move(p));
        }
        const std::vector<double> rungMs =
            tracer.durations("traffic.run_overhead_ms");
        {
            std::ostringstream json;
            ScopedSpan s(&tracer, "traffic.emit_ms");
            writeLoadJson(json, points);
        }
        PassResult r = finish(points);
        for (const auto &[name, v] : counts)
            r.layer[name] += v;
        r.layer["traffic.run_ms.p50"] = medianOf(rungMs);
        r.layer["traffic.run_ms.max"] = quantileOf(rungMs, 1.0);
        return r;
    }

    void
    probe(std::uint64_t seed, std::map<std::string, double> &out) override
    {
        // The strided streams' stride range, drawn from the seed.
        Random rng(seed ^ 0x57a1deULL);
        std::vector<std::uint32_t> strides;
        for (unsigned i = 0; i < 16; ++i)
            strides.push_back(static_cast<std::uint32_t>(rng.range(1, 64)));
        runCoreProbes(strides, seed, out);
        std::vector<StreamConfig> streams = sweep.base.streams;
        for (StreamConfig &s : streams)
            s.requests = std::min<std::uint64_t>(s.requests, 1000);
        probeStreamArbiter(streams, out);
    }

  private:
    /** Check every rung, reduce, and take the capacity and latency. */
    PassResult
    finish(const std::vector<LoadPoint> &points) const
    {
        PassResult r;
        std::uint64_t perRung = 0;
        for (const StreamConfig &s : sweep.base.streams)
            perRung += s.requests;
        double deferrals = 0.0, queuePeak = 0.0;
        for (std::size_t li = 0; li < points.size(); ++li) {
            const LoadPoint &p = points[li];
            const TrafficResult &t = p.result;
            const std::string rung =
                "rung" + std::to_string(static_cast<int>(p.offered));
            r.attempted += perRung;
            if (p.failed) {
                r.fail(perRung, rung + " failed: " + p.error);
                continue;
            }
            std::uint64_t generated = 0;
            for (const StreamResult &s : t.streams) {
                generated += s.requests;
                deferrals += static_cast<double>(s.deferrals);
                queuePeak = std::max(queuePeak,
                                     static_cast<double>(s.queuePeak));
            }
            if (generated != perRung || t.completed != perRung ||
                t.shed != 0) {
                const std::uint64_t missing =
                    perRung > t.completed ? perRung - t.completed : 1;
                r.fail(missing, rung + ": generated " +
                                    std::to_string(generated) +
                                    ", completed " +
                                    std::to_string(t.completed));
            }
            r.simCycles += t.cycles;
            r.words += t.words;
            r.requests += t.completed;
            if (t.totalLatency.p99 <= kLatencyLimit &&
                t.requestsPerKilocycle >= kMinAchievedShare * p.offered)
                r.capacity = std::max(r.capacity, p.offered);
            if (li == latencyRung) {
                r.latencyP50 = t.totalLatency.p50;
                r.latencyP99 = t.totalLatency.p99;
                r.latencySamples = t.totalLatency.samples;
            }
            addSimCycles(t.simTicks, t.cyclesSkipped, r.layer);
            r.signature[rung + ".cycles"] = t.cycles;
            r.signature[rung + ".completed"] = t.completed;
            r.signature[rung + ".words"] = t.words;
            r.signature[rung + ".p50"] = t.totalLatency.p50;
            r.signature[rung + ".p99"] = t.totalLatency.p99;
            r.signature[rung + ".max"] = t.totalLatency.max;
        }
        r.layer["traffic.deferrals"] = deferrals;
        r.layer["traffic.queue_peak"] = queuePeak;
        r.signEndToEnd();
        return r;
    }

    LoadSweepConfig sweep;
    std::size_t latencyRung = 0;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeTrafficWorkload()
{
    return std::make_unique<TrafficWorkload>();
}

} // namespace perfbench
