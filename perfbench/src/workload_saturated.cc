/**
 * @file
 * saturated: PVA SDRAM only, every kernel at strides 16 (all traffic
 * on one bank: row conflicts, nothing for event clocking to skip) and
 * 19 (all 16 controllers busy, bus-bound), 16384 elements, alignment
 * 0, through makeSystem + runKernelOn. Two backend scenarios ride
 * along: subarray rotation on the SALP device and refresh pressure
 * (tREFI 781) on the deferred-refresh device, both with the timing
 * checker attached. Bank-controller scheduling and device legality
 * dominate the host time here; system construction is about 1%.
 */

#include <algorithm>
#include <cmath>

#include "counts.hh"
#include "kernels/sweep.hh"
#include "probes.hh"
#include "sim/sim_error.hh"
#include "workload.hh"

namespace perfbench
{

using namespace pva;

namespace
{

/** The front end's latency histograms merged across runs (every
 *  Distribution has the same bucket width). */
struct MergedBuckets
{
    std::uint64_t width = 0;
    std::vector<std::uint64_t> counts;
    std::uint64_t samples = 0;

    void
    add(const Distribution &d)
    {
        width = d.bucketWidth();
        const auto &b = d.buckets();
        if (counts.size() < b.size())
            counts.resize(b.size(), 0);
        for (std::size_t i = 0; i < b.size(); ++i)
            counts[i] += b[i];
        samples += d.samples();
    }

    /** Upper edge of the bucket holding the nearest-rank percentile. */
    std::uint64_t
    percentile(double p) const
    {
        const auto rank = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   std::ceil(p / 100.0 * static_cast<double>(samples))));
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < counts.size(); ++i) {
            seen += counts[i];
            if (seen >= rank)
                return (i + 1) * width - 1;
        }
        return 0;
    }
};

struct KernelRun
{
    std::string label;
    KernelId kernel = KernelId::Copy;
    WorkloadConfig workload;
    SystemConfig config;
};

class SaturatedWorkload final : public Workload
{
  public:
    void
    setup(std::uint64_t seed, Scale scale) override
    {
        (void)seed; // The runs are fixed; the seed drives the probes.
        const std::uint32_t elements = scale == Scale::Full ? 16384 : 1024;
        runs.clear();
        for (KernelId k : allKernels()) {
            for (std::uint32_t stride : {16u, 19u}) {
                KernelRun r;
                r.kernel = k;
                r.label = kernelSpec(k).name + "/" + std::to_string(stride);
                r.workload.stride = stride;
                r.workload.elements = elements;
                r.workload.streamBases =
                    streamBases(alignmentPresets()[0],
                                kernelSpec(k).numStreams, stride, elements);
                runs.push_back(std::move(r));
            }
        }
        // bench_backend's scenarios, on the backend each exercises.
        KernelRun rot;
        rot.label = "subarrayRotation/salp";
        rot.kernel = KernelId::Scale;
        rot.workload.stride = 1u << 26;
        rot.workload.elements = elements / 8;
        rot.workload.streamBases = {0};
        rot.config.backend = MemBackend::Salp;
        rot.config.timingCheck = true;
        runs.push_back(std::move(rot));
        KernelRun ref;
        ref.label = "refreshPressure/deferred";
        ref.kernel = KernelId::Copy;
        ref.workload.stride = 4;
        ref.workload.elements = elements / 2;
        ref.workload.streamBases = {0, 1 << 20};
        ref.config.timing.tREFI = 781;
        ref.config.backend = MemBackend::DeferredRefresh;
        ref.config.timingCheck = true;
        runs.push_back(std::move(ref));
    }

    PassResult
    run() override
    {
        return pass(nullptr);
    }

    PassResult
    runTraced(Tracer &tracer) override
    {
        ScopedSpan root(&tracer, "bench.pass");
        return pass(&tracer);
    }

    void
    probe(std::uint64_t seed, std::map<std::string, double> &out) override
    {
        runCoreProbes({16, 19}, seed, out);
    }

  private:
    /**
     * makeSystem + runKernelOn. Traced, runKernelOn's two calls
     * (buildTrace, runTrace) get spans of their own, and each object
     * is freed inside the span of the layer that built it.
     */
    static RunResult
    runOne(const KernelRun &run, std::int64_t id, Tracer *tracer,
           std::unique_ptr<MemorySystem> &sys)
    {
        {
            ScopedSpan s(tracer, "construct.make_system_ms.pva", id);
            sys = makeSystem(SystemKind::PvaSdram, run.config);
        }
        if (!tracer)
            return runKernelOn(*sys, run.kernel, run.workload);
        KernelTrace trace;
        {
            ScopedSpan s(tracer, "kernels.build_trace_ms", id);
            trace = buildTrace(kernelSpec(run.kernel), run.workload,
                               sys->memory());
        }
        RunResult rr;
        {
            ScopedSpan s(tracer, "kernels.run_overhead_ms", id);
            rr = runTrace(*sys, trace);
            tracer->addMeasured("sim.run_until_ms", rr.wallMillis, id);
        }
        ScopedSpan s(tracer, "kernels.build_trace_ms", id);
        trace = KernelTrace{};
        return rr;
    }

    /** One pass; @p tracer non-null wraps each layer call in a span. */
    PassResult
    pass(Tracer *tracer)
    {
        PassResult r;
        MergedBuckets latency;
        r.attempted = runs.size();
        Laps laps(r.segments);
        for (std::size_t i = 0; i < runs.size(); ++i) {
            if (i)
                laps.lap();
            const KernelRun &run = runs[i];
            const auto id = static_cast<std::int64_t>(i);
            try {
                std::unique_ptr<MemorySystem> sys;
                const RunResult rr = runOne(run, id, tracer, sys);
                {
                    ScopedSpan s(tracer, "bench.collect_counts", id);
                    if (rr.mismatches != 0) {
                        r.fail(1, run.label + ": " +
                                      std::to_string(rr.mismatches) +
                                      " mismatched words");
                    }
                    const StatSet &stats = sys->stats();
                    latency.add(stats.distribution("frontend.readLatency"));
                    latency.add(
                        stats.distribution("frontend.writeLatency"));
                    r.simCycles += rr.cycles;
                    r.requests += stats.scalar("frontend.reads") +
                                  stats.scalar("frontend.writes");
                    const KernelSpec &spec = kernelSpec(run.kernel);
                    r.words += (spec.readStreams.size() +
                                spec.writeStreams.size()) *
                               run.workload.elements;
                    r.signature["cycles." + run.label] = rr.cycles;
                    addSimCycles(rr.simTicks, rr.cyclesSkipped, r.layer);
                    addPvaStats(*sys, rr.cycles, r.layer);
                    if (tracer)
                        r.layer["sim.run_until_ms"] += rr.wallMillis;
                }
                ScopedSpan s(tracer, "construct.make_system_ms.pva", id);
                sys.reset();
            } catch (const SimError &e) {
                r.fail(1, run.label + ": " + e.what());
            }
        }
        r.latencyP50 = latency.percentile(50.0);
        r.latencyP99 = latency.percentile(99.0);
        r.latencySamples = latency.samples;
        r.capacity = r.simCycles
            ? static_cast<double>(r.requests) * 1000.0 / r.simCycles
            : 0.0;
        r.signEndToEnd();
        return r;
    }

    std::vector<KernelRun> runs;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeSaturatedWorkload()
{
    return std::make_unique<SaturatedWorkload>();
}

} // namespace perfbench
