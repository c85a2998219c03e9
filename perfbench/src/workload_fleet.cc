/**
 * @file
 * fleet: runFleet with 157 tenants x 64 streams (10,048), closed loop,
 * window 1, 4 requests of 8 words each, one shard, one job, and the
 * result emitted as JSON (FleetResult::dumpJson). The fleet arbiter,
 * the message bus and tenant stamping carry the work; the memory
 * system does little.
 */

#include <sstream>

#include "counts.hh"
#include "fleet/fleet_runner.hh"
#include "probes.hh"
#include "sim/random.hh"
#include "sim/sim_error.hh"
#include "workload.hh"

namespace perfbench
{

using namespace pva;

namespace
{

class FleetWorkload final : public Workload
{
  public:
    void
    setup(std::uint64_t seed, Scale scale) override
    {
        Random rng(seed);
        fc = fleet::FleetConfig{};
        fc.system = SystemKind::PvaSdram;
        fc.shards = 1;
        fc.jobs = 1;
        fc.retries = 1;
        fc.limits.maxCycles = 2000000000ULL;
        fleet::TenantSpec spec;
        spec.count = scale == Scale::Full ? 157 : 4;
        spec.streamsPerTenant = scale == Scale::Full ? 64 : 8;
        spec.stream.mode = ArrivalMode::ClosedLoop;
        spec.stream.window = 1;
        spec.stream.requests = 4;
        spec.stream.queueCapacity = 4;
        spec.stream.seed = rng.next();
        spec.stream.pattern.minLength = 8;
        spec.stream.pattern.maxLength = 8;
        spec.stream.pattern.regionWords = 1 << 10;
        spec.regionStrideWords = 1 << 10;
        fc.tenants = {spec};
    }

    PassResult
    run() override
    {
        PassResult r;
        fleet::FleetResult result;
        try {
            result = fleet::runFleet(fc);
            std::ostringstream json;
            result.dumpJson(json);
        } catch (const SimError &e) {
            r.attempted = requested();
            r.fail(requested(), std::string("runFleet: ") + e.what());
            return r;
        }
        finish(result, r);
        return r;
    }

    PassResult
    runTraced(Tracer &tracer) override
    {
        ScopedSpan root(&tracer, "bench.pass");
        PassResult r;
        fleet::FleetResult result;
        try {
            {
                ScopedSpan s(&tracer, "fleet.run_ms");
                result = fleet::runFleet(fc);
            }
            std::ostringstream json;
            ScopedSpan s(&tracer, "fleet.emit_ms");
            result.dumpJson(json);
        } catch (const SimError &e) {
            r.attempted = requested();
            r.fail(requested(), std::string("runFleet: ") + e.what());
            return r;
        }
        finish(result, r);
        r.layer["fleet.grants"] = static_cast<double>(result.grants);
        r.layer["fleet.ticks"] = static_cast<double>(result.simTicks);
        r.layer["fleet.cycles_skipped"] =
            static_cast<double>(result.cyclesSkipped);
        return r;
    }

    void
    probe(std::uint64_t seed, std::map<std::string, double> &out) override
    {
        const PatternConfig &pat = fc.tenants[0].stream.pattern;
        std::vector<std::uint32_t> strides;
        for (std::uint32_t s = pat.minStride; s <= pat.maxStride; ++s)
            strides.push_back(s);
        runCoreProbes(strides, seed, out);
        probeFleetArbiter(fc, out);
    }

  private:
    std::uint64_t
    requested() const
    {
        const fleet::TenantSpec &spec = fc.tenants[0];
        return static_cast<std::uint64_t>(spec.count) *
               spec.streamsPerTenant * spec.stream.requests;
    }

    /** Check completion and the bus cross-check, and reduce. */
    void
    finish(const fleet::FleetResult &f, PassResult &r) const
    {
        r.attempted = requested();
        if (f.completed != requested() || f.shed != 0) {
            const std::uint64_t missing =
                requested() > f.completed ? requested() - f.completed : 1;
            r.fail(missing, "fleet completed " +
                                std::to_string(f.completed) + " of " +
                                std::to_string(requested()));
        }
        if (f.grants != f.busGrants) {
            r.fail(1, "fleet grants " + std::to_string(f.grants) +
                          " != bus grants " + std::to_string(f.busGrants));
        }
        r.simCycles = f.cycles;
        r.words = f.words;
        r.requests = f.completed;
        r.latencyP50 = f.totalLatency.p50;
        r.latencyP99 = f.totalLatency.p99;
        r.latencySamples = f.totalLatency.samples;
        r.capacity = f.requestsPerKilocycle;
        addSimCycles(f.simTicks, f.cyclesSkipped, r.layer);
        r.signEndToEnd();
        r.signature["grants"] = f.grants;
        r.signature["bus_grants"] = f.busGrants;
        r.signature["service_p99"] = f.serviceLatency.p99;
        r.signature["queue_p99"] = f.queueDelay.p99;
        r.signature["latency_max"] = f.totalLatency.max;
    }

    fleet::FleetConfig fc;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeFleetWorkload()
{
    return std::make_unique<FleetWorkload>();
}

} // namespace perfbench
