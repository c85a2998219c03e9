#include "fleet/fleet_runner.hh"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>

#include "fleet/fleet_arbiter.hh"
#include "fleet/message_bus.hh"
#include "kernels/sweep_executor.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"
#include "sim/simulation.hh"

namespace pva::fleet
{

namespace
{

/** Global stream g's seed is its spec's seed plus (g + 1) steps of
 *  the golden-ratio increment, so no two streams share a sequence. */
constexpr std::uint64_t kStreamSeedStep = 0x9e3779b97f4a7c15ULL;

/** Where tenant @p t's spec and global stream range live. */
struct TenantLayout
{
    std::size_t spec = 0;
    std::uint64_t firstStream = 0;
    std::string name;
};

/** Everything one shard task hands back for the merge. */
struct ShardOutcome
{
    std::unique_ptr<ServiceStats> merged; ///< Shard-level aggregate
    std::vector<TenantResult> tenantResults; ///< Local tenant order
    Cycle cycles = 0;
    std::uint64_t simTicks = 0;
    std::uint64_t cyclesSkipped = 0;
    std::uint64_t grants = 0;
    std::uint64_t occCycles = 0;
    std::uint64_t occSum = 0;
    std::uint64_t busGrants = 0;
    std::uint64_t busSheds = 0;
};

} // anonymous namespace

void
FleetResult::dumpJson(std::ostream &os) const
{
    json::Writer w(os);
    w.beginObject().field("cycles", cycles).field("shards", shards);
    w.field("tenants", tenants).field("streams", streams);
    w.field("completed", completed).field("words", words);
    w.field("grants", grants).field("shed", shed).field("shedRate", shedRate);
    w.field("requestsPerKilocycle", requestsPerKilocycle);
    w.field("wordsPerCycle", wordsPerCycle).field("meanInFlight", meanInFlight);
    w.field("simTicks", simTicks).field("cyclesSkipped", cyclesSkipped);
    w.field("busGrants", busGrants).field("busSheds", busSheds);
    jsonSummary(w, "queueDelay", queueDelay);
    jsonSummary(w, "serviceLatency", serviceLatency);
    jsonSummary(w, "totalLatency", totalLatency);
    w.key("tenantResults").beginArray();
    for (const TenantResult &t : tenantResults) {
        w.beginObject().field("name", t.name).field("shard", t.shard);
        w.field("arrivals", t.arrivals).field("completed", t.completed);
        w.field("deferrals", t.deferrals);
        w.field("shedDeadline", t.shedDeadline);
        w.field("shedOverload", t.shedOverload);
        w.field("queuePeak", t.queuePeak).field("words", t.words);
        jsonSummary(w, "queueDelay", t.queueDelay);
        jsonSummary(w, "serviceLatency", t.serviceLatency);
        jsonSummary(w, "totalLatency", t.totalLatency);
        w.end();
    }
    w.end().end();
}

FleetResult
runFleet(const FleetConfig &config)
{
    if (config.tenants.empty()) {
        throw SimError(SimErrorKind::Config, "fleet", kNeverCycle,
                       "at least one tenant spec is required");
    }
    // Refuse a bad system config or stream template here, with its
    // own kind, rather than as a shard failure after its retries.
    config.config.validate();
    for (const TenantSpec &spec : config.tenants) {
        if (spec.count == 0) {
            throw SimError(SimErrorKind::Config, "fleet", kNeverCycle,
                           csprintf("tenant spec '%s' has count 0",
                                    spec.name.c_str()));
        }
        if (spec.streamsPerTenant == 0) {
            throw SimError(
                SimErrorKind::Config, "fleet", kNeverCycle,
                csprintf("tenant spec '%s' has 0 streams per tenant",
                         spec.name.c_str()));
        }
        StreamSource(spec.stream, 0, config.config.bc.lineWords);
    }

    // Lay the fleet out flat: tenant and stream indices are global,
    // assigned spec by spec, so seeds and regions are a pure function
    // of the scenario (not of sharding or scheduling). A tenant is
    // named by its spec name and global index with no separator, so
    // spec "a1" and an 11-tenant spec "a" would both name a tenant
    // "a10": such a layout is refused.
    std::vector<TenantLayout> layout;
    std::unordered_map<std::string, std::size_t> specOfName;
    std::uint64_t globalStream = 0;
    for (std::size_t si = 0; si < config.tenants.size(); ++si) {
        const TenantSpec &spec = config.tenants[si];
        for (unsigned c = 0; c < spec.count; ++c) {
            TenantLayout tl;
            tl.spec = si;
            tl.firstStream = globalStream;
            tl.name = csprintf("%s%zu", spec.name.c_str(),
                               layout.size());
            auto [named, fresh] = specOfName.emplace(tl.name, si);
            if (!fresh) {
                throw SimError(
                    SimErrorKind::Config, "fleet", kNeverCycle,
                    csprintf("tenant specs '%s' and '%s' both name a "
                             "tenant '%s'",
                             config.tenants[named->second].name.c_str(),
                             spec.name.c_str(), tl.name.c_str()));
            }
            layout.push_back(std::move(tl));
            globalStream += spec.streamsPerTenant;
        }
    }
    const std::uint64_t totalTenants = layout.size();
    const std::uint64_t totalStreams = globalStream;

    unsigned shards = std::max(1u, config.shards);
    shards = static_cast<unsigned>(
        std::min<std::uint64_t>(shards, totalTenants));

    std::vector<ShardOutcome> outcomes(shards);

    auto task = [&](std::size_t s, unsigned attempt) {
        SystemConfig sys_cfg = config.config;
        sys_cfg.faults = sys_cfg.faults.forAttempt(attempt);

        MessageBus bus;
        std::vector<std::unique_ptr<ServiceStats>> tenantStats;
        std::vector<TenantSeat> seats;
        for (std::uint64_t t = s; t < totalTenants;
             t += shards) {
            const TenantLayout &tl = layout[t];
            const TenantSpec &spec = config.tenants[tl.spec];
            std::vector<StreamSource> sources;
            std::vector<std::string> names;
            sources.reserve(spec.streamsPerTenant);
            names.reserve(spec.streamsPerTenant);
            for (unsigned k = 0; k < spec.streamsPerTenant; ++k) {
                const std::uint64_t g = tl.firstStream + k;
                StreamConfig sc = spec.stream;
                sc.name = csprintf("s%u", k);
                sc.seed = spec.stream.seed + kStreamSeedStep * (g + 1);
                if (spec.regionStrideWords > 0) {
                    sc.pattern.regionBase =
                        spec.stream.pattern.regionBase +
                        g * spec.regionStrideWords;
                }
                sources.emplace_back(sc, k, sys_cfg.bc.lineWords);
                names.push_back(sources.back().name());
            }
            tenantStats.push_back(std::make_unique<ServiceStats>(
                names, ServiceStats::Detail::AggregateOnly, tl.name));
            TenantSeat seat;
            seat.name = tl.name;
            seat.sources = std::move(sources);
            seat.stats = tenantStats.back().get();
            seats.push_back(std::move(seat));
        }

        // A decoupled telemetry sink: counts grants and sheds off the
        // bus, never touching the arbiter (FleetResult cross-checks it
        // against the arbiter's own counters).
        std::uint64_t busGrants = 0, busSheds = 0;
        bus.channel<GrantEvent>().subscribe(
            [&busGrants](const GrantEvent &) { ++busGrants; });
        bus.channel<ShedEvent>().subscribe(
            [&busSheds](const ShedEvent &) { ++busSheds; });

        auto sys = makeSystem(config.system, sys_cfg);
        FleetArbiter arbiter(config.arbiter, std::move(seats), bus);

        Simulation sim(*sys, sys_cfg.clocking);
        runToDrain(sim, arbiter, *sys, config.limits);

        ShardOutcome out;
        out.cycles = sim.now();
        out.simTicks = sim.simTicks();
        out.cyclesSkipped = sim.cyclesSkipped();
        out.grants = arbiter.grants();
        out.occCycles = arbiter.occupancyCycles();
        out.occSum = arbiter.occupancySum();
        out.busGrants = busGrants;
        out.busSheds = busSheds;
        out.merged = std::make_unique<ServiceStats>(
            std::vector<std::string>{},
            ServiceStats::Detail::AggregateOnly, "fleet");
        out.tenantResults.reserve(tenantStats.size());
        for (std::size_t j = 0; j < tenantStats.size(); ++j) {
            const ServiceStats &st = *tenantStats[j];
            out.merged->mergeFrom(st);
            TenantResult &tr = out.tenantResults.emplace_back();
            tr.name = layout[s + j * shards].name;
            tr.shard = static_cast<unsigned>(s);
            tr.arrivals = st.total().arrivals.value();
            copyCounters(st.total(), tr);
        }
        outcomes[s] = std::move(out);
    };

    SweepExecutor executor(config.jobs);
    executor.setMaxAttempts(std::max(1u, config.retries));
    TaskReport report = executor.runTasks(shards, "shard", task);
    if (!report.allOk()) {
        const TaskFailure &f = report.failures.front();
        throw SimError(
            f.kind, "fleet", kNeverCycle,
            csprintf("shard %zu failed after %u attempts: %s", f.index,
                     f.attempts, f.error.c_str()));
    }

    // Merge in shard-index order: every reduction below is associative
    // and order-fixed, so the result is identical at any --jobs.
    FleetResult r;
    r.shards = shards;
    r.tenants = totalTenants;
    r.streams = totalStreams;
    r.tenantResults.resize(totalTenants);
    ServiceStats fleetStats(std::vector<std::string>{},
                            ServiceStats::Detail::AggregateOnly,
                            "fleet");
    std::uint64_t occCycles = 0, occSum = 0;
    for (unsigned s = 0; s < shards; ++s) {
        ShardOutcome &out = outcomes[s];
        r.cycles = std::max(r.cycles, out.cycles);
        r.simTicks += out.simTicks;
        r.cyclesSkipped += out.cyclesSkipped;
        r.grants += out.grants;
        r.busGrants += out.busGrants;
        r.busSheds += out.busSheds;
        occCycles += out.occCycles;
        occSum += out.occSum;
        fleetStats.mergeFrom(*out.merged);
        for (std::size_t j = 0; j < out.tenantResults.size(); ++j) {
            r.tenantResults[s + j * shards] =
                std::move(out.tenantResults[j]);
        }
    }
    copyTotals(fleetStats.total(), occSum, occCycles, r);
    return r;
}

} // namespace pva::fleet
