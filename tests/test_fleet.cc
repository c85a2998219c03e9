/**
 * @file
 * Fleet subsystem tests.
 *
 * The load-bearing one is the differential. Every traffic run grants
 * through a FleetArbiter, which skips idle cycles and picks over its
 * streams with worklists and heaps; the StreamArbiter reference scans
 * every stream on every cycle. Over the same streams in global order,
 * across systems, policies, clocking modes, and shed configurations,
 * every row must match the reference's: each stream of a flat run
 * (runTraffic, a one-seat fleet) and each tenant of a fleet run
 * (runFleet, the reference's streams folded per tenant) — requests,
 * completions, deferrals, sheds, queue peaks, words and latency
 * distributions — plus the drain cycle and the mean occupancy. That
 * is what licenses every traffic and fleet-scale number the tools
 * report.
 *
 * The rest holds the sharded runner to its determinism contract
 * (byte-identical JSON at any worker count), checks conservation
 * across tenants, and cross-checks the MessageBus telemetry path
 * against the arbiter's own counters.
 */

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "expect_sim_error.hh"
#include "fleet/fleet_runner.hh"
#include "sim/sim_error.hh"
#include "sim/simulation.hh"
#include "traffic/arbiter.hh"
#include "traffic/traffic_runner.hh"

using namespace pva;

namespace
{

/** The fleet runner's per-stream seed mix (fleet/fleet_runner.hh). */
constexpr std::uint64_t kSeedStep = 0x9e3779b97f4a7c15ULL;

struct Variant
{
    SystemKind system;
    ArbPolicy policy;
    ClockingMode clocking;
    bool shed;
};

std::string
variantName(const Variant &v)
{
    std::string s = systemShortName(v.system);
    s += "/";
    s += arbPolicyName(v.policy);
    s += "/";
    s += clockingModeName(v.clocking);
    s += v.shed ? "/shed" : "/noshed";
    return s;
}

/** Shared stream shape: open-loop so shedding has queues to cut. */
StreamConfig
templateStream(bool shed)
{
    StreamConfig s;
    s.mode = ArrivalMode::OpenLoop;
    s.requestsPerKilocycle = shed ? 60.0 : 20.0;
    s.requests = 48;
    s.queueCapacity = 8;
    s.seed = 9;
    s.pattern.minLength = 8;
    s.pattern.maxLength = 8;
    s.pattern.regionWords = 1 << 14;
    return s;
}

/** The arbiter knobs every differential twin shares. */
ArbiterConfig
arbiterFor(const Variant &v)
{
    ArbiterConfig a;
    a.policy = v.policy;
    a.agingThreshold = 512;
    a.shed.enabled = v.shed;
    a.shed.defaultDeadline = 400;
    a.shed.queueHighWatermark = 0.75;
    return a;
}

/** A fleet of tenants stamped from @p specs, under @p v. */
fleet::FleetConfig
fleetOf(const Variant &v, std::vector<fleet::TenantSpec> specs)
{
    fleet::FleetConfig fc;
    fc.system = v.system;
    fc.config.clocking = v.clocking;
    fc.arbiter = arbiterFor(v);
    fc.tenants = std::move(specs);
    return fc;
}

/** One tenant of @p streams template streams with disjoint regions. */
fleet::FleetConfig
fleetConfig(const Variant &v, unsigned streams)
{
    fleet::TenantSpec spec;
    spec.count = 1;
    spec.streamsPerTenant = streams;
    spec.stream = templateStream(v.shed);
    spec.regionStrideWords = spec.stream.pattern.regionWords;
    return fleetOf(v, {spec});
}

/**
 * Three specs of unequal tenant counts (2/1/3), streams per tenant
 * (3/2/2) and priorities (1/3/0), open- and closed-loop mixed: every
 * tenant boundary, and every spec boundary, falls between two global
 * stream ids the flat twin sees as neighbours.
 */
fleet::FleetConfig
multiTenantFleet(const Variant &v)
{
    fleet::TenantSpec a;
    a.name = "a";
    a.count = 2;
    a.streamsPerTenant = 3;
    a.stream = templateStream(v.shed);
    a.stream.priority = 1;

    fleet::TenantSpec b = a;
    b.name = "b";
    b.count = 1;
    b.streamsPerTenant = 2;
    b.stream.mode = ArrivalMode::ClosedLoop;
    b.stream.window = 2;
    b.stream.priority = 3;
    b.stream.seed = 17;

    fleet::TenantSpec c = a;
    c.name = "c";
    c.count = 3;
    c.streamsPerTenant = 2;
    c.stream.requestsPerKilocycle *= 0.5;
    c.stream.priority = 0;
    c.stream.seed = 23;

    for (fleet::TenantSpec *spec : {&a, &b, &c})
        spec->regionStrideWords = spec->stream.pattern.regionWords;
    return fleetOf(v, {a, b, c});
}

/**
 * Backpressure: two open-loop streams far past saturation into
 * two-deep queues, so streams sit deferred across the cycles event
 * clocking skips.
 */
fleet::FleetConfig
backpressuredFleet(const Variant &v)
{
    fleet::FleetConfig fc = fleetConfig(v, 2);
    fc.tenants[0].stream.requestsPerKilocycle = 200.0;
    fc.tenants[0].stream.queueCapacity = 2;
    return fc;
}

/** The flat twin: the fleet's streams in global order, with the seeds
 *  and regions runFleet stamps on them. */
TrafficConfig
flatTwin(const fleet::FleetConfig &fc)
{
    TrafficConfig tc;
    tc.system = fc.system;
    tc.config = fc.config;
    tc.arbiter = fc.arbiter;
    std::uint64_t g = 0;
    for (const fleet::TenantSpec &spec : fc.tenants) {
        for (unsigned t = 0; t < spec.count; ++t) {
            for (unsigned k = 0; k < spec.streamsPerTenant; ++k, ++g) {
                StreamConfig s = spec.stream;
                s.seed = spec.stream.seed + kSeedStep * (g + 1);
                s.pattern.regionBase = spec.stream.pattern.regionBase +
                                       g * spec.regionStrideWords;
                tc.streams.push_back(std::move(s));
            }
        }
    }
    return tc;
}

void
expectSummaryEq(const LatencySummary &a, const LatencySummary &b,
                const std::string &what)
{
    EXPECT_EQ(a.samples, b.samples) << what;
    EXPECT_EQ(a.min, b.min) << what;
    EXPECT_EQ(a.max, b.max) << what;
    EXPECT_DOUBLE_EQ(a.mean, b.mean) << what;
    EXPECT_EQ(a.p50, b.p50) << what;
    EXPECT_EQ(a.p95, b.p95) << what;
    EXPECT_EQ(a.p99, b.p99) << what;
    EXPECT_EQ(a.p999, b.p999) << what;
}

/** What the reference arbiter reports for one flat run. */
struct Reference
{
    std::unique_ptr<ServiceStats> stats; ///< Per stream, as runTraffic
    Cycle cycles = 0;
    double meanInFlight = 0.0;
};

/**
 * Drive the reference StreamArbiter over @p tc's streams to drain. It
 * asks to be woken every cycle, so no cycle is skipped, and the
 * system's in-flight count is sampled after every step.
 */
Reference
runReference(const TrafficConfig &tc)
{
    std::vector<StreamSource> sources;
    std::vector<std::string> names;
    for (unsigned i = 0; i < tc.streams.size(); ++i) {
        sources.emplace_back(tc.streams[i], i, tc.config.bc.lineWords);
        names.push_back(sources.back().name());
    }
    Reference ref;
    ref.stats = std::make_unique<ServiceStats>(names);
    StreamArbiter arbiter(tc.arbiter, std::move(sources), *ref.stats);
    auto sys = makeSystem(tc.system, tc.config);
    Simulation sim(*sys, tc.config.clocking);
    std::uint64_t steps = 0, inFlight = 0;
    sim.runUntil(
        [&] {
            const bool done = arbiter.service(*sys, sim.now());
            ++steps;
            inFlight += sys->inFlight();
            if (!done)
                sim.requestWake(arbiter.nextWake(sim.now()));
            return done;
        },
        tc.limits.maxCycles);
    ref.cycles = sim.now();
    ref.meanInFlight =
        static_cast<double>(inFlight) / static_cast<double>(steps);
    return ref;
}

/** The reference's streams [first, first + n) folded into one
 *  tenant's row. */
fleet::TenantResult
tenantOf(const ServiceStats &stats, unsigned first, unsigned n)
{
    ServiceStats::Counters sum;
    for (unsigned g = first; g < first + n; ++g)
        sum.merge(stats.stream(g));
    fleet::TenantResult t;
    t.arrivals = sum.arrivals.value();
    copyCounters(sum, t);
    return t;
}

/** The counters and summaries StreamResult and TenantResult share. */
template <typename Row>
void
expectRowEq(const Row &got, const Row &want, const std::string &what)
{
    EXPECT_EQ(got.completed, want.completed) << what;
    EXPECT_EQ(got.deferrals, want.deferrals) << what;
    EXPECT_EQ(got.shedDeadline, want.shedDeadline) << what;
    EXPECT_EQ(got.shedOverload, want.shedOverload) << what;
    EXPECT_EQ(got.queuePeak, want.queuePeak) << what;
    EXPECT_EQ(got.words, want.words) << what;
    expectSummaryEq(got.queueDelay, want.queueDelay, what + " queueDelay");
    expectSummaryEq(got.serviceLatency, want.serviceLatency,
                    what + " serviceLatency");
    expectSummaryEq(got.totalLatency, want.totalLatency,
                    what + " totalLatency");
}

/** The run-level figures TrafficResult and FleetResult share. */
template <typename Result>
void
expectTotalsEq(const Result &got, const Reference &ref)
{
    const ServiceStats::Counters &total = ref.stats->total();
    EXPECT_EQ(got.cycles, ref.cycles);
    EXPECT_EQ(got.completed, total.completed.value());
    EXPECT_EQ(got.words, total.words());
    EXPECT_EQ(got.shed, total.shed());
    EXPECT_EQ(got.meanInFlight, ref.meanInFlight);
    expectSummaryEq(got.queueDelay, summarize(total.queueDelay),
                    "queueDelay");
    expectSummaryEq(got.serviceLatency, summarize(total.serviceLatency),
                    "serviceLatency");
    expectSummaryEq(got.totalLatency, summarize(total.totalLatency),
                    "totalLatency");
}

/**
 * Run @p fc flat (runTraffic over its streams in global order) and as
 * a fleet (runFleet), and hold every row of both against the
 * reference over the same streams.
 */
void
expectMatchesReference(const fleet::FleetConfig &fc)
{
    const TrafficConfig tc = flatTwin(fc);
    const Reference ref = runReference(tc);

    const TrafficResult flat = runTraffic(tc);
    {
        SCOPED_TRACE("runTraffic");
        expectTotalsEq(flat, ref);
        ASSERT_EQ(flat.streams.size(), tc.streams.size());
        for (unsigned g = 0; g < flat.streams.size(); ++g) {
            const StreamResult &got = flat.streams[g];
            const ServiceStats::Counters &c = ref.stats->stream(g);
            StreamResult want;
            copyCounters(c, want);
            const std::string what = "stream " + got.name;
            EXPECT_EQ(got.requests, c.arrivals.value()) << what;
            expectRowEq(got, want, what);
        }
    }

    const fleet::FleetResult hier = fleet::runFleet(fc);
    {
        SCOPED_TRACE("runFleet");
        expectTotalsEq(hier, ref);
        ASSERT_EQ(hier.tenantResults.size(), hier.tenants);
        unsigned first = 0, t = 0;
        for (const fleet::TenantSpec &spec : fc.tenants) {
            for (unsigned k = 0; k < spec.count; ++k, ++t) {
                const fleet::TenantResult &got = hier.tenantResults[t];
                const fleet::TenantResult want =
                    tenantOf(*ref.stats, first, spec.streamsPerTenant);
                first += spec.streamsPerTenant;
                const std::string what = "tenant " + got.name;
                EXPECT_EQ(got.arrivals, want.arrivals) << what;
                expectRowEq(got, want, what);
            }
        }
        // Telemetry observed on the bus must agree with the counters
        // the arbiter kept itself.
        EXPECT_EQ(hier.busGrants, hier.grants);
        EXPECT_EQ(hier.busSheds, hier.shed);
    }
}

std::string
jsonOf(const fleet::FleetResult &r)
{
    std::ostringstream os;
    r.dumpJson(os);
    return os.str();
}

} // anonymous namespace

TEST(FleetDifferential, FleetMatchesFlatArbiterExactly)
{
    for (SystemKind system :
         {SystemKind::PvaSdram, SystemKind::CacheLine}) {
        for (ArbPolicy policy : {ArbPolicy::Fifo, ArbPolicy::RoundRobin,
                                 ArbPolicy::Priority}) {
            for (ClockingMode clocking :
                 {ClockingMode::Exhaustive, ClockingMode::Event}) {
                for (bool shed : {false, true}) {
                    const Variant v{system, policy, clocking, shed};
                    for (const fleet::FleetConfig &fc :
                         {fleetConfig(v, 6), multiTenantFleet(v),
                          backpressuredFleet(v)}) {
                        SCOPED_TRACE(variantName(v) + "/" +
                                     std::to_string(fc.tenants.size()) +
                                     " specs/" +
                                     std::to_string(
                                         fc.tenants[0].streamsPerTenant) +
                                     " streams");
                        expectMatchesReference(fc);
                    }
                }
            }
        }
    }
}

TEST(FleetDifferential, PriorityRampMatchesFlatUnderAging)
{
    // Distinct priorities, one per tenant, exercise the aged-head
    // starvation guard across tenant boundaries.
    fleet::FleetConfig fc;
    fc.system = SystemKind::PvaSdram;
    fc.arbiter.policy = ArbPolicy::Priority;
    fc.arbiter.agingThreshold = 256;
    for (unsigned g = 0; g < 5; ++g) {
        fleet::TenantSpec spec;
        spec.name = "p";
        spec.count = 1;
        spec.streamsPerTenant = 1;
        spec.stream = templateStream(false);
        spec.stream.priority = g;
        spec.stream.seed = 9 + 100 * g;
        spec.stream.pattern.regionBase =
            static_cast<WordAddr>(g) << 14;
        fc.tenants.push_back(spec);
    }
    expectMatchesReference(fc);
}

TEST(FleetRunner, ResultsAreByteIdenticalAcrossWorkerCounts)
{
    Variant v{SystemKind::PvaSdram, ArbPolicy::Fifo,
              ClockingMode::Event, true};
    fleet::FleetConfig fc = fleetConfig(v, 2);
    fc.tenants[0].count = 8;
    fc.tenants[0].name = "t";
    fc.shards = 4;

    std::string first;
    for (unsigned jobs : {1u, 2u, 8u}) {
        fc.jobs = jobs;
        const std::string dump = jsonOf(fleet::runFleet(fc));
        if (first.empty())
            first = dump;
        else
            EXPECT_EQ(dump, first) << "jobs=" << jobs;
    }
}

TEST(FleetRunner, ReshardingPreservesPerTenantWork)
{
    // Offered work is a pure function of the scenario; sharding only
    // changes which streams contend. Per-tenant completions must be
    // identical at any shard count (each shard is its own memory
    // system, so per-tenant latency legitimately changes).
    Variant v{SystemKind::PvaSdram, ArbPolicy::Fifo,
              ClockingMode::Event, false};
    fleet::FleetConfig fc = fleetConfig(v, 2);
    fc.tenants[0].count = 6;

    std::vector<std::uint64_t> completions;
    for (unsigned shards : {1u, 2u, 6u}) {
        fc.shards = shards;
        const fleet::FleetResult r = fleet::runFleet(fc);
        std::vector<std::uint64_t> got;
        for (const fleet::TenantResult &t : r.tenantResults)
            got.push_back(t.completed);
        ASSERT_EQ(got.size(), 6u);
        if (completions.empty())
            completions = got;
        else
            EXPECT_EQ(got, completions) << "shards=" << shards;
    }
}

TEST(FleetRunner, MultiTenantTotalsAreConserved)
{
    Variant v{SystemKind::PvaSdram, ArbPolicy::RoundRobin,
              ClockingMode::Event, true};
    fleet::FleetConfig fc = fleetConfig(v, 3);
    fc.tenants[0].count = 5;
    fc.shards = 2;

    const fleet::FleetResult r = fleet::runFleet(fc);
    EXPECT_EQ(r.tenants, 5u);
    EXPECT_EQ(r.streams, 15u);
    EXPECT_EQ(r.shards, 2u);
    std::uint64_t completed = 0, shed = 0, words = 0;
    for (const fleet::TenantResult &t : r.tenantResults) {
        completed += t.completed;
        shed += t.shedDeadline + t.shedOverload;
        words += t.words;
    }
    EXPECT_EQ(completed, r.completed);
    EXPECT_EQ(shed, r.shed);
    EXPECT_EQ(words, r.words);
    EXPECT_EQ(r.grants, r.completed);
    EXPECT_EQ(r.busGrants, r.grants);
    EXPECT_EQ(r.busSheds, r.shed);
    // Every stream either completed or shed its offered requests.
    EXPECT_EQ(r.completed + r.shed,
              static_cast<std::uint64_t>(15 * 48));
}

TEST(FleetRunner, TimingCheckComposesAtFleetScale)
{
    // Disjoint per-stream regions keep the shadow-memory check clean.
    Variant v{SystemKind::PvaSdram, ArbPolicy::Fifo,
              ClockingMode::Event, false};
    fleet::FleetConfig fc = fleetConfig(v, 2);
    fc.tenants[0].count = 3;
    fc.config.timingCheck = true;
    fc.tenants[0].stream.pattern.readFraction = 0.5;
    const fleet::FleetResult r = fleet::runFleet(fc);
    EXPECT_EQ(r.completed, 6u * 48u);
}

TEST(FleetRunner, RejectsEmptyAndMalformedFleets)
{
    fleet::FleetConfig fc;
    test::expectSimError([&] { fleet::runFleet(fc); },
                         SimErrorKind::Config, "tenant");

    fleet::TenantSpec spec;
    spec.count = 0;
    fc.tenants.push_back(spec);
    test::expectSimError([&] { fleet::runFleet(fc); },
                         SimErrorKind::Config, "count");

    fc.tenants[0].count = 1;
    fc.tenants[0].streamsPerTenant = 0;
    test::expectSimError([&] { fleet::runFleet(fc); },
                         SimErrorKind::Config, "streams");
}

TEST(FleetRunner, RefusesABadConfigOrStreamUpFrontWithItsKind)
{
    // What a flat run refuses, a fleet refuses the same way: at once,
    // as a config error, not as a shard that failed its retries.
    auto expectRefusal = [](const fleet::FleetConfig &fc,
                            const std::string &what) {
        try {
            fleet::runFleet(fc);
            ADD_FAILURE() << "expected a refusal naming '" << what << "'";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimErrorKind::Config) << e.what();
            EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
                << e.what();
            EXPECT_EQ(std::string(e.what()).find("failed after"),
                      std::string::npos)
                << e.what();
        }
    };
    fleet::FleetConfig fc;
    fc.tenants.resize(1);
    fc.tenants[0].stream.pattern.minLength = 64;
    fc.tenants[0].stream.pattern.maxLength = 64;
    expectRefusal(fc, "traffic.s0: pattern maxLength 64 exceeds the "
                      "32-word line");

    fc.tenants[0].stream.pattern = PatternConfig{};
    fc.config.backend = MemBackend::DeferredRefresh;
    expectRefusal(fc, "backend deferred requires tREFI refresh");
}

TEST(FleetRunner, AShardFailureKeepsItsKind)
{
    fleet::FleetConfig fc;
    fc.tenants.resize(1);
    fc.retries = 2;
    fc.config.timingCheck = true;
    fc.config.faults.corruptFirstHitRate = 1.0;
    test::expectSimError([&] { fleet::runFleet(fc); },
                         SimErrorKind::Corruption,
                         "shard 0 failed after 2 attempts: [corruption]");
}
