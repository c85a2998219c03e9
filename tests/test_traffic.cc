/**
 * @file
 * Traffic subsystem tests: arbiter policy behaviour, backpressure,
 * open-loop reproducibility, determinism across worker counts, and
 * composition with the fault-injection/retry harness.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/sweep_executor.hh"
#include "sim/json.hh"
#include "sim/sim_error.hh"
#include "traffic/traffic_runner.hh"

using namespace pva;

namespace
{

/** A small mixed-stride multi-stream config with disjoint regions. */
TrafficConfig
smallConfig(unsigned streams, ArrivalMode mode, std::uint64_t requests)
{
    TrafficConfig tc;
    for (unsigned i = 0; i < streams; ++i) {
        StreamConfig s;
        s.mode = mode;
        s.requests = requests;
        s.seed = 1 + i;
        s.pattern.regionWords = 1 << 16;
        s.pattern.regionBase = static_cast<WordAddr>(i) << 16;
        tc.streams.push_back(std::move(s));
    }
    return tc;
}

std::string
jsonOf(const TrafficResult &r)
{
    std::ostringstream os;
    r.dumpJson(os);
    return os.str();
}

} // anonymous namespace

TEST(TrafficStream, OpenLoopArrivalsAreBitReproduciblePerSeed)
{
    StreamConfig cfg;
    cfg.mode = ArrivalMode::OpenLoop;
    cfg.requests = 64;
    cfg.requestsPerKilocycle = 25.0;
    cfg.seed = 42;

    auto arrivals = [](const StreamConfig &c) {
        StreamSource src(c, 0, 32);
        std::vector<Cycle> out;
        Cycle now = 0;
        while (!src.exhausted()) {
            while (!src.arrivalReady(now))
                ++now;
            TrafficRequest r = src.emit(now);
            out.push_back(r.arrival);
            src.onComplete();
        }
        return out;
    };

    std::vector<Cycle> a = arrivals(cfg);
    std::vector<Cycle> b = arrivals(cfg);
    EXPECT_EQ(a, b);
    ASSERT_EQ(a.size(), 64u);
    for (std::size_t i = 1; i < a.size(); ++i)
        EXPECT_GT(a[i], a[i - 1]);

    StreamConfig other = cfg;
    other.seed = 43;
    EXPECT_NE(arrivals(other), a);
}

TEST(TrafficStream, CommandSequenceIsIndependentOfOfferedLoad)
{
    StreamConfig slow;
    slow.mode = ArrivalMode::OpenLoop;
    slow.requests = 32;
    slow.requestsPerKilocycle = 2.0;
    StreamConfig fast = slow;
    fast.requestsPerKilocycle = 200.0;

    auto commands = [](const StreamConfig &c) {
        StreamSource src(c, 0, 32);
        std::vector<std::pair<WordAddr, std::uint32_t>> out;
        Cycle now = 0;
        while (!src.exhausted()) {
            while (!src.arrivalReady(now))
                ++now;
            TrafficRequest r = src.emit(now);
            out.emplace_back(r.cmd.base, r.cmd.stride);
        }
        return out;
    };
    EXPECT_EQ(commands(slow), commands(fast));
}

TEST(TrafficStream, RejectsUnsupportableConfigs)
{
    StreamConfig cfg;
    cfg.pattern.minLength = 64; // > the 32-word line
    EXPECT_THROW(StreamSource(cfg, 0, 32), SimError);

    StreamConfig zero;
    zero.queueCapacity = 0;
    EXPECT_THROW(StreamSource(zero, 0, 32), SimError);

    StreamConfig rate;
    rate.mode = ArrivalMode::OpenLoop;
    rate.requestsPerKilocycle = 0.0;
    EXPECT_THROW(StreamSource(rate, 0, 32), SimError);
}

TEST(TrafficArbiter, AllPoliciesDrainEveryStream)
{
    for (ArbPolicy policy :
         {ArbPolicy::Fifo, ArbPolicy::RoundRobin, ArbPolicy::Priority}) {
        TrafficConfig tc = smallConfig(3, ArrivalMode::ClosedLoop, 40);
        tc.arbiter.policy = policy;
        TrafficResult r = runTraffic(tc);
        EXPECT_EQ(r.completed, 3u * 40u) << arbPolicyName(policy);
        ASSERT_EQ(r.streams.size(), 3u);
        for (const StreamResult &s : r.streams)
            EXPECT_EQ(s.completed, 40u) << arbPolicyName(policy);
    }
}

TEST(TrafficArbiter, PolicyRunsAreDeterministic)
{
    for (ArbPolicy policy :
         {ArbPolicy::Fifo, ArbPolicy::RoundRobin, ArbPolicy::Priority}) {
        TrafficConfig tc = smallConfig(2, ArrivalMode::OpenLoop, 48);
        for (StreamConfig &s : tc.streams)
            s.requestsPerKilocycle = 40.0;
        tc.arbiter.policy = policy;
        EXPECT_EQ(jsonOf(runTraffic(tc)), jsonOf(runTraffic(tc)))
            << arbPolicyName(policy);
    }
}

TEST(TrafficArbiter, AgingBoundsLowPriorityQueueDelay)
{
    // One low-priority stream competing with a high-priority stream
    // under heavy open-loop load. Without the aging guard the
    // low-priority queue only drains behind the whole high-priority
    // stream; with it, every head request is served within a bounded
    // wait of the threshold.
    auto lowPriorityMaxDelay = [](Cycle aging) {
        TrafficConfig tc = smallConfig(2, ArrivalMode::OpenLoop, 150);
        for (StreamConfig &s : tc.streams) {
            s.requestsPerKilocycle = 60.0;
            s.queueCapacity = 8;
        }
        tc.streams[1].priority = 10;
        tc.arbiter.policy = ArbPolicy::Priority;
        tc.arbiter.agingThreshold = aging;
        TrafficResult r = runTraffic(tc);
        EXPECT_EQ(r.streams[0].completed, 150u);
        return r.streams[0].queueDelay.max;
    };

    std::uint64_t guarded = lowPriorityMaxDelay(512);
    std::uint64_t unguarded = lowPriorityMaxDelay(1u << 30);
    EXPECT_LT(guarded, unguarded);
    // The head waits at most the threshold plus the time to drain the
    // previously aged cohort (one bounded queue's worth of service).
    EXPECT_LT(guarded, 512u + 4096u);
}

TEST(TrafficArbiter, BackpressureBoundsQueuesWithoutLosingRequests)
{
    TrafficConfig tc = smallConfig(2, ArrivalMode::OpenLoop, 120);
    for (StreamConfig &s : tc.streams) {
        s.requestsPerKilocycle = 200.0; // far past saturation
        s.queueCapacity = 4;
    }
    TrafficResult r = runTraffic(tc);
    EXPECT_EQ(r.completed, 2u * 120u);
    std::uint64_t deferrals = 0;
    for (const StreamResult &s : r.streams) {
        EXPECT_EQ(s.completed, 120u);
        EXPECT_LE(s.queuePeak, 4u);
        deferrals += s.deferrals;
    }
    EXPECT_GT(deferrals, 0u);
    // Deferred arrivals keep their stamps, so the backlog is visible
    // as queueing delay.
    EXPECT_GT(r.queueDelay.max, 0u);
}

TEST(TrafficRunner, ResultsAreIdenticalAcrossWorkerCounts)
{
    LoadSweepConfig sc;
    sc.base = smallConfig(2, ArrivalMode::OpenLoop, 40);
    sc.offeredLoads = {10.0, 40.0};
    sc.systems = {SystemKind::PvaSdram, SystemKind::Gathering};

    auto csvWithJobs = [&](unsigned jobs) {
        LoadSweepConfig c = sc;
        c.jobs = jobs;
        std::ostringstream os;
        writeLoadCsv(os, runLoadSweep(c));
        return os.str();
    };
    std::string serial = csvWithJobs(1);
    EXPECT_EQ(serial, csvWithJobs(4));
    EXPECT_NE(serial.find("pva,"), std::string::npos);
    EXPECT_NE(serial.find("gathering,"), std::string::npos);
}

TEST(TrafficRunner, AchievedThroughputIsMonotoneInOfferedLoad)
{
    LoadSweepConfig sc;
    sc.base = smallConfig(2, ArrivalMode::OpenLoop, 64);
    sc.offeredLoads = {5.0, 20.0, 80.0};
    sc.systems = {SystemKind::PvaSdram};
    std::vector<LoadPoint> points = runLoadSweep(sc);
    ASSERT_EQ(points.size(), 3u);
    for (std::size_t i = 1; i < points.size(); ++i) {
        ASSERT_FALSE(points[i].failed);
        EXPECT_GE(points[i].result.requestsPerKilocycle,
                  points[i - 1].result.requestsPerKilocycle * 0.999);
        EXPECT_GE(points[i].result.totalLatency.p99,
                  points[i - 1].result.totalLatency.p99);
    }
}

TEST(TrafficFaults, FaultedRunsAreReproduciblePerSeed)
{
    TrafficConfig tc = smallConfig(2, ArrivalMode::OpenLoop, 48);
    for (StreamConfig &s : tc.streams)
        s.requestsPerKilocycle = 40.0;
    tc.config.faults.bcStallRate = 0.02;
    tc.config.faults.refreshStallRate = 0.001;
    tc.config.faults.seed = 7;

    std::string first = jsonOf(runTraffic(tc));
    EXPECT_EQ(first, jsonOf(runTraffic(tc)));

    TrafficConfig other = tc;
    other.config.faults.seed = 8;
    EXPECT_NE(jsonOf(runTraffic(other)), first);
}

TEST(TrafficFaults, RetriedPointsProduceIdenticalServiceStats)
{
    // A transient harness failure (not a simulation fault) must not
    // change the retried point's results: the rerun sees the same
    // seeds, so its ServiceStats are byte-identical to an undisturbed
    // run.
    TrafficConfig tc = smallConfig(2, ArrivalMode::OpenLoop, 32);
    for (StreamConfig &s : tc.streams)
        s.requestsPerKilocycle = 30.0;

    std::string undisturbed = jsonOf(runTraffic(tc));

    SweepExecutor executor(2);
    executor.setMaxAttempts(3);
    std::vector<std::string> results(2);
    TaskReport report = executor.runTasks(
        2, "task", [&](std::size_t i, unsigned attempt) {
            if (i == 1 && attempt == 0)
                throw SimError(SimErrorKind::Overflow, "test", 0,
                               "injected transient failure");
            results[i] = jsonOf(runTraffic(tc));
        });
    EXPECT_TRUE(report.allOk());
    EXPECT_EQ(report.retried, 1u);
    EXPECT_EQ(results[0], undisturbed);
    EXPECT_EQ(results[1], undisturbed);
}

TEST(TrafficJson, StreamNamesAreEscaped)
{
    TrafficConfig tc = smallConfig(1, ArrivalMode::ClosedLoop, 4);
    tc.streams[0].name = "a\"b\\c";
    const std::string text = jsonOf(runTraffic(tc));

    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::parse(text, doc, error)) << error << "\n" << text;
    const json::Value *streams = doc.find("streams");
    ASSERT_NE(streams, nullptr);
    ASSERT_EQ(streams->array().size(), 1u);
    const json::Value *name = streams->array()[0].find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name->string(), "a\"b\\c");
}
