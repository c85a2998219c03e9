/**
 * @file
 * Load-shedding tests (docs/TRAFFIC.md): with shedding disabled the
 * arbiter is bit-identical to a neutrally-configured shedding arbiter;
 * under saturation a deadline budget bounds the queueing delay of
 * every *served* request while shedding a nonzero remainder; overload
 * shedding keeps closed-loop runs draining; a deadline whose expiry
 * would pass 2^64-1 never sheds; and the behavior is cycle-exact
 * across exhaustive and event clocking.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "fleet/fleet_runner.hh"
#include "sim/clocking.hh"
#include "traffic/traffic_runner.hh"

namespace pva
{
namespace
{

/** Four open-loop streams offering well past what the PVA serves. */
TrafficConfig
saturatedConfig()
{
    TrafficConfig tc;
    tc.system = SystemKind::PvaSdram;
    tc.limits.maxCycles = 2000000;
    for (unsigned i = 0; i < 4; ++i) {
        StreamConfig s;
        s.name = "s";
        s.name += std::to_string(i);
        s.mode = ArrivalMode::OpenLoop;
        s.requestsPerKilocycle = 150.0;
        s.requests = 120;
        s.queueCapacity = 8;
        s.seed = 7 + i;
        s.pattern.regionBase =
            static_cast<WordAddr>(i) * s.pattern.regionWords;
        tc.streams.push_back(std::move(s));
    }
    return tc;
}

std::string
resultJson(const TrafficResult &r)
{
    std::ostringstream os;
    r.dumpJson(os);
    return os.str();
}

TEST(TrafficShed, NeutralSheddingIsBitIdenticalToOff)
{
    TrafficConfig off = saturatedConfig();
    off.arbiter.shed.enabled = false;

    // Shedding enabled but with no deadline and the watermark at
    // capacity never drops anything — it must not perturb a single
    // cycle of the shed-off behavior.
    TrafficConfig neutral = saturatedConfig();
    neutral.arbiter.shed.enabled = true;
    neutral.arbiter.shed.defaultDeadline = 0;
    neutral.arbiter.shed.queueHighWatermark = 1.0;

    TrafficResult a = runTraffic(off);
    TrafficResult b = runTraffic(neutral);
    EXPECT_EQ(b.shed, 0u);
    EXPECT_EQ(resultJson(a), resultJson(b));
}

TEST(TrafficShed, DeadlineBoundsServedLatencyUnderSaturation)
{
    const Cycle deadline = 300;

    TrafficConfig off = saturatedConfig();
    TrafficResult unshed = runTraffic(off);
    ASSERT_GT(unshed.queueDelay.max, deadline)
        << "the saturated reference must actually overload the queue";

    TrafficConfig on = saturatedConfig();
    on.arbiter.shed.enabled = true;
    on.arbiter.shed.defaultDeadline = deadline;
    TrafficResult shed = runTraffic(on);

    EXPECT_GT(shed.shed, 0u);
    EXPECT_GT(shed.completed, 0u);
    EXPECT_GT(shed.shedRate, 0.0);
    // Every served request was granted while still inside its budget,
    // so the whole queue-delay distribution (p99 and max included) is
    // capped by the deadline.
    EXPECT_LE(shed.queueDelay.max, deadline);
    EXPECT_LE(shed.queueDelay.p99, deadline);
    EXPECT_LT(shed.queueDelay.max, unshed.queueDelay.max);

    std::uint64_t perStreamShed = 0;
    for (const StreamResult &s : shed.streams)
        perStreamShed += s.shedDeadline + s.shedOverload;
    EXPECT_EQ(perStreamShed, shed.shed);
}

TEST(TrafficShed, OverloadWatermarkKeepsClosedLoopDraining)
{
    TrafficConfig tc;
    tc.system = SystemKind::PvaSdram;
    tc.limits.maxCycles = 2000000;
    tc.arbiter.shed.enabled = true;
    tc.arbiter.shed.defaultDeadline = 100;
    tc.arbiter.shed.queueHighWatermark = 0.5;
    for (unsigned i = 0; i < 2; ++i) {
        StreamConfig s;
        s.name = "c";
        s.name += std::to_string(i);
        s.mode = ArrivalMode::ClosedLoop;
        s.window = 6;
        s.requests = 60;
        s.queueCapacity = 4; // watermark 0.5 -> shed from depth 2
        s.seed = 11 + i;
        s.pattern.regionBase =
            static_cast<WordAddr>(i) * s.pattern.regionWords;
        tc.streams.push_back(std::move(s));
    }

    TrafficResult r = runTraffic(tc);
    EXPECT_GT(r.shed, 0u);
    std::uint64_t emitted = 0;
    for (const StreamResult &s : r.streams) {
        EXPECT_EQ(s.requests, 60u) << s.name
            << ": shedding must keep the closed loop offering load";
        emitted += s.requests;
    }
    // Every emitted request is accounted for: served or shed.
    EXPECT_EQ(r.completed + r.shed, emitted);
}

TEST(TrafficShed, EventClockingMatchesExhaustiveWithSheddingOn)
{
    auto configure = [](ClockingMode mode) {
        TrafficConfig tc = saturatedConfig();
        tc.arbiter.shed.enabled = true;
        tc.arbiter.shed.defaultDeadline = 200;
        tc.arbiter.shed.queueHighWatermark = 0.75;
        tc.config.clocking = mode;
        return tc;
    };
    TrafficResult ex = runTraffic(configure(ClockingMode::Exhaustive));
    TrafficResult ev = runTraffic(configure(ClockingMode::Event));

    EXPECT_EQ(ex.cycles, ev.cycles);
    EXPECT_EQ(ex.completed, ev.completed);
    EXPECT_EQ(ex.shed, ev.shed);
    EXPECT_EQ(ex.words, ev.words);
    EXPECT_EQ(ex.queueDelay.max, ev.queueDelay.max);
    EXPECT_EQ(ex.totalLatency.p99, ev.totalLatency.p99);
    for (std::size_t i = 0; i < ex.streams.size(); ++i) {
        EXPECT_EQ(ex.streams[i].shedDeadline,
                  ev.streams[i].shedDeadline) << i;
        EXPECT_EQ(ex.streams[i].shedOverload,
                  ev.streams[i].shedOverload) << i;
        EXPECT_EQ(ex.streams[i].completed, ev.streams[i].completed)
            << i;
    }
    EXPECT_GT(ev.cyclesSkipped, 0u)
        << "event clocking should actually skip cycles";
    EXPECT_GT(ex.shed, 0u);
}

TEST(TrafficShed, DeadlinesNearTheCycleLimitNeverExpire)
{
    // arrival + deadline + 1 passes 2^64-1 for every head at the first
    // deadline, and for every head arriving after cycle 998 at the
    // second (the run's arrivals span a few thousand cycles). Such a
    // head never expires: both runs drain and shed nothing.
    for (Cycle deadline : {kNeverCycle, kNeverCycle - 999}) {
        SCOPED_TRACE(deadline);
        TrafficConfig tc;
        tc.arbiter.shed.enabled = true;
        tc.arbiter.shed.defaultDeadline = deadline;
        for (unsigned i = 0; i < 2; ++i) {
            StreamConfig s;
            s.mode = ArrivalMode::OpenLoop;
            s.requestsPerKilocycle = 20.0;
            s.requests = 48;
            s.seed = 5 + i;
            s.pattern.regionBase =
                static_cast<WordAddr>(i) * s.pattern.regionWords;
            tc.streams.push_back(std::move(s));
        }
        const TrafficResult flat = runTraffic(tc);
        EXPECT_EQ(flat.completed, 96u);
        EXPECT_EQ(flat.shed, 0u);
        EXPECT_GT(flat.cycles, 1000u);

        fleet::FleetConfig fc;
        fc.arbiter = tc.arbiter;
        fc.tenants.resize(1);
        fc.tenants[0].streamsPerTenant = 2;
        fc.tenants[0].stream = tc.streams[0];
        fc.tenants[0].regionStrideWords =
            tc.streams[0].pattern.regionWords;
        const fleet::FleetResult fleet = fleet::runFleet(fc);
        EXPECT_EQ(fleet.completed, 96u);
        EXPECT_EQ(fleet.shed, 0u);
    }
}

} // anonymous namespace
} // namespace pva
