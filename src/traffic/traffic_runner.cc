#include "traffic/traffic_runner.hh"

#include <algorithm>
#include <ostream>
#include <set>

#include "fleet/fleet_arbiter.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"
#include "sim/simulation.hh"

namespace pva
{

void
TrafficResult::dumpJson(std::ostream &os) const
{
    json::Writer w(os);
    w.beginObject().field("cycles", cycles).field("completed", completed);
    w.field("words", words);
    w.field("requestsPerKilocycle", requestsPerKilocycle);
    w.field("wordsPerCycle", wordsPerCycle);
    w.field("meanInFlight", meanInFlight).field("bcUtilization", bcUtilization);
    w.field("shed", shed).field("shedRate", shedRate);
    w.field("simTicks", simTicks).field("cyclesSkipped", cyclesSkipped);
    w.field("bcTicks", bcTicks);
    jsonSummary(w, "queueDelay", queueDelay);
    jsonSummary(w, "serviceLatency", serviceLatency);
    jsonSummary(w, "totalLatency", totalLatency);
    w.key("streams").beginArray();
    for (const StreamResult &s : streams) {
        w.beginObject().field("name", s.name).field("requests", s.requests);
        w.field("completed", s.completed).field("deferrals", s.deferrals);
        w.field("shedDeadline", s.shedDeadline);
        w.field("shedOverload", s.shedOverload);
        w.field("queuePeak", s.queuePeak).field("words", s.words);
        jsonSummary(w, "queueDelay", s.queueDelay);
        jsonSummary(w, "serviceLatency", s.serviceLatency);
        jsonSummary(w, "totalLatency", s.totalLatency);
        w.end();
    }
    w.end().end();
}

TrafficResult
runTraffic(const TrafficConfig &config, std::ostream *stats_dump)
{
    if (config.streams.empty()) {
        throw SimError(SimErrorKind::Config, "traffic", kNeverCycle,
                       "at least one stream is required");
    }

    // Build the sources first (they validate their own config) and
    // reject duplicate display names, which would collide in the
    // ServiceStats registry.
    std::vector<StreamSource> sources;
    std::vector<std::string> names;
    std::set<std::string> seen;
    sources.reserve(config.streams.size());
    for (unsigned i = 0; i < config.streams.size(); ++i) {
        sources.emplace_back(config.streams[i], i,
                             config.config.bc.lineWords);
        const std::string &name = sources.back().name();
        if (!seen.insert(name).second) {
            throw SimError(SimErrorKind::Config, "traffic", kNeverCycle,
                           csprintf("duplicate stream name '%s'",
                                    name.c_str()));
        }
        names.push_back(name);
    }

    // A flat run is a one-seat fleet: its streams are the tenant's,
    // recorded per stream under "traffic". Nothing subscribes to the
    // bus.
    auto sys = makeSystem(config.system, config.config);
    ServiceStats stats(names);
    std::vector<fleet::TenantSeat> seats(1);
    seats[0].sources = std::move(sources);
    seats[0].stats = &stats;
    fleet::MessageBus bus;
    fleet::FleetArbiter arbiter(config.arbiter, std::move(seats), bus);

    Simulation sim(*sys, config.config.clocking);
    fleet::runToDrain(sim, arbiter, *sys, config.limits);

    TrafficResult r;
    r.cycles = sim.now();
    r.simTicks = sim.simTicks();
    r.cyclesSkipped = sim.cyclesSkipped();
    r.cyclesPerSecond = sim.cyclesPerSecond();
    copyTotals(stats.total(), arbiter.occupancySum(),
               arbiter.occupancyCycles(), r);

    // Bank-controller work and utilization via the counters the PVA
    // systems register (sim.bcTicks, bc<i>.schedActiveCycles);
    // baselines have no bank controllers and report 0.
    const StatSet &sys_stats = sys->stats();
    if (sys_stats.hasScalar("sim.bcTicks"))
        r.bcTicks = sys_stats.scalar("sim.bcTicks");
    unsigned banks = config.config.geometry.banks();
    if (r.cycles > 0 && banks > 0 &&
        sys_stats.hasScalar("bc0.schedActiveCycles")) {
        double active = 0.0;
        for (unsigned b = 0; b < banks; ++b) {
            active += static_cast<double>(sys_stats.scalar(
                csprintf("bc%u.schedActiveCycles", b)));
        }
        r.bcUtilization = active / (static_cast<double>(banks) *
                                    static_cast<double>(r.cycles));
    }

    r.streams.resize(names.size());
    for (unsigned i = 0; i < names.size(); ++i) {
        StreamResult &s = r.streams[i];
        s.name = names[i];
        s.requests = stats.stream(i).arrivals.value();
        copyCounters(stats.stream(i), s);
    }
    if (stats_dump) {
        stats.set().dump(*stats_dump);
        sys_stats.dump(*stats_dump);
    }
    return r;
}

std::vector<LoadPoint>
runLoadSweep(const LoadSweepConfig &config)
{
    if (config.base.streams.empty()) {
        throw SimError(SimErrorKind::Config, "traffic", kNeverCycle,
                       "load sweep needs at least one stream");
    }
    if (config.offeredLoads.empty()) {
        throw SimError(SimErrorKind::Config, "traffic", kNeverCycle,
                       "load sweep needs at least one offered load");
    }

    // Ascending loads make each curve monotone in offered load.
    std::vector<double> loads = config.offeredLoads;
    std::sort(loads.begin(), loads.end());

    std::vector<LoadPoint> points;
    points.resize(config.systems.size() * loads.size());
    for (std::size_t si = 0; si < config.systems.size(); ++si) {
        for (std::size_t li = 0; li < loads.size(); ++li) {
            LoadPoint &p = points[si * loads.size() + li];
            p.system = config.systems[si];
            p.offered = loads[li];
        }
    }

    SweepExecutor executor(config.jobs);
    executor.setMaxAttempts(config.retries);

    auto task = [&](std::size_t i, unsigned attempt) {
        LoadPoint &p = points[i];
        TrafficConfig tc = config.base;
        tc.system = p.system;
        tc.config.faults = tc.config.faults.forAttempt(attempt);
        double per_stream =
            p.offered / static_cast<double>(tc.streams.size());
        for (StreamConfig &s : tc.streams) {
            s.mode = ArrivalMode::OpenLoop;
            s.requestsPerKilocycle = per_stream;
        }
        p.result = runTraffic(tc);
    };

    auto observe = [&](const TaskProgress &tp) {
        points[tp.index].attempts = tp.attempts;
    };

    TaskReport report = executor.runTasks(points.size(), "rung", task, observe);
    for (const TaskFailure &f : report.failures) {
        LoadPoint &p = points[f.index];
        p.failed = true;
        p.error = f.error;
        p.result = TrafficResult{};
    }
    return points;
}

void
writeLoadCsvHeader(std::ostream &os)
{
    os << "system,offered_per_kc,achieved_per_kc,words_per_cycle,"
          "lat_mean,lat_p50,lat_p95,lat_p99,lat_p999,"
          "queue_mean,mean_in_flight,bc_utilization,shed,shed_rate,"
          "completed,cycles,status\n";
}

void
writeLoadCsvRow(std::ostream &os, const LoadPoint &point)
{
    const TrafficResult &r = point.result;
    os << systemShortName(point.system) << ',' << point.offered << ','
       << r.requestsPerKilocycle << ',' << r.wordsPerCycle << ','
       << r.totalLatency.mean << ',' << r.totalLatency.p50 << ','
       << r.totalLatency.p95 << ',' << r.totalLatency.p99 << ','
       << r.totalLatency.p999 << ',' << r.queueDelay.mean << ','
       << r.meanInFlight << ',' << r.bcUtilization << ','
       << r.shed << ',' << r.shedRate << ','
       << r.completed << ',' << r.cycles << ','
       << (point.failed ? "failed" : "ok") << '\n';
}

void
writeLoadCsv(std::ostream &os, const std::vector<LoadPoint> &points)
{
    writeLoadCsvHeader(os);
    for (const LoadPoint &p : points)
        writeLoadCsvRow(os, p);
}

void
writeLoadJson(std::ostream &os, const std::vector<LoadPoint> &points)
{
    json::Writer w(os);
    w.beginObject().key("points").beginArray(json::Writer::Layout::Block);
    for (const LoadPoint &p : points) {
        w.beginObject().field("system", systemShortName(p.system));
        w.field("offered", p.offered).field("failed", p.failed);
        p.result.dumpJson(w.key("result").nested());
        w.end();
    }
    w.end().end().newline();
}

} // namespace pva
