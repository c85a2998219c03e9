#include "counts.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/pva_unit.hh"

namespace perfbench
{

using namespace pva;

namespace
{

/** A per-bank statistic: its member, its StatSet name suffix (after
 *  "bc<i>." / "dev<i>."), and the layer metric it sums into. */
template <typename Owner>
struct BankStat
{
    Scalar Owner::*member;
    const char *stat;
    const char *layer; ///< Per-layer metric (or '_' helper key)
    bool isMax;        ///< Peak over banks rather than a sum
};

const BankStat<BankController> kBcStats[] = {
    {&BankController::statCommandsSeen, "commandsSeen", "bc.commands_seen",
     false},
    {&BankController::statCommandsHit, "commandsHit", "bc.commands_hit",
     false},
    {&BankController::statElements, "elements", "bc.elements", false},
    {&BankController::statSchedActiveCycles, "schedActiveCycles",
     "bc.sched_active_cycles", false},
    {&BankController::statStallCycles, "stallCycles", "bc.stall_cycles",
     false},
    {&BankController::statVcFullCycles, "vcFullCycles",
     "bc.vc_full_cycles", false},
    {&BankController::statFifoPeak, "fifoPeak", "bc.fifo_peak", true},
    {&BankController::statBypasses, "bypasses", "bc.bypasses", false},
};

const BankStat<SdramDevice> kDevStats[] = {
    {&SdramDevice::statActivates, "activates", "dev.activates", false},
    {&SdramDevice::statPrecharges, "precharges", "dev.precharges", false},
    {&SdramDevice::statReads, "reads", "dev.reads", false},
    {&SdramDevice::statWrites, "writes", "dev.writes", false},
    {&SdramDevice::statRowHitAccesses, "rowHitAccesses", "_dev.row_hits",
     false},
    {&SdramDevice::statRefreshes, "refreshes", "dev.refreshes", false},
    {&SdramDevice::statDeferredRefreshes, "deferredRefreshes",
     "dev.deferred_refreshes", false},
};

/** Bus and front-end statistics (by StatSet name). */
constexpr std::pair<const char *, const char *> kSystemStats[] = {
    {"bus.requestCycles", "bus.request_cycles"},
    {"bus.dataCycles", "bus.data_cycles"},
    {"frontend.reads", "pva.frontend.reads"},
    {"frontend.writes", "pva.frontend.writes"},
    {"frontend.ctxFullCycles", "pva.frontend.ctx_full_cycles"},
    {"frontend.ctxOccupancy", "_frontend.ctx_occupancy"},
};

template <typename Owner>
void
addBankStat(const BankStat<Owner> &s, std::uint64_t v,
            std::map<std::string, double> &layer)
{
    double &slot = layer[s.layer];
    slot = s.isMax ? std::max(slot, static_cast<double>(v))
                   : slot + static_cast<double>(v);
}

double
ratio(const std::map<std::string, double> &m, const std::string &num,
      const std::string &den)
{
    auto n = m.find(num);
    auto d = m.find(den);
    if (n == m.end() || d == m.end() || d->second == 0.0)
        return 0.0;
    return n->second / d->second;
}

} // anonymous namespace

std::uint64_t
percentileOf(std::vector<std::uint64_t> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

double
quantileOf(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

std::map<std::string, std::uint64_t>
parseStatDump(const std::string &text)
{
    std::map<std::string, std::uint64_t> out;
    std::istringstream in(text);
    std::string name, value;
    while (in >> name >> value) {
        if (value.find_first_not_of("0123456789") == std::string::npos)
            out[name] = std::stoull(value);
    }
    return out;
}

void
addPvaStats(MemorySystem &sys, std::uint64_t cycles,
            std::map<std::string, double> &layer)
{
    // The bank controllers' and devices' counters are public members;
    // reading them directly keeps collection cheap next to a short
    // grid point. Only the front end's go through the StatSet.
    auto *pva = dynamic_cast<PvaUnit *>(&sys);
    if (!pva)
        return;
    for (unsigned b = 0; b < pva->config().geometry.banks(); ++b) {
        BankController &bc = pva->bankController(b);
        for (const auto &s : kBcStats)
            addBankStat(s, (bc.*s.member).value(), layer);
        if (auto *dev = dynamic_cast<SdramDevice *>(&bc.device())) {
            for (const auto &s : kDevStats)
                addBankStat(s, (dev->*s.member).value(), layer);
        }
    }
    const StatSet &stats = sys.stats();
    for (const auto &[stat, metric] : kSystemStats)
        layer[metric] += static_cast<double>(stats.scalar(stat));
    layer["_pva_cycles"] += static_cast<double>(cycles);
}

void
addPvaStats(const std::map<std::string, std::uint64_t> &dump,
            unsigned banks, std::uint64_t cycles,
            std::map<std::string, double> &layer)
{
    auto get = [&dump](const std::string &name) -> std::uint64_t {
        auto it = dump.find(name);
        return it == dump.end() ? 0 : it->second;
    };
    for (unsigned b = 0; b < banks; ++b) {
        const std::string bc = "bc" + std::to_string(b) + ".";
        const std::string dev = "dev" + std::to_string(b) + ".";
        for (const auto &s : kBcStats)
            addBankStat(s, get(bc + s.stat), layer);
        for (const auto &s : kDevStats)
            addBankStat(s, get(dev + s.stat), layer);
    }
    for (const auto &[stat, metric] : kSystemStats)
        layer[metric] += static_cast<double>(get(stat));
    layer["_pva_cycles"] += static_cast<double>(cycles);
}

void
addSimCycles(std::uint64_t ticks, std::uint64_t skipped,
             std::map<std::string, double> &layer)
{
    layer["sim.ticks"] += static_cast<double>(ticks);
    layer["sim.cycles_skipped"] += static_cast<double>(skipped);
}

void
finishLayerRatios(std::map<std::string, double> &layer)
{
    layer["bc.hit_ratio"] =
        ratio(layer, "bc.commands_hit", "bc.commands_seen");
    const double accesses = layer["dev.reads"] + layer["dev.writes"];
    layer["dev.row_hit_ratio"] =
        accesses > 0.0 ? layer["_dev.row_hits"] / accesses : 0.0;
    layer["bus.data_util"] = ratio(layer, "bus.data_cycles", "_pva_cycles");
    layer["pva.frontend.ctx_occupancy_mean"] =
        ratio(layer, "_frontend.ctx_occupancy", "_pva_cycles");
    const double cycles = layer["sim.ticks"] + layer["sim.cycles_skipped"];
    layer["sim.skip_ratio"] =
        cycles > 0.0 ? layer["sim.cycles_skipped"] / cycles : 0.0;
    auto ms = layer.find("sim.run_until_ms");
    layer["sim.host_ns_per_tick"] =
        ms != layer.end() && layer["sim.ticks"] > 0.0
            ? ms->second * 1e6 / layer["sim.ticks"]
            : 0.0;
    for (auto it = layer.begin(); it != layer.end();) {
        if (it->first[0] == '_')
            it = layer.erase(it);
        else
            ++it;
    }
}

void
signLayerCounts(PassResult &r)
{
    for (const auto &[name, v] : r.layer) {
        if (v >= 0.0 && v == std::floor(v) && name.find("_ms") ==
                                                   std::string::npos)
            r.signature["layer." + name] = static_cast<std::uint64_t>(v);
    }
}

void
PassResult::signEndToEnd()
{
    signature["sim_cycles"] = simCycles;
    signature["words"] = words;
    signature["requests"] = requests;
    signature["latency_p50"] = latencyP50;
    signature["latency_p99"] = latencyP99;
    signature["latency_samples"] = latencySamples;
    signature["capacity_milli"] =
        static_cast<std::uint64_t>(std::llround(capacity * 1000.0));
}

} // namespace perfbench
