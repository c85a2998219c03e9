#include "fleet/scenario.hh"

#include <fstream>
#include <sstream>

#include "kernels/sweep.hh"
#include "sim/clocking.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"
#include "traffic/arbiter.hh"

namespace pva::fleet
{

namespace
{

[[noreturn]] void
fail(const std::string &detail)
{
    throw SimError(SimErrorKind::Config, "scenario", kNeverCycle,
                   detail);
}

/** Scenario errors: SimError(Config) from "scenario", key paths
 *  rooted at "scenario". */
json::Reader
reader(const json::Value &v, const std::string &where)
{
    return json::Reader(v, where, {"scenario", ""});
}

PatternConfig
parsePattern(const json::Reader &in)
{
    in.rejectUnknown({"regionBase", "regionWords", "minStride",
                      "maxStride", "minLength", "maxLength",
                      "readFraction", "indirect"});
    PatternConfig p;
    p.regionBase = in.u64("regionBase", p.regionBase);
    p.regionWords = in.u64("regionWords", p.regionWords);
    p.minStride = in.u32("minStride", p.minStride);
    p.maxStride = in.u32("maxStride", p.maxStride);
    p.minLength = in.u32("minLength", p.minLength);
    p.maxLength = in.u32("maxLength", p.maxLength);
    p.readFraction = in.real("readFraction", p.readFraction);
    if (p.readFraction < 0.0 || p.readFraction > 1.0)
        in.fail(in.keyPath("readFraction") + " must be in [0, 1]");
    if (in.boolean("indirect", false))
        p.mode = VectorCommand::Mode::Indirect;
    return p;
}

StreamConfig
parseStream(const json::Reader &in, std::uint64_t default_seed)
{
    in.rejectUnknown({"mode", "window", "rate", "requests", "priority",
                      "queueCap", "deadline", "seed", "pattern"});
    StreamConfig s;
    s.seed = default_seed;
    s.mode = in.name("mode", arrivalModes(), s.mode);
    s.window = in.u32("window", s.window);
    s.requestsPerKilocycle = in.real("rate", s.requestsPerKilocycle);
    s.requests = in.u64("requests", s.requests);
    s.priority = in.u32("priority", s.priority);
    s.queueCapacity = in.u32("queueCap", s.queueCapacity);
    s.deadline = in.u64("deadline", s.deadline);
    s.seed = in.u64("seed", s.seed);
    if (in.find("pattern"))
        s.pattern = parsePattern(in.object("pattern"));
    return s;
}

TenantSpec
parseTenant(const json::Reader &in, std::uint64_t default_seed)
{
    in.rejectUnknown({"name", "count", "streamsPerTenant",
                      "regionStrideWords", "stream"});
    TenantSpec spec;
    spec.name = in.str("name", spec.name);
    spec.count = in.u32("count", spec.count);
    spec.streamsPerTenant =
        in.u32("streamsPerTenant", spec.streamsPerTenant);
    spec.regionStrideWords =
        in.u64("regionStrideWords", spec.regionStrideWords);
    spec.stream.seed = default_seed;
    if (in.find("stream"))
        spec.stream = parseStream(in.object("stream"), default_seed);
    if (spec.count == 0)
        in.fail(in.keyPath("count") + " must be at least 1");
    if (spec.streamsPerTenant == 0)
        in.fail(in.keyPath("streamsPerTenant") + " must be at least 1");
    return spec;
}

} // anonymous namespace

Scenario
parseScenario(const json::Value &doc)
{
    const json::Reader in = reader(doc, "scenario");
    in.rejectUnknown({"kind", "name", "system", "policy", "aging",
                      "clocking", "backend", "subarrays",
                      "refreshWindow", "check", "shards", "seed",
                      "maxCycles", "shed", "tenants"});

    const std::string kind = in.str("kind", "");
    if (kind != "fleet") {
        fail(csprintf("scenario.kind must be \"fleet\", not \"%s\"",
                      kind.c_str()));
    }

    Scenario sc;
    sc.name = in.str("name", sc.name);
    FleetConfig &fc = sc.config;
    SystemConfig &sys = fc.config;
    fc.system = in.name("system", systemKinds(), fc.system);
    fc.arbiter.policy = in.name("policy", arbPolicies(), fc.arbiter.policy);
    fc.arbiter.agingThreshold =
        in.u64("aging", fc.arbiter.agingThreshold);
    sys.clocking = in.name("clocking", clockingModes(), sys.clocking);
    sys.backend = in.name("backend", memBackends(), sys.backend);
    sys.salpSubarrays = in.u32("subarrays", sys.salpSubarrays);
    sys.refreshDeferWindow =
        in.u32("refreshWindow", sys.refreshDeferWindow);
    sys.timingCheck = in.boolean("check", sys.timingCheck);

    fc.shards = in.u32("shards", 1);
    if (fc.shards == 0)
        fail("scenario.shards must be at least 1");
    fc.limits.maxCycles = in.u64("maxCycles", fc.limits.maxCycles);
    const std::uint64_t seed = in.u64("seed", 1);

    if (in.find("shed")) {
        const json::Reader shed = in.object("shed");
        shed.rejectUnknown({"enabled", "deadline", "watermark"});
        ArbiterConfig::ShedConfig &sh = fc.arbiter.shed;
        sh.enabled = shed.boolean("enabled", true);
        sh.defaultDeadline = shed.u64("deadline", sh.defaultDeadline);
        sh.queueHighWatermark =
            shed.real("watermark", sh.queueHighWatermark);
    }

    const json::Value *tenants = in.find("tenants");
    if (!tenants || !tenants->isArray() || tenants->array().empty())
        fail("scenario.tenants must be a non-empty array");
    for (std::size_t i = 0; i < tenants->array().size(); ++i) {
        fc.tenants.push_back(parseTenant(
            reader(tenants->array()[i],
                   csprintf("scenario.tenants[%zu]", i)),
            seed));
    }
    return sc;
}

Scenario
parseScenarioText(const std::string &text)
{
    json::Value doc;
    std::string error;
    if (!json::parse(text, doc, error)) {
        fail(csprintf("scenario JSON parse failed: %s",
                      error.c_str()));
    }
    return parseScenario(doc);
}

Scenario
loadScenarioFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        fail(csprintf("cannot open scenario file '%s'", path.c_str()));
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!in.good() && !in.eof()) {
        fail(csprintf("error reading scenario file '%s'",
                      path.c_str()));
    }
    return parseScenarioText(buf.str());
}

void
writeScenarioResult(std::ostream &os, const Scenario &scenario,
                    const FleetResult &result)
{
    json::Writer w(os);
    w.beginObject().field("schemaVersion", 1).field("tool", "pva_loadgen");
    w.field("scenario", scenario.name);
    result.dumpJson(w.key("fleet").nested());
    w.end().newline();
}

} // namespace pva::fleet
