#include "kernels/repro_capsule.hh"

#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace pva
{

namespace
{

[[noreturn]] void
capsuleError(const std::string &path, const std::string &detail)
{
    throw SimError(SimErrorKind::Config, "capsule", kNeverCycle,
                   path + ": " + detail);
}

/** FNV-1a over @p s. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

} // anonymous namespace

std::uint64_t
fingerprintRequest(const SweepRequest &request)
{
    // The codec's canonical text covers every field that determines
    // simulated behavior, so a new knob reaches the fingerprint with
    // no change here.
    return fnv1a(csprintf(
        "point:%s,%s,%u,%u,%u;maxCycles:%llu;config:%016llx",
        systemShortName(request.system),
        kernelSpec(request.kernel).name.c_str(), request.stride,
        request.alignment, request.elements,
        static_cast<unsigned long long>(request.limits.maxCycles),
        static_cast<unsigned long long>(
            fnv1a(configToJson(request.config)))));
}

void
writeCapsule(std::ostream &os, const ReproCapsule &capsule)
{
    const SweepRequest &req = capsule.request;
    constexpr auto block = json::Writer::Layout::Block;
    json::Writer w(os);
    w.beginObject(block).field("schemaVersion", ReproCapsule::kSchemaVersion);
    w.field("kind", ReproCapsule::kKind).key("fingerprint");
    w.value(csprintf("%016llx",
                     static_cast<unsigned long long>(capsule.fingerprint)));
    w.field("attempts", capsule.attempts).field("error", capsule.error);
    w.key("request").beginObject(block);
    w.field("system", systemShortName(req.system));
    w.field("kernel", kernelSpec(req.kernel).name);
    w.field("stride", req.stride).field("alignment", req.alignment);
    w.field("elements", req.elements);
    w.field("maxCycles", req.limits.maxCycles);
    w.key("timeoutMillis").exact(req.limits.timeoutMillis);
    w.key("config").nested() << configToJson(req.config);
    w.end().end().newline();
}

void
writeCapsuleFile(const std::string &path, const ReproCapsule &capsule)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        capsuleError(path, "cannot create capsule file");
    writeCapsule(out, capsule);
    out.flush();
    if (!out)
        capsuleError(path, "capsule write failed");
}

ReproCapsule
loadCapsule(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        capsuleError(path, "cannot open capsule file");
    std::ostringstream buffer;
    buffer << in.rdbuf();

    json::Value doc;
    std::string parseErr;
    if (!json::parse(buffer.str(), doc, parseErr))
        capsuleError(path, "not valid JSON: " + parseErr);

    const json::Reader e(doc, "", {"capsule", path + ": "});
    std::uint64_t schema = e.u64("schemaVersion");
    if (schema != static_cast<std::uint64_t>(
                      ReproCapsule::kSchemaVersion)) {
        capsuleError(path,
                     csprintf("schemaVersion %llu, expected %d",
                              static_cast<unsigned long long>(schema),
                              ReproCapsule::kSchemaVersion));
    }
    e.rejectUnknown({"schemaVersion", "kind", "fingerprint", "attempts",
                     "error", "request"});
    if (e.str("kind") != ReproCapsule::kKind)
        capsuleError(path, "not a " + std::string(ReproCapsule::kKind));

    ReproCapsule capsule;
    capsule.attempts = e.u32("attempts");
    capsule.error = e.str("error");
    capsule.fingerprint =
        std::strtoull(e.str("fingerprint").c_str(), nullptr, 16);

    const json::Reader req = e.object("request");
    req.rejectUnknown({"system", "kernel", "stride", "alignment",
                       "elements", "maxCycles", "timeoutMillis",
                       "config"});
    SweepRequest &r = capsule.request;
    r.system = req.name("system", systemKinds());
    r.kernel = req.name("kernel", kernelIds());
    r.stride = req.u32("stride");
    r.alignment = req.u32("alignment");
    if (r.alignment >= alignmentPresets().size())
        capsuleError(path, "alignment index out of range");
    r.elements = req.u32("elements");
    r.limits.maxCycles = req.u64("maxCycles");
    r.limits.timeoutMillis = req.real("timeoutMillis");
    r.config = configFromJson(req.object("config"));
    return capsule;
}

SweepPoint
replayCapsule(const ReproCapsule &capsule)
{
    return runPoint(capsule.request);
}

bool
sameSimError(const std::string &a, const std::string &b)
{
    if (a == b)
        return true;
    // Wall-clock watchdog reports embed the elapsed milliseconds;
    // match the invariant parts around the "<N> ms" token.
    static const std::string tag = "wall-clock watchdog expired after ";
    std::size_t pa = a.find(tag);
    std::size_t pb = b.find(tag);
    if (pa == std::string::npos || pb == std::string::npos || pa != pb)
        return false;
    if (a.compare(0, pa, b, 0, pb) != 0)
        return false;
    std::size_t sa = a.find(" ms", pa + tag.size());
    std::size_t sb = b.find(" ms", pb + tag.size());
    if (sa == std::string::npos || sb == std::string::npos)
        return false;
    return a.substr(sa) == b.substr(sb);
}

} // namespace pva
