/**
 * @file
 * Mutation fuzz over the three documents the simulator reads: a fleet
 * scenario (parseScenarioText), a repro capsule (loadCapsule) and a
 * trace file (parseTrace). Each starts from one valid document and
 * applies seeded mutations: byte flips, truncations, and dropped or
 * duplicated keys (lines, for the line-oriented trace file). The only
 * allowed outcomes are success, a SimError, or parseTrace returning
 * false with a message; any other exception fails the test, and a
 * crash fails the run. A failure the fuzz finds is fixed in the
 * parser and its input kept here as a named case; 30,000 mutations
 * per document found none when the fuzz was written.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/scenario.hh"
#include "kernels/repro_capsule.hh"
#include "kernels/trace_file.hh"
#include "sim/json.hh"
#include "sim/random.hh"
#include "sim/sim_error.hh"

namespace pva
{
namespace
{

constexpr unsigned kMutationsPerDocument = 500;

const char *const kScenario = R"({
  "kind": "fleet", "name": "fuzz", "system": "pva", "policy": "rr",
  "aging": 64, "clocking": "event", "backend": "salp", "subarrays": 4,
  "refreshWindow": 0, "check": false, "shards": 2, "seed": 7,
  "maxCycles": 100000,
  "shed": {"enabled": true, "deadline": 300, "watermark": 0.75},
  "tenants": [
    {"name": "web", "count": 2, "streamsPerTenant": 2,
     "regionStrideWords": 65536,
     "stream": {"mode": "open", "window": 4, "rate": 30.5,
                "requests": 16, "priority": 1, "queueCap": 8,
                "deadline": 500, "seed": 3,
                "pattern": {"regionBase": 4096, "regionWords": 8192,
                            "minStride": 1, "maxStride": 19,
                            "minLength": 8, "maxLength": 32,
                            "readFraction": 0.6, "indirect": false}}},
    {"count": 1}
  ]
})";

const char *const kTrace = "# fuzz trace\n"
                           "poke 4096 42\n"
                           "read 4096 19 32\n"
                           "write 8192 3 16 7\n"
                           "barrier\n"
                           "read 8192 3 16 # tail comment\n";

/** Count object members below @p v (the candidates for a key
 *  mutation). */
std::size_t
memberCount(const json::Value &v)
{
    std::size_t n = v.isObject() ? v.object().size() : 0;
    for (const json::Value &e : v.array())
        n += memberCount(e);
    for (const auto &[key, m] : v.object())
        n += memberCount(m);
    return n;
}

/** Rewrite @p v, dropping (or writing twice) the @p target-th object
 *  member in document order; @p seen counts members passed so far. */
void
rewrite(json::Writer &w, const json::Value &v, std::size_t target,
        bool duplicate, std::size_t &seen)
{
    bool ok = true;
    switch (v.kind()) {
      case json::Value::Kind::Null:
        w.nested() << "null";
        break;
      case json::Value::Kind::Bool:
        w.value(v.boolean());
        break;
      case json::Value::Kind::Number:
        if (const std::uint64_t n = v.asU64(ok); ok) {
            w.value(n);
        } else {
            ok = true;
            w.exact(v.asDouble(ok));
        }
        break;
      case json::Value::Kind::String:
        w.value(v.string());
        break;
      case json::Value::Kind::Array:
        w.beginArray();
        for (const json::Value &e : v.array())
            rewrite(w, e, target, duplicate, seen);
        w.end();
        break;
      case json::Value::Kind::Object:
        w.beginObject();
        for (const auto &[key, m] : v.object()) {
            const bool hit = seen++ == target;
            for (int copies = hit ? (duplicate ? 2 : 0) : 1; copies > 0;
                 --copies) {
                w.key(key);
                rewrite(w, m, target, duplicate, seen);
            }
        }
        w.end();
        break;
    }
}

/** @p doc with one random member dropped or duplicated. */
std::string
mutateKeys(Random &rng, const std::string &doc)
{
    json::Value v;
    std::string error;
    if (!json::parse(doc, v, error) || memberCount(v) == 0)
        return doc;
    std::ostringstream os;
    json::Writer w(os);
    std::size_t seen = 0;
    rewrite(w, v, rng.below(memberCount(v)), rng.below(2) == 1, seen);
    return os.str();
}

/** Split @p text into lines, each keeping its '\n'. */
std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    for (std::size_t at = 0; at < text.size();) {
        const std::size_t nl = text.find('\n', at);
        const std::size_t end = nl == std::string::npos ? text.size()
                                                        : nl + 1;
        out.push_back(text.substr(at, end - at));
        at = end;
    }
    return out;
}

/**
 * One seeded mutation of @p doc. The line-oriented trace file has no
 * keys, so it drops or duplicates whole lines (@p by_line) instead.
 */
std::string
mutate(Random &rng, const std::string &doc, bool by_line)
{
    std::string out = doc;
    switch (rng.below(4)) {
      case 0: // byte flip
        out[rng.below(out.size())] = static_cast<char>(rng.below(256));
        return out;
      case 1: // truncation
        return out.substr(0, rng.below(out.size()));
      default:
        break;
    }
    if (!by_line)
        return mutateKeys(rng, doc);
    std::vector<std::string> ls = lines(doc);
    const std::size_t pick = rng.below(ls.size());
    if (rng.below(2) == 0) {
        ls.erase(ls.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
        ls.insert(ls.begin() + static_cast<std::ptrdiff_t>(pick), ls[pick]);
    }
    out.clear();
    for (const std::string &l : ls)
        out += l;
    return out;
}

/** Run @p load on @p input; anything but success or a SimError fails. */
void
expectStructuredOutcome(const char *what, const std::string &input,
                        const std::function<void()> &load)
{
    try {
        load();
    } catch (const SimError &) {
    } catch (const std::exception &e) {
        ADD_FAILURE() << what << ": non-SimError '" << e.what()
                      << "' on input:\n" << input;
    }
}

void
spit(const std::string &path, const std::string &content)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << content;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
fuzzScenario(const std::string &text)
{
    expectStructuredOutcome("scenario", text,
                            [&] { fleet::parseScenarioText(text); });
}

void
fuzzTrace(const std::string &text)
{
    std::istringstream in(text);
    TraceFile trace;
    std::string error;
    expectStructuredOutcome("trace", text, [&] {
        if (!parseTrace(in, trace, error)) {
            EXPECT_FALSE(error.empty()) << "silent refusal of:\n" << text;
        }
    });
}

TEST(InputFuzz, ScenarioMutationsFailStructured)
{
    fleet::parseScenarioText(kScenario); // the seed document is valid
    Random rng(0x5ce0);
    for (unsigned i = 0; i < kMutationsPerDocument; ++i)
        fuzzScenario(mutate(rng, kScenario, false));
}

TEST(InputFuzz, CapsuleMutationsFailStructured)
{
    ReproCapsule capsule;
    capsule.request.stride = 19;
    capsule.request.limits.timeoutMillis = 250.5;
    capsule.request.config.faults.bcStallRate = 0.01;
    capsule.error = "[corruption] checker.gather @ cycle 40";
    const std::string path = testing::TempDir() + "fuzz-capsule.json";
    writeCapsuleFile(path, capsule);
    const std::string seed_doc = slurp(path);
    loadCapsule(path); // the seed document is valid

    Random rng(0xca95);
    for (unsigned i = 0; i < kMutationsPerDocument; ++i) {
        const std::string text = mutate(rng, seed_doc, false);
        spit(path, text);
        expectStructuredOutcome("capsule", text,
                                [&] { loadCapsule(path); });
    }
}

TEST(InputFuzz, TraceMutationsFailStructured)
{
    std::istringstream in(kTrace);
    TraceFile trace;
    std::string error;
    ASSERT_TRUE(parseTrace(in, trace, error)) << error;
    Random rng(0x7ace);
    for (unsigned i = 0; i < kMutationsPerDocument; ++i)
        fuzzTrace(mutate(rng, kTrace, true));
}

} // anonymous namespace
} // namespace pva
