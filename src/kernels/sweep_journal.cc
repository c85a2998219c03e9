#include "kernels/sweep_journal.hh"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace pva
{

namespace
{

/** FNV-1a over @p data, continuing from @p hash. */
std::uint64_t
fnv1a(const void *data, std::size_t size,
      std::uint64_t hash = 0xcbf29ce484222325ULL)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::uint64_t
fnv1a(const std::string &s, std::uint64_t hash = 0xcbf29ce484222325ULL)
{
    return fnv1a(s.data(), s.size(), hash);
}

const char *
pointStatusName(PointStatus status)
{
    switch (status) {
      case PointStatus::Ok:
        return "ok";
      case PointStatus::Retried:
        return "retried";
      case PointStatus::Failed:
        return "failed";
    }
    return "?";
}

bool
parsePointStatus(const std::string &name, PointStatus &out)
{
    for (PointStatus status :
         {PointStatus::Ok, PointStatus::Retried, PointStatus::Failed}) {
        if (name == pointStatusName(status)) {
            out = status;
            return true;
        }
    }
    return false;
}

[[noreturn]] void
journalError(const std::string &path, SimErrorKind kind,
             const std::string &detail)
{
    throw SimError(kind, "journal", kNeverCycle,
                   path + ": " + detail);
}

std::string
headerLine(std::uint64_t fingerprint, std::size_t points)
{
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject().field("schemaVersion", SweepJournal::kSchemaVersion);
    w.field("kind", SweepJournal::kKind).key("fingerprint");
    w.value(csprintf("%016llx", static_cast<unsigned long long>(fingerprint)));
    w.field("points", points).end().newline();
    return os.str();
}

std::string
recordLine(const JournalRecord &record)
{
    const SweepPoint &p = record.point;
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject().field("index", record.index);
    w.field("system", systemShortName(p.system));
    w.field("kernel", kernelSpec(p.kernel).name);
    w.field("stride", p.stride).field("alignment", p.alignment);
    w.field("cycles", p.cycles).field("mismatches", p.mismatches);
    w.field("simTicks", p.simTicks);
    w.field("cyclesSkipped", p.cyclesSkipped);
    w.field("status", pointStatusName(p.status));
    w.field("attempts", p.attempts).field("error", record.error);
    w.end().newline();
    return os.str();
}

/** Extract one journal record; any missing or ill-typed field throws
 *  through @p in's error context. */
JournalRecord
parseRecord(const json::Reader &in)
{
    SweepPoint p{};
    p.system = in.name("system", parseSystemKind);
    p.kernel = in.name("kernel", parseKernelId);
    p.stride = in.u32("stride");
    p.alignment = in.u32("alignment");
    p.cycles = in.u64("cycles");
    p.mismatches = static_cast<std::size_t>(in.u64("mismatches"));
    p.simTicks = in.u64("simTicks");
    p.cyclesSkipped = in.u64("cyclesSkipped");
    p.status = in.name("status", parsePointStatus);
    p.attempts = in.u32("attempts");
    return {static_cast<std::size_t>(in.u64("index")), p,
            in.str("error")};
}

} // anonymous namespace

std::uint64_t
fingerprintConfig(const SystemConfig &config)
{
    // The codec's canonical text covers every field that determines
    // simulated behavior, so a new knob reaches the fingerprint with
    // no change here. Wall-clock budgets live in RunLimits, outside
    // the config: they bound the host, not the simulation.
    return fnv1a(configToJson(config));
}

std::uint64_t
fingerprintRequest(const SweepRequest &request)
{
    std::string s = csprintf(
        "point:%s,%s,%u,%u,%u;maxCycles:%llu;config:%016llx",
        systemShortName(request.system),
        kernelSpec(request.kernel).name.c_str(), request.stride,
        request.alignment, request.elements,
        static_cast<unsigned long long>(request.limits.maxCycles),
        static_cast<unsigned long long>(
            fingerprintConfig(request.config)));
    return fnv1a(s);
}

std::uint64_t
fingerprintGrid(const std::vector<SweepRequest> &grid)
{
    std::uint64_t hash = fnv1a(csprintf("grid:%zu", grid.size()));
    for (const SweepRequest &req : grid) {
        std::uint64_t fp = fingerprintRequest(req);
        hash = fnv1a(&fp, sizeof(fp), hash);
    }
    return hash;
}

SweepJournal::LoadResult
SweepJournal::load(const std::string &path, std::uint64_t fingerprint,
                   std::size_t points)
{
    LoadResult result;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return result; // no journal yet: a fresh start
    result.exists = true;

    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string content = buffer.str();
    if (content.empty())
        return result; // created but never written: fresh start

    // A line counts as durably written only when its trailing newline
    // made it to disk: the tail after the last '\n' — however much of
    // a record it resembles — is a torn write, tolerated and dropped.
    std::size_t lineStart = 0;
    std::size_t lineNo = 0;
    bool sawHeader = false;
    while (lineStart < content.size()) {
        std::size_t newline = content.find('\n', lineStart);
        if (newline == std::string::npos) {
            result.tornTail = true;
            break;
        }
        std::string line =
            content.substr(lineStart, newline - lineStart);
        ++lineNo;

        json::Value v;
        std::string parseErr;
        if (!json::parse(line, v, parseErr)) {
            journalError(path, SimErrorKind::Corruption,
                         csprintf("unparsable journal line %zu: %s",
                                  lineNo, parseErr.c_str()));
        }
        if (!sawHeader) {
            const json::Reader h(v, "", {"journal", path + ": "});
            const std::uint64_t schema = h.u64("schemaVersion");
            if (schema != static_cast<std::uint64_t>(kSchemaVersion)) {
                journalError(
                    path, SimErrorKind::Config,
                    csprintf("journal schemaVersion %llu, expected %d",
                             static_cast<unsigned long long>(schema),
                             kSchemaVersion));
            }
            const std::string kind = h.str("kind");
            if (kind != kKind) {
                journalError(path, SimErrorKind::Config,
                             csprintf("journal kind '%s', expected "
                                      "'%s'",
                                      kind.c_str(), kKind));
            }
            const std::string fp = h.str("fingerprint");
            std::string want = csprintf(
                "%016llx",
                static_cast<unsigned long long>(fingerprint));
            if (fp != want) {
                journalError(
                    path, SimErrorKind::Config,
                    csprintf("journal fingerprint %s does not match "
                             "this sweep's %s — refusing to resume "
                             "against a different grid or config",
                             fp.c_str(), want.c_str()));
            }
            const std::uint64_t count = h.u64("points");
            if (count != points) {
                journalError(
                    path, SimErrorKind::Config,
                    csprintf("journal covers %llu points, sweep has "
                             "%zu",
                             static_cast<unsigned long long>(count),
                             points));
            }
            sawHeader = true;
        } else {
            JournalRecord record = parseRecord(json::Reader(
                v, "",
                {"journal",
                 csprintf("%s: malformed journal record at line %zu: ",
                          path.c_str(), lineNo),
                 SimErrorKind::Corruption}));
            if (record.index >= points) {
                journalError(
                    path, SimErrorKind::Corruption,
                    csprintf("journal record index %zu outside the "
                             "%zu-point grid",
                             record.index, points));
            }
            result.records.push_back(std::move(record));
        }
        lineStart = newline + 1;
        result.validBytes = lineStart;
    }
    return result;
}

SweepJournal::SweepJournal(const std::string &path,
                           std::uint64_t fingerprint,
                           std::size_t points,
                           std::uint64_t resume_from)
    : filePath(path)
{
    if (resume_from > 0) {
        // Drop a torn tail before appending: new records must start at
        // the end of the intact prefix, not merge into partial bytes.
        file = std::fopen(path.c_str(), "r+b");
        if (!file) {
            journalError(path, SimErrorKind::Config,
                         csprintf("cannot reopen journal: %s",
                                  std::strerror(errno)));
        }
#ifndef _WIN32
        if (ftruncate(fileno(file),
                      static_cast<off_t>(resume_from)) != 0) {
            std::fclose(file);
            file = nullptr;
            journalError(path, SimErrorKind::Config,
                         csprintf("cannot truncate journal tail: %s",
                                  std::strerror(errno)));
        }
#endif
        std::fseek(file, 0, SEEK_END);
    } else {
        file = std::fopen(path.c_str(), "wb");
        if (!file) {
            journalError(path, SimErrorKind::Config,
                         csprintf("cannot create journal: %s",
                                  std::strerror(errno)));
        }
        std::string header = headerLine(fingerprint, points);
        if (std::fwrite(header.data(), 1, header.size(), file) !=
                header.size() ||
            std::fflush(file) != 0) {
            std::fclose(file);
            file = nullptr;
            journalError(path, SimErrorKind::Config,
                         "cannot write journal header");
        }
#ifndef _WIN32
        fsync(fileno(file));
#endif
    }
}

SweepJournal::~SweepJournal()
{
    if (file)
        std::fclose(file);
}

void
SweepJournal::append(const JournalRecord &record)
{
    std::string line = recordLine(record);
    if (std::fwrite(line.data(), 1, line.size(), file) != line.size() ||
        std::fflush(file) != 0) {
        journalError(filePath, SimErrorKind::Config,
                     csprintf("journal append failed: %s",
                              std::strerror(errno)));
    }
#ifndef _WIN32
    // The durability point: a completion is only acknowledged to the
    // executor after its record is on stable storage.
    fsync(fileno(file));
#endif
}

} // namespace pva
