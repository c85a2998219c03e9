#include "sim/trace.hh"

#if PVA_TRACE_ENABLED

#include <algorithm>
#include <numeric>
#include <utility>

#include "sim/json.hh"

namespace pva::trace
{

namespace
{

std::atomic<TraceSession *> currentSession{nullptr};

thread_local std::string threadPrefix; ///< Empty: no ProcessPrefix

} // anonymous namespace

ProcessPrefix::ProcessPrefix(std::string prefix)
    : outer(std::exchange(threadPrefix, std::move(prefix)))
{
}

ProcessPrefix::~ProcessPrefix() { threadPrefix = std::move(outer); }

TraceSession *
session()
{
    return currentSession.load(std::memory_order_acquire);
}

void
setSession(TraceSession *s)
{
    currentSession.store(s, std::memory_order_release);
}

bool
globMatch(const char *pattern, const char *text)
{
    // Iterative glob with single-star backtracking.
    const char *star = nullptr;
    const char *resume = nullptr;
    while (*text) {
        if (*pattern == '*') {
            star = pattern++;
            resume = text;
        } else if (*pattern == '?' || *pattern == *text) {
            ++pattern;
            ++text;
        } else if (star) {
            pattern = star + 1;
            text = ++resume;
        } else {
            return false;
        }
    }
    while (*pattern == '*')
        ++pattern;
    return *pattern == '\0';
}

TraceSession::TraceSession(TraceConfig config) : cfg(std::move(config))
{
    // Pre-reserve the whole buffer so record() never allocates.
    if (cfg.bufferCapacity == 0)
        cfg.bufferCapacity = 1;
    buffer.resize(cfg.bufferCapacity);
    profPeriod = cfg.profilePeriod;
}

void
TraceSession::profileSample(std::uint32_t track, const char *name)
{
    std::lock_guard<std::mutex> lock(profileMutex);
    ++profileCounts[{track, name}];
}

std::uint64_t
TraceSession::profileSamples() const
{
    if (profPeriod == 0)
        return 0;
    std::uint64_t clock = profClock.load(std::memory_order_relaxed);
    return (clock + profPeriod - 1) / profPeriod;
}

std::vector<ProfileEntry>
TraceSession::profileReport() const
{
    std::vector<ProfileEntry> report;
    {
        std::lock_guard<std::mutex> prof_lock(profileMutex);
        std::lock_guard<std::mutex> reg_lock(registryMutex);
        report.reserve(profileCounts.size());
        for (const auto &[key, samples] : profileCounts) {
            ProfileEntry e;
            std::uint32_t track = key.first;
            if (track >= 1 && track <= tracks.size()) {
                e.process = tracks[track - 1].process;
                e.track = tracks[track - 1].track;
            }
            e.name = key.second;
            e.samples = samples;
            e.estimatedEvents = samples * profPeriod;
            report.push_back(std::move(e));
        }
    }
    std::stable_sort(report.begin(), report.end(),
                     [](const ProfileEntry &a, const ProfileEntry &b) {
                         return a.samples > b.samples;
                     });
    return report;
}

std::uint32_t
TraceSession::registerTrack(const std::string &bare_process,
                            const std::string &track)
{
    const std::string process = threadPrefix.empty()
                                    ? bare_process
                                    : threadPrefix + "/" + bare_process;
    std::lock_guard<std::mutex> lock(registryMutex);
    // A name seen before keeps its id (0 when the filter excluded it).
    const auto [known, fresh] = trackIds.try_emplace({process, track}, 0);
    if (!fresh)
        return known->second;
    if (!cfg.filter.empty()) {
        // Comma-separated globs, matched against "track" and
        // "process/track"; no match disables the track (id 0).
        std::string qualified = process + "/" + track;
        bool matched = false;
        std::size_t begin = 0;
        while (begin <= cfg.filter.size() && !matched) {
            std::size_t end = cfg.filter.find(',', begin);
            if (end == std::string::npos)
                end = cfg.filter.size();
            std::string pat = cfg.filter.substr(begin, end - begin);
            if (!pat.empty() &&
                (globMatch(pat.c_str(), track.c_str()) ||
                 globMatch(pat.c_str(), qualified.c_str())))
                matched = true;
            begin = end + 1;
        }
        if (!matched)
            return 0;
    }
    const auto [pid, newProcess] = processIds.try_emplace(
        process, static_cast<std::uint32_t>(processes.size() + 1));
    if (newProcess)
        processes.push_back(process);
    tracks.push_back(TrackMeta{process, track, pid->second, threadPrefix});
    known->second = static_cast<std::uint32_t>(tracks.size());
    return known->second;
}

std::uint64_t
TraceSession::recorded() const
{
    std::uint64_t h = head.load(std::memory_order_relaxed);
    return std::min<std::uint64_t>(h, buffer.size());
}

std::uint64_t
TraceSession::dropped() const
{
    std::uint64_t h = head.load(std::memory_order_relaxed);
    return h > buffer.size() ? h - buffer.size() : 0;
}

std::size_t
TraceSession::trackCount() const
{
    std::lock_guard<std::mutex> lock(registryMutex);
    return tracks.size();
}

std::vector<Event>
TraceSession::snapshot() const
{
    return std::vector<Event>(buffer.begin(),
                              buffer.begin() + recorded());
}

void
TraceSession::exportChromeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(registryMutex);
    const std::size_t n = static_cast<std::size_t>(recorded());

    // Number tracks by prefix, then registration; processes likewise.
    std::vector<std::uint32_t> byPrefix(tracks.size());
    std::iota(byPrefix.begin(), byPrefix.end(), 0u);
    std::stable_sort(byPrefix.begin(), byPrefix.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                         return tracks[a].prefix < tracks[b].prefix;
                     });
    std::vector<std::uint32_t> tid(tracks.size()), pid(processes.size());
    std::vector<std::uint32_t> pidOrder; ///< Old pid - 1, by new pid
    for (std::uint32_t i = 0; i < byPrefix.size(); ++i) {
        tid[byPrefix[i]] = i + 1;
        const std::uint32_t old = tracks[byPrefix[i]].pid - 1;
        if (pid[old] == 0) {
            pidOrder.push_back(old);
            pid[old] = static_cast<std::uint32_t>(pidOrder.size());
        }
    }

    // Stable sort by timestamp, then prefix: Perfetto wants
    // non-decreasing ts, and record order breaks the remaining ties so
    // B precedes E within one cycle.
    static const std::string none;
    auto prefixOf = [this](const Event &e) -> const std::string & {
        return e.track - 1u < tracks.size() ? tracks[e.track - 1].prefix
                                            : none;
    };
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         const Event &x = buffer[a], &y = buffer[b];
                         return x.ts != y.ts ? x.ts < y.ts
                                             : prefixOf(x) < prefixOf(y);
                     });

    // One event per line from column 0: a Block layout indented by 0.
    constexpr auto block = json::Writer::Layout::Block;
    json::Writer w(os, 0);
    w.beginObject(block).key("traceEvents").beginArray(block);

    // Metadata: names for every process and enabled track.
    for (std::size_t p = 0; p < pidOrder.size(); ++p) {
        w.beginObject().field("name", "process_name").field("ph", "M");
        w.field("pid", p + 1).field("tid", 0).key("args").beginObject();
        w.field("name", processes[pidOrder[p]]).end().end();
    }
    for (std::uint32_t t : byPrefix) {
        w.beginObject().field("name", "thread_name").field("ph", "M");
        w.field("pid", pid[tracks[t].pid - 1]).field("tid", tid[t]);
        w.key("args").beginObject().field("name", tracks[t].track);
        w.end().end();
    }

    for (std::uint32_t idx : order) {
        const Event &e = buffer[idx];
        if (e.track == 0 || e.track > tracks.size())
            continue; // defensive: never emit an unmapped tid
        const char phase = static_cast<char>(e.phase);
        w.beginObject().field("name", e.name ? e.name : "?");
        w.field("ph", std::string_view(&phase, 1)).field("ts", e.ts);
        w.field("pid", pid[tracks[e.track - 1].pid - 1]);
        w.field("tid", tid[e.track - 1]);
        if (e.phase == Phase::Instant)
            w.field("s", "t");
        if (e.key1 || e.key2) {
            w.key("args").beginObject();
            if (e.key1)
                w.field(e.key1, e.val1);
            if (e.key2)
                w.field(e.key2, e.val2);
            w.end();
        }
        w.end();
    }
    w.end().field("displayTimeUnit", "ms").key("pvaTrace").beginObject();
    w.field("schemaVersion", 1).field("recorded", recorded());
    w.field("dropped", dropped()).field("tracks", tracks.size());
    w.end().end().newline();
}

} // namespace pva::trace

#endif // PVA_TRACE_ENABLED
