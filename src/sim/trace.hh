/**
 * @file
 * Cycle-level event tracing behind a compile-time gate.
 *
 * Build with -DPVA_TRACE=ON (CMake option) to compile the
 * instrumentation in; the default build defines none of the trace
 * machinery and every PVA_TRACE_* macro expands to nothing, so the
 * instrumented hot paths carry zero cost — no branch, no load, no
 * symbol (the CI symbol guard greps the default binaries for
 * pva::trace:: and fails if anything leaks through).
 *
 * With tracing compiled in, a tool opens a TraceSession, installs it
 * as the process-wide current session, runs the simulation, and
 * exports the buffer as Chrome trace JSON ("Trace Event Format") that
 * loads directly in Perfetto or chrome://tracing. The mapping:
 *
 *  - one trace "process" (pid) per MemorySystem (and one each for the
 *    simulation clock and the traffic arbiter), under a ProcessPrefix,
 *  - one "track" (tid) per part: frontend, bus, per-transaction
 *    slots, bank controllers, devices,
 *  - duration events (B/E) for spans (a transaction's lifetime, a CAS
 *    data burst, a refresh), instant events (i) for point actions
 *    (activate, precharge, wake decisions), and counter events (C)
 *    for occupancies (FIFO depth, VCs in use).
 *
 * Timestamps are simulated cycles written as integer microseconds
 * (1 us == 1 cycle); Perfetto's timeline therefore reads directly in
 * cycles. See docs/OBSERVABILITY.md for the full schema and a
 * walkthrough.
 *
 * Hot-path contract (the "allocation-free" bound): record() is
 * lock-free — one relaxed fetch_add and a POD store into a buffer
 * pre-reserved at session construction. Event and argument names must
 * be string literals (interned const char*); no std::string is ever
 * constructed per event. When the buffer fills, later events are
 * counted as dropped but the run is otherwise unaffected
 * (keep-earliest semantics, reported in the export and the tool
 * summary).
 */

#ifndef PVA_SIM_TRACE_HH
#define PVA_SIM_TRACE_HH

#include <cstdint>

#include "sim/types.hh"

#if PVA_TRACE_ENABLED

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pva::trace
{

/** Tracing compiled in? Mirrors the PVA_TRACE CMake option. */
constexpr bool enabled() { return true; }

/** Chrome trace event phases we emit. */
enum class Phase : char
{
    Begin = 'B',   ///< Duration begin
    End = 'E',     ///< Duration end
    Instant = 'i', ///< Point event (thread scope)
    Counter = 'C', ///< Counter sample
};

/**
 * One recorded event. POD: names are interned string literals, never
 * owned. 'track' indexes the session's track registry (1-based; 0 is
 * the "disabled" sentinel and never recorded).
 */
struct Event
{
    Cycle ts = 0;
    std::uint32_t track = 0;
    Phase phase = Phase::Instant;
    const char *name = nullptr;
    const char *key1 = nullptr;
    std::uint64_t val1 = 0;
    const char *key2 = nullptr;
    std::uint64_t val2 = 0;
};

/** Session knobs, set once before the run. */
struct TraceConfig
{
    /** Buffer capacity in events; events past it are dropped. */
    std::size_t bufferCapacity = 1u << 19;
    /**
     * Track-name glob(s), comma separated, matched against both the
     * bare track name ("bc3") and "process/track" ("pva/bc3"). Tracks
     * that match nothing are disabled at registration, so their
     * events cost only the session-pointer check. Empty = trace
     * everything.
     */
    std::string filter;
    /**
     * Sampling-profiler period: every Nth record() call is tallied
     * into a per-(track, event) histogram (see profileReport()), so
     * the hot-path cost of profiling is one relaxed counter increment
     * per event plus rare sampled updates. 0 disables profiling.
     * Sampling keeps running after the event buffer fills, so the
     * profile covers the whole run even when the trace does not.
     */
    std::uint32_t profilePeriod = 0;
};

/** One row of the sampling profile (see TraceSession::profileReport). */
struct ProfileEntry
{
    std::string process;
    std::string track;
    const char *name = nullptr;
    std::uint64_t samples = 0;
    /** samples * period: the statistically expected event count. */
    std::uint64_t estimatedEvents = 0;
};

/**
 * A bounded in-memory event sink plus the track registry and the
 * Chrome-trace exporter. Thread-safe for record() (parallel sweep
 * workers share one session); registerTrack() takes a mutex and is
 * meant for construction time only.
 */
class TraceSession
{
  public:
    explicit TraceSession(TraceConfig config = {});

    /**
     * Register (or look up) the track @p track under process
     * @p process (with this thread's ProcessPrefix). Returns the
     * 1-based track id to pass to record(), or 0 if the session filter
     * excludes this track.
     */
    std::uint32_t registerTrack(const std::string &process,
                                const std::string &track);

    /**
     * Record one event. Lock-free; drops (and counts) the event when
     * the buffer is full. @p name, @p key1 and @p key2 must be string
     * literals. A zero @p track is ignored (disabled/filtered).
     */
    void
    record(std::uint32_t track, Phase phase, Cycle ts, const char *name,
           const char *key1 = nullptr, std::uint64_t val1 = 0,
           const char *key2 = nullptr, std::uint64_t val2 = 0)
    {
        if (track == 0)
            return;
        if (profPeriod != 0 &&
            profClock.fetch_add(1, std::memory_order_relaxed) %
                    profPeriod ==
                0)
            profileSample(track, name);
        std::size_t slot =
            head.fetch_add(1, std::memory_order_relaxed);
        if (slot >= buffer.size())
            return; // counted as dropped via head overshoot
        Event &e = buffer[slot];
        e.ts = ts;
        e.track = track;
        e.phase = phase;
        e.name = name;
        e.key1 = key1;
        e.val1 = val1;
        e.key2 = key2;
        e.val2 = val2;
    }

    /** Events retained in the buffer. */
    std::uint64_t recorded() const;
    /** Events dropped because the buffer was full. */
    std::uint64_t dropped() const;
    /** Registered (including filtered-out) track count. */
    std::size_t trackCount() const;

    /** Copy of the retained events, in record order (for tests). */
    std::vector<Event> snapshot() const;

    /** @name Sampling profiler (TraceConfig::profilePeriod)
     * @{ */
    /** Sampling period in effect (0 = profiling off). */
    std::uint32_t profilePeriod() const { return profPeriod; }
    /** Samples taken so far. */
    std::uint64_t profileSamples() const;
    /** Per-(track, event) sample tallies, most-sampled first. */
    std::vector<ProfileEntry> profileReport() const;
    /** @} */

    /**
     * Write the whole session as Chrome trace JSON: a traceEvents
     * array plus process_name/thread_name metadata and a top-level
     * "pvaTrace" object carrying recorded/dropped accounting. Events
     * sort by timestamp, ProcessPrefix, then record order; tracks and
     * processes are numbered by prefix, then registration order. One
     * thread registers and records a prefix's tracks, so the bytes do
     * not depend on how threads interleave.
     */
    void exportChromeJson(std::ostream &os) const;

  private:
    struct TrackMeta
    {
        std::string process;
        std::string track;
        std::uint32_t pid = 0; ///< 1-based process index
        std::string prefix;    ///< ProcessPrefix at registration
    };

    /** Tally one sampled event (rare: every profPeriod-th record). */
    void profileSample(std::uint32_t track, const char *name);

    TraceConfig cfg;
    std::vector<Event> buffer;
    std::atomic<std::uint64_t> head{0};

    std::uint32_t profPeriod = 0;
    std::atomic<std::uint64_t> profClock{0};
    mutable std::mutex profileMutex;
    /** (track id, interned event name) -> sample count. */
    std::map<std::pair<std::uint32_t, const char *>, std::uint64_t>
        profileCounts;

    mutable std::mutex registryMutex;
    std::vector<TrackMeta> tracks;      ///< index = id - 1
    std::vector<std::string> processes; ///< index = pid - 1
    /** (process, track) -> id, 0 once the filter excluded it; a sweep
     *  registers tens of thousands of tracks, so look names up. */
    std::map<std::pair<std::string, std::string>, std::uint32_t> trackIds;
    std::map<std::string, std::uint32_t> processIds; ///< name -> pid
};

/** While alive, names each process this thread registers
 *  "<prefix>/<process>" (a fleet shard's "shard2/pva"). */
class ProcessPrefix
{
  public:
    explicit ProcessPrefix(std::string prefix);
    ~ProcessPrefix();
    ProcessPrefix(const ProcessPrefix &) = delete;
    ProcessPrefix &operator=(const ProcessPrefix &) = delete;

  private:
    std::string outer; ///< The prefix in force before this one
};

/** Current process-wide session; null when tracing is inactive. */
TraceSession *session();

/** Install (or clear, with nullptr) the current session. */
void setSession(TraceSession *s);

/**
 * Match @p text against a glob @p pattern ('*' any run, '?' any one
 * char). Exposed for tests.
 */
bool globMatch(const char *pattern, const char *text);

} // namespace pva::trace

/**
 * @name Instrumentation macros
 * All take effect only when a session is installed; each call is one
 * predictable pointer load + branch otherwise. Name/key arguments must
 * be string literals.
 * @{
 */

/** Run @p ... only in traced builds (registration, cached counters). */
#define PVA_TRACE_BLOCK(...)                                          \
    do {                                                              \
        __VA_ARGS__                                                   \
    } while (0)

#define PVA_TRACE_EMIT(track, phase, ts, ...)                         \
    do {                                                              \
        if (::pva::trace::TraceSession *pvaTraceS_ =                  \
                ::pva::trace::session())                              \
            pvaTraceS_->record((track), (phase), (ts), __VA_ARGS__);  \
    } while (0)

/** Duration begin. Optional trailing key/value pairs. */
#define PVA_TRACE_BEGIN(track, ts, ...)                               \
    PVA_TRACE_EMIT(track, ::pva::trace::Phase::Begin, ts, __VA_ARGS__)
/** Duration end; name must match the open PVA_TRACE_BEGIN. */
#define PVA_TRACE_END(track, ts, ...)                                 \
    PVA_TRACE_EMIT(track, ::pva::trace::Phase::End, ts, __VA_ARGS__)
/** Instant (point) event. Optional trailing key/value pairs. */
#define PVA_TRACE_INSTANT(track, ts, ...)                             \
    PVA_TRACE_EMIT(track, ::pva::trace::Phase::Instant, ts, __VA_ARGS__)
/** Counter sample: series @p name takes @p value at @p ts. */
#define PVA_TRACE_COUNTER(track, ts, name, value)                     \
    PVA_TRACE_EMIT(track, ::pva::trace::Phase::Counter, ts, name,     \
                   "value", (value))
/** @} */

#else // !PVA_TRACE_ENABLED

namespace pva::trace
{

/** Tracing compiled out; every macro below expands to nothing. */
constexpr bool enabled() { return false; }

} // namespace pva::trace

#define PVA_TRACE_BLOCK(...)                                          \
    do {                                                              \
    } while (0)
#define PVA_TRACE_EMIT(...)                                           \
    do {                                                              \
    } while (0)
#define PVA_TRACE_BEGIN(...)                                          \
    do {                                                              \
    } while (0)
#define PVA_TRACE_END(...)                                            \
    do {                                                              \
    } while (0)
#define PVA_TRACE_INSTANT(...)                                        \
    do {                                                              \
    } while (0)
#define PVA_TRACE_COUNTER(...)                                        \
    do {                                                              \
    } while (0)

#endif // PVA_TRACE_ENABLED

#endif // PVA_SIM_TRACE_HH
