/**
 * @file
 * In-memory span recording for the benchmark's traced run.
 *
 * The benchmark wraps each call it makes into a simulator layer in a
 * span: name, start, end, parent span and an id shared by every span
 * of one grid point or ladder rung. A span is named after the
 * per-layer metric its *self time* (duration minus the time its child
 * spans cover) feeds, e.g. "construct.make_system_ms.pva"; spans named
 * "bench.*" are the benchmark's own glue. Spans stay in memory and are
 * written out once, as a Chrome trace, when the run ends.
 *
 * Some durations are measured by the simulator itself
 * (RunResult::wallMillis, the time inside Simulation::runUntil);
 * addMeasured() records those as children of the innermost open span
 * so the parent's self time excludes them.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** One recorded span; times in nanoseconds from the tracer's epoch. */
struct Span
{
    std::string name;
    std::int64_t id = -1;  ///< Grid point / ladder rung; -1 for none
    int parent = -1;       ///< Index of the parent span; -1 for a root
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    bool measured = false; ///< Duration reported by the simulator

    double millis() const { return (endNs - startNs) / 1e6; }
};

/** Records spans in memory for one traced pass. */
class Tracer
{
  public:
    Tracer() : epoch(Clock::now()) {}

    /** Open a span as a child of the innermost open span. */
    int begin(std::string name, std::int64_t id = -1);

    /** Close span @p index (must be the innermost open span). */
    void end(int index);

    /** Record a child of the innermost open span whose duration the
     *  simulator measured (placed at the parent's start). */
    void addMeasured(std::string name, double millis,
                     std::int64_t id = -1);

    /** Summed self time per span name. */
    std::map<std::string, double> selfMillisByName() const;

    /** Durations of every span called @p name, in recording order. */
    std::vector<double> durations(const std::string &name) const;

    /** Wall time of the root spans, in seconds. */
    double rootSeconds() const;

    /** Chrome trace-event JSON ("traceEvents"), plus a "layers" object
     *  with the summed self times and the given @p summary numbers. */
    void writeChromeTrace(std::ostream &os,
                          const std::map<std::string, double> &summary)
        const;

  private:
    std::int64_t nowNs() const;

    /** Self time of every span, in recording order. */
    std::vector<double> selfMillis() const;

    Clock::time_point epoch;
    std::vector<Span> spanList;
    std::vector<int> openStack;
};

/** RAII span; a null tracer records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *t, std::string name, std::int64_t id = -1)
        : tracer(t), index(t ? t->begin(std::move(name), id) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (tracer)
            tracer->end(index);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer;
    int index;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
