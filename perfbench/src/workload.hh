/**
 * @file
 * The interface every benchmark workload implements, and the results
 * one pass over a workload produces.
 *
 * A workload generates its inputs from the seed in setup(), which never
 * calls into the simulator: set-up time runs from process start to the
 * end of setup(). It then runs passes. run() is the untraced pass the end-to-end metrics
 * come from; it calls the simulator's public entry points the way the
 * tools do. runTraced() does the same work with each layer call
 * wrapped in a span. probe() times single layer functions in
 * isolation on inputs drawn from the workload.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tracer.hh"

namespace perfbench
{

/** Workload size: Full is the benchmark; Tiny is for its own tests. */
enum class Scale
{
    Full,
    Tiny,
};

/** Everything one pass reports. */
struct PassResult
{
    /** @name Operations (grid points, requests) and their failures @{ */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors; ///< First few failure messages
    /** @} */

    /** @name Simulated end-to-end results (deterministic) @{ */
    std::uint64_t simCycles = 0;
    std::uint64_t words = 0;    ///< Elements moved
    std::uint64_t requests = 0; ///< Vector commands / requests done
    std::uint64_t latencyP50 = 0;
    std::uint64_t latencyP99 = 0;
    std::uint64_t latencySamples = 0;
    double capacity = 0.0; ///< Requests per kilocycle
    /** @} */

    /**
     * Every deterministic value the pass can see, by name. Must repeat
     * exactly across passes, traced or not; a traced pass may see more
     * names than an untraced one, and only common names are compared.
     */
    std::map<std::string, std::uint64_t> signature;

    /** Per-layer values (counts, ratios, host times) by metric name. */
    std::map<std::string, double> layer;

    /**
     * Host seconds of the pass's leading segments (grid points, kernel
     * runs, ladder rungs), in the same order every pass; whatever
     * follows the last lap is one more segment. Empty: the pass is a
     * single segment.
     */
    std::vector<double> segments;

    /** Record a failed operation with its reason. */
    void
    fail(std::uint64_t ops, const std::string &why)
    {
        failed += ops;
        if (errors.size() < 8)
            errors.push_back(why);
    }

    /** Copy the simulated end-to-end results into the signature. */
    void signEndToEnd();
};

/** Cuts a pass into segments: each lap() ends one. */
class Laps
{
  public:
    explicit Laps(std::vector<double> &out) : out(out), last(Clock::now())
    {
    }

    void
    lap()
    {
        const Clock::time_point now = Clock::now();
        out.push_back(std::chrono::duration<double>(now - last).count());
        last = now;
    }

  private:
    std::vector<double> &out;
    Clock::time_point last;
};

/** One named benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Generate the pass inputs from @p seed. Never calls the
     *  simulator; it ends where the first simulator call begins, which
     *  is where set-up timing stops. */
    virtual void setup(std::uint64_t seed, Scale scale) = 0;

    /** One untraced pass. Its layer values are only those that cost
     *  nothing to collect (counts in results, progress callbacks). */
    virtual PassResult run() = 0;

    /** The same work as run(), each layer call wrapped in a span. */
    virtual PassResult runTraced(Tracer &tracer) = 0;

    /** Isolated layer probes (trace mode), adding metrics to @p out. */
    virtual void probe(std::uint64_t seed,
                       std::map<std::string, double> &out) = 0;
};

/** @name The four workloads (see README.md for why each exists) @{ */
std::unique_ptr<Workload> makeSweepWorkload(const std::string &root);
std::unique_ptr<Workload> makeSaturatedWorkload();
std::unique_ptr<Workload> makeTrafficWorkload();
std::unique_ptr<Workload> makeFleetWorkload();
/** @} */

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
