/**
 * @file
 * Multi-stream load generation: the request sources of the traffic
 * subsystem (docs/TRAFFIC.md).
 *
 * A StreamSource produces a deterministic sequence of vector commands
 * under one of two arrival disciplines:
 *
 *  - ClosedLoop: a fixed window of outstanding requests; a new request
 *    arrives the moment a slot frees (classic think-time-zero closed
 *    loop, the discipline of the kernel harness).
 *  - OpenLoop: requests arrive on a precomputed schedule drawn from
 *    the seeded splitmix64 streams (sim/random.hh), independent of
 *    completion — the discipline that exposes queueing and tail
 *    latency at a given offered load.
 *
 * Trace files (kernels/trace_file.hh) are replayed by replayTrace, not
 * by a stream: a trace is one program with barriers and pokes, not a
 * request distribution.
 *
 * Two RNG streams are derived from the stream seed: one for the
 * command pattern (<B,S,L> draws, read/write mix, write data), one for
 * inter-arrival times. The command sequence is therefore identical
 * across offered loads, which makes throughput-latency sweeps
 * apples-to-apples (and monotone: scaling the rate scales every
 * inter-arrival gap by the same per-draw factor).
 */

#ifndef PVA_TRAFFIC_STREAM_HH
#define PVA_TRAFFIC_STREAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/vector_command.hh"
#include "sim/random.hh"
#include "sim/types.hh"
#include "sim/vocabulary.hh"

namespace pva
{

/** When do a stream's requests arrive? */
enum class ArrivalMode
{
    ClosedLoop, ///< Fixed outstanding-request window
    OpenLoop,   ///< Seeded deterministic arrival schedule
};

/** The name table: "closed", "open". */
const Vocabulary<ArrivalMode> &arrivalModes();

/** The <B,S,L> distribution one stream draws its commands from. */
struct PatternConfig
{
    WordAddr regionBase = 0;        ///< Start of the stream's region
    WordAddr regionWords = 1 << 20; ///< Region size (commands fit inside)
    std::uint32_t minStride = 1;    ///< V.S lower bound (words)
    std::uint32_t maxStride = 8;    ///< V.S upper bound (inclusive)
    std::uint32_t minLength = 32;   ///< V.L lower bound (elements)
    std::uint32_t maxLength = 32;   ///< V.L upper bound (inclusive)
    double readFraction = 1.0;      ///< P(command is a gather)
    /** Stride (default) or Indirect (uniform indices in the region). */
    VectorCommand::Mode mode = VectorCommand::Mode::Stride;
};

/** Full configuration of one traffic stream. */
struct StreamConfig
{
    std::string name;            ///< Defaults to "s<id>" when empty
    ArrivalMode mode = ArrivalMode::ClosedLoop;
    unsigned window = 4;         ///< Closed-loop outstanding limit
    double requestsPerKilocycle = 10.0; ///< Open-loop offered rate
    std::uint64_t requests = 256; ///< Requests to generate
    unsigned priority = 0;       ///< Larger = more urgent (Priority policy)
    unsigned queueCapacity = 16; ///< Arbiter per-stream queue bound
    /** Queueing-delay budget before a queued request is shed (cycles;
     *  0 inherits ShedConfig::defaultDeadline). Only consulted when
     *  shedding is enabled — see ArbiterConfig::shed. */
    Cycle deadline = 0;
    std::uint64_t seed = 1;      ///< Pattern + arrival RNG seed
    PatternConfig pattern;
};

/** One generated request travelling through the arbiter. */
struct TrafficRequest
{
    unsigned stream = 0;       ///< Originating stream id
    std::uint64_t seqNo = 0;   ///< Per-stream sequence number
    Cycle arrival = 0;         ///< Scheduled arrival time
    VectorCommand cmd;
    std::vector<Word> writeData; ///< Dense line for scatters
};

/** One stream's deterministic request generator. */
class StreamSource
{
  public:
    /**
     * @param line_words the target system's cache-line element count
     *        (command lengths are validated against it).
     * Throws SimError(Config) on unsupportable configuration.
     */
    StreamSource(const StreamConfig &config, unsigned id,
                 unsigned line_words);

    const StreamConfig &config() const { return cfg; }
    unsigned id() const { return streamId; }
    const std::string &name() const { return cfg.name; }

    /** No further requests will ever arrive. */
    bool exhausted() const;

    /** Is a request available to admit at @p now? */
    bool arrivalReady(Cycle now) const;

    /** Pop the next request (call only when arrivalReady()). */
    TrafficRequest emit(Cycle now);

    /** A request of this stream completed (releases a window slot). */
    void onComplete();

    /** Requests generated so far. */
    std::uint64_t emitted() const { return emittedCount; }

    /** Open-loop schedule head: when the next arrival is due (may be
     *  in the past while backpressured). Meaningful only in OpenLoop
     *  mode; closed-loop arrivals are completion-driven. */
    Cycle nextArrivalCycle() const { return nextArrival; }

  private:
    StreamConfig cfg;
    unsigned streamId;
    unsigned lineWords;

    Random patternRng; ///< <B,S,L>, read/write mix, write data
    Random arrivalRng; ///< Open-loop inter-arrival gaps

    std::uint64_t emittedCount = 0;
    std::uint64_t outstanding = 0; ///< Closed-loop window
    Cycle nextArrival = 0;         ///< Open-loop schedule head
};

} // namespace pva

#endif // PVA_TRAFFIC_STREAM_HH
