#include "traffic/stream.hh"

#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace pva
{

namespace
{

/** Derivation constant separating the pattern and arrival streams. */
constexpr std::uint64_t kArrivalStreamSalt = 0xa55e55ed5eedULL;

/** Deterministic Bernoulli draw: P(true) == rate (cf. FaultInjector). */
bool
roll(Random &rng, double rate)
{
    std::uint64_t bits = rng.next(); // always consume one draw
    if (rate <= 0.0)
        return false;
    if (rate >= 1.0)
        return true;
    double scaled = rate * 18446744073709551616.0; // 2^64
    std::uint64_t threshold =
        scaled >= 18446744073709549568.0 // largest double < 2^64
            ? ~0ULL
            : static_cast<std::uint64_t>(scaled);
    return bits < threshold;
}

} // anonymous namespace

const Vocabulary<ArrivalMode> &
arrivalModes()
{
    static const Vocabulary<ArrivalMode> table({
        {ArrivalMode::ClosedLoop, "closed"},
        {ArrivalMode::OpenLoop, "open"},
    });
    return table;
}

StreamSource::StreamSource(const StreamConfig &config, unsigned id,
                           unsigned line_words)
    : cfg(config), streamId(id), lineWords(line_words),
      patternRng(config.seed),
      arrivalRng(config.seed ^ kArrivalStreamSalt)
{
    if (cfg.name.empty())
        cfg.name = csprintf("s%u", id);
    auto reject = [&](const std::string &detail) {
        throw SimError(SimErrorKind::Config, "traffic." + cfg.name,
                       kNeverCycle, detail);
    };

    if (cfg.queueCapacity == 0)
        reject("queueCapacity must be nonzero");
    if (cfg.mode != ArrivalMode::OpenLoop && cfg.window == 0)
        reject("window must be nonzero for closed-loop streams");
    if (cfg.mode == ArrivalMode::OpenLoop &&
        !(cfg.requestsPerKilocycle > 0.0)) {
        reject("requestsPerKilocycle must be positive for open-loop "
               "streams");
    }

    const PatternConfig &p = cfg.pattern;
    if (cfg.requests == 0)
        reject("requests must be nonzero");
    if (p.minLength == 0 || p.minLength > p.maxLength)
        reject(csprintf("pattern length bounds [%u, %u] invalid",
                        p.minLength, p.maxLength));
    if (p.maxLength > lineWords)
        reject(csprintf("pattern maxLength %u exceeds the %u-word line",
                        p.maxLength, lineWords));
    if (p.minStride == 0 || p.minStride > p.maxStride)
        reject(csprintf("pattern stride bounds [%u, %u] invalid",
                        p.minStride, p.maxStride));
    if (!(p.readFraction >= 0.0 && p.readFraction <= 1.0))
        reject(csprintf("readFraction %g outside [0, 1]",
                        p.readFraction));
    WordAddr span = static_cast<WordAddr>(p.maxStride) *
                        (p.maxLength - 1) + 1;
    if (p.regionWords < span)
        reject(csprintf("regionWords %llu cannot hold a "
                        "stride-%u x %u-element command",
                        static_cast<unsigned long long>(p.regionWords),
                        p.maxStride, p.maxLength));

    if (cfg.mode == ArrivalMode::OpenLoop) {
        // Schedule the first arrival one gap in, like every later one.
        double mean = 1000.0 / cfg.requestsPerKilocycle;
        double u = 0.5 + static_cast<double>(arrivalRng.next() >> 11) *
                             (1.0 / 9007199254740992.0); // 2^-53
        nextArrival = static_cast<Cycle>(u * mean + 0.5);
        if (nextArrival == 0)
            nextArrival = 1;
    }
}

bool
StreamSource::exhausted() const
{
    return emittedCount >= cfg.requests;
}

bool
StreamSource::arrivalReady(Cycle now) const
{
    switch (cfg.mode) {
      case ArrivalMode::ClosedLoop:
        return emittedCount < cfg.requests && outstanding < cfg.window;
      case ArrivalMode::OpenLoop:
        return emittedCount < cfg.requests && nextArrival <= now;
    }
    return false;
}

TrafficRequest
StreamSource::emit(Cycle now)
{
    const PatternConfig &p = cfg.pattern;
    TrafficRequest req;
    req.stream = streamId;
    req.seqNo = emittedCount;

    // Fixed draw order per request, so the command sequence is a pure
    // function of the pattern seed (independent of arrival timing).
    std::uint32_t stride = static_cast<std::uint32_t>(
        patternRng.range(p.minStride, p.maxStride));
    std::uint32_t length = static_cast<std::uint32_t>(
        patternRng.range(p.minLength, p.maxLength));
    bool is_read = roll(patternRng, p.readFraction);
    WordAddr span = static_cast<WordAddr>(stride) * (length - 1) + 1;
    WordAddr base =
        p.regionBase + patternRng.below(p.regionWords - span + 1);

    req.cmd.base = base;
    req.cmd.stride = stride;
    req.cmd.length = length;
    req.cmd.isRead = is_read;
    req.cmd.mode = p.mode;
    if (p.mode == VectorCommand::Mode::Indirect) {
        req.cmd.base = p.regionBase;
        req.cmd.stride = 1;
        req.cmd.indices.resize(length);
        for (std::uint32_t i = 0; i < length; ++i)
            req.cmd.indices[i] = patternRng.below(p.regionWords);
    }
    if (!is_read) {
        req.writeData.resize(length);
        for (std::uint32_t i = 0; i < length; ++i)
            req.writeData[i] = static_cast<Word>(patternRng.next());
    }

    if (cfg.mode == ArrivalMode::OpenLoop) {
        req.arrival = nextArrival;
        double mean = 1000.0 / cfg.requestsPerKilocycle;
        double u = 0.5 + static_cast<double>(arrivalRng.next() >> 11) *
                             (1.0 / 9007199254740992.0);
        Cycle gap = static_cast<Cycle>(u * mean + 0.5);
        nextArrival += gap == 0 ? 1 : gap;
    } else {
        req.arrival = now;
        ++outstanding;
    }
    ++emittedCount;
    return req;
}

void
StreamSource::onComplete()
{
    if (cfg.mode != ArrivalMode::OpenLoop && outstanding > 0)
        --outstanding;
}

} // namespace pva
