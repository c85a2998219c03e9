/**
 * @file
 * The two serial SDRAM baselines of section 6.1.
 *
 * Both are 16-module SDRAM systems that process one vector command at
 * a time, in submission order, with at most bc.transactions (the
 * paper's 8 outstanding bus transactions) queued on the bus. They
 * differ only in what one command costs:
 *
 * - Cache-line interleaved serial SDRAM: an idealized system optimized
 *   for cache-line fills that performs no gathering. A strided command
 *   touches however many cache lines its elements fall in, and each is
 *   transferred in full, serially, at kLineFillCycles per line.
 * - Gathering pipelined serial SDRAM: a word-interleaved closed-page
 *   system that gathers vectors element by element. Addresses issue
 *   serially, one per cycle, but RAS latencies overlap with activity on
 *   other banks for all but the first element, and commands never
 *   cross DRAM pages, so precharge is paid once per command:
 *   tRP + tRCD + tCL + L cycles, plus L/2 compacted data cycles
 *   (2 words/cycle) that cannot overlap the next command's addresses
 *   on the multiplexed bus.
 */

#ifndef PVA_BASELINES_SERIAL_SYSTEM_HH
#define PVA_BASELINES_SERIAL_SYSTEM_HH

#include "core/memory_system.hh"
#include "core/system_config.hh"
#include "sim/pool.hh"
#include "sim/stats.hh"

namespace pva
{

/** Serial cache-line-fill or element-gathering memory system. */
class SerialSystem final : public MemorySystem
{
  public:
    /** Which baseline: picks the command cost and the stat counting
     *  it ("lineFills" or "elements", next to "commands"). */
    enum class Kind
    {
        CacheLine,
        Gathering,
    };

    /**
     * Cycles one cache-line fill costs: the memory bus is 64 bits and
     * L2 lines are 128 bytes, so RAS (2) + CAS (2) + a 16-cycle burst,
     * with precharge optimistically overlapped.
     */
    static constexpr unsigned kLineFillCycles = 2 + 2 + 16;

    /** Reads bc.transactions, plus bc.lineWords and optimisticLineReuse
     *  (CacheLine) or the tRP/tRCD/tCL timing (Gathering). */
    SerialSystem(std::string name, Kind kind,
                 const SystemConfig &config = {});

    bool trySubmit(const VectorCommand &cmd, std::uint64_t tag,
                   const std::vector<Word> *write_data) override;
    void drainCompletionsInto(std::vector<Completion> &out) override;
    bool busy() const override { return !queue.empty(); }
    std::size_t inFlight() const override { return queue.size(); }
    SparseMemory &memory() override { return backing; }
    StatSet &stats() override { return statSet; }

    void tick(Cycle now) override;

    /** Wake contract: the head job's finishAt, or quiescent. */
    Cycle nextWakeAfter(Cycle now) const override;

    /** Distinct cache lines touched by @p cmd. */
    static unsigned distinctLines(const VectorCommand &cmd,
                                  unsigned line_words);

    /**
     * Line fills @p cmd costs the cache-line baseline. The paper's
     * accounting fetches a line per floor(lineWords/stride) elements
     * of a strided command, so lines that happen to hold a second
     * element at non-power-of-two strides are refetched;
     * optimisticLineReuse (and any non-strided command) fetches each
     * distinct line once.
     */
    unsigned lineFills(const VectorCommand &cmd) const;

    /** Cycles @p cmd occupies the serial pipeline under this kind. */
    Cycle
    commandCycles(const VectorCommand &cmd) const
    {
        return cyclesFor(units(cmd));
    }

  private:
    struct Job
    {
        VectorCommand cmd;
        std::uint64_t tag;
        std::vector<Word> writeData;
        Cycle finishAt = 0;
        bool started = false;
    };

    /** What the second counter counts for @p cmd: its line fills
     *  (CacheLine) or its elements (Gathering). */
    unsigned
    units(const VectorCommand &cmd) const
    {
        return kind == Kind::CacheLine ? lineFills(cmd) : cmd.length;
    }

    /** Cycles a command of @p n units costs. */
    Cycle
    cyclesFor(unsigned n) const
    {
        if (kind == Kind::CacheLine)
            return static_cast<Cycle>(n) * kLineFillCycles;
        return cfg.timing.tRP + cfg.timing.tRCD + cfg.timing.tCL + n +
               n / 2;
    }

    void finish(Job &job);

    const Kind kind;
    SystemConfig cfg;
    SparseMemory backing;
    /** Submission order; a reused slot keeps its buffers' capacity, so
     *  a warmed system allocates nothing per command. */
    RingDeque<Job> queue;
    std::vector<Completion> completions;
    StatSet statSet;
    Scalar statCommands;
    Scalar statUnits; ///< lineFills or elements (see units())
    bool tickActivity = false; ///< Did the last tick change state?
};

} // namespace pva

#endif // PVA_BASELINES_SERIAL_SYSTEM_HH
