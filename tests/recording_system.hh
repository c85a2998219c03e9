/**
 * @file
 * A MemorySystem decorator for tests: it forwards every call to the
 * system it wraps, records the commands that system accepts, and
 * counts offers made against MemorySystem::trySubmit's refusal
 * contract (a refusal holds until a completion has been drained, so
 * an offer in between is wasted). It forwards the clock hooks too, so
 * a Simulation built over the recorder clocks the wrapped system
 * exactly as one built over that system would.
 */

#ifndef PVA_TESTS_RECORDING_SYSTEM_HH
#define PVA_TESTS_RECORDING_SYSTEM_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "core/memory_system.hh"

namespace pva::test
{

class RecordingSystem final : public MemorySystem
{
  public:
    explicit RecordingSystem(MemorySystem &inner_)
        : MemorySystem("recorder"), inner(inner_)
    {
    }

    bool
    trySubmit(const VectorCommand &cmd, std::uint64_t tag,
              const std::vector<Word> *write_data) override
    {
        if (refusedSinceDrain)
            ++offersBeforeDrain;
        if (!inner.trySubmit(cmd, tag, write_data)) {
            refusedSinceDrain = true;
            ++refusals;
            return false;
        }
        accepted.push_back(cmd);
        acceptedTags.push_back(tag);
        return true;
    }

    void
    drainCompletionsInto(std::vector<Completion> &out) override
    {
        inner.drainCompletionsInto(out);
        if (!out.empty())
            refusedSinceDrain = false;
    }

    void
    recycleLine(std::vector<Word> &&line) override
    {
        inner.recycleLine(std::move(line));
    }

    bool busy() const override { return inner.busy(); }
    std::size_t inFlight() const override { return inner.inFlight(); }
    SparseMemory &memory() override { return inner.memory(); }
    StatSet &stats() override { return inner.stats(); }
    void tick(Cycle now) override { inner.tick(now); }
    Cycle
    nextWakeAfter(Cycle now) const override
    {
        return inner.nextWakeAfter(now);
    }
    void onCycleBegin(Cycle now) override { inner.onCycleBegin(now); }
    void setClocking(ClockingMode mode) override { inner.setClocking(mode); }

    std::vector<VectorCommand> accepted;    ///< In acceptance order
    std::vector<std::uint64_t> acceptedTags; ///< Parallel to accepted
    std::uint64_t refusals = 0;
    /** Offers made after a refusal before any completion drained. */
    std::uint64_t offersBeforeDrain = 0;

  private:
    MemorySystem &inner;
    bool refusedSinceDrain = false;
};

} // namespace pva::test

#endif // PVA_TESTS_RECORDING_SYSTEM_HH
