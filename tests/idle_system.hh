/**
 * @file
 * A memory system with no transactions, for tests of the clock alone:
 * it accepts no command, counts its ticks, wakes every @c wakeEvery
 * cycles and remembers the clocking its Simulation handed it.
 */

#ifndef PVA_TESTS_IDLE_SYSTEM_HH
#define PVA_TESTS_IDLE_SYSTEM_HH

#include <vector>

#include "core/memory_system.hh"

namespace pva::test
{

class IdleSystem final : public MemorySystem
{
  public:
    explicit IdleSystem(Cycle wake_every = 1)
        : MemorySystem("idle"), wakeEvery(wake_every)
    {
        registerSimStats(statSet);
    }

    bool
    trySubmit(const VectorCommand &, std::uint64_t,
              const std::vector<Word> *) override
    {
        return false;
    }
    void
    drainCompletionsInto(std::vector<Completion> &out) override
    {
        out.clear();
    }
    bool busy() const override { return false; }
    SparseMemory &memory() override { return mem; }
    StatSet &stats() override { return statSet; }

    void tick(Cycle) override { ++ticks; }
    Cycle nextWakeAfter(Cycle now) const override { return now + wakeEvery; }
    void setClocking(ClockingMode mode) override { clocking = mode; }

    const Cycle wakeEvery;
    unsigned ticks = 0;
    ClockingMode clocking = ClockingMode::Event;

  private:
    SparseMemory mem;
    StatSet statSet;
};

} // namespace pva::test

#endif // PVA_TESTS_IDLE_SYSTEM_HH
