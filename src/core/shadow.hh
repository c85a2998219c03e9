/**
 * @file
 * Impulse-style shadow address spaces (section 3.2).
 *
 * "A region of memory may be remapped through a shadow address space...
 * One possible shadow space is a strided view of some other unit stride
 * region of memory. When the processor accesses data in the shadow
 * space, the memory controller does scatter/gather accesses from the
 * real memory region that backs the shadow address region and compacts
 * the strided data into dense cache lines."
 *
 * ShadowMemorySystem wraps any MemorySystem and rewrites commands that
 * fall in a configured shadow region: shadow word (base + k) maps to
 * real word (realBase + k * stride). A unit-stride cache-line fill in
 * shadow space therefore becomes a strided gather in real space — the
 * Impulse + PVA combination the paper was designed for.
 */

#ifndef PVA_CORE_SHADOW_HH
#define PVA_CORE_SHADOW_HH

#include <vector>

#include "core/memory_system.hh"

namespace pva
{

/** One shadow mapping: a dense view of a strided real region. */
struct ShadowRegion
{
    WordAddr shadowBase = 0;  ///< Start of the dense shadow region
    std::uint32_t length = 0; ///< Shadow words (elements)
    WordAddr realBase = 0;    ///< Element 0's real address
    std::uint32_t stride = 1; ///< Real-space stride
};

/** A MemorySystem decorator that applies shadow remappings. */
class ShadowMemorySystem : public MemorySystem
{
  public:
    ShadowMemorySystem(std::string name, MemorySystem &inner);

    /** Configure a shadow region (controller setup by the OS/compiler,
     *  as the paper describes). Regions must not overlap. */
    void mapShadow(const ShadowRegion &region);

    bool trySubmit(const VectorCommand &cmd, std::uint64_t tag,
                   const std::vector<Word> *write_data) override;
    void drainCompletionsInto(std::vector<Completion> &out) override;
    void
    recycleLine(std::vector<Word> &&line) override
    {
        inner.recycleLine(std::move(line));
    }
    bool busy() const override;
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

    /** Remapped commands seen so far (for tests/insight). */
    std::uint64_t remappedCommands() const { return remapped; }

  private:
    MemorySystem &inner;
    std::vector<ShadowRegion> regions;
    std::uint64_t remapped = 0;
};

} // namespace pva

#endif // PVA_CORE_SHADOW_HH
