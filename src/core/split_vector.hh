/**
 * @file
 * SplitVector and the memory-controller TLB model (section 4.3.2).
 *
 * Long application vectors can only be fetched in parallel while they
 * are physically contiguous, i.e. within one superpage. SplitVector
 * divides a virtual vector operation into per-superpage physical vector
 * operations using the paper's division-free lower-bound trick: instead
 * of dividing the words remaining on the page by the stride, it shifts
 * by ceil(log2(stride)), issuing a safe underestimate and looping.
 */

#ifndef PVA_CORE_SPLIT_VECTOR_HH
#define PVA_CORE_SPLIT_VECTOR_HH

#include <cstdint>
#include <vector>

#include "core/vector_command.hh"
#include "sim/types.hh"

namespace pva
{

/**
 * The memory controller's view of the page table: virtual superpages
 * mapped onto physical superpages. Sizes are powers of two (in words)
 * and both bases are size-aligned, as the paper assumes.
 */
class MmcTlb
{
  public:
    struct Translation
    {
        WordAddr phys;          ///< Physical word address
        std::uint32_t pageSize; ///< Superpage size in words (power of 2)
    };

    /** Map [vbase, vbase+size) to [pbase, pbase+size). */
    void mapSuperpage(WordAddr vbase, WordAddr pbase, std::uint32_t size);

    /** Translate @p vaddr; SimError(Config) if unmapped (setup error). */
    Translation lookup(WordAddr vaddr) const;

    /** Convenience: identity-map [base, base+span) with @p page_size
     *  pages. */
    void identityMap(WordAddr base, std::uint64_t span,
                     std::uint32_t page_size);

  private:
    struct Entry
    {
        WordAddr vbase;
        WordAddr pbase;
        std::uint32_t size;
    };

    std::vector<Entry> entries;
};

/**
 * Split virtual vector @p v into physical per-superpage vector commands
 * (the paper's SplitVector algorithm). The result preserves element
 * order: concatenating the sub-commands' elements yields the physical
 * translations of v's elements.
 */
std::vector<VectorCommand> splitVector(const VectorCommand &v,
                                       const MmcTlb &tlb);

} // namespace pva

#endif // PVA_CORE_SPLIT_VECTOR_HH
