/**
 * @file
 * Lookup-table model of the FirstHit PLA (section 4.2 / 4.3.1).
 *
 * The hardware compiles the K values "into the circuitry in the form of
 * look-up tables". Two organizations are modelled:
 *
 *  - FullKi: the PLA takes (S mod M, d) and returns Ki directly. Its
 *    contents grow with M^2, which the paper says limits this design to
 *    around 16 banks.
 *  - K1Multiply: the PLA takes S mod M and returns (s, K1, delta); Ki is
 *    then computed as (K1 * (d >> s)) mod 2^(m-s) with a small multiplier
 *    (shift+mask when the stride is a power of two). PLA contents grow
 *    linearly with M.
 *
 * Both organizations produce identical FirstHit() results; tests verify
 * this, and bench_pla_scaling reproduces the section 4.3.1 growth claim.
 */

#ifndef PVA_CORE_PLA_HH
#define PVA_CORE_PLA_HH

#include <cstdint>
#include <vector>

#include "core/firsthit.hh"

namespace pva
{

/** Compile-time-filled FirstHit lookup table. */
class FirstHitPla
{
  public:
    enum class Variant { FullKi, K1Multiply };

    /** Build the table for an M = 2^m bank word-interleaved system. */
    FirstHitPla(unsigned m, Variant variant);

    /**
     * The FullKi table of an M = 2^m bank system. Its contents depend
     * on M alone, so every bank controller of every system with that
     * bank count reads this one immutable table instead of building
     * its own. Built on first use; safe to call from concurrent
     * threads.
     */
    static const FirstHitPla &shared(unsigned m);

    unsigned bankBits() const { return mBits; }
    Variant variant() const { return plaVariant; }

    /**
     * FirstHit via table lookup: @p stride_mod_m is the low m bits of the
     * stride, @p d the modulo-M distance of this bank from the base bank,
     * @p length the vector length (for the Ki < L validity check).
     */
    FirstHit lookup(std::uint32_t stride_mod_m, std::uint32_t d,
                    std::uint32_t length) const;

    /** NextHit delta for @p stride_mod_m, encoded alongside the table. */
    std::uint32_t delta(std::uint32_t stride_mod_m) const;

    /** Number of stored table entries (PLA rows before minimization). */
    std::size_t tableEntries() const;

    /**
     * Modelled PLA product-term count: entries that encode a hit, i.e.
     * the minterms a two-level implementation must realize. This is the
     * quantity that scales quadratically (FullKi) or linearly
     * (K1Multiply) with the bank count.
     */
    std::size_t productTerms() const;

  private:
    struct KiEntry
    {
        bool hit = false;
        std::uint32_t ki = 0;
    };

    struct K1Entry
    {
        unsigned s = 0;
        std::uint32_t k1 = 0;
        std::uint32_t delta = 1;
        bool oneBank = false; ///< stride == 0 mod M
    };

    unsigned mBits;
    Variant plaVariant;
    /** FullKi: indexed [sm * M + d]. */
    std::vector<KiEntry> kiTable;
    /** K1Multiply (also used for delta()): indexed [sm]. */
    std::vector<K1Entry> k1Table;
};

} // namespace pva

#endif // PVA_CORE_PLA_HH
