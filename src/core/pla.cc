#include "core/pla.hh"

#include <memory>
#include <mutex>

#include "sim/logging.hh"

namespace pva
{

FirstHitPla::FirstHitPla(unsigned m, Variant variant)
    : mBits(m), plaVariant(variant)
{
    const std::uint32_t M = 1u << m;

    // The K1 side table is always built: delta() needs it, and the
    // K1Multiply variant derives Ki from it.
    k1Table.resize(M);
    for (std::uint32_t sm = 0; sm < M; ++sm) {
        K1Entry &e = k1Table[sm];
        StrideDecomposition sd = decomposeStride(sm, m);
        if (sd.wholeVectorInOneBank()) {
            e.oneBank = true;
            e.delta = 1;
            continue;
        }
        e.s = sd.s;
        e.delta = sd.delta;
        e.k1 = computeK1(sm, m);
    }

    if (variant == Variant::FullKi) {
        kiTable.resize(static_cast<std::size_t>(M) * M);
        for (std::uint32_t sm = 0; sm < M; ++sm) {
            for (std::uint32_t d = 0; d < M; ++d) {
                KiEntry &e = kiTable[sm * M + d];
                if (d == 0) {
                    e.hit = true;
                    e.ki = 0;
                    continue;
                }
                const K1Entry &k1e = k1Table[sm];
                if (k1e.oneBank)
                    continue; // only d == 0 hits
                if (d & ((1u << k1e.s) - 1))
                    continue; // lemma 4.2
                e.hit = true;
                e.ki = static_cast<std::uint32_t>(
                    (static_cast<std::uint64_t>(k1e.k1) * (d >> k1e.s)) %
                    k1e.delta);
            }
        }
    }
}

const FirstHitPla &
FirstHitPla::shared(unsigned m)
{
    // M = 2^m fits an unsigned bank count, so m < 32.
    constexpr unsigned kTables = 32;
    static std::once_flag built[kTables];
    static std::unique_ptr<const FirstHitPla> tables[kTables];
    if (m >= kTables)
        panic("no shared FirstHit PLA for 2^%u banks", m);
    std::call_once(built[m], [m] {
        tables[m] = std::make_unique<const FirstHitPla>(m, Variant::FullKi);
    });
    return *tables[m];
}

FirstHit
FirstHitPla::lookup(std::uint32_t stride_mod_m, std::uint32_t d,
                    std::uint32_t length) const
{
    const std::uint32_t M = 1u << mBits;
    if (stride_mod_m >= M || d >= M)
        panic("PLA lookup out of range: sm=%u d=%u M=%u", stride_mod_m, d,
              M);
    if (length == 0)
        return {};

    std::uint32_t ki;
    bool hit;
    if (plaVariant == Variant::FullKi) {
        const KiEntry &e = kiTable[stride_mod_m * M + d];
        hit = e.hit;
        ki = e.ki;
    } else {
        const K1Entry &e = k1Table[stride_mod_m];
        if (d == 0) {
            hit = true;
            ki = 0;
        } else if (e.oneBank || (d & ((1u << e.s) - 1))) {
            hit = false;
            ki = 0;
        } else {
            hit = true;
            ki = static_cast<std::uint32_t>(
                (static_cast<std::uint64_t>(e.k1) * (d >> e.s)) % e.delta);
        }
    }
    if (!hit || ki >= length)
        return {};
    return {true, ki};
}

std::uint32_t
FirstHitPla::delta(std::uint32_t stride_mod_m) const
{
    const std::uint32_t M = 1u << mBits;
    if (stride_mod_m >= M)
        panic("PLA delta lookup out of range: sm=%u", stride_mod_m);
    return k1Table[stride_mod_m].delta;
}

std::size_t
FirstHitPla::tableEntries() const
{
    return plaVariant == Variant::FullKi ? kiTable.size() : k1Table.size();
}

std::size_t
FirstHitPla::productTerms() const
{
    if (plaVariant == Variant::FullKi) {
        std::size_t terms = 0;
        for (const KiEntry &e : kiTable)
            if (e.hit)
                ++terms;
        return terms;
    }
    return k1Table.size();
}

} // namespace pva
