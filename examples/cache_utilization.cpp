/**
 * @file
 * The chapter 1 motivation, quantified: cache and bus utilization of a
 * strided walk, with and without the PVA.
 *
 * A processor sums every 32nd word of an array through an L2 cache.
 * Path A fills lines straight from the strided addresses: every
 * 128-byte line fetched contributes 4 useful bytes. Path B accesses an
 * Impulse-style dense shadow region; the PVA gathers each shadow line
 * from the strided real addresses, so every fetched word is useful and
 * the cache holds 32x more application data.
 */

#include <cstdio>

#include "cache/l2_cache.hh"
#include "core/pva_unit.hh"
#include "core/shadow.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

using namespace pva;

namespace
{

constexpr std::uint32_t kStride = 32;
constexpr std::uint32_t kElems = 2048;
constexpr WordAddr kArray = 1 << 18;
constexpr WordAddr kShadow = 1 << 24; // unbacked dense view

} // anonymous namespace

int
main()
{
    // ---- Path A: strided accesses straight through the cache. -------
    PvaUnit mem_a("memA", SystemConfig{});
    Simulation sim_a(mem_a);
    CacheConfig cache_cfg; // 32 KB: 64 sets x 4 ways x 128 B
    L2Cache cache_a(cache_cfg, mem_a, sim_a);

    for (std::uint32_t i = 0; i < kElems; ++i)
        mem_a.memory().write(kArray + static_cast<WordAddr>(i) * kStride,
                             i);

    std::uint64_t sum_a = 0;
    for (std::uint32_t i = 0; i < kElems; ++i)
        sum_a += cache_a.read(kArray + static_cast<WordAddr>(i) * kStride);
    Cycle cycles_a = sim_a.now();

    // ---- Path B: the same walk through a PVA shadow region. ---------
    PvaUnit mem_b("memB", SystemConfig{});
    ShadowMemorySystem shadow("shadow", mem_b);
    shadow.mapShadow({kShadow, kElems, kArray, kStride});
    Simulation sim_b(shadow);
    L2Cache cache_b(cache_cfg, shadow, sim_b);

    for (std::uint32_t i = 0; i < kElems; ++i)
        mem_b.memory().write(kArray + static_cast<WordAddr>(i) * kStride,
                             i);

    std::uint64_t sum_b = 0;
    for (std::uint32_t i = 0; i < kElems; ++i)
        sum_b += cache_b.read(kShadow + i);
    Cycle cycles_b = sim_b.now();

    if (sum_a != sum_b)
        fatal("checksum mismatch");

    std::printf("summing %u elements at stride %u through a %llu-KB L2 "
                "cache:\n\n",
                kElems, kStride,
                static_cast<unsigned long long>(
                    cache_cfg.capacityWords() * 4 / 1024));
    std::printf("%-28s %14s %14s\n", "", "strided", "PVA shadow");
    std::printf("%-28s %14llu %14llu\n", "cycles",
                static_cast<unsigned long long>(cycles_a),
                static_cast<unsigned long long>(cycles_b));
    std::printf("%-28s %14llu %14llu\n", "line fills",
                static_cast<unsigned long long>(cache_a.statMisses.value()),
                static_cast<unsigned long long>(
                    cache_b.statMisses.value()));
    std::printf("%-28s %14llu %14llu\n", "bus words fetched",
                static_cast<unsigned long long>(
                    cache_a.statWordsFetched.value()),
                static_cast<unsigned long long>(
                    cache_b.statWordsFetched.value()));
    std::printf("%-28s %13.1f%% %13.1f%%\n", "bus/cache utilization",
                100.0 * cache_a.busUtilization(),
                100.0 * cache_b.busUtilization());
    std::printf("\nchecksum %llu verified; the shadow path moves %.0fx "
                "fewer words and runs %.1fx faster\n",
                static_cast<unsigned long long>(sum_a),
                static_cast<double>(cache_a.statWordsFetched.value()) /
                    cache_b.statWordsFetched.value(),
                static_cast<double>(cycles_a) / cycles_b);
    return 0;
}
