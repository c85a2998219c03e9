/**
 * @file
 * Unloaded single-command latency: cycles from submit to data return
 * for one isolated vector read, per stride, on the PVA SDRAM and PVA
 * SRAM systems. Complements the throughput-oriented figure benches:
 * this is the latency a single L2 miss would see.
 */

#include <cstdio>

#include "core/command_unit.hh"
#include "kernels/sweep.hh"
#include "sim/simulation.hh"

namespace
{

using namespace pva;

Cycle
singleReadLatency(bool sram, std::uint32_t stride)
{
    auto sys = makeSystem(sram ? SystemKind::PvaSram
                               : SystemKind::PvaSdram);
    Simulation sim(*sys);

    VectorCommand c;
    c.base = 12345;
    c.stride = stride;
    c.length = 32;
    c.isRead = true;
    runCommands(*sys, sim, {c}, 100000000);
    return sim.now();
}

} // anonymous namespace

int
main()
{
    std::printf("Unloaded 32-element vector read latency (cycles)\n");
    std::printf("%-8s %10s %10s %12s\n", "stride", "SDRAM", "SRAM",
                "DRAM cost");
    for (std::uint32_t s : {1u, 2u, 4u, 8u, 16u, 19u, 32u, 33u}) {
        Cycle d = singleReadLatency(false, s);
        Cycle r = singleReadLatency(true, s);
        std::printf("%-8u %10llu %10llu %11lld\n", s,
                    static_cast<unsigned long long>(d),
                    static_cast<unsigned long long>(r),
                    static_cast<long long>(d - r));
    }
    std::printf("\nThe floor is 17 bus cycles (command + 16 data) plus "
                "the per-bank access time.\nDRAM exposes only ~3 cycles "
                "(one RAS+CAS; later activates overlap); strides that\n"
                "serialize one bank (16, 32) are slower on both "
                "technologies alike.\n");
    return 0;
}
