/**
 * @file
 * Impulse-style shadow-space access (section 3.2 + section 4.3.2).
 *
 * The PVA was designed for the Impulse memory controller, where a
 * strided "shadow" view of an array is remapped by the controller: the
 * processor reads dense cache lines from the shadow region and the
 * controller gathers the strided elements from the real pages backing
 * it. A long vector spans several superpages that are not physically
 * contiguous, so the controller must SplitVector the request against
 * its TLB and issue one vector-bus operation per superpage.
 *
 * This example builds a 3-superpage virtual array with a scrambled
 * physical layout, splits a 768-element stride-5 gather against the
 * TLB, runs every sub-command through the PVA, and verifies the
 * reassembled data.
 */

#include <cstdio>
#include <vector>

#include "core/command_unit.hh"
#include "core/pva_unit.hh"
#include "core/split_vector.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

using namespace pva;

int
main()
{
    PvaUnit sys("pva", SystemConfig{});
    Simulation sim(sys);

    // Three 4096-word virtual superpages, physically out of order.
    constexpr std::uint32_t kPage = 4096;
    MmcTlb tlb;
    tlb.mapSuperpage(0 * kPage, 7 * kPage, kPage);
    tlb.mapSuperpage(1 * kPage, 3 * kPage, kPage);
    tlb.mapSuperpage(2 * kPage, 11 * kPage, kPage);

    // The application array: element i at virtual word 5*i.
    constexpr std::uint32_t kElems = 768; // spans 3840 words < 3 pages
    constexpr std::uint32_t kStride = 5;
    for (std::uint32_t i = 0; i < kElems; ++i) {
        WordAddr va = static_cast<WordAddr>(kStride) * i;
        sys.memory().write(tlb.lookup(va).phys, 0x5000 + i);
    }

    // The controller splits the virtual vector into per-superpage
    // physical vector commands (division-free, section 4.3.2) ...
    VectorCommand shadow;
    shadow.base = 0;
    shadow.stride = kStride;
    shadow.length = kElems;
    shadow.isRead = true;
    std::vector<VectorCommand> subs = splitVector(shadow, tlb);
    std::printf("split a %u-element stride-%u shadow gather into %zu "
                "per-superpage commands\n",
                kElems, kStride, subs.size());

    // ... then chops each into cache-line-sized bus operations.
    std::vector<VectorCommand> cmds;
    for (const VectorCommand &s : subs) {
        for (std::uint32_t off = 0; off < s.length; off += 32) {
            VectorCommand c = s;
            c.base = s.base + static_cast<WordAddr>(kStride) * off;
            c.length = std::min<std::uint32_t>(32, s.length - off);
            cmds.push_back(c);
        }
    }

    std::vector<Word> gathered = runCommands(sys, sim, cmds, 10000000);
    if (gathered.size() != kElems)
        fatal("expected %u elements, got %zu", kElems, gathered.size());
    for (std::uint32_t i = 0; i < kElems; ++i) {
        if (gathered[i] != 0x5000 + i)
            fatal("element %u wrong: got 0x%x", i, gathered[i]);
    }

    std::printf("%u bus commands, %llu cycles, dense shadow lines "
                "verified across %zu scrambled superpages\n",
                static_cast<unsigned>(cmds.size()),
                static_cast<unsigned long long>(sim.now()),
                subs.size());
    return 0;
}
