/**
 * @file
 * Quickstart: build a PVA memory system, scatter a strided vector, then
 * gather it back, printing cycle counts.
 *
 * Demonstrates the core public API: SystemConfig/PvaUnit, VectorCommand,
 * Simulation, trySubmit/drainCompletions.
 */

#include <cstdio>
#include <vector>

#include "core/pva_unit.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

using namespace pva;

namespace
{

/** Submit one command and run to completion; returns the data+cycles. */
Completion
runOne(PvaUnit &sys, Simulation &sim, const VectorCommand &cmd,
       const std::vector<Word> *write_data, Cycle *cycles)
{
    Cycle start = sim.now();
    if (!sys.trySubmit(cmd, 0, write_data))
        fatal("submit failed");
    Completion result;
    sim.runUntil([&] {
        auto done = sys.drainCompletions();
        if (done.empty())
            return false;
        result = std::move(done.front());
        return true;
    });
    *cycles = sim.now() - start;
    return result;
}

} // anonymous namespace

int
main()
{
    // A 16-bank word-interleaved SDRAM system, 128-byte cache lines —
    // the paper's prototype configuration.
    PvaUnit sys("pva", SystemConfig{});
    Simulation sim(sys);

    // Scatter 32 words to every 19th word starting at word 4096.
    std::vector<Word> payload(32);
    for (unsigned i = 0; i < 32; ++i)
        payload[i] = 1000 + i;

    VectorCommand scatter;
    scatter.base = 4096;
    scatter.stride = 19;
    scatter.length = 32;
    scatter.isRead = false;

    Cycle write_cycles = 0;
    runOne(sys, sim, scatter, &payload, &write_cycles);
    std::printf("scattered 32 words at stride 19 in %llu cycles\n",
                static_cast<unsigned long long>(write_cycles));

    // Gather them back into a dense cache line.
    VectorCommand gather = scatter;
    gather.isRead = true;

    Cycle read_cycles = 0;
    Completion line = runOne(sys, sim, gather, nullptr, &read_cycles);
    std::printf("gathered them back in %llu cycles:\n",
                static_cast<unsigned long long>(read_cycles));
    for (unsigned i = 0; i < 32; ++i)
        std::printf("%s%u", i ? " " : "  ", line.data[i]);
    std::printf("\n");

    // Every element came back intact even though the words were spread
    // over all 16 banks.
    for (unsigned i = 0; i < 32; ++i) {
        if (line.data[i] != payload[i])
            fatal("gather mismatch at element %u", i);
    }
    std::printf("round trip verified.\n");
    return 0;
}
