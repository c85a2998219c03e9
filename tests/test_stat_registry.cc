/**
 * @file
 * The PVA unit's statistics registry is built on the first stats()
 * call, not at construction. Its counters accumulate from
 * construction either way, so a system whose stats are read for the
 * first time after a run must dump exactly what a system read before
 * the run dumps. The names themselves are held against the committed
 * list in tests/expected/stat_names.txt.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "golden.hh"
#include "kernels/alignment.hh"
#include "kernels/runner.hh"
#include "kernels/sweep.hh"

namespace pva
{
namespace
{

struct RegistryCase
{
    const char *label;
    SystemKind kind;
    SystemConfig config;
};

/** The systems whose registries differ: the checker's and the fault
 *  injectors' statistics appear only with their features on. */
std::vector<RegistryCase>
registryCases()
{
    SystemConfig checked;
    checked.timingCheck = true;

    SystemConfig faulted;
    faulted.timing.tREFI = 781;
    faulted.faults.seed = 7;
    faulted.faults.refreshStallRate = 0.001;
    faulted.faults.bcStallRate = 0.01;
    faulted.faults.dropTransferRate = 0.01;

    return {{"pva timingCheck", SystemKind::PvaSdram, checked},
            {"sram", SystemKind::PvaSram, SystemConfig{}},
            {"pva faults", SystemKind::PvaSdram, faulted}};
}

/** Run a stride-19 copy on @p sys, zeroing the wall-clock gauge so two
 *  runs of one configuration dump identical bytes. */
void
runCopy(MemorySystem &sys, const SystemConfig &config)
{
    const KernelSpec &spec = kernelSpec(KernelId::Copy);
    WorkloadConfig wl;
    wl.stride = 19;
    wl.elements = 1024;
    wl.lineWords = config.bc.lineWords;
    wl.streamBases = streamBases(alignmentPresets()[0], spec.numStreams,
                                 wl.stride, wl.elements);
    const RunResult r = runKernelOn(sys, KernelId::Copy, wl);
    ASSERT_EQ(r.mismatches, 0u);
    sys.recordSimPerf(r.simTicks, r.cyclesSkipped, 0);
}

std::string
textDump(MemorySystem &sys)
{
    std::ostringstream os;
    sys.stats().dump(os);
    return os.str();
}

std::string
jsonDump(MemorySystem &sys)
{
    std::ostringstream os;
    sys.stats().dumpJson(os);
    return os.str();
}

TEST(StatRegistry, FirstReadAfterARunDumpsWhatAnEarlyReadDumps)
{
    for (const RegistryCase &c : registryCases()) {
        SCOPED_TRACE(c.label);
        auto early = makeSystem(c.kind, c.config);
        StatSet &early_set = early->stats();
        runCopy(*early, c.config);
        EXPECT_EQ(&early->stats(), &early_set)
            << "stats() must return one set for the system's lifetime";

        auto late = makeSystem(c.kind, c.config);
        runCopy(*late, c.config);

        EXPECT_EQ(textDump(*late), textDump(*early));
        EXPECT_EQ(jsonDump(*late), jsonDump(*early));
        EXPECT_NE(early_set.scalar("frontend.reads"), 0u);
    }
}

TEST(StatRegistry, NamesMatchTheCommittedList)
{
    std::ostringstream names;
    for (const RegistryCase &c : registryCases()) {
        auto sys = makeSystem(c.kind, c.config);
        std::istringstream dump(textDump(*sys));
        names << "[" << c.label << "]\n";
        std::string name, value;
        while (dump >> name >> value)
            names << name << "\n";
    }
    test::expectMatchesGolden(names.str(), PVA_STAT_NAMES_TXT);
}

} // anonymous namespace
} // namespace pva
