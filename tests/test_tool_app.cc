/**
 * @file
 * ToolApp flag parsing: numeric flags reject values their destination
 * field cannot hold (too large, negative, out of range) with the
 * one-line fatal every tool prints, instead of wrapping into a small
 * field; named values reject a name they do not know the same way,
 * listing their table's names; a flag the tool does not take, or
 * one missing its value, is named before the usage text; and
 * pva_loadgen --scenario refuses, by name, a flag its file would
 * leave without effect.
 */

#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "options.hh"
#include "tool_app.hh"

using namespace pva;
using namespace pva::tools;

namespace
{

/** Parse @p args (after the tool name) with pva_sim's shared flags. */
ToolOptions
parseSimFlags(std::vector<std::string> args)
{
    ToolOptions opts;
    ToolApp app("pva_sim");
    app.addSystemFlags(opts.config);
    app.addWorkloadFlags(opts);
    app.addTraceFlags();
    args.insert(args.begin(), "pva_sim");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    app.parse(static_cast<int>(argv.size()), argv.data());
    return opts;
}

/** Run the pva_loadgen binary with @p args in place of this (death
 *  test) process, so its own flags meet the value. */
void
execLoadgen(std::vector<std::string> args)
{
    args.insert(args.begin(), "pva_loadgen");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(PVA_LOADGEN_TOOL, argv.data());
}

TEST(ToolAppNumOption, AcceptsTheWholeFieldRange)
{
    ToolOptions opts = parseSimFlags(
        {"--stride", "4294967295", "--elements", "0", "--fault-seed",
         "18446744073709551615"});
    EXPECT_EQ(opts.stride, 4294967295u);
    EXPECT_EQ(opts.elements, 0u);
    EXPECT_EQ(opts.config.faults.seed, 18446744073709551615ull);
}

TEST(ToolAppNumOptionDeathTest, RejectsValuesTheFieldCannotHold)
{
    const auto exit1 = ::testing::ExitedWithCode(1);
    // 2^32 + 1 would wrap to stride 1 in the 32-bit field.
    EXPECT_EXIT(parseSimFlags({"--stride", "4294967297"}), exit1,
                "^fatal: --stride expects a number in 0..4294967295, "
                "got '4294967297'");
    // strtoull would negate a leading '-' modulo 2^64.
    EXPECT_EXIT(parseSimFlags({"--stride", "-1"}), exit1,
                "^fatal: --stride expects a number in 0..4294967295, "
                "got '-1'");
    EXPECT_EXIT(parseSimFlags({"--elements", "-32"}), exit1,
                "^fatal: --elements expects a number in");
    // 2^32 + 16 would wrap to 16 banks.
    EXPECT_EXIT(parseSimFlags({"--banks", "4294967312"}), exit1,
                "^fatal: --banks expects a number in 0..4294967295");
    // Beyond unsigned long long: strtoull saturates.
    EXPECT_EXIT(parseSimFlags({"--fault-seed", "18446744073709551616"}),
                exit1, "^fatal: --fault-seed expects a number in");
    EXPECT_EXIT(parseSimFlags({"--profile-period", "0"}), exit1,
                "^fatal: --profile-period expects a number in "
                "1..4294967295, got '0'");
    EXPECT_EXIT(parseSimFlags({"--profile-period", "4294967296"}),
                exit1, "^fatal: --profile-period expects a number in");
    EXPECT_EXIT(parseSimFlags({"--vcs", "banana"}), exit1,
                "^fatal: --vcs expects a number, got 'banana'");
}

TEST(ToolAppParseDeathTest, NamesTheFlagItRefuses)
{
    const auto exit2 = ::testing::ExitedWithCode(2);
    // A retired flag an old script may still pass.
    EXPECT_EXIT(parseSimFlags({"--checkpoint", "j.jsonl"}), exit2,
                "^pva_sim: unknown option '--checkpoint'\nusage: pva_sim");
    EXPECT_EXIT(parseSimFlags({"--kernel", "copy", "--stride"}), exit2,
                "^pva_sim: --stride needs a value\nusage: pva_sim");
}

TEST(ToolAppOptionDeathTest, NamesAnUnknownValue)
{
    const auto exit1 = ::testing::ExitedWithCode(1);
    EXPECT_EXIT(parseSimFlags({"--row-policy", "bogus"}), exit1,
                "^fatal: --row-policy expects 'managed', 'open' or "
                "'close', got 'bogus'");
    EXPECT_EXIT(parseSimFlags({"--backend", "bogus"}), exit1,
                "^fatal: --backend expects 'legacy', 'salp' or "
                "'deferred', got 'bogus'");
    EXPECT_EXIT(parseSimFlags({"--clocking", "warp"}), exit1,
                "^fatal: --clocking expects 'exhaustive' or 'event', "
                "got 'warp'");
    EXPECT_EXIT(parseSimFlags({"--system", "hbm"}), exit1,
                "^fatal: --system expects 'pva', 'cacheline', "
                "'gathering' or 'sram', got 'hbm'");
    EXPECT_EXIT(parseSimFlags({"--kernel", "Copy"}), exit1,
                "^fatal: --kernel expects 'copy', 'saxpy', 'scale', "
                "'swap', 'tridiag', 'vaxpy', 'copy2' or 'scale2', "
                "got 'Copy'");
    // pva_loadgen's own flags, in the tool itself.
    EXPECT_EXIT(execLoadgen({"--policy", "lottery"}), exit1,
                "^fatal: --policy expects 'fifo', 'rr' or 'priority', "
                "got 'lottery'");
    EXPECT_EXIT(execLoadgen({"--policy", "roundrobin"}), exit1,
                "^fatal: --policy expects 'fifo', 'rr' or 'priority', "
                "got 'roundrobin'");
    EXPECT_EXIT(execLoadgen({"--mode", "burst"}), exit1,
                "^fatal: --mode expects 'closed' or 'open', got 'burst'");
    EXPECT_EXIT(execLoadgen({"--shed", "maybe"}), exit1,
                "^fatal: --shed expects 'on' or 'off', got 'maybe'");
    EXPECT_EXIT(execLoadgen({"--system", ""}), exit1,
                "^fatal: --system expects 'pva', 'cacheline', "
                "'gathering' or 'sram', got ''");
    EXPECT_EXIT(execLoadgen({"--systems", "pva,hbm"}), exit1,
                "^fatal: --systems expects 'pva', 'cacheline', "
                "'gathering' or 'sram', got 'hbm'");
}

TEST(ToolAppChoice, ParsesIntoTheEnumAtFlagTime)
{
    ToolOptions opts = parseSimFlags(
        {"--system", "sram", "--kernel", "scale2", "--row-policy", "close",
         "--backend", "salp", "--clocking", "exhaustive"});
    EXPECT_EQ(opts.system, SystemKind::PvaSram);
    EXPECT_EQ(opts.kernel, KernelId::Scale2);
    EXPECT_EQ(opts.config.bc.rowPolicy, RowPolicy::AlwaysClose);
    EXPECT_EQ(opts.config.backend, MemBackend::Salp);
    EXPECT_EQ(opts.config.clocking, ClockingMode::Exhaustive);
}

/** A two-tenant fleet scenario file; returns its path. */
std::string
writeScenario()
{
    const std::string path = testing::TempDir() + "tool_app_scenario.json";
    std::ofstream(path) << R"({"kind": "fleet", "tenants": [{"count": 2}]})";
    return path;
}

TEST(ToolAppScenarioDeathTest, TakesOnlyTheInvokingMachinesKnobs)
{
    const std::string scenario = writeScenario();
    EXPECT_EXIT(execLoadgen({"--scenario", scenario, "--policy", "rr",
                             "--system", "sram"}),
                ::testing::ExitedWithCode(1),
                "^fatal: \\[config\\] loadgen: --policy does not apply "
                "to --scenario");
    EXPECT_EXIT(execLoadgen({"--scenario", scenario, "--jobs", "2",
                             "--retries", "1", "--point-timeout", "60000"}),
                ::testing::ExitedWithCode(0), "");
}

} // anonymous namespace
