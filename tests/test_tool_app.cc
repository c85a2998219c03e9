/**
 * @file
 * ToolApp flag parsing: numeric flags reject values their destination
 * field cannot hold (too large, negative, out of range) with the
 * one-line fatal every tool prints, instead of wrapping into a small
 * field; named values reject a name they do not know the same way; and
 * a flag the tool does not take, or one missing its value, is named
 * before the usage text.
 */

#include <string>
#include <vector>

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
}

} // anonymous namespace
