/**
 * @file
 * The name tables of the enums a user types (sim/vocabulary.hh): each
 * spells its values in one order, every name parses back to its
 * value, no two names clash, unknown, empty and case-changed text is
 * refused, each all*() list is its table's order, and the two refusal
 * shapes list the names in that order.
 */

#include <cctype>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/sweep.hh"
#include "sim/vocabulary.hh"
#include "traffic/arbiter.hh"

namespace pva
{
namespace
{

/** Hold @p vocab to the names @p expected, in order, and to every
 *  property a name table must have. */
template <typename E>
void
expectTable(const Vocabulary<E> &vocab,
            const std::vector<std::string> &expected)
{
    ASSERT_EQ(vocab.values().size(), expected.size());
    EXPECT_EQ(std::set<std::string>(expected.begin(), expected.end())
                  .size(),
              expected.size());
    EXPECT_EQ(std::set<E>(vocab.values().begin(), vocab.values().end())
                  .size(),
              expected.size());
    std::string joined;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        joined += (i > 0 ? "|" : "") + expected[i];
        const E value = vocab.values()[i];
        EXPECT_EQ(vocab.name(value), expected[i]);
        // Start from another value, so the parse must write it.
        E out = vocab.values()[(i + 1) % expected.size()];
        EXPECT_TRUE(vocab.parse(expected[i], out)) << expected[i];
        EXPECT_EQ(out, value) << expected[i];

        std::string upper = expected[i];
        upper[0] = static_cast<char>(std::toupper(upper[0]));
        for (const std::string &bad :
             {upper, expected[i] + " ", std::string("x") + expected[i]}) {
            E untouched = value;
            EXPECT_FALSE(vocab.parse(bad, untouched)) << bad;
            EXPECT_EQ(untouched, value) << bad;
        }
    }
    EXPECT_EQ(vocab.joined("|"), joined);
    E out = vocab.values()[0];
    EXPECT_FALSE(vocab.parse("", out));
    EXPECT_FALSE(vocab.parse("bogus", out));
    EXPECT_EQ(out, vocab.values()[0]);
}

TEST(Vocabulary, ClockingModes)
{
    expectTable(clockingModes(), {"exhaustive", "event"});
    EXPECT_STREQ(clockingModeName(ClockingMode::Event), "event");
}

TEST(Vocabulary, MemBackends)
{
    expectTable(memBackends(), {"legacy", "salp", "deferred"});
    EXPECT_STREQ(backendName(MemBackend::DeferredRefresh), "deferred");
}

TEST(Vocabulary, RowPolicies)
{
    expectTable(rowPolicies(), {"managed", "open", "close"});
    EXPECT_STREQ(rowPolicyName(RowPolicy::AlwaysClose), "close");
}

TEST(Vocabulary, ArbPolicies)
{
    expectTable(arbPolicies(), {"fifo", "rr", "priority"});
    EXPECT_STREQ(arbPolicyName(ArbPolicy::RoundRobin), "rr");
    ArbPolicy out = ArbPolicy::Fifo;
    EXPECT_FALSE(arbPolicies().parse("roundrobin", out));
}

TEST(Vocabulary, SystemKinds)
{
    expectTable(systemKinds(), {"pva", "cacheline", "gathering", "sram"});
    EXPECT_EQ(allSystems(), systemKinds().values());
    for (SystemKind k : allSystems())
        EXPECT_STREQ(systemShortName(k), systemKinds().name(k));
}

TEST(Vocabulary, KernelIdsAreTheKernelSpecNames)
{
    expectTable(kernelIds(), {"copy", "saxpy", "scale", "swap", "tridiag",
                              "vaxpy", "copy2", "scale2"});
    EXPECT_EQ(allKernels(), kernelIds().values());
    for (KernelId k : allKernels())
        EXPECT_EQ(kernelSpec(k).name, kernelIds().name(k));
}

TEST(Vocabulary, ArrivalModes)
{
    expectTable(arrivalModes(), {"closed", "open"});
}

TEST(Vocabulary, ShedSwitch)
{
    expectTable(shedSwitch(), {"on", "off"});
}

TEST(Vocabulary, RefusalsListTheNamesInTableOrder)
{
    EXPECT_EQ(arbPolicies().expects("--policy", "lottery"),
              "--policy expects 'fifo', 'rr' or 'priority', got 'lottery'");
    EXPECT_EQ(clockingModes().expects("--clocking", ""),
              "--clocking expects 'exhaustive' or 'event', got ''");
    EXPECT_EQ(clockingModes().unknown("scenario.clocking", "warp"),
              "unknown scenario.clocking 'warp' (try: exhaustive event)");
    EXPECT_EQ(memBackends().joined("|"), "legacy|salp|deferred");
}

} // anonymous namespace
} // namespace pva
