/**
 * @file
 * sim/json tests: parser round trips, grammar rejection, the hostile
 * inputs a hand-edited or half-written file presents — deep nesting,
 * exotic escapes, non-finite numbers, torn (truncated) documents — and
 * the strict field Reader every document loader shares.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "expect_sim_error.hh"
#include "sim/clocking.hh"
#include "sim/json.hh"

using namespace pva;

namespace
{

json::Value
parseOk(const std::string &text)
{
    json::Value v;
    std::string error;
    EXPECT_TRUE(json::parse(text, v, error)) << error << "\n" << text;
    return v;
}

void
expectReject(const std::string &text)
{
    json::Value v;
    std::string error;
    EXPECT_FALSE(json::parse(text, v, error)) << text;
    EXPECT_FALSE(error.empty()) << text;
}

} // anonymous namespace

TEST(JsonParser, RoundTripsAllValueKinds)
{
    const json::Value v = parseOk(
        "{\"null\": null, \"t\": true, \"f\": false, "
        "\"int\": 18446744073709551615, \"neg\": -12, "
        "\"real\": 2.5e-3, \"str\": \"hi\", "
        "\"arr\": [1, [2, 3], {\"k\": 4}]}");
    ASSERT_TRUE(v.isObject());
    EXPECT_TRUE(v.find("null")->isNull());
    EXPECT_TRUE(v.find("t")->boolean());
    EXPECT_FALSE(v.find("f")->boolean());

    bool ok = true;
    // 64-bit integers round trip exactly (numbers keep source text).
    EXPECT_EQ(v.find("int")->asU64(ok), 18446744073709551615ULL);
    EXPECT_TRUE(ok);
    EXPECT_DOUBLE_EQ(v.find("real")->asDouble(ok), 2.5e-3);
    EXPECT_TRUE(ok);
    EXPECT_EQ(v.find("str")->string(), "hi");
    ASSERT_TRUE(v.find("arr")->isArray());
    EXPECT_EQ(v.find("arr")->array().size(), 3u);
    EXPECT_EQ(v.find("arr")->array()[1].array()[1].asU64(ok), 3u);
    EXPECT_TRUE(ok);

    // asU64 on a negative or fractional number clears ok.
    ok = true;
    v.find("neg")->asU64(ok);
    EXPECT_FALSE(ok);
    ok = true;
    v.find("real")->asU64(ok);
    EXPECT_FALSE(ok);
}

TEST(JsonParser, EscapeAndParseAreInverses)
{
    const std::string nasty =
        "quote\" backslash\\ slash/ tab\t newline\n cr\r "
        "bell\x07 nul-adjacent\x01 high\xc3\xa9";
    std::ostringstream doc;
    json::Writer(doc).beginObject().field("k", nasty).end();
    const json::Value v = parseOk(doc.str());
    EXPECT_EQ(v.find("k")->string(), nasty);
}

TEST(JsonParser, DecodesStandardAndUnicodeEscapes)
{
    const json::Value v = parseOk(
        "{\"s\": \"a\\u0041\\t\\n\\r\\b\\f\\\\\\/\\\"z\"}");
    EXPECT_EQ(v.find("s")->string(), "aA\t\n\r\b\f\\/\"z");
    // Truncated and malformed escapes are rejected, not passed
    // through.
    expectReject("{\"s\": \"\\u12\"}");
    expectReject("{\"s\": \"\\x41\"}");
    expectReject("{\"s\": \"\\\"}");
    expectReject("{\"s\": \"dangling");
}

TEST(JsonParser, RejectsNaNAndInfinity)
{
    // The grammar has no non-finite numbers; a stats writer bug that
    // leaks "nan" must fail the reader loudly.
    expectReject("{\"v\": NaN}");
    expectReject("{\"v\": nan}");
    expectReject("{\"v\": Infinity}");
    expectReject("{\"v\": -Infinity}");
    expectReject("{\"v\": inf}");
    // ...while ordinary extreme-but-finite literals stay fine.
    const json::Value v = parseOk("{\"v\": 1e308}");
    bool ok = true;
    EXPECT_DOUBLE_EQ(v.find("v")->asDouble(ok), 1e308);
    EXPECT_TRUE(ok);
}

TEST(JsonParser, NestingDepthIsBoundedNotUnbounded)
{
    // Acceptable depth parses...
    std::string shallow;
    for (int i = 0; i < 20; ++i)
        shallow += "[";
    shallow += "1";
    for (int i = 0; i < 20; ++i)
        shallow += "]";
    parseOk(shallow);

    // ...while adversarial depth is refused instead of overflowing
    // the recursive-descent stack.
    std::string deep;
    for (int i = 0; i < 100000; ++i)
        deep += "[";
    deep += "1";
    for (int i = 0; i < 100000; ++i)
        deep += "]";
    expectReject(deep);

    std::string deep_obj;
    for (int i = 0; i < 100000; ++i)
        deep_obj += "{\"k\":";
    deep_obj += "1";
    for (int i = 0; i < 100000; ++i)
        deep_obj += "}";
    expectReject(deep_obj);
}

TEST(JsonParser, RejectsTornDocuments)
{
    // A reader can observe a scenario file mid-write; every prefix of
    // a valid document must fail cleanly rather than yield a
    // half-parsed tree.
    const std::string whole =
        "{\"kind\": \"fleet\", \"tenants\": [{\"name\": \"web\", "
        "\"count\": 3, \"stream\": {\"rate\": 12.5}}]}";
    parseOk(whole);
    for (std::size_t cut = 1; cut < whole.size(); ++cut) {
        json::Value v;
        std::string error;
        const bool accepted =
            json::parse(whole.substr(0, cut), v, error);
        EXPECT_FALSE(accepted) << "prefix length " << cut;
    }
}

TEST(JsonParser, RejectsTrailingGarbageAndBareGrammarViolations)
{
    expectReject("");
    expectReject("   ");
    expectReject("{} extra");
    expectReject("[1, 2,]");
    expectReject("{\"a\": 1,}");
    expectReject("{\"a\" 1}");
    expectReject("{a: 1}");
    expectReject("[01]");
    expectReject("[+1]");
    expectReject("[1.]");
    expectReject("[.5]");
    expectReject("tru");
    expectReject("nulll");
}

TEST(JsonReader, RequiredDefaultedAndTypedReads)
{
    const json::Value doc = parseOk(
        R"({"n": 7, "big": 4294967296, "r": 0.25, "b": true, "s": "x",
            "mode": "event", "o": {"k": 1}})");
    const json::Reader in(doc, "top", {"unit", ""});
    EXPECT_EQ(in.u64("n"), 7u);
    EXPECT_EQ(in.u32("n"), 7u);
    EXPECT_EQ(in.u64("big"), 4294967296ull);
    EXPECT_DOUBLE_EQ(in.real("r"), 0.25);
    EXPECT_TRUE(in.boolean("b"));
    EXPECT_EQ(in.str("s"), "x");
    EXPECT_EQ(in.name("mode", clockingModes()), ClockingMode::Event);
    EXPECT_EQ(in.object("o").u64("k"), 1u);
    // Defaulted reads fall back only when the key is absent.
    EXPECT_EQ(in.u64("absent", 9), 9u);
    EXPECT_EQ(in.u64("n", 9), 7u);
    EXPECT_EQ(in.str("absent", "d"), "d");
    EXPECT_EQ(in.name("absent", clockingModes(), ClockingMode::Exhaustive),
              ClockingMode::Exhaustive);
    in.rejectUnknown({"n", "big", "r", "b", "s", "mode", "o"});
}

TEST(JsonReader, FailuresNameTheKeyPathWithTheCallersContext)
{
    const json::Value doc = parseOk(
        R"({"n": -1, "big": 4294967296, "s": 3, "mode": "warp",
            "o": {"k": "one"}, "arr": []})");
    const json::Reader in(doc, "top",
                          {"unit", "file.json: ",
                           SimErrorKind::Corruption});
    auto expect = [](auto fn, const std::string &what) {
        test::expectSimError(fn, SimErrorKind::Corruption, what);
        test::expectSimError(fn, SimErrorKind::Corruption, "file.json: ");
    };
    expect([&] { in.u64("missing"); }, "top.missing is required");
    expect([&] { in.u64("n"); }, "top.n must be a non-negative integer");
    expect([&] { in.u32("big"); }, "top.big must fit in 32 bits");
    expect([&] { in.str("s"); }, "top.s must be a string");
    expect([&] { in.real("mode", 1.0); }, "top.mode must be a number");
    expect([&] { in.boolean("s"); }, "top.s must be true or false");
    expect([&] { in.name("mode", clockingModes()); },
           "unknown top.mode 'warp' (try: exhaustive event)");
    expect([&] { in.object("o").u64("k"); },
           "top.o.k must be a non-negative integer");
    expect([&] { in.object("arr"); }, "top.arr must be an object");
    expect([&] { in.rejectUnknown({"n", "big", "s", "mode", "o"}); },
           "unknown key 'arr' in top");
    test::expectSimError([&] { json::Reader(parseOk("[]"), "", {"unit", ""}); },
                         SimErrorKind::Config, "document must be an object");
}
