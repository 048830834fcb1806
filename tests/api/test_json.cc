/**
 * @file
 * Strict JSON parser/writer tests (src/support/json).
 *
 * The wire grammar is deliberately narrow — no duplicate keys, no
 * trailing garbage, bounded nesting, raw number tokens preserved —
 * because a request either parses into exactly one AllocationRequest
 * or is refused. These tests pin both the acceptances and the
 * refusals.
 */

#include <gtest/gtest.h>

#include <string>

#include "support/json.hh"

namespace oma
{
namespace
{

JsonValue
parseOk(const std::string &text)
{
    JsonValue value;
    std::string error;
    EXPECT_TRUE(parseJson(text, value, error)) << error;
    return value;
}

void
expectReject(const std::string &text)
{
    JsonValue value;
    std::string error;
    EXPECT_FALSE(parseJson(text, value, error)) << text;
    EXPECT_FALSE(error.empty());
}

TEST(ApiJson, ParsesScalars)
{
    EXPECT_EQ(parseOk("null").kind, JsonValue::Kind::Null);
    EXPECT_TRUE(parseOk("true").boolean);
    EXPECT_FALSE(parseOk("false").boolean);
    EXPECT_EQ(parseOk("\"hi\"").string, "hi");
    EXPECT_EQ(parseOk("42").number, "42");
    EXPECT_EQ(parseOk("-0.5e3").number, "-0.5e3");
}

TEST(ApiJson, PreservesRawNumberTokens)
{
    // The raw token carries exact 64-bit seeds that would lose
    // precision through a double.
    const JsonValue v = parseOk("18446744073709551615");
    EXPECT_EQ(v.number, "18446744073709551615");
    std::uint64_t u = 0;
    EXPECT_TRUE(v.asU64(u));
    EXPECT_EQ(u, 18446744073709551615ULL);
}

TEST(ApiJson, U64RejectsNonIntegralTokens)
{
    std::uint64_t u = 0;
    EXPECT_FALSE(parseOk("1.5").asU64(u));
    EXPECT_FALSE(parseOk("1e3").asU64(u));
    EXPECT_FALSE(parseOk("-1").asU64(u));
    // One past max: overflow is an error, not a wrap.
    EXPECT_FALSE(parseOk("18446744073709551616").asU64(u));
    EXPECT_FALSE(parseOk("\"7\"").asU64(u));
}

TEST(ApiJson, RealParsesAndBoundsChecks)
{
    double d = 0.0;
    EXPECT_TRUE(parseOk("0.25").asReal(d));
    EXPECT_DOUBLE_EQ(d, 0.25);
    EXPECT_TRUE(parseOk("-2e-3").asReal(d));
    EXPECT_DOUBLE_EQ(d, -2e-3);
    // Overflows to infinity -> rejected as non-finite.
    EXPECT_FALSE(parseOk("1e999").asReal(d));
    EXPECT_FALSE(parseOk("true").asReal(d));
}

TEST(ApiJson, ParsesNestedStructures)
{
    const JsonValue v =
        parseOk("{\"a\":[1,2,{\"b\":\"c\"}],\"d\":{}}");
    ASSERT_EQ(v.kind, JsonValue::Kind::Object);
    const JsonValue *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->array.size(), 3u);
    EXPECT_EQ(a->array[2].find("b")->string, "c");
    EXPECT_EQ(v.find("d")->kind, JsonValue::Kind::Object);
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ApiJson, DecodesEscapesAndSurrogatePairs)
{
    EXPECT_EQ(parseOk("\"a\\n\\t\\\\\\\"\"").string, "a\n\t\\\"");
    EXPECT_EQ(parseOk("\"\\u0041\"").string, "A");
    // U+1F600 as a surrogate pair -> 4-byte UTF-8.
    EXPECT_EQ(parseOk("\"\\ud83d\\ude00\"").string,
              "\xf0\x9f\x98\x80");
}

TEST(ApiJson, RejectsMalformedDocuments)
{
    expectReject("");
    expectReject("tru");
    expectReject("01");      // leading zero
    expectReject("1.");      // digits required after the point
    expectReject("+1");      // no leading plus
    expectReject(".5");
    expectReject("1e");      // empty exponent
    expectReject("\"open");  // unterminated string
    expectReject("\"\\x\""); // unknown escape
    expectReject("\"\\ud83d\""); // unpaired high surrogate
    expectReject("\"\\ude00\""); // unpaired low surrogate
    expectReject("\"\x01\"");    // raw control character
    expectReject("[1,]");
    expectReject("[1 2]");
    expectReject("{\"a\":1,}");
    expectReject("{\"a\" 1}");
    expectReject("{a:1}");
    expectReject("1 2");         // trailing content
    expectReject("{} garbage");
}

TEST(ApiJson, RejectsDuplicateKeys)
{
    expectReject("{\"a\":1,\"a\":2}");
}

TEST(ApiJson, BoundsNestingDepth)
{
    std::string deep;
    for (int i = 0; i < 100; ++i)
        deep += "[";
    for (int i = 0; i < 100; ++i)
        deep += "]";
    expectReject(deep);
    // A comfortably shallow document still parses.
    std::string ok;
    for (int i = 0; i < 20; ++i)
        ok += "[";
    for (int i = 0; i < 20; ++i)
        ok += "]";
    (void)parseOk(ok);
}

TEST(ApiJson, WriterRoundTripsCanonically)
{
    const std::string doc =
        "{\"a\":[1,2.5,null,true],\"b\":\"x\\ny\",\"c\":{}}";
    const JsonValue v = parseOk(doc);
    EXPECT_EQ(writeJson(v), doc);
    // Writing is idempotent through a reparse.
    EXPECT_EQ(writeJson(parseOk(writeJson(v))), doc);
}

TEST(ApiJson, AppendHelpersEscapeAndFormat)
{
    std::string out;
    appendJsonString(out, "a\"b\\c\nd\x02");
    EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\u0002\"");
    out.clear();
    appendJsonU64(out, 18446744073709551615ULL);
    EXPECT_EQ(out, "18446744073709551615");
    out.clear();
    appendJsonReal(out, 0.1);
    EXPECT_EQ(out, "0.1"); // shortest round-trip form
}

} // namespace
} // namespace oma
