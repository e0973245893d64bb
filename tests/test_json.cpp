/**
 * @file
 * Unit tests for the JSON parser and serializer, the streaming
 * writer (`json/stream_writer.h`), and the forward-only on-demand
 * scanner (`json/ondemand.h`). Comparisons against a parser or
 * serializer use the test-only reference implementation
 * (`support/reference_json.h`) as the oracle.
 */

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "json/json.h"
#include "json/ondemand.h"
#include "json/stream_writer.h"
#include "support/error.h"
#include "support/reference_json.h"

namespace ecochip::json {
namespace {

/** The message of the ConfigError @p fn throws, or "(accepted)". */
template <typename Fn>
std::string
errorOf(Fn &&fn)
{
    try {
        fn();
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "(accepted)";
}

TEST(JsonParse, Scalars)
{
    EXPECT_TRUE(parse("null").isNull());
    EXPECT_EQ(parse("true").asBoolean(), true);
    EXPECT_EQ(parse("false").asBoolean(), false);
    EXPECT_DOUBLE_EQ(parse("42").asNumber(), 42.0);
    EXPECT_DOUBLE_EQ(parse("-3.25").asNumber(), -3.25);
    EXPECT_DOUBLE_EQ(parse("6.02e23").asNumber(), 6.02e23);
    EXPECT_DOUBLE_EQ(parse("1E-3").asNumber(), 1e-3);
    EXPECT_EQ(parse("\"hi\"").asString(), "hi");
}

TEST(JsonParse, NestedStructure)
{
    const Value doc = parse(R"({
        "name": "soc",
        "chiplets": [
            {"name": "a", "area": 10.5},
            {"name": "b", "area": 20.0}
        ],
        "flags": {"mono": false}
    })");
    EXPECT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("name").asString(), "soc");
    EXPECT_EQ(doc.at("chiplets").size(), 2u);
    EXPECT_DOUBLE_EQ(
        doc.at("chiplets")[1].at("area").asNumber(), 20.0);
    EXPECT_FALSE(doc.at("flags").at("mono").asBoolean());
}

TEST(JsonParse, StringEscapes)
{
    EXPECT_EQ(parse(R"("a\"b")").asString(), "a\"b");
    EXPECT_EQ(parse(R"("a\\b")").asString(), "a\\b");
    EXPECT_EQ(parse(R"("a\nb\tc")").asString(), "a\nb\tc");
    EXPECT_EQ(parse(R"("a\/b")").asString(), "a/b");
}

TEST(JsonParse, UnicodeEscapes)
{
    EXPECT_EQ(parse(R"("A")").asString(), "A");
    // U+00E9 (e-acute) -> 2-byte UTF-8.
    EXPECT_EQ(parse(R"("é")").asString(), "\xc3\xa9");
    // U+20AC (euro) -> 3-byte UTF-8.
    EXPECT_EQ(parse(R"("€")").asString(), "\xe2\x82\xac");
}

TEST(JsonParse, ToleratesLineComments)
{
    const Value doc = parse(
        "{\n  // carbon config\n  \"x\": 1 // trailing\n}");
    EXPECT_DOUBLE_EQ(doc.at("x").asNumber(), 1.0);
}

TEST(JsonParse, EmptyContainers)
{
    EXPECT_EQ(parse("[]").size(), 0u);
    EXPECT_EQ(parse("{}").size(), 0u);
    EXPECT_EQ(parse("[ ]").size(), 0u);
}

TEST(JsonParse, ErrorsCarryLineAndColumn)
{
    try {
        parse("{\n  \"a\": 1,\n  \"b\": }\n");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    }
}

TEST(JsonParse, RejectsMalformedDocuments)
{
    EXPECT_THROW(parse(""), ConfigError);
    EXPECT_THROW(parse("{"), ConfigError);
    EXPECT_THROW(parse("[1, 2"), ConfigError);
    EXPECT_THROW(parse("tru"), ConfigError);
    EXPECT_THROW(parse("\"unterminated"), ConfigError);
    EXPECT_THROW(parse("01x"), ConfigError);
    EXPECT_THROW(parse("1.2.3"), ConfigError);
    EXPECT_THROW(parse("{\"a\" 1}"), ConfigError);
    EXPECT_THROW(parse("{} extra"), ConfigError);
    EXPECT_THROW(parse("1.-"), ConfigError);
    EXPECT_THROW(parse("[1,]"), ConfigError);
}

TEST(JsonParse, RejectsDuplicateKeys)
{
    EXPECT_THROW(parse(R"({"a": 1, "a": 2})"), ConfigError);
}

// One grammar, one duplicate-key rule: every entry point reports
// a repeated key at the end of the key, before its value is read.
TEST(JsonParse, DuplicateKeyIsReportedAtTheKey)
{
    const std::string text = R"({"a": 1, "a": [1, 2, 3]})";
    const std::string want = "config error: JSON parse error at "
                             "line 1, column 13: duplicate object "
                             "key: \"a\"";
    EXPECT_EQ(errorOf([&] { parse(text); }), want);
    EXPECT_EQ(errorOf([&] { ondemand::validate(text); }), want);
    EXPECT_EQ(errorOf([&] { ondemand::reserialize(text, false); }),
              want);

    // The duplicate wins over the malformed value after it.
    const std::string cut = R"({"a":1,"a":tru})";
    const std::string cut_want = "config error: JSON parse error "
                                 "at line 1, column 11: duplicate "
                                 "object key: \"a\"";
    EXPECT_EQ(errorOf([&] { parse(cut); }), cut_want);
    EXPECT_EQ(errorOf([&] { ondemand::validate(cut); }), cut_want);
    EXPECT_EQ(errorOf([&] { ondemand::reserialize(cut, true); }),
              cut_want);
}

TEST(JsonValue, TypeMismatchThrows)
{
    const Value v = parse("{\"n\": 5}");
    EXPECT_THROW(v.at("n").asString(), ConfigError);
    EXPECT_THROW(v.at("n").asArray(), ConfigError);
    EXPECT_THROW(v.at("missing"), ConfigError);
    EXPECT_THROW(v.asNumber(), ConfigError);
}

TEST(JsonValue, AsIntegerValidatesIntegrality)
{
    EXPECT_EQ(parse("7").asInteger(), 7);
    EXPECT_EQ(parse("-3").asInteger(), -3);
    EXPECT_THROW(parse("7.5").asInteger(), ConfigError);
}

TEST(JsonValue, AsIntegerRejectsOutOfRange)
{
    // [-2^63, 2^63) is exactly the range an int64 holds.
    EXPECT_EQ(parse("-9223372036854775808").asInteger(),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(parse("9223372036854774784").asInteger(),
              std::int64_t{9223372036854774784}); // 2^63 - 1024
    for (const char *text : {"1e300", "-1e300", "9.3e18", "-1e19",
                             "9223372036854775808"})
        EXPECT_THROW(parse(text).asInteger(), ConfigError) << text;

    // Both messages spell the value the way the writer does.
    EXPECT_EQ(errorOf([] { parse("7.5").asInteger(); }),
              "config error: JSON number is not an integer: 7.5");
    EXPECT_EQ(errorOf([] { parse("1e300").asInteger(); }),
              "config error: JSON number is out of the integer "
              "range: " +
                  formatNumber(1e300));
}

TEST(JsonValue, OptionalLookups)
{
    const Value v = parse(R"({"x": 2.0, "s": "hey", "b": true})");
    EXPECT_DOUBLE_EQ(v.numberOr("x", 9.0), 2.0);
    EXPECT_DOUBLE_EQ(v.numberOr("y", 9.0), 9.0);
    EXPECT_EQ(v.stringOr("s", "d"), "hey");
    EXPECT_EQ(v.stringOr("t", "d"), "d");
    EXPECT_TRUE(v.booleanOr("b", false));
    EXPECT_TRUE(v.booleanOr("c", true));
}

TEST(JsonValue, SetOverwritesAndPreservesOrder)
{
    Value obj = Value::makeObject();
    obj.set("z", 1);
    obj.set("a", 2);
    obj.set("z", 3);
    EXPECT_EQ(obj.size(), 2u);
    EXPECT_EQ(obj.members()[0].first, "z");
    EXPECT_DOUBLE_EQ(obj.at("z").asNumber(), 3.0);
}

TEST(JsonDump, RoundTripsStructures)
{
    const std::string text =
        R"({"a":[1,2.5,"x"],"b":{"c":true,"d":null}})";
    const Value doc = parse(text);
    EXPECT_EQ(parse(doc.dump()), doc);
    EXPECT_EQ(parse(doc.dump(true)), doc);
}

TEST(JsonDump, EscapesSpecialCharacters)
{
    const Value v(std::string("a\"b\\c\nd"));
    EXPECT_EQ(parse(v.dump()), v);
}

TEST(JsonDump, IntegersPrintWithoutFraction)
{
    EXPECT_EQ(Value(42.0).dump(), "42");
    EXPECT_EQ(Value(-7).dump(), "-7");
}

TEST(JsonDump, PrettyPrintIndents)
{
    Value obj = Value::makeObject();
    obj.set("k", 1);
    EXPECT_EQ(obj.dump(true), "{\n    \"k\": 1\n}");
}

TEST(JsonFile, WriteAndParseFile)
{
    const std::string path =
        ::testing::TempDir() + "/ecochip_json_test.json";
    Value obj = Value::makeObject();
    obj.set("answer", 42);
    writeFile(obj.dump(true), path);
    EXPECT_EQ(parseFile(path), obj);
    std::ifstream in(path, std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(text, "{\n    \"answer\": 42\n}\n");
    std::remove(path.c_str());
}

TEST(JsonFile, FailedWriteThrowsNamingThePath)
{
    const std::string dir_path =
        ::testing::TempDir() + "/no_such_dir/out.json";
    try {
        writeFile("{}", dir_path);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "config error: cannot write JSON file: " +
                      dir_path);
    }
    // Opening succeeds but the bytes never land: the flush must
    // report it.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full";
    try {
        writeFile("{}", "/dev/full");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "config error: cannot write JSON file: "
                  "/dev/full");
    }
}

TEST(JsonFile, WritesPiecesInOrderAsOneDocument)
{
    const std::string path =
        ::testing::TempDir() + "/ecochip_json_pieces.json";
    writeFile(std::vector<std::string_view>{"[1,", "", "{\"a\":2}", "]"},
              path);
    std::ifstream in(path, std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(text, "[1,{\"a\":2}]\n");

    // More pieces than three writev calls take (IOV_MAX each),
    // every fifth one empty.
    std::vector<std::string> texts;
    std::string expected;
    for (std::size_t i = 0; i < 3 * IOV_MAX + IOV_MAX / 2; ++i) {
        texts.push_back(i % 5 == 0
                            ? std::string()
                            : std::string(i % 13, char('a' + i % 26)));
        expected += texts.back();
    }
    writeFile(std::vector<std::string_view>(texts.begin(), texts.end()),
              path);
    std::ifstream many(path, std::ios::binary);
    EXPECT_EQ(std::string(std::istreambuf_iterator<char>(many),
                          std::istreambuf_iterator<char>()),
              expected + "\n");
    std::remove(path.c_str());
}

TEST(JsonFile, NewFileGetsTheModeOfstreamGives)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        "ecochip_json_mode";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::ofstream(dir / "ofstream.json") << "{}\n";
    writeFile("{}", (dir / "written.json").string());
    const auto perms = [](const std::filesystem::path &path) {
        return std::filesystem::status(path).permissions();
    };
    EXPECT_EQ(perms(dir / "written.json"),
              perms(dir / "ofstream.json"));
    std::filesystem::remove_all(dir);
}

TEST(JsonFile, MissingFileThrows)
{
    EXPECT_THROW(parseFile("/nonexistent/nope.json"), ConfigError);
}

TEST(JsonValue, Equality)
{
    EXPECT_EQ(parse("[1,2]"), parse("[1, 2]"));
    EXPECT_FALSE(parse("[1,2]") == parse("[2,1]"));
    EXPECT_FALSE(Value(1.0) == Value("1"));
}

// ---------------------------------------------------------------
// Streaming writer
// ---------------------------------------------------------------

TEST(StreamWriter, MatchesDumpForScalars)
{
    StreamWriter writer;
    writer.null();
    EXPECT_EQ(writer.take(), "null");
    writer.boolean(true);
    EXPECT_EQ(writer.take(), "true");
    writer.number(42.0);
    EXPECT_EQ(writer.take(), "42");
    writer.string("a\"b");
    EXPECT_EQ(writer.take(), R"("a\"b")");
}

TEST(StreamWriter, MatchesDumpForContainers)
{
    const Value doc = reference::parse(
        R"({"a":[1,2.5,"x"],"b":{"c":true,"d":null},"e":[],"f":{}})");
    StreamWriter compact;
    appendValue(compact, doc);
    EXPECT_EQ(compact.take(), reference::dump(doc, false));
    StreamWriter pretty(true);
    appendValue(pretty, doc);
    EXPECT_EQ(pretty.take(), reference::dump(doc, true));
    EXPECT_EQ(doc.dump(false), reference::dump(doc, false));
    EXPECT_EQ(doc.dump(true), reference::dump(doc, true));
}

TEST(StreamWriter, EmptyContainersMatchDump)
{
    StreamWriter pretty(true);
    pretty.beginObject();
    pretty.key("a");
    pretty.beginArray();
    pretty.endArray();
    pretty.key("b");
    pretty.beginObject();
    pretty.endObject();
    pretty.endObject();
    EXPECT_EQ(pretty.take(),
              reference::dump(
                  reference::parse(R"({"a":[],"b":{}})"), true));
}

TEST(StreamWriter, TakeResetsForReuse)
{
    StreamWriter writer;
    writer.beginArray();
    writer.number(1);
    writer.endArray();
    EXPECT_EQ(writer.take(), "[1]");
    writer.beginObject();
    writer.key("k");
    writer.string("v");
    writer.endObject();
    EXPECT_EQ(writer.take(), R"({"k":"v"})");
}

TEST(StreamWriter, RawSplicesVerbatim)
{
    StreamWriter writer;
    writer.beginObject();
    writer.key("payload");
    writer.raw(R"([1,{"x":true}])");
    writer.endObject();
    EXPECT_EQ(writer.take(), R"({"payload":[1,{"x":true}]})");
}

TEST(StreamWriter, PlaceholderSplicesABaseDepthDocumentLikeOneWriter)
{
    // The whole document from one writer ...
    StreamWriter whole(true);
    whole.beginObject();
    whole.key("items");
    whole.beginArray();
    for (int i = 0; i < 3; ++i) {
        whole.beginObject();
        whole.key("i");
        whole.number(i);
        whole.key("empty");
        whole.beginArray();
        whole.endArray();
        whole.endObject();
    }
    whole.endArray();
    whole.endObject();
    const std::string expected = whole.take();

    // ... equals a frame with placeholders, spliced with items
    // each written at the placeholder's depth.
    StreamWriter frame(true);
    frame.beginObject();
    frame.key("items");
    frame.beginArray();
    std::vector<std::size_t> slots;
    std::vector<std::string> items;
    for (int i = 0; i < 3; ++i) {
        slots.push_back(frame.placeholder());
        StreamWriter item(true, frame.depth());
        item.beginObject();
        item.key("i");
        item.number(i);
        item.key("empty");
        item.beginArray();
        item.endArray();
        item.endObject();
        items.push_back(item.take());
    }
    frame.endArray();
    frame.endObject();
    const std::string text = frame.take();
    std::string spliced;
    std::size_t from = 0;
    for (std::size_t i = 0; i < slots.size(); ++i) {
        spliced += text.substr(from, slots[i] - from);
        spliced += items[i];
        from = slots[i];
    }
    spliced += text.substr(from);
    EXPECT_EQ(spliced, expected);

    // The base depth indents pretty output only.
    StreamWriter compact(false, 2);
    compact.beginArray();
    compact.number(1);
    compact.endArray();
    EXPECT_EQ(compact.take(), "[1]");
}

TEST(StreamWriter, ScopeViolationsThrow)
{
    {
        StreamWriter writer;
        EXPECT_THROW(writer.endObject(), ModelError);
    }
    {
        StreamWriter writer;
        writer.beginArray();
        EXPECT_THROW(writer.key("k"), ModelError);
    }
    {
        StreamWriter writer;
        writer.beginObject();
        EXPECT_THROW(writer.number(1), ModelError);
    }
    {
        StreamWriter writer;
        writer.beginArray();
        EXPECT_THROW(writer.take(), ModelError);
    }
}

// The wire-path escaping contract: `json::dump` and the streaming
// writer agree byte-for-byte on every control character below
// 0x20 -- golden spellings, one per character.
TEST(StreamWriter, ControlCharacterEscapesMatchDumpGolden)
{
    const char *golden[32] = {
        "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004",
        "\\u0005", "\\u0006", "\\u0007", "\\b",     "\\t",
        "\\n",     "\\u000b", "\\f",     "\\r",     "\\u000e",
        "\\u000f", "\\u0010", "\\u0011", "\\u0012", "\\u0013",
        "\\u0014", "\\u0015", "\\u0016", "\\u0017", "\\u0018",
        "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d",
        "\\u001e", "\\u001f"};
    for (int c = 0; c < 32; ++c) {
        const std::string raw(1, static_cast<char>(c));
        std::string expected = "\"";
        expected += golden[c];
        expected += '"';
        EXPECT_EQ(Value(raw).dump(false), expected)
            << "dump of control char " << c;
        StreamWriter writer;
        writer.string(raw);
        EXPECT_EQ(writer.take(), expected)
            << "writer output for control char " << c;
        // And the escape parses back to the original byte --
        // through both parsers.
        EXPECT_EQ(parse(expected).asString(), raw);
        ondemand::Scanner scanner(expected);
        EXPECT_EQ(scanner.string(), raw);
    }
}

// ---------------------------------------------------------------
// On-demand scanner
// ---------------------------------------------------------------

TEST(Ondemand, ScansScalars)
{
    {
        ondemand::Scanner s("true");
        EXPECT_TRUE(s.boolean());
    }
    {
        ondemand::Scanner s("-3.25");
        EXPECT_DOUBLE_EQ(s.number(), -3.25);
    }
    {
        ondemand::Scanner s(R"("a\nb")");
        EXPECT_EQ(s.string(), "a\nb");
    }
    {
        ondemand::Scanner s(" null ");
        s.null();
        s.expectEnd();
    }
}

TEST(Ondemand, IteratesObjectsAndArrays)
{
    ondemand::Scanner s(
        R"({"name":"soc","areas":[10.5,20],"ok":true})");
    s.beginObject();
    std::string key;
    ASSERT_TRUE(s.nextMember(key));
    EXPECT_EQ(key, "name");
    EXPECT_EQ(s.string(), "soc");
    ASSERT_TRUE(s.nextMember(key));
    EXPECT_EQ(key, "areas");
    s.beginArray();
    ASSERT_TRUE(s.nextElement());
    EXPECT_DOUBLE_EQ(s.number(), 10.5);
    ASSERT_TRUE(s.nextElement());
    EXPECT_DOUBLE_EQ(s.number(), 20.0);
    EXPECT_FALSE(s.nextElement());
    ASSERT_TRUE(s.nextMember(key));
    EXPECT_EQ(key, "ok");
    EXPECT_TRUE(s.boolean());
    EXPECT_FALSE(s.nextMember(key));
    s.expectEnd();
}

TEST(Ondemand, RawValueYieldsSpans)
{
    ondemand::Scanner s(R"([ {"a": 1} , [2, 3] , "x" ])");
    s.beginArray();
    ASSERT_TRUE(s.nextElement());
    EXPECT_EQ(s.rawValue(), R"({"a": 1})");
    ASSERT_TRUE(s.nextElement());
    EXPECT_EQ(s.rawValue(), "[2, 3]");
    ASSERT_TRUE(s.nextElement());
    EXPECT_EQ(s.rawValue(), "\"x\"");
    EXPECT_FALSE(s.nextElement());
    s.expectEnd();
}

TEST(Ondemand, FindMemberSeeksWithoutMaterializing)
{
    const std::string doc =
        R"({"request":{"kind":"estimate"},"ok":false,"error":"boom"})";
    const auto request = ondemand::findMember(doc, "request");
    ASSERT_TRUE(request.has_value());
    EXPECT_EQ(*request, R"({"kind":"estimate"})");
    EXPECT_FALSE(
        ondemand::findMember(doc, "missing").has_value());
    EXPECT_FALSE(ondemand::booleanField(doc, "ok", true));
    EXPECT_TRUE(ondemand::booleanField(doc, "absent", true));
    // Type mismatch carries the same message as booleanOr.
    try {
        ondemand::booleanField(doc, "error", false);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what())
                      .find("expected boolean, got string"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Ondemand, ReserializeMatchesParseDump)
{
    const std::string text =
        "{\n  // comment\n  \"a\": [1, 2.50, \"x\\u0041\"],\n"
        "  \"b\": {\"c\": true, \"d\": null}\n}";
    const Value doc = reference::parse(text);
    EXPECT_EQ(ondemand::reserialize(text, false),
              reference::dump(doc, false));
    EXPECT_EQ(ondemand::reserialize(text, true),
              reference::dump(doc, true));
    EXPECT_EQ(parse(text), doc);
}

TEST(Ondemand, RejectsDuplicateKeysLikeDom)
{
    EXPECT_THROW(ondemand::validate(R"({"a":1,"a":2})"),
                 ConfigError);
    EXPECT_THROW(parse(R"({"a":1,"a":2})"), ConfigError);
}

// Malformed-input matrix: every case rejects with a
// position-bearing error from the scanner, `parse` and the
// reference parser alike, and the scanner never reads past the
// buffer (the ASan CI job runs this file).
TEST(Ondemand, MalformedInputMatrixRejectsWithPositions)
{
    const char *cases[] = {
        "",                     // empty document
        "   ",                  // only whitespace
        "// comment only",      // comment, no value
        "{",                    // truncated object
        "[1, 2",                // truncated array
        "{\"a\": 1",            // object cut mid-member
        "{\"a\"",               // object cut before colon
        "{\"a\": }",            // missing value
        "[1, ]",                // trailing comma
        "{\"a\": 1,}",          // trailing comma in object
        "[1} ",                 // mismatched brackets
        "{\"a\": 1]",           // mismatched brackets
        "\"unterminated",       // unterminated string
        "\"bad \\x escape\"",   // unknown escape
        "\"\\u12\"",            // short \u escape
        "\"\\u12zz\"",          // non-hex \u escape
        "\"raw \x01 control\"", // raw control char in string
        "tru",                  // truncated keyword
        "nul",                  // truncated keyword
        "+1",                   // leading plus
        "1.",                   // digitless fraction
        ".5",                   // digitless integer part
        "1e",                   // digitless exponent
        "1e+",                  // digitless signed exponent
        "1.2.3",                // overlong number
        "0x10",                 // hex is not JSON
        "1e999",                // out-of-range magnitude
        "-1e999",               // out-of-range magnitude
        "{} extra",             // trailing garbage
        "[1] [2]",              // two documents
    };
    for (const char *text : cases) {
        // The reference parser rejects...
        std::string dom_error;
        try {
            reference::parse(text);
        } catch (const ConfigError &e) {
            dom_error = e.what();
        }
        ASSERT_FALSE(dom_error.empty())
            << "reference accepted: " << text;
        EXPECT_EQ(errorOf([&] { parse(text); }), dom_error)
            << "input: " << text;
        // ...the scanner rejects with the identical message...
        std::string scan_error;
        try {
            ondemand::validate(text);
        } catch (const ConfigError &e) {
            scan_error = e.what();
        }
        ASSERT_FALSE(scan_error.empty())
            << "scanner accepted: " << text;
        EXPECT_EQ(scan_error, dom_error) << "input: " << text;
        // ...and the message carries a position.
        EXPECT_NE(scan_error.find("line "), std::string::npos)
            << scan_error;
        EXPECT_NE(scan_error.find("column "), std::string::npos)
            << scan_error;
    }
}

TEST(Ondemand, NeverReadsPastAnUnterminatedBuffer)
{
    // A document sliced at every prefix length must either parse
    // (never happens for proper prefixes of this doc) or throw --
    // ASan verifies no read walks off the end of the heap
    // allocation backing the string_view.
    const std::string doc =
        R"({"a": [1, 2.5e3, "x\u0041\n"], "b": {"c": true}})";
    for (std::size_t len = 0; len < doc.size(); ++len) {
        const std::string prefix = doc.substr(0, len);
        EXPECT_THROW(ondemand::validate(prefix), ConfigError)
            << "prefix length " << len;
    }
    ondemand::validate(doc);
}

TEST(Ondemand, NumberRangeChecksMatchDom)
{
    // Overflow: both parsers reject positionally.
    EXPECT_THROW(parse("1e999"), ConfigError);
    EXPECT_THROW(ondemand::validate("1e999"), ConfigError);
    // Quiet underflow: both parsers accept (denormal or zero).
    EXPECT_DOUBLE_EQ(parse("1e-999").asNumber(), 0.0);
    ondemand::Scanner s("1e-999");
    EXPECT_DOUBLE_EQ(s.number(), 0.0);
}

} // namespace
} // namespace ecochip::json
