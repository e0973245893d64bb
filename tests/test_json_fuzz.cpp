/**
 * @file
 * Randomized JSON property tests, two layers deep:
 *
 *  - **DOM round-trip fuzz**: structurally random documents
 *    generated with the deterministic RNG must survive
 *    dump -> parse -> dump unchanged, compact and pretty.
 *
 *  - **Differential fuzz** of the wire path: random JSON *text*
 *    (random whitespace, `//` comments, escapes, exotic numbers,
 *    multi-byte UTF-8) is fed to the on-demand scanner, to
 *    `json::parse` (built on it) and to the independent test-only
 *    reference parser (`support/reference_json.h`); they must
 *    agree byte-for-byte on every accepted document and reject the
 *    same mutated/truncated/duplicate-key inputs with the same
 *    message. The streaming writer (and so `dump`) is held to the
 *    reference serializer's bytes on every generated value.
 *
 *  - **Number spelling**: every writer spells numbers byte for
 *    byte like a test-only copy of the snprintf/strtod spelling
 *    the files on disk were written with.
 *
 * Every failure message carries the deterministic seed (and the
 * offending document), so any reported case replays exactly.
 * `ECOCHIP_FUZZ_CASES` scales the per-seed case count (default
 * keeps the default ctest run fast; CI's sanitizer job raises it).
 */

#include <algorithm>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "json/json.h"
#include "json/ondemand.h"
#include "json/stream_writer.h"
#include "support/error.h"
#include "support/reference_json.h"
#include "support/rng.h"

#ifndef ECOCHIP_DATA_DIR
#define ECOCHIP_DATA_DIR ""
#endif

namespace ecochip::json {
namespace {

/** Per-seed case count; override with ECOCHIP_FUZZ_CASES. */
int
casesPerSeed(int fallback)
{
    if (const char *env = std::getenv("ECOCHIP_FUZZ_CASES")) {
        const int n = std::atoi(env);
        if (n > 0)
            return n;
    }
    return fallback;
}

/** Generate a random JSON value with bounded depth. */
Value
randomValue(Rng &rng, int depth)
{
    const std::uint64_t pick = rng.next() % (depth <= 0 ? 4 : 6);
    switch (pick) {
      case 0:
        return Value(); // null
      case 1:
        return Value(rng.next() % 2 == 0);
      case 2: {
        // Mix of integral, fractional, negative, and extreme
        // magnitudes.
        switch (rng.next() % 4) {
          case 0:
            return Value(static_cast<double>(
                static_cast<std::int64_t>(rng.next() % 2000000) -
                1000000));
          case 1: return Value(rng.uniform(-1e6, 1e6));
          case 2: return Value(rng.uniform(-1e-6, 1e-6));
          default: return Value(rng.uniform(-1e18, 1e18));
        }
      }
      case 3: {
        // Strings with escapes and control characters.
        static const char alphabet[] =
            "abcXYZ019 _-\"\\\n\t\r/{}[]:,";
        std::string s;
        const std::uint64_t len = rng.next() % 12;
        for (std::uint64_t i = 0; i < len; ++i)
            s += alphabet[rng.next() % (sizeof(alphabet) - 1)];
        return Value(std::move(s));
      }
      case 4: {
        Value arr = Value::makeArray();
        const std::uint64_t len = rng.next() % 5;
        for (std::uint64_t i = 0; i < len; ++i)
            arr.append(randomValue(rng, depth - 1));
        return arr;
      }
      default: {
        Value obj = Value::makeObject();
        const std::uint64_t len = rng.next() % 5;
        for (std::uint64_t i = 0; i < len; ++i) {
            std::string key("k");
            key += std::to_string(i);
            obj.set(key, randomValue(rng, depth - 1));
        }
        return obj;
      }
    }
}

// ---------------------------------------------------------------
// Random JSON *text* generation -- exercises the surface syntax
// (whitespace, comments, escape spellings, number spellings) that
// Value-based generation can never produce.
// ---------------------------------------------------------------

/** Random run of legal inter-token whitespace, sometimes with a
 *  `//` line comment (the parser's documented tolerance). */
void
appendWhitespace(Rng &rng, std::string &out)
{
    static const char *kGaps[] = {"", " ", "  ", "\n", "\t",
                                  " \n  ", "\r\n"};
    out += kGaps[rng.next() % 7];
    if (rng.next() % 8 == 0)
        out += "// c o m m e n t\n";
}

/** Random JSON number token, exotic spellings included. */
void
appendNumberText(Rng &rng, std::string &out)
{
    switch (rng.next() % 8) {
      case 0: out += std::to_string(rng.next() % 1000); break;
      case 1:
        out += "-" + std::to_string(rng.next() % 1000);
        break;
      case 2:
        out += std::to_string(rng.next() % 100) + "." +
               std::to_string(rng.next() % 100000);
        break;
      case 3:
        out += std::to_string(rng.next() % 10) + "e" +
               (rng.next() % 2 ? "" : "-") +
               std::to_string(rng.next() % 300);
        break;
      case 4:
        out += std::to_string(rng.next() % 10) + "." +
               std::to_string(rng.next() % 1000) + "E+" +
               std::to_string(rng.next() % 30);
        break;
      case 5: out += "0"; break;
      case 6:
        // Leading zeros: a documented tolerance of this parser.
        out += "00" + std::to_string(rng.next() % 100);
        break;
      default:
        out += "-0." + std::to_string(rng.next() % 1000);
        break;
    }
}

/** Random string token: escapes, \uXXXX, raw multi-byte UTF-8. */
void
appendStringText(Rng &rng, std::string &out)
{
    out += '"';
    const std::uint64_t len = rng.next() % 10;
    for (std::uint64_t i = 0; i < len; ++i) {
        switch (rng.next() % 8) {
          case 0: out += static_cast<char>(
                      'a' + rng.next() % 26);
                  break;
          case 1: out += "\\n"; break;
          case 2: out += "\\\""; break;
          case 3: out += "\\\\"; break;
          case 4: out += "\\/"; break;
          case 5: {
            // BMP \u escape, avoiding the unsupported surrogate
            // range D800-DFFF.
            char buf[8];
            std::uint64_t cp = rng.next() % 0xFFFF;
            if (cp >= 0xD800 && cp <= 0xDFFF)
                cp -= 0x3000;
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(cp));
            out += buf;
            break;
          }
          case 6: out += "\xc3\xa9"; break;      // é (2-byte)
          default: out += "\xe2\x82\xac"; break; // € (3-byte)
        }
    }
    out += '"';
}

/** Random syntactically valid JSON value text. */
void
appendValueText(Rng &rng, std::string &out, int depth)
{
    appendWhitespace(rng, out);
    const std::uint64_t pick = rng.next() % (depth <= 0 ? 4 : 6);
    switch (pick) {
      case 0: out += "null"; break;
      case 1: out += rng.next() % 2 ? "true" : "false"; break;
      case 2: appendNumberText(rng, out); break;
      case 3: appendStringText(rng, out); break;
      case 4: {
        out += '[';
        const std::uint64_t len = rng.next() % 4;
        for (std::uint64_t i = 0; i < len; ++i) {
            if (i)
                out += ',';
            appendValueText(rng, out, depth - 1);
        }
        appendWhitespace(rng, out);
        out += ']';
        break;
      }
      default: {
        out += '{';
        const std::uint64_t len = rng.next() % 4;
        for (std::uint64_t i = 0; i < len; ++i) {
            if (i)
                out += ',';
            appendWhitespace(rng, out);
            out += "\"m" + std::to_string(i) + "\"";
            appendWhitespace(rng, out);
            out += ':';
            appendValueText(rng, out, depth - 1);
        }
        appendWhitespace(rng, out);
        out += '}';
        break;
      }
    }
    appendWhitespace(rng, out);
}

std::string
randomDocumentText(Rng &rng)
{
    std::string out;
    appendValueText(rng, out, 4);
    return out;
}

class JsonFuzzTest : public ::testing::TestWithParam<int>
{};

TEST_P(JsonFuzzTest, CompactRoundTripIsIdentity)
{
    const std::uint64_t seed =
        static_cast<std::uint64_t>(GetParam()) * 7919 + 13;
    Rng rng(seed);
    for (int i = 0; i < casesPerSeed(50); ++i) {
        const Value original = randomValue(rng, 4);
        const std::string text = original.dump(false);
        const Value reparsed = parse(text);
        ASSERT_EQ(reparsed, original)
            << "seed " << seed << ": " << text;
        // Idempotent: a second trip produces identical text.
        ASSERT_EQ(reparsed.dump(false), text)
            << "seed " << seed;
    }
}

TEST_P(JsonFuzzTest, PrettyRoundTripIsIdentity)
{
    const std::uint64_t seed =
        static_cast<std::uint64_t>(GetParam()) * 104729 + 7;
    Rng rng(seed);
    for (int i = 0; i < casesPerSeed(50); ++i) {
        const Value original = randomValue(rng, 4);
        const Value reparsed = parse(original.dump(true));
        ASSERT_EQ(reparsed, original) << "seed " << seed;
    }
}

// The streaming writer, and `dump` on top of it, are
// byte-identical to the reference serializer on every random
// document, compact and pretty.
TEST_P(JsonFuzzTest, WriterMatchesDumpOnRandomValues)
{
    const std::uint64_t seed =
        static_cast<std::uint64_t>(GetParam()) * 31337 + 3;
    Rng rng(seed);
    for (int i = 0; i < casesPerSeed(50); ++i) {
        const Value original = randomValue(rng, 4);
        const std::string want_compact =
            reference::dump(original, false);
        const std::string want_pretty =
            reference::dump(original, true);
        StreamWriter compact;
        appendValue(compact, original);
        ASSERT_EQ(compact.take(), want_compact) << "seed " << seed;
        StreamWriter pretty(true);
        appendValue(pretty, original);
        ASSERT_EQ(pretty.take(), want_pretty) << "seed " << seed;
        ASSERT_EQ(original.dump(false), want_compact)
            << "seed " << seed;
        ASSERT_EQ(original.dump(true), want_pretty)
            << "seed " << seed;
    }
}

// Differential core: on random *text*, the on-demand scanner's
// canonicalization equals the reference parse + dump, byte for
// byte, in both output modes, and `parse` builds the reference
// tree.
TEST_P(JsonFuzzTest, OndemandAgreesWithDomOnRandomText)
{
    const std::uint64_t seed =
        static_cast<std::uint64_t>(GetParam()) * 65537 + 101;
    Rng rng(seed);
    for (int i = 0; i < casesPerSeed(50); ++i) {
        const std::string text = randomDocumentText(rng);
        Value dom;
        std::string dom_error;
        try {
            dom = reference::parse(text);
        } catch (const ConfigError &e) {
            dom_error = e.what();
        }
        if (!dom_error.empty()) {
            // The generator should only emit valid documents;
            // surface the seed if that invariant ever breaks.
            FAIL() << "seed " << seed
                   << " generated an unparseable document: "
                   << dom_error << "\n"
                   << text;
        }
        ASSERT_EQ(ondemand::reserialize(text, false),
                  reference::dump(dom, false))
            << "seed " << seed << ": " << text;
        ASSERT_EQ(ondemand::reserialize(text, true),
                  reference::dump(dom, true))
            << "seed " << seed << ": " << text;
        ASSERT_EQ(parse(text), dom)
            << "seed " << seed << ": " << text;
    }
}

/** Outcome of one parse attempt: the compact canonical text, or
 *  the error message. */
struct ParseOutcome
{
    std::string error = "(accepted)";
    std::string dump;
};

template <typename Fn>
ParseOutcome
attempt(Fn &&fn)
{
    ParseOutcome outcome;
    try {
        outcome.dump = fn();
    } catch (const ConfigError &e) {
        outcome.error = e.what();
    }
    return outcome;
}

// Mutation agreement: truncate or corrupt random valid text, or
// repeat a key; the scanner, `parse` and the reference parser
// must agree on accept vs reject -- and when they reject, on the
// exact error message (position included).
TEST_P(JsonFuzzTest, OndemandAgreesWithDomOnMutatedText)
{
    const std::uint64_t seed =
        static_cast<std::uint64_t>(GetParam()) * 999983 + 29;
    Rng rng(seed);
    for (int i = 0; i < casesPerSeed(50); ++i) {
        std::string text = randomDocumentText(rng);
        switch (rng.next() % 4) {
          case 0: // truncate
            text = text.substr(0, rng.next() %
                                      (text.size() + 1));
            break;
          case 1: { // flip one byte to a random printable
            if (!text.empty())
                text[rng.next() % text.size()] =
                    static_cast<char>(' ' + rng.next() % 95);
            break;
          }
          case 2: // append garbage
            text += static_cast<char>(' ' + rng.next() % 95);
            break;
          default: { // re-use an earlier key of the same object
            // Object keys are "m0", "m1", ... in member order;
            // no other token has a quote, 'm' and a digit in a
            // row.
            std::vector<std::size_t> later_keys;
            for (std::size_t p = text.find("\"m");
                 p != std::string::npos && p + 3 < text.size();
                 p = text.find("\"m", p + 1))
                if (text[p + 2] >= '1' && text[p + 2] <= '9' &&
                    text[p + 3] == '"')
                    later_keys.push_back(p + 2);
            if (!later_keys.empty()) {
                const std::size_t at =
                    later_keys[rng.next() % later_keys.size()];
                text[at] = static_cast<char>(
                    '0' + rng.next() % (text[at] - '0'));
            }
            break;
          }
        }

        const ParseOutcome want = attempt([&] {
            return reference::dump(reference::parse(text), false);
        });
        const ParseOutcome scanned = attempt(
            [&] { return ondemand::reserialize(text, false); });
        const ParseOutcome built =
            attempt([&] { return parse(text).dump(false); });
        for (const ParseOutcome *got : {&scanned, &built}) {
            ASSERT_EQ(got->error, want.error)
                << "seed " << seed << ": " << text;
            ASSERT_EQ(got->dump, want.dump)
                << "seed " << seed << ": " << text;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzzTest,
                         ::testing::Range(0, 8));

// ---------------------------------------------------------------
// Number round-tripping property tests
// ---------------------------------------------------------------

/** Bitwise equality -- distinguishes -0.0 from 0.0 and survives
 *  exact denormal comparison. */
std::uint64_t
bits(double x)
{
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

void
expectNumberRoundTrips(double x, const std::string &where)
{
    const std::string text = formatNumber(x);
    // The writer, dump and the reference serializer agree on the
    // spelling.
    StreamWriter writer;
    writer.number(x);
    EXPECT_EQ(writer.take(), text) << where;
    EXPECT_EQ(Value(x).dump(false), text) << where;
    EXPECT_EQ(reference::dump(Value(x), false), text) << where;
    // parse(write(x)) == x, bitwise, through the reference parser
    // and the scanner.
    EXPECT_EQ(bits(reference::parse(text).asNumber()), bits(x))
        << where << ": " << text;
    ondemand::Scanner scanner(text);
    EXPECT_EQ(bits(scanner.number()), bits(x))
        << where << ": " << text;
}

/** Hand-picked boundary values for the number tests. */
const double kCornerValues[] = {
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.1,
    0.35,
    1.0 / 3.0,
    2.0 / 3.0,
    1e-5,
    -1e-5,
    3.14159265358979323846,
    6.02214076e23,
    1e15,          // integral fast-path boundary
    1e15 - 1.0,
    -1e15,
    9007199254740991.0,  // 2^53 - 1
    9007199254740993.0,  // first non-representable odd
    DBL_MAX,
    -DBL_MAX,
    DBL_MIN,             // smallest normal
    -DBL_MIN,
    5e-324,              // smallest denormal
    -5e-324,
    2.2250738585072011e-308, // near-denormal boundary
    1.7976931348623157e308,
    4.9406564584124654e-324,
    123456789.123456789,
    0.42187500000000006,
};

TEST(JsonNumbers, CornerValuesRoundTripBitwise)
{
    for (double x : kCornerValues)
        expectNumberRoundTrips(
            x, "corner value " + std::to_string(x));
}

TEST(JsonNumbers, RandomDoublesRoundTripBitwise)
{
    Rng rng(0xC0FFEE);
    for (int i = 0; i < casesPerSeed(500); ++i) {
        // Random finite bit patterns cover the full exponent
        // range, denormals included.
        std::uint64_t u = rng.next();
        double x;
        std::memcpy(&x, &u, sizeof x);
        if (!std::isfinite(x))
            continue; // JSON has no NaN/Inf spelling
        expectNumberRoundTrips(x, "random double #" +
                                      std::to_string(i));
    }
}

void
collectNumbers(const Value &value, std::vector<double> &out)
{
    if (value.isNumber()) {
        out.push_back(value.asNumber());
        return;
    }
    if (value.isArray())
        for (const auto &element : value.asArray())
            collectNumbers(element, out);
    if (value.isObject())
        for (const auto &member : value.members())
            collectNumbers(member.second, out);
}

/**
 * Every number in the JSON files of the shipped data/ tree: the
 * values the paper pipeline actually runs on. Empty when the tree
 * is unavailable; a tree that yields no numbers fails the caller.
 */
std::vector<double>
dataTreeNumbers()
{
    std::vector<double> numbers;
    const std::string root = ECOCHIP_DATA_DIR;
    if (root.empty() || !std::filesystem::exists(root))
        return numbers;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(root)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".json")
            collectNumbers(parseFile(entry.path().string()),
                           numbers);
    }
    if (numbers.empty())
        ADD_FAILURE() << "no JSON numbers under " << root;
    return numbers;
}

TEST(JsonNumbers, EveryDataTreeValueRoundTripsBitwise)
{
    const std::vector<double> numbers = dataTreeNumbers();
    if (numbers.empty())
        GTEST_SKIP() << "data directory unavailable";
    for (std::size_t i = 0; i < numbers.size(); ++i)
        expectNumberRoundTrips(numbers[i],
                               "data value #" +
                                   std::to_string(i));
}

/**
 * Reference copy of the printf-based number spelling the writer
 * must keep byte for byte: `%.0f` for integral values below 1e15;
 * otherwise `%.*g` at 15..17 digits, the precision guessed from
 * the digits of the shortest `std::to_chars` spelling (exponent
 * digits included) and confirmed by reading back with `strtod`,
 * else the first of 15, 16, 17 that reads back.
 */
std::string
legacySpelling(double n)
{
    char buf[40];
    if (n == std::floor(n) && std::abs(n) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", n);
        return buf;
    }
    char shortest[40];
    const auto conv = std::to_chars(
        shortest, shortest + sizeof(shortest), n);
    int digits = 0;
    bool seen_nonzero = false;
    bool positional = true;
    for (const char *p = shortest; p != conv.ptr; ++p) {
        if (*p == 'e' || *p == '.') {
            positional = false;
            continue;
        }
        if (*p < '0' || *p > '9')
            continue;
        if (*p == '0' && !seen_nonzero)
            continue;
        seen_nonzero = true;
        ++digits;
    }
    if (positional)
        for (const char *p = conv.ptr - 1;
             p != shortest && *p == '0'; --p)
            --digits;
    std::snprintf(buf, sizeof(buf), "%.*g",
                  std::clamp(digits, 15, 17), n);
    if (std::strtod(buf, nullptr) == n)
        return buf;
    for (int p = 15; p <= 17; ++p) {
        std::snprintf(buf, sizeof(buf), "%.*g", p, n);
        if (std::strtod(buf, nullptr) == n)
            break;
    }
    return buf;
}

void
expectLegacySpelling(double x)
{
    const std::string want = legacySpelling(x);
    char hex[40];
    std::snprintf(hex, sizeof(hex), "%a", x);
    EXPECT_EQ(formatNumber(x), want) << hex;
    StreamWriter writer;
    writer.number(x);
    EXPECT_EQ(writer.take(), want) << hex;
    EXPECT_EQ(Value(x).dump(false), want) << hex;
}

TEST(JsonNumbers, SpellingMatchesLegacyPrintf)
{
    for (double x : kCornerValues)
        expectLegacySpelling(x);

    // Powers of two are where a correctly rounded 16-digit
    // spelling can fail to read back; their neighbours differ in
    // the last bit.
    for (int e = -1074; e <= 1023; ++e)
        for (double sign : {1.0, -1.0}) {
            const double x = sign * std::ldexp(1.0, e);
            expectLegacySpelling(x);
            expectLegacySpelling(std::nextafter(x, 0.0));
            expectLegacySpelling(std::nextafter(x, sign * HUGE_VAL));
        }

    // The integral fast path ends at |x| = 1e15.
    for (double sign : {1.0, -1.0})
        for (int k = -64; k <= 64; ++k) {
            const double x = sign * (1e15 + k);
            expectLegacySpelling(x);
            expectLegacySpelling(x + sign * 0.5);
            expectLegacySpelling(std::nextafter(x, 0.0));
        }

    Rng rng(0x5EED);
    for (int i = 0; i < casesPerSeed(500); ++i) {
        const std::uint64_t u = rng.next();
        double x;
        std::memcpy(&x, &u, sizeof x);
        if (std::isfinite(x))
            expectLegacySpelling(x);
        // Integers of up to 53 bits scaled by 2^k: exact
        // integers, halves, and large round values.
        const auto mantissa = static_cast<std::int64_t>(
            rng.next() >> (11 + rng.next() % 53));
        const int k = static_cast<int>(rng.next() % 121) - 60;
        expectLegacySpelling(
            std::ldexp(static_cast<double>(mantissa), k) *
            (rng.next() % 2 == 0 ? 1.0 : -1.0));
    }

    for (double x : dataTreeNumbers())
        expectLegacySpelling(x);
}

} // namespace
} // namespace ecochip::json
