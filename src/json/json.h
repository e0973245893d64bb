/**
 * @file
 * Self-contained JSON value type, parser, and serializer.
 *
 * The reference ECO-CHIP artifact is driven by JSON configuration
 * files (architecture.json, packageC.json, designC.json,
 * operationalC.json). This module provides the equivalent substrate
 * with no external dependencies. `Value` is a read-side
 * convenience layered over the wire path: `parse` builds the tree
 * with the on-demand scanner (`json/ondemand.h`), the one JSON
 * grammar, with its line/column errors, and `Value::dump` emits it
 * through the streaming writer (`json/stream_writer.h`), the one
 * layout writer.
 *
 * Objects preserve insertion order so that serialized configs diff
 * cleanly against their sources.
 */

#ifndef ECOCHIP_JSON_JSON_H
#define ECOCHIP_JSON_JSON_H

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ecochip::json {

class Value;

/** Ordered key/value storage backing JSON objects. */
using Member = std::pair<std::string, Value>;

/** JSON type tags. */
enum class Type
{
    Null,
    Boolean,
    Number,
    String,
    Array,
    Object,
};

/** Human-readable name of a JSON type tag. */
const char *typeName(Type type);

/**
 * A dynamically typed JSON value.
 *
 * Accessors come in two flavors: checked (asNumber() etc., which
 * throw ConfigError on type mismatch -- config files are user input)
 * and interrogative (isNumber() etc.).
 */
class Value
{
  public:
    /** Construct a null value. */
    Value() : type_(Type::Null) {}

    /** Construct a boolean value. */
    Value(bool b) : type_(Type::Boolean), boolean_(b) {}

    /** Construct a number value from a double. */
    Value(double n) : type_(Type::Number), number_(n) {}

    /** Construct a number value from an int. */
    Value(int n) : type_(Type::Number), number_(n) {}

    /** Construct a number value from a long. */
    Value(long n)
        : type_(Type::Number), number_(static_cast<double>(n))
    {}

    /** Construct a string value. */
    Value(std::string s) : type_(Type::String), string_(std::move(s)) {}

    /** Construct a string value from a literal. */
    Value(const char *s) : type_(Type::String), string_(s) {}

    /** Build an empty array value. */
    static Value makeArray();

    /** Build an array from elements. */
    static Value makeArray(std::vector<Value> elements);

    /** Build an empty object value. */
    static Value makeObject();

    /** Type of this value. */
    Type type() const { return type_; }

    /** @{ @name Type predicates */
    bool isNull() const { return type_ == Type::Null; }
    bool isBoolean() const { return type_ == Type::Boolean; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }
    /** @} */

    /** Checked boolean access; throws ConfigError on mismatch. */
    bool asBoolean() const;

    /** Checked numeric access; throws ConfigError on mismatch. */
    double asNumber() const;

    /**
     * Checked integral access; throws ConfigError if the number is
     * not integral within rounding tolerance or lies outside
     * [-2^63, 2^63).
     */
    std::int64_t asInteger() const;

    /** Checked string access; throws ConfigError on mismatch. */
    const std::string &asString() const;

    /** Checked array access; throws ConfigError on mismatch. */
    const std::vector<Value> &asArray() const;

    /** Mutable checked array access. */
    std::vector<Value> &asArray();

    /** Checked object member list; throws ConfigError on mismatch. */
    const std::vector<Member> &members() const;

    /** True when the object has a member named @p key. */
    bool contains(const std::string &key) const;

    /**
     * Checked object member lookup.
     *
     * @param key Member name; missing keys throw ConfigError.
     */
    const Value &at(const std::string &key) const;

    /**
     * Optional lookup: returns @p fallback when the member is
     * missing (but still type-checks when present).
     */
    double numberOr(const std::string &key, double fallback) const;

    /** Optional string lookup with fallback. */
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const;

    /** Optional boolean lookup with fallback. */
    bool booleanOr(const std::string &key, bool fallback) const;

    /**
     * Insert or overwrite an object member.
     *
     * @param key Member name.
     * @param value Member value.
     */
    void set(const std::string &key, Value value);

    /** Append an element to an array value. */
    void append(Value element);

    /** Element count of an array or member count of an object. */
    std::size_t size() const;

    /** Checked array indexing. */
    const Value &operator[](std::size_t index) const;

    /**
     * Serialize to a JSON string: `appendValue` through a
     * `StreamWriter`.
     *
     * @param pretty When true, emit 4-space indented output.
     */
    std::string dump(bool pretty = false) const;

    /** Structural equality. */
    bool operator==(const Value &other) const;

  private:
    Type type_;
    bool boolean_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Value> array_;
    std::vector<Member> object_;
};

/**
 * Append the JSON spelling of @p n to @p out: no fraction for
 * integral values below 1e15 (`-0.0` is "-0"), otherwise the `%g`
 * spelling at 15, 16, or 17 significant digits that parses back
 * to the identical bits. The canonical number spelling shared by
 * serialized documents, the streaming writer
 * (`json/stream_writer.h`) and derived scenario names
 * (`search/scenario_space.h`).
 *
 * Formats with `std::to_chars` into a stack buffer, allocating
 * nothing besides @p out's growth. The precision is the digit
 * count of the shortest round-trip spelling clamped to [15, 17].
 * That count includes exponent digits, so a value whose shortest
 * spelling has an exponent usually gets 17 digits even when 15 or
 * 16 would read back. One `%.*g`-equivalent `to_chars` call writes
 * the text, and `std::from_chars` checks that it reads back; if
 * not, the first of 15, 16, 17 digits that does is used. The bytes
 * must stay identical to the printf-based spelling that files
 * already written carry (locked by
 * `JsonNumbers.SpellingMatchesLegacyPrintf`).
 */
void appendNumber(std::string &out, double n);

/** `appendNumber` into a fresh string. */
std::string formatNumber(double n);

/**
 * Append the JSON string literal for @p s (including the
 * surrounding quotes) to @p out: the one escaping routine, used
 * by `StreamWriter`.
 */
void escapeStringTo(std::string &out, std::string_view s);

/**
 * Decode a lexically valid JSON number token to a double.
 *
 * The on-demand scanner's number decoding. Parses the view in
 * place with `std::from_chars`; tokens it reports out of range go
 * through `strtod`, so underflow quietly returns the nearest
 * representable value (a denormal or zero) and overflow sets
 * @p out_of_range (when non-null) for the caller to report with
 * its own position context.
 */
double numberFromToken(std::string_view token,
                       bool *out_of_range = nullptr);

/**
 * Parse a JSON document into a tree, through `ondemand::Scanner`.
 *
 * @param text Complete JSON text.
 * @return The parsed root value.
 * @throws ConfigError with line/column context on malformed input.
 */
Value parse(const std::string &text);

/**
 * Parse the JSON document in a file.
 *
 * @param path Filesystem path to a JSON file.
 */
Value parseFile(const std::string &path);

/**
 * Write one finished JSON document to a file, followed by a
 * newline -- the one file writer every JSON file goes through.
 *
 * The bytes go out with `writev`, straight from the caller's
 * buffers, at most `IOV_MAX` pieces per call; a short or
 * interrupted (`EINTR`) call resumes where it stopped. A new
 * file gets the mode `std::ofstream` would give it (0666 less
 * the umask).
 *
 * @param text Serialized document (a `StreamWriter`'s output).
 * @param path Destination path (overwritten).
 * @throws ConfigError("cannot write JSON file: PATH") when the
 *         file cannot be opened, any byte fails to reach it, or
 *         closing it fails.
 */
void writeFile(std::string_view text, const std::string &path);

/**
 * Write one document held in consecutive pieces, in order and
 * followed by a newline, without joining them in memory first;
 * otherwise as `writeFile(text, path)`.
 */
void writeFile(const std::vector<std::string_view> &pieces,
               const std::string &path);

} // namespace ecochip::json

#endif // ECOCHIP_JSON_JSON_H
