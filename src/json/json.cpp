#include "json/json.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "support/error.h"

namespace ecochip::json {

const char *
typeName(Type type)
{
    switch (type) {
      case Type::Null: return "null";
      case Type::Boolean: return "boolean";
      case Type::Number: return "number";
      case Type::String: return "string";
      case Type::Array: return "array";
      case Type::Object: return "object";
    }
    return "unknown";
}

namespace {

[[noreturn]] void
typeError(Type want, Type got)
{
    throw ConfigError(std::string("JSON type mismatch: expected ") +
                      typeName(want) + ", got " + typeName(got));
}

} // namespace

Value
Value::makeArray()
{
    Value v;
    v.type_ = Type::Array;
    return v;
}

Value
Value::makeArray(std::vector<Value> elements)
{
    Value v;
    v.type_ = Type::Array;
    v.array_ = std::move(elements);
    return v;
}

Value
Value::makeObject()
{
    Value v;
    v.type_ = Type::Object;
    return v;
}

bool
Value::asBoolean() const
{
    if (type_ != Type::Boolean)
        typeError(Type::Boolean, type_);
    return boolean_;
}

double
Value::asNumber() const
{
    if (type_ != Type::Number)
        typeError(Type::Number, type_);
    return number_;
}

std::int64_t
Value::asInteger() const
{
    const double n = asNumber();
    const double rounded = std::round(n);
    requireConfig(std::abs(n - rounded) < 1e-9,
                  "JSON number is not an integer: " +
                      std::to_string(n));
    return static_cast<std::int64_t>(rounded);
}

const std::string &
Value::asString() const
{
    if (type_ != Type::String)
        typeError(Type::String, type_);
    return string_;
}

const std::vector<Value> &
Value::asArray() const
{
    if (type_ != Type::Array)
        typeError(Type::Array, type_);
    return array_;
}

std::vector<Value> &
Value::asArray()
{
    if (type_ != Type::Array)
        typeError(Type::Array, type_);
    return array_;
}

const std::vector<Member> &
Value::members() const
{
    if (type_ != Type::Object)
        typeError(Type::Object, type_);
    return object_;
}

bool
Value::contains(const std::string &key) const
{
    if (type_ != Type::Object)
        return false;
    for (const auto &[name, value] : object_)
        if (name == key)
            return true;
    return false;
}

const Value &
Value::at(const std::string &key) const
{
    if (type_ != Type::Object)
        typeError(Type::Object, type_);
    for (const auto &[name, value] : object_)
        if (name == key)
            return value;
    throw ConfigError("missing JSON key: \"" + key + "\"");
}

double
Value::numberOr(const std::string &key, double fallback) const
{
    return contains(key) ? at(key).asNumber() : fallback;
}

std::string
Value::stringOr(const std::string &key,
                const std::string &fallback) const
{
    return contains(key) ? at(key).asString() : fallback;
}

bool
Value::booleanOr(const std::string &key, bool fallback) const
{
    return contains(key) ? at(key).asBoolean() : fallback;
}

void
Value::set(const std::string &key, Value value)
{
    if (type_ == Type::Null)
        type_ = Type::Object;
    if (type_ != Type::Object)
        typeError(Type::Object, type_);
    for (auto &[name, existing] : object_) {
        if (name == key) {
            existing = std::move(value);
            return;
        }
    }
    object_.emplace_back(key, std::move(value));
}

void
Value::append(Value element)
{
    if (type_ == Type::Null)
        type_ = Type::Array;
    if (type_ != Type::Array)
        typeError(Type::Array, type_);
    array_.push_back(std::move(element));
}

std::size_t
Value::size() const
{
    if (type_ == Type::Array)
        return array_.size();
    if (type_ == Type::Object)
        return object_.size();
    throw ConfigError("size() on non-container JSON value");
}

const Value &
Value::operator[](std::size_t index) const
{
    const auto &arr = asArray();
    requireConfig(index < arr.size(),
                  "JSON array index out of range");
    return arr[index];
}

bool
Value::operator==(const Value &other) const
{
    if (type_ != other.type_)
        return false;
    switch (type_) {
      case Type::Null: return true;
      case Type::Boolean: return boolean_ == other.boolean_;
      case Type::Number: return number_ == other.number_;
      case Type::String: return string_ == other.string_;
      case Type::Array: return array_ == other.array_;
      case Type::Object: return object_ == other.object_;
    }
    return false;
}

void
escapeStringTo(std::string &out, std::string_view s)
{
    out += '"';
    // Copy maximal runs of chars that need no escaping in one
    // append; only '"', '\\', and controls < 0x20 break a run.
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const unsigned char c =
            static_cast<unsigned char>(s[i]);
        if (c != '"' && c != '\\' && c >= 0x20)
            continue;
        out.append(s.data() + run, i - run);
        switch (s[i]) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default: {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          }
        }
        run = i + 1;
    }
    out.append(s.data() + run, s.size() - run);
    out += '"';
}

void
appendNumber(std::string &out, double n)
{
    char buf[48]; // the longest %.17g spelling takes 24
    char *const last = buf + sizeof(buf);
    if (std::abs(n) < 1e15 &&
        n == static_cast<double>(static_cast<long long>(n))) {
        // Integral: the %.0f spelling, no fraction. -0.0 keeps
        // its sign ("-0"), which reads back as -0.0.
        char *first = buf;
        if (n == 0.0 && std::signbit(n))
            *first++ = '-';
        out.append(buf, std::to_chars(first, last,
                                      static_cast<long long>(n))
                            .ptr);
        return;
    }
    // The digit count of the shortest round-trip spelling picks
    // the %g precision, so one formatting step usually suffices.
    // Exponent digits count too: the written bytes depend on it.
    const char *const shortest_end = std::to_chars(buf, last, n).ptr;
    int digits = 0;
    bool seen_nonzero = false;
    bool positional = true; // no '.'/exponent: integer spelling
    for (const char *p = buf; p != shortest_end; ++p) {
        if (*p == 'e' || *p == '.') {
            positional = false;
            continue;
        }
        if (*p < '0' || *p > '9')
            continue;
        if (*p == '0' && !seen_nonzero)
            continue; // leading zeros are not significant
        seen_nonzero = true;
        ++digits;
    }
    if (positional) // trailing zeros of an integer are positional
        for (const char *p = shortest_end - 1;
             p != buf && *p == '0'; --p)
            --digits;

    const auto spell = [&](int precision) {
        return std::to_chars(buf, last, n,
                             std::chars_format::general, precision)
            .ptr;
    };
    const auto reads_back = [&](const char *end) {
        double back = 0.0;
        return std::from_chars(buf, end, back).ec == std::errc() &&
               back == n;
    };
    char *end = spell(std::clamp(digits, 15, 17));
    // At a power of two the correctly rounded 16-digit spelling
    // can fail to read back: take the first of 15, 16, 17 digits
    // that does (17 always does when finite).
    for (int p = 15; p <= 17 && !reads_back(end); ++p)
        end = spell(p);
    out.append(buf, end);
}

std::string
formatNumber(double n)
{
    std::string out;
    appendNumber(out, n);
    return out;
}

double
numberFromToken(std::string_view token, bool *out_of_range)
{
    double value = 0.0;
    const char *const last = token.data() + token.size();
    const auto parsed = std::from_chars(token.data(), last, value);
    if (parsed.ec == std::errc() && parsed.ptr == last) {
        if (out_of_range)
            *out_of_range = false;
        return value;
    }
    // Overflow and underflow (zero or denormal results) keep
    // strtod's semantics; strtod needs NUL termination.
    const std::string buf(token);
    errno = 0;
    value = std::strtod(buf.c_str(), nullptr);
    if (out_of_range)
        *out_of_range = errno == ERANGE &&
                        (value == HUGE_VAL || value == -HUGE_VAL);
    return value;
}

void
Value::dumpTo(std::string &out, bool pretty, int depth) const
{
    const std::string indent =
        pretty ? std::string(4 * (depth + 1), ' ') : "";
    const std::string closing_indent =
        pretty ? std::string(4 * depth, ' ') : "";
    const char *nl = pretty ? "\n" : "";
    const char *colon = pretty ? ": " : ":";

    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Boolean:
        out += boolean_ ? "true" : "false";
        break;
      case Type::Number:
        appendNumber(out, number_);
        break;
      case Type::String:
        escapeStringTo(out, string_);
        break;
      case Type::Array:
        if (array_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        out += nl;
        for (std::size_t i = 0; i < array_.size(); ++i) {
            out += indent;
            array_[i].dumpTo(out, pretty, depth + 1);
            if (i + 1 < array_.size())
                out += ',';
            out += nl;
        }
        out += closing_indent;
        out += ']';
        break;
      case Type::Object:
        if (object_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        out += nl;
        for (std::size_t i = 0; i < object_.size(); ++i) {
            out += indent;
            escapeStringTo(out, object_[i].first);
            out += colon;
            object_[i].second.dumpTo(out, pretty, depth + 1);
            if (i + 1 < object_.size())
                out += ',';
            out += nl;
        }
        out += closing_indent;
        out += '}';
        break;
    }
}

std::string
Value::dump(bool pretty) const
{
    std::string out;
    dumpTo(out, pretty, 0);
    return out;
}

namespace {

/**
 * Recursive-descent JSON parser with position tracking for error
 * messages.
 */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value
    parseDocument()
    {
        skipWhitespace();
        Value v = parseValue();
        skipWhitespace();
        if (pos_ != text_.size())
            fail("trailing characters after JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &message) const
    {
        std::size_t line = 1, col = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        throw ConfigError("JSON parse error at line " +
                          std::to_string(line) + ", column " +
                          std::to_string(col) + ": " + message);
    }

    bool atEnd() const { return pos_ >= text_.size(); }

    char
    peek() const
    {
        if (atEnd())
            fail("unexpected end of input");
        return text_[pos_];
    }

    char
    advance()
    {
        const char c = peek();
        ++pos_;
        return c;
    }

    void
    expect(char c)
    {
        if (atEnd() || text_[pos_] != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    void
    skipWhitespace()
    {
        while (!atEnd()) {
            const char c = text_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
                ++pos_;
            } else if (c == '/' && pos_ + 1 < text_.size() &&
                       text_[pos_ + 1] == '/') {
                // Tolerate //-comments: config files in the wild
                // often carry them.
                while (!atEnd() && text_[pos_] != '\n')
                    ++pos_;
            } else {
                break;
            }
        }
    }

    Value
    parseValue()
    {
        skipWhitespace();
        const char c = peek();
        switch (c) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return Value(parseString());
          case 't': case 'f': return parseBoolean();
          case 'n': return parseNull();
          default:
            if (c == '-' || (c >= '0' && c <= '9'))
                return parseNumber();
            fail("unexpected character");
        }
    }

    Value
    parseObject()
    {
        expect('{');
        Value obj = Value::makeObject();
        skipWhitespace();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        while (true) {
            skipWhitespace();
            if (peek() != '"')
                fail("expected object key string");
            std::string key = parseString();
            skipWhitespace();
            expect(':');
            Value v = parseValue();
            if (obj.contains(key))
                fail("duplicate object key: \"" + key + "\"");
            obj.set(key, std::move(v));
            skipWhitespace();
            const char c = advance();
            if (c == '}')
                return obj;
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    Value
    parseArray()
    {
        expect('[');
        Value arr = Value::makeArray();
        skipWhitespace();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            arr.append(parseValue());
            skipWhitespace();
            const char c = advance();
            if (c == ']')
                return arr;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (atEnd())
                fail("unterminated string");
            char c = advance();
            if (c == '"')
                return out;
            if (c == '\\') {
                const char esc = advance();
                switch (esc) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u': out += parseUnicodeEscape(); break;
                  default: fail("invalid escape sequence");
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                fail("raw control character in string");
            } else {
                out += c;
            }
        }
    }

    std::string
    parseUnicodeEscape()
    {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = advance();
            code <<= 4;
            if (c >= '0' && c <= '9')
                code += c - '0';
            else if (c >= 'a' && c <= 'f')
                code += c - 'a' + 10;
            else if (c >= 'A' && c <= 'F')
                code += c - 'A' + 10;
            else
                fail("invalid \\u escape");
        }
        // Encode the code point as UTF-8 (BMP only; surrogate pairs
        // are passed through as two separate escapes, adequate for
        // configuration files).
        std::string out;
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        }
        return out;
    }

    Value
    parseNumber()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        if (atEnd() || !std::isdigit(
                static_cast<unsigned char>(text_[pos_])))
            fail("invalid number");
        while (!atEnd() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        if (!atEnd() && text_[pos_] == '.') {
            ++pos_;
            if (atEnd() || !std::isdigit(
                    static_cast<unsigned char>(text_[pos_])))
                fail("digit required after decimal point");
            while (!atEnd() && std::isdigit(
                       static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (!atEnd() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (!atEnd() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (atEnd() || !std::isdigit(
                    static_cast<unsigned char>(text_[pos_])))
                fail("digit required in exponent");
            while (!atEnd() && std::isdigit(
                       static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        bool out_of_range = false;
        const double value = numberFromToken(
            std::string_view(text_).substr(start, pos_ - start),
            &out_of_range);
        if (out_of_range) {
            pos_ = start;
            fail("number out of range");
        }
        return Value(value);
    }

    Value
    parseBoolean()
    {
        if (text_.compare(pos_, 4, "true") == 0) {
            pos_ += 4;
            return Value(true);
        }
        if (text_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
            return Value(false);
        }
        fail("invalid literal");
    }

    Value
    parseNull()
    {
        if (text_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
            return Value();
        }
        fail("invalid literal");
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

Value
parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

Value
parseFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    requireConfig(static_cast<bool>(in),
                  "cannot open JSON file: " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse(buf.str());
}

void
writeFile(const Value &value, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    requireConfig(static_cast<bool>(out),
                  "cannot write JSON file: " + path);
    out << value.dump(true) << '\n';
}

} // namespace ecochip::json
