#include "json/ondemand.h"

#include <cctype>
#include <utility>

#include "support/error.h"

namespace ecochip::json::ondemand {

void
Scanner::fail(const std::string &message) const
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

char
Scanner::peek() const
{
    if (atEnd())
        fail("unexpected end of input");
    return text_[pos_];
}

char
Scanner::advance()
{
    const char c = peek();
    ++pos_;
    return c;
}

void
Scanner::expect(char c)
{
    if (atEnd() || text_[pos_] != c)
        fail(std::string("expected '") + c + "'");
    ++pos_;
}

void
Scanner::skipWhitespace()
{
    while (!atEnd()) {
        const char c = text_[pos_];
        if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
            ++pos_;
        } else if (c == '/' && pos_ + 1 < text_.size() &&
                   text_[pos_ + 1] == '/') {
            while (!atEnd() && text_[pos_] != '\n')
                ++pos_;
        } else {
            break;
        }
    }
}

std::string
Scanner::decodeString()
{
    if (!atEnd() && text_[pos_] == '"') {
        std::string_view content;
        if (fastScanString(content))
            return std::string(content);
    }
    expect('"');
    std::string out;
    while (true) {
        if (atEnd())
            fail("unterminated string");
        const char c = advance();
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
              case 'u': {
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = advance();
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += h - '0';
                    else if (h >= 'a' && h <= 'f')
                        code += h - 'a' + 10;
                    else if (h >= 'A' && h <= 'F')
                        code += h - 'A' + 10;
                    else
                        fail("invalid \\u escape");
                }
                // BMP-only UTF-8.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 |
                                             (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(
                        0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 |
                                             (code & 0x3F));
                }
                break;
              }
              default: fail("invalid escape sequence");
            }
        } else if (static_cast<unsigned char>(c) < 0x20) {
            fail("raw control character in string");
        } else {
            out += c;
        }
    }
}

bool
Scanner::fastScanString(std::string_view &content)
{
    // Escape-free fast path: one tight scan from the opening
    // quote. On the first backslash the cursor is left untouched
    // and the caller falls back to the decoding loop, so fail
    // positions stay byte-identical to decodeString()'s.
    std::size_t p = pos_ + 1;
    while (p < text_.size()) {
        const unsigned char c =
            static_cast<unsigned char>(text_[p]);
        if (c == '"') {
            content = text_.substr(pos_ + 1, p - pos_ - 1);
            pos_ = p + 1;
            return true;
        }
        if (c == '\\')
            return false;
        if (c < 0x20) {
            // decodeString fails after consuming the offender.
            pos_ = p + 1;
            fail("raw control character in string");
        }
        ++p;
    }
    pos_ = text_.size();
    fail("unterminated string");
}

void
Scanner::skipString()
{
    if (!atEnd() && text_[pos_] == '"') {
        if (std::string_view ignored; fastScanString(ignored))
            return;
    }
    expect('"');
    while (true) {
        if (atEnd())
            fail("unterminated string");
        const char c = advance();
        if (c == '"')
            return;
        if (c == '\\') {
            const char esc = advance();
            switch (esc) {
              case '"': case '\\': case '/': case 'n': case 't':
              case 'r': case 'b': case 'f':
                break;
              case 'u':
                for (int i = 0; i < 4; ++i) {
                    const char h = advance();
                    if (!std::isxdigit(
                            static_cast<unsigned char>(h)))
                        fail("invalid \\u escape");
                }
                break;
              default: fail("invalid escape sequence");
            }
        } else if (static_cast<unsigned char>(c) < 0x20) {
            fail("raw control character in string");
        }
    }
}

std::string_view
Scanner::numberToken()
{
    const std::size_t start = pos_;
    if (!atEnd() && text_[pos_] == '-')
        ++pos_;
    if (atEnd() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail("invalid number");
    while (!atEnd() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    if (!atEnd() && text_[pos_] == '.') {
        ++pos_;
        if (atEnd() ||
            !std::isdigit(
                static_cast<unsigned char>(text_[pos_])))
            fail("digit required after decimal point");
        while (!atEnd() &&
               std::isdigit(
                   static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }
    if (!atEnd() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
        ++pos_;
        if (!atEnd() &&
            (text_[pos_] == '+' || text_[pos_] == '-'))
            ++pos_;
        if (atEnd() ||
            !std::isdigit(
                static_cast<unsigned char>(text_[pos_])))
            fail("digit required in exponent");
        while (!atEnd() &&
               std::isdigit(
                   static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }
    return text_.substr(start, pos_ - start);
}

/**
 * Conservative overflow screen for a validated number token:
 * false means the value provably fits (integer digits plus the
 * explicit exponent stay far below DBL_MAX's 1.8e308), so the
 * strtod range check can be skipped. Underflow never rejects, so
 * only the overflow side matters.
 */
static bool
mightOverflow(std::string_view token)
{
    std::size_t i = token.front() == '-' ? 1 : 0;
    long int_digits = 0;
    while (i < token.size() && token[i] >= '0' &&
           token[i] <= '9') {
        ++int_digits;
        ++i;
    }
    if (i < token.size() && token[i] == '.') {
        ++i;
        while (i < token.size() && token[i] >= '0' &&
               token[i] <= '9')
            ++i;
    }
    long exponent = 0;
    if (i < token.size() &&
        (token[i] == 'e' || token[i] == 'E')) {
        ++i;
        bool negative = false;
        if (i < token.size() &&
            (token[i] == '+' || token[i] == '-')) {
            negative = token[i] == '-';
            ++i;
        }
        while (i < token.size() && exponent < 100000) {
            exponent = exponent * 10 + (token[i] - '0');
            ++i;
        }
        if (negative)
            return false; // shrinking: can only underflow
    }
    return int_digits + exponent > 305;
}

void
Scanner::skipNumber()
{
    const std::size_t start = pos_;
    const std::string_view token = numberToken();
    if (mightOverflow(token)) {
        bool out_of_range = false;
        numberFromToken(token, &out_of_range);
        if (out_of_range) {
            pos_ = start;
            fail("number out of range");
        }
    }
}

void
Scanner::skipValue()
{
    skipWhitespace();
    const char c = peek();
    switch (c) {
      case '{': {
        ++pos_;
        skipWhitespace();
        if (peek() == '}') {
            ++pos_;
            return;
        }
        // Duplicate detection on decoded names, allocating only
        // for the rare key that actually contains escapes: an
        // escape-free key's raw bytes ARE its decoded form, so
        // raw-span comparison is exact for them.
        struct SkipKey
        {
            std::string_view raw;
            std::string owned;
            bool escaped;
            std::string_view content() const
            {
                return escaped ? std::string_view(owned) : raw;
            }
        };
        std::vector<SkipKey> keys;
        while (true) {
            skipWhitespace();
            if (peek() != '"')
                fail("expected object key string");
            SkipKey entry;
            if (fastScanString(entry.raw)) {
                entry.escaped = false;
            } else {
                entry.owned = decodeString();
                entry.escaped = true;
            }
            for (const auto &seen : keys)
                if (seen.content() == entry.content())
                    fail("duplicate object key: \"" +
                         std::string(entry.content()) + "\"");
            keys.push_back(std::move(entry));
            skipWhitespace();
            expect(':');
            skipValue();
            skipWhitespace();
            const char d = advance();
            if (d == '}')
                return;
            if (d != ',')
                fail("expected ',' or '}' in object");
        }
      }
      case '[': {
        ++pos_;
        skipWhitespace();
        if (peek() == ']') {
            ++pos_;
            return;
        }
        while (true) {
            skipValue();
            skipWhitespace();
            const char d = advance();
            if (d == ']')
                return;
            if (d != ',')
                fail("expected ',' or ']' in array");
        }
      }
      case '"':
        skipString();
        return;
      case 't':
      case 'f':
        boolean();
        return;
      case 'n':
        null();
        return;
      default:
        if (c == '-' || (c >= '0' && c <= '9')) {
            skipNumber();
            return;
        }
        fail("unexpected character");
    }
}

std::string_view
Scanner::rawValue()
{
    skipWhitespace();
    const std::size_t start = pos_;
    skipValue();
    return text_.substr(start, pos_ - start);
}

Type
Scanner::peekType()
{
    skipWhitespace();
    const char c = peek();
    switch (c) {
      case '{': return Type::Object;
      case '[': return Type::Array;
      case '"': return Type::String;
      case 't':
      case 'f': return Type::Boolean;
      case 'n': return Type::Null;
      default:
        if (c == '-' || (c >= '0' && c <= '9'))
            return Type::Number;
        fail("unexpected character");
    }
}

bool
Scanner::boolean()
{
    skipWhitespace();
    if (text_.compare(pos_, 4, "true") == 0) {
        pos_ += 4;
        return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
        pos_ += 5;
        return false;
    }
    fail("invalid literal");
}

double
Scanner::number()
{
    skipWhitespace();
    const std::size_t start = pos_;
    const std::string_view token = numberToken();
    bool out_of_range = false;
    const double value = numberFromToken(token, &out_of_range);
    if (out_of_range) {
        pos_ = start;
        fail("number out of range");
    }
    return value;
}

std::string
Scanner::string()
{
    skipWhitespace();
    return decodeString();
}

void
Scanner::null()
{
    skipWhitespace();
    if (text_.compare(pos_, 4, "null") == 0) {
        pos_ += 4;
        return;
    }
    fail("invalid literal");
}

void
Scanner::beginObject()
{
    skipWhitespace();
    expect('{');
    frames_.push_back(Frame{'{', true, keys_.size()});
}

bool
Scanner::nextMember(std::string &key)
{
    requireModel(!frames_.empty() && frames_.back().kind == '{',
                 "Scanner: nextMember() outside an object");
    skipWhitespace();
    if (frames_.back().first) {
        frames_.back().first = false;
        if (peek() == '}') {
            ++pos_;
            frames_.pop_back();
            return false;
        }
    } else {
        const char c = advance();
        if (c == '}') {
            keys_.resize(frames_.back().keys);
            frames_.pop_back();
            return false;
        }
        if (c != ',')
            fail("expected ',' or '}' in object");
        skipWhitespace();
    }
    if (peek() != '"')
        fail("expected object key string");
    key = decodeString();
    for (std::size_t i = frames_.back().keys; i < keys_.size();
         ++i)
        if (keys_[i] == key)
            fail("duplicate object key: \"" + key + "\"");
    keys_.push_back(key);
    skipWhitespace();
    expect(':');
    return true;
}

void
Scanner::beginArray()
{
    skipWhitespace();
    expect('[');
    frames_.push_back(Frame{'[', true, 0});
}

bool
Scanner::nextElement()
{
    requireModel(!frames_.empty() && frames_.back().kind == '[',
                 "Scanner: nextElement() outside an array");
    skipWhitespace();
    if (frames_.back().first) {
        frames_.back().first = false;
        if (peek() == ']') {
            ++pos_;
            frames_.pop_back();
            return false;
        }
        return true;
    }
    const char c = advance();
    if (c == ']') {
        frames_.pop_back();
        return false;
    }
    if (c != ',')
        fail("expected ',' or ']' in array");
    return true;
}

void
Scanner::expectEnd()
{
    requireModel(frames_.empty(),
                 "Scanner: expectEnd() with open containers");
    skipWhitespace();
    if (!atEnd())
        fail("trailing characters after JSON document");
}

std::optional<std::string_view>
findMember(std::string_view object_text, std::string_view key)
{
    Scanner scanner(object_text);
    scanner.beginObject();
    std::string name;
    while (scanner.nextMember(name)) {
        if (name == key)
            return scanner.rawValue();
        scanner.rawValue();
    }
    return std::nullopt;
}

bool
booleanField(std::string_view object_text, std::string_view key,
             bool fallback)
{
    const auto span = findMember(object_text, key);
    if (!span)
        return fallback;
    Scanner scanner(*span);
    const Type type = scanner.peekType();
    if (type != Type::Boolean)
        throw ConfigError(
            std::string(
                "JSON type mismatch: expected boolean, got ") +
            typeName(type));
    return scanner.boolean();
}

void
reserializeValue(Scanner &in, StreamWriter &out)
{
    switch (in.peekType()) {
      case Type::Null:
        in.null();
        out.null();
        break;
      case Type::Boolean:
        out.boolean(in.boolean());
        break;
      case Type::Number:
        out.number(in.number());
        break;
      case Type::String:
        out.string(in.string());
        break;
      case Type::Array:
        in.beginArray();
        out.beginArray();
        while (in.nextElement())
            reserializeValue(in, out);
        out.endArray();
        break;
      case Type::Object: {
        in.beginObject();
        out.beginObject();
        std::string key;
        while (in.nextMember(key)) {
            out.key(key);
            reserializeValue(in, out);
        }
        out.endObject();
        break;
      }
    }
}

std::string
reserialize(std::string_view text, bool pretty)
{
    Scanner in(text);
    StreamWriter out(pretty);
    reserializeValue(in, out);
    in.expectEnd();
    return out.take();
}

void
validate(std::string_view text)
{
    Scanner scanner(text);
    scanner.rawValue();
    scanner.expectEnd();
}

} // namespace ecochip::json::ondemand
