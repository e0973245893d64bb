#include "support/reference_json.h"

#include <cctype>
#include <string_view>

#include "support/error.h"

namespace ecochip::json::reference {

namespace {

void
dumpTo(const Value &value, std::string &out, bool pretty, int depth)
{
    const std::string indent =
        pretty ? std::string(4 * (depth + 1), ' ') : "";
    const std::string closing_indent =
        pretty ? std::string(4 * depth, ' ') : "";
    const char *nl = pretty ? "\n" : "";
    const char *colon = pretty ? ": " : ":";

    switch (value.type()) {
      case Type::Null:
        out += "null";
        break;
      case Type::Boolean:
        out += value.asBoolean() ? "true" : "false";
        break;
      case Type::Number:
        appendNumber(out, value.asNumber());
        break;
      case Type::String:
        escapeStringTo(out, value.asString());
        break;
      case Type::Array: {
        const auto &elements = value.asArray();
        if (elements.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        out += nl;
        for (std::size_t i = 0; i < elements.size(); ++i) {
            out += indent;
            dumpTo(elements[i], out, pretty, depth + 1);
            if (i + 1 < elements.size())
                out += ',';
            out += nl;
        }
        out += closing_indent;
        out += ']';
        break;
      }
      case Type::Object: {
        const auto &members = value.members();
        if (members.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        out += nl;
        for (std::size_t i = 0; i < members.size(); ++i) {
            out += indent;
            escapeStringTo(out, members[i].first);
            out += colon;
            dumpTo(members[i].second, out, pretty, depth + 1);
            if (i + 1 < members.size())
                out += ',';
            out += nl;
        }
        out += closing_indent;
        out += '}';
        break;
      }
    }
}

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
            if (obj.contains(key))
                fail("duplicate object key: \"" + key + "\"");
            skipWhitespace();
            expect(':');
            Value v = parseValue();
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

std::string
dump(const Value &value, bool pretty)
{
    std::string out;
    dumpTo(value, out, pretty, 0);
    return out;
}

} // namespace ecochip::json::reference
