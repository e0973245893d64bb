#include "json/json.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include "json/ondemand.h"
#include "json/stream_writer.h"
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
                      formatNumber(n));
    // [-2^63, 2^63): exactly the doubles an int64 can hold.
    requireConfig(rounded >= -0x1p63 && rounded < 0x1p63,
                  "JSON number is out of the integer range: " +
                      formatNumber(n));
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

std::string
Value::dump(bool pretty) const
{
    StreamWriter writer(pretty);
    appendValue(writer, *this);
    return writer.take();
}

namespace {

/** Build the next value of @p in as a tree (the DOM over the
 *  on-demand scanner, which owns the grammar and its errors). */
Value
buildValue(ondemand::Scanner &in)
{
    switch (in.peekType()) {
      case Type::Null:
        in.null();
        return Value();
      case Type::Boolean:
        return Value(in.boolean());
      case Type::Number:
        return Value(in.number());
      case Type::String:
        return Value(in.string());
      case Type::Array: {
        std::vector<Value> elements;
        in.beginArray();
        while (in.nextElement())
            elements.push_back(buildValue(in));
        return Value::makeArray(std::move(elements));
      }
      case Type::Object: {
        Value object = Value::makeObject();
        in.beginObject();
        std::string key;
        while (in.nextMember(key))
            object.set(key, buildValue(in));
        return object;
      }
    }
    return Value();
}

} // namespace

Value
parse(const std::string &text)
{
    ondemand::Scanner in(text);
    Value root = buildValue(in);
    in.expectEnd();
    return root;
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
writeFile(std::string_view text, const std::string &path)
{
    writeFile(std::vector<std::string_view>{text}, path);
}

void
writeFile(const std::vector<std::string_view> &pieces,
          const std::string &path)
{
    static constexpr char newline = '\n';
    std::vector<iovec> iov;
    iov.reserve(pieces.size() + 1);
    for (const std::string_view piece : pieces)
        if (!piece.empty())
            iov.push_back({const_cast<char *>(piece.data()),
                           piece.size()});
    iov.push_back({const_cast<char *>(&newline), 1});

    // 0666 before the umask: the mode `std::ofstream` creates.
    // Nothing between open and close throws.
    const int fd = ::open(path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                          0666);
    requireConfig(fd >= 0, "cannot write JSON file: " + path);

    // At most IOV_MAX iovecs per call. A short write resumes
    // inside the iovec it stopped in; every iovec is non-empty,
    // so a call that writes nothing is a failure, not progress.
    bool ok = true;
    std::size_t first = 0;
    while (first < iov.size()) {
        const std::size_t count =
            std::min<std::size_t>(iov.size() - first, IOV_MAX);
        const ssize_t written = ::writev(
            fd, iov.data() + first, static_cast<int>(count));
        if (written < 0 && errno == EINTR)
            continue;
        if (written <= 0) {
            ok = false;
            break;
        }
        auto left = static_cast<std::size_t>(written);
        while (left > 0 && left >= iov[first].iov_len)
            left -= iov[first++].iov_len;
        if (left > 0) {
            iov[first].iov_base =
                static_cast<char *>(iov[first].iov_base) + left;
            iov[first].iov_len -= left;
        }
    }
    ok = ::close(fd) == 0 && ok;
    requireConfig(ok, "cannot write JSON file: " + path);
}

} // namespace ecochip::json
