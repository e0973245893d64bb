#include "json/stream_writer.h"

#include <utility>

#include "support/error.h"

namespace ecochip::json {

/*
 * The open bracket of a container is deferred until its first
 * element (or its end call) so that empty containers come out as
 * the two-character "[]" / "{}" forms, with no newline inside.
 */
void
StreamWriter::materialize(Frame &frame)
{
    frame.empty = false;
    out_ += frame.kind;
    if (pretty_)
        out_ += '\n';
}

void
StreamWriter::indent()
{
    out_.append(4 * (baseDepth_ + frames_.size()), ' ');
}

void
StreamWriter::elementPrefix()
{
    if (frames_.empty()) {
        requireModel(!has_root_,
                     "StreamWriter: second root value");
        has_root_ = true;
        return;
    }
    Frame &frame = frames_.back();
    if (frame.kind == '{') {
        // key() already emitted the member prefix.
        requireModel(frame.key_pending,
                     "StreamWriter: value in object without key");
        frame.key_pending = false;
        return;
    }
    if (frame.empty) {
        materialize(frame);
    } else {
        out_ += ',';
        if (pretty_)
            out_ += '\n';
    }
    if (pretty_)
        indent();
}

void
StreamWriter::key(std::string_view name)
{
    requireModel(!frames_.empty() && frames_.back().kind == '{',
                 "StreamWriter: key() outside an object");
    Frame &frame = frames_.back();
    requireModel(!frame.key_pending,
                 "StreamWriter: key() while a value is pending");
    if (frame.empty) {
        materialize(frame);
    } else {
        out_ += ',';
        if (pretty_)
            out_ += '\n';
    }
    if (pretty_)
        indent();
    escapeStringTo(out_, name);
    out_ += ':';
    if (pretty_)
        out_ += ' ';
    frame.key_pending = true;
}

void
StreamWriter::openContainer(char open)
{
    elementPrefix();
    frames_.push_back(Frame{open, true, false});
}

void
StreamWriter::closeContainer(char open, char close)
{
    requireModel(!frames_.empty() && frames_.back().kind == open,
                 "StreamWriter: mismatched container end");
    requireModel(!frames_.back().key_pending,
                 "StreamWriter: key without value at scope end");
    const bool was_empty = frames_.back().empty;
    frames_.pop_back();
    if (was_empty) {
        out_ += open;
        out_ += close;
        return;
    }
    if (pretty_) {
        out_ += '\n';
        indent();
    }
    out_ += close;
}

void
StreamWriter::null()
{
    elementPrefix();
    out_ += "null";
}

void
StreamWriter::boolean(bool b)
{
    elementPrefix();
    out_ += b ? "true" : "false";
}

void
StreamWriter::number(double n)
{
    elementPrefix();
    appendNumber(out_, n);
}

void
StreamWriter::string(std::string_view s)
{
    elementPrefix();
    escapeStringTo(out_, s);
}

void
StreamWriter::raw(std::string_view text)
{
    requireModel(!text.empty(),
                 "StreamWriter: raw() with an empty span");
    placeholder();
    out_ += text;
}

std::size_t
StreamWriter::placeholder()
{
    elementPrefix();
    return out_.size();
}

std::string
StreamWriter::take()
{
    requireModel(complete(),
                 "StreamWriter: take() on an incomplete document");
    std::string document = std::move(out_);
    out_.clear();
    has_root_ = false;
    return document;
}

void
StreamWriter::clear()
{
    out_.clear();
    frames_.clear();
    has_root_ = false;
}

void
appendValue(StreamWriter &writer, const Value &value)
{
    switch (value.type()) {
      case Type::Null:
        writer.null();
        break;
      case Type::Boolean:
        writer.boolean(value.asBoolean());
        break;
      case Type::Number:
        writer.number(value.asNumber());
        break;
      case Type::String:
        writer.string(value.asString());
        break;
      case Type::Array:
        writer.beginArray();
        for (const auto &element : value.asArray())
            appendValue(writer, element);
        writer.endArray();
        break;
      case Type::Object:
        writer.beginObject();
        for (const auto &[name, member] : value.members()) {
            writer.key(name);
            appendValue(writer, member);
        }
        writer.endObject();
        break;
    }
}

} // namespace ecochip::json
