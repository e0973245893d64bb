#include "io/event_journal_io.h"

#include <utility>

#include "json/ondemand.h"
#include "json/stream_writer.h"
#include "support/error.h"

namespace ecochip {

std::string
eventsPathFor(const std::string &report_path)
{
    return report_path + ".events";
}

std::string
coordinatorJournalName()
{
    return "journal.ndjson";
}

JournalEntryText
splitEventLine(std::string_view line, const std::string &context)
{
    json::ondemand::Scanner scanner(line);
    if (scanner.peekType() != json::Type::Object)
        throw ConfigError(
            context +
            ": not a stream event (expected an object "
            "with an \"index\" member)");

    json::StreamWriter writer;
    writer.beginObject();
    scanner.beginObject();
    std::string key;
    bool has_index = false;
    std::size_t index = 0;
    while (scanner.nextMember(key)) {
        if (key == "index") {
            const std::int64_t idx =
                json::Value(scanner.number()).asInteger();
            requireConfig(idx >= 0,
                          context + ": negative event index " +
                              std::to_string(idx));
            index = static_cast<std::size_t>(idx);
            has_index = true;
        } else {
            writer.key(key);
            json::ondemand::reserializeValue(scanner, writer);
        }
    }
    scanner.expectEnd();
    writer.endObject();
    requireConfig(has_index,
                  context +
                      ": not a stream event (expected an object "
                      "with an \"index\" member)");
    return JournalEntryText{index, writer.take()};
}

void
EventJournalWriter::open(const std::string &path, bool append)
{
    path_ = path;
    out_.open(path, append ? (std::ios::out | std::ios::app)
                           : (std::ios::out | std::ios::trunc));
    requireConfig(out_.good(),
                  "cannot open the outcome journal for writing: " +
                      path);
}

void
EventJournalWriter::append(std::size_t index,
                           std::string_view outcome_text)
{
    requireModel(out_.is_open(),
                 "append() on an unopened outcome journal");
    requireModel(outcome_text.size() >= 2 &&
                     outcome_text.front() == '{' &&
                     outcome_text.back() == '}',
                 "append() needs a compact JSON object outcome");
    out_ << "{\"index\":" << index;
    const std::string_view inner =
        outcome_text.substr(1, outcome_text.size() - 2);
    if (!inner.empty())
        out_ << ',' << inner;
    out_ << "}\n";
    out_.flush();
}

std::vector<JournalEntryText>
replayEventJournalText(const std::string &path)
{
    std::vector<JournalEntryText> entries;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return entries; // no journal yet: nothing to replay

    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::size_t pos = 0;
    std::size_t line_no = 0;
    while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        const bool terminated = nl != std::string::npos;
        const std::string_view line =
            std::string_view(text).substr(
                pos, terminated ? nl - pos
                                : std::string_view::npos);
        pos = terminated ? nl + 1 : text.size();
        ++line_no;
        if (line.empty())
            continue;
        try {
            json::ondemand::validate(line);
        } catch (const std::exception &) {
            // Only the final, unterminated line may be garbage --
            // that is the line a SIGKILL cut mid-append.
            if (!terminated)
                break;
            throw ConfigError(
                path + ": malformed journal line " +
                std::to_string(line_no) +
                " (only a truncated final line is tolerated); "
                "remove the journal or run without --resume");
        }
        entries.push_back(splitEventLine(
            line, path + ": line " + std::to_string(line_no)));
    }
    return entries;
}

void
NdjsonTailReader::reset(std::string path)
{
    path_ = std::move(path);
    offset_ = 0;
}

std::vector<std::string>
NdjsonTailReader::poll()
{
    std::vector<std::string> lines;
    std::ifstream in(path_, std::ios::binary);
    if (!in)
        return lines;
    in.seekg(0, std::ios::end);
    const auto end = in.tellg();
    if (end < 0 ||
        static_cast<std::size_t>(end) <= offset_)
        return lines;
    in.seekg(static_cast<std::streamoff>(offset_));
    std::string chunk(static_cast<std::size_t>(end) - offset_,
                      '\0');
    in.read(chunk.data(),
            static_cast<std::streamsize>(chunk.size()));
    chunk.resize(static_cast<std::size_t>(in.gcount()));

    std::size_t pos = 0;
    while (true) {
        const std::size_t nl = chunk.find('\n', pos);
        if (nl == std::string::npos)
            break;
        lines.push_back(chunk.substr(pos, nl - pos));
        pos = nl + 1;
    }
    offset_ += pos; // unterminated tail re-reads next poll
    return lines;
}

} // namespace ecochip
