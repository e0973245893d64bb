/**
 * @file
 * The coordinator's on-disk event formats: per-dispatch NDJSON
 * event files and the checkpoint/resume outcome journal.
 *
 * Both formats are built from the stream-event lines of
 * `io/batch_report_io.h` -- one compact JSON object per line,
 * `{"index": N, "request": ..., "ok": ..., "result"|"error":
 * ...}` -- and differ only in what `index` means:
 *
 *  - **Worker event files** (`<report>.events`, written by
 *    `runShardWorker` next to its report): `index` is the
 *    request's position *within the sub-batch*, emitted in
 *    completion order and flushed per line, so the dynamic
 *    coordinator (`engine/shard_coordinator.h`) can tail the
 *    file and merge outcomes while the worker is still running.
 *
 *  - **The outcome journal** (`journal.ndjson` in the
 *    coordinator's shard directory): `index` is the request's
 *    *original batch* position. The coordinator appends one line
 *    per first-delivered outcome; `--resume` replays the journal
 *    so a killed coordination continues without re-running
 *    finished requests. A SIGKILL can truncate the final line
 *    mid-write, so the reader tolerates (and drops) a trailing
 *    partial line -- any other malformed line is an error.
 *
 * Field-by-field reference: `docs/file_formats.md`.
 */

#ifndef ECOCHIP_IO_EVENT_JOURNAL_IO_H
#define ECOCHIP_IO_EVENT_JOURNAL_IO_H

#include <cstddef>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace ecochip {

/** Event-file path convention for a worker report path. */
std::string eventsPathFor(const std::string &report_path);

/** File name of the outcome journal inside a shard directory. */
std::string coordinatorJournalName();

/**
 * One stream-event line split in two: the original batch (or
 * sub-batch) index, and the outcome document without the `index`
 * member as canonical compact JSON (exactly
 * `parse(line-minus-index).dump(false)` bytes, member order
 * preserved) -- what the merge path consumes.
 */
struct JournalEntryText
{
    std::size_t index = 0;
    std::string outcome;
};

/**
 * Split one stream-event line with the on-demand scanner: no
 * `json::Value` is materialized. The returned outcome document is
 * canonicalized member-by-member, so reassembled reports stay
 * byte-identical to the single-process run even when the worker's
 * line carried non-canonical spacing or number spellings.
 *
 * @throws ConfigError when @p line is malformed JSON or is not an
 *         object with a non-negative integer `index`.
 */
JournalEntryText splitEventLine(std::string_view line,
                                const std::string &context);

/**
 * Append-only writer for the outcome journal. Each appended
 * outcome becomes one compact line, flushed immediately, so the
 * journal survives a SIGKILL of the coordinator with at most the
 * final line truncated.
 */
class EventJournalWriter
{
  public:
    /**
     * Open @p path for writing; @p append keeps existing lines
     * (the resume path), otherwise the file is truncated.
     * @throws ConfigError when the file cannot be opened.
     */
    void open(const std::string &path, bool append);

    /**
     * Append `{"index": index, ...outcome}` as one line.
     * @p outcome_text must be one compact JSON object (a canonical
     * outcome document); the index member is spliced in front of
     * its members without parsing anything.
     */
    void append(std::size_t index, std::string_view outcome_text);

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::ofstream out_;
};

/**
 * Replay the journal at @p path with the on-demand scanner:
 * outcomes come back as canonical compact text, never as a DOM --
 * what `--resume` feeds straight into the incremental merger. A
 * missing file replays as empty. A trailing line without `\n`
 * that fails to parse is dropped (the coordinator was killed
 * mid-append); any other malformed line throws `ConfigError`
 * naming @p path.
 */
std::vector<JournalEntryText>
replayEventJournalText(const std::string &path);

/**
 * Incremental reader over a growing NDJSON file: each `poll`
 * returns the complete (newline-terminated) lines appended since
 * the last call, never a partially-written line. A missing file
 * polls as empty, so tailing may start before the worker's first
 * write.
 */
class NdjsonTailReader
{
  public:
    NdjsonTailReader() = default;
    explicit NdjsonTailReader(std::string path)
        : path_(std::move(path))
    {
    }

    /** Point the reader at @p path and rewind to the start. */
    void reset(std::string path);

    /** New complete lines since the previous poll. */
    std::vector<std::string> poll();

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::size_t offset_ = 0;
};

} // namespace ecochip

#endif // ECOCHIP_IO_EVENT_JOURNAL_IO_H
