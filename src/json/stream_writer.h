/**
 * @file
 * Append-only streaming JSON emitter.
 *
 * `StreamWriter` serializes a document as a sequence of
 * begin/end/key/value calls with no intermediate `json::Value`
 * tree -- the output side of the wire path (the input side is
 * `json/ondemand.h`) and the project's one layout writer:
 * `Value::dump` is `appendValue` into a `StreamWriter`. Strings go
 * through `escapeStringTo`, numbers through `appendNumber`; the
 * pretty layout indents 4 spaces per level, writes `[]`/`{}` for
 * empty containers and `": "` after keys. The differential fuzz
 * suite (tests/test_json_fuzz.cpp) holds the layout byte for byte
 * to an independent test-only serializer
 * (tests/support/reference_json.h).
 *
 * Scope violations -- a key outside an object, a value where a
 * key is required, unbalanced `end` calls -- throw ModelError:
 * they are caller bugs, not input errors.
 */

#ifndef ECOCHIP_JSON_STREAM_WRITER_H
#define ECOCHIP_JSON_STREAM_WRITER_H

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.h"

namespace ecochip::json {

class StreamWriter
{
  public:
    /**
     * @param pretty When true, emit the 4-space indented layout;
     *        otherwise the compact form.
     * @param base_depth Pretty layout only: indent as if the
     *        document were nested @p base_depth containers deep,
     *        so it can be spliced there (`placeholder`) with the
     *        bytes the enclosing writer would have written.
     */
    explicit StreamWriter(bool pretty = false,
                          std::size_t base_depth = 0)
        : pretty_(pretty), baseDepth_(base_depth)
    {}

    /** @{ @name Container scopes */
    void beginObject() { openContainer('{'); }
    void endObject() { closeContainer('{', '}'); }
    void beginArray() { openContainer('['); }
    void endArray() { closeContainer('[', ']'); }
    /** @} */

    /**
     * Emit an object member key; exactly one value (or container)
     * must follow before the next key or endObject().
     */
    void key(std::string_view name);

    /** @{ @name Scalar values */
    void null();
    void boolean(bool b);
    void number(double n);
    void string(std::string_view s);
    /** @} */

    /**
     * Splice a pre-serialized JSON value verbatim.
     *
     * @p text must be one complete value with no surrounding
     * whitespace. The span is spliced as-is, so in pretty mode
     * byte-identity with `dump(true)` additionally requires the
     * span itself to carry the right indentation -- transcode
     * compact spans with `ondemand::reserializeValue` instead.
     */
    void raw(std::string_view text);

    /**
     * Reserve the place of one value that is spliced in later:
     * emit what precedes a value here (separator and indentation)
     * and return the offset in `str()` where the value's text
     * belongs. In pretty mode that text must be written at base
     * depth `depth()`.
     */
    std::size_t placeholder();

    /** The document so far (the full document once complete()). */
    const std::string &str() const { return out_; }

    /**
     * Move the finished document out and reset the writer for the
     * next document (the NDJSON line discipline).
     * @throws ModelError when scopes are still open or no root
     *         value has been written.
     */
    std::string take();

    /**
     * Drop the document so far, open scopes included, keeping the
     * buffer's capacity: a writer reused for one document after
     * another allocates only while its largest one grows.
     */
    void clear();

    /** True when one root value exists and every scope closed. */
    bool complete() const
    {
        return frames_.empty() && has_root_;
    }

    /** Number of currently open containers. */
    std::size_t depth() const { return frames_.size(); }

  private:
    struct Frame
    {
        char kind;        // '{' or '['
        bool empty;       // open bracket still deferred
        bool key_pending; // object: key emitted, value expected
    };

    void elementPrefix();
    void openContainer(char open);
    void closeContainer(char open, char close);
    void materialize(Frame &frame);
    void indent();

    std::string out_;
    std::vector<Frame> frames_;
    bool pretty_ = false;
    std::size_t baseDepth_ = 0;
    bool has_root_ = false;
};

/** Emit @p value through @p writer (what `Value::dump` does). */
void appendValue(StreamWriter &writer, const Value &value);

} // namespace ecochip::json

#endif // ECOCHIP_JSON_STREAM_WRITER_H
