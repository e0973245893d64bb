/**
 * @file
 * Reference JSON parser and serializer: the independent oracle the
 * JSON tests hold production (`json::parse`, `Value::dump`, the
 * on-demand scanner and the streaming writer) to.
 *
 * A self-contained recursive-descent parser and a recursive
 * serializer, written separately from `ondemand::Scanner` and
 * `StreamWriter`. They share with production only the number
 * decoding (`numberFromToken`), the number spelling
 * (`appendNumber`) and string escaping (`escapeStringTo`), each of
 * which is locked by its own golden tests. Test-only: it lives in
 * the `ecochip_test_support` library, never in `ecochip`.
 *
 * Grammar: RFC 8259 plus the project's tolerances (`//` line
 * comments in whitespace, leading-zero numbers); duplicate object
 * keys, raw control characters in strings and out-of-range numbers
 * are rejected with "JSON parse error at line L, column C: ..."
 * messages. A duplicate key is reported at the end of the key,
 * before its value is read.
 */

#ifndef ECOCHIP_TESTS_SUPPORT_REFERENCE_JSON_H
#define ECOCHIP_TESTS_SUPPORT_REFERENCE_JSON_H

#include <string>

#include "json/json.h"

namespace ecochip::json::reference {

/**
 * Parse one JSON document.
 * @throws ConfigError with line/column context on malformed input.
 */
Value parse(const std::string &text);

/**
 * Serialize @p value: compact, or 4-space indented with `[]`/`{}`
 * for empty containers and `": "` after keys when @p pretty.
 */
std::string dump(const Value &value, bool pretty);

} // namespace ecochip::json::reference

#endif // ECOCHIP_TESTS_SUPPORT_REFERENCE_JSON_H
