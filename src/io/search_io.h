/**
 * @file
 * JSON serialization of design-space search specs and results --
 * the wire format of `eco_chip --search SPEC.json`.
 *
 * A spec document names a generator and how to search it:
 * @code{.json}
 * {
 *   "generator": "fpga-pca-space",
 *   "scenarios": "catalog.json",
 *   "strategy": {"kind": "annealing", "seed": 7,
 *                "steps": 150, "initial_temp": 2.0,
 *                "cooling": 0.93},
 *   "objectives": [
 *     {"metric": "embodied_kg"},
 *     {"metric": "perf_proxy", "goal": "max", "weight": 0.1}
 *   ],
 *   "constraints": [{"metric": "cost_usd", "max": 150.0}],
 *   "batch_size": 64
 * }
 * @endcode
 *
 * The optional `scenarios` catalog (resolved relative to the spec
 * file, exactly like batch files) is where the generator is
 * declared. Unknown keys are rejected with the file and key
 * named, mirroring `request_io.h`. Specs are input only: there is
 * no spec writer. Field-by-field reference: `docs/search.md`.
 */

#ifndef ECOCHIP_IO_SEARCH_IO_H
#define ECOCHIP_IO_SEARCH_IO_H

#include <string>

#include "json/json.h"
#include "json/stream_writer.h"
#include "search/search_driver.h"

namespace ecochip {

/**
 * Parse a search spec document.
 *
 * @param doc Parsed JSON object.
 * @param context Source label for error messages.
 * @throws ConfigError on unknown keys, missing members, or
 *         out-of-range knobs.
 */
SearchSpec searchSpecFromJson(const json::Value &doc,
                              const std::string &context =
                                  "search spec");

/**
 * Load a spec file (`--search` workflow); the `scenarios`
 * catalog path is resolved relative to the spec file.
 */
SearchSpec loadSearchSpecFile(const std::string &path);

/**
 * Emit a search result through the streaming writer:
 * space/evaluation counts, the best scalarized point, the Pareto
 * frontier (objective vectors included), and every visited point
 * with its metric values in evaluation order. Non-finite scores
 * (infeasible points) are omitted rather than printed, keeping
 * the document valid JSON.
 */
void appendSearchResult(json::StreamWriter &writer,
                        const SearchResult &result);

} // namespace ecochip

#endif // ECOCHIP_IO_SEARCH_IO_H
