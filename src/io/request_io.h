/**
 * @file
 * JSON serialization of declarative `AnalysisRequest`s -- the wire
 * format of the batch engine (`eco_chip --batch requests.json`).
 *
 * A request document names its scenario binding and analysis:
 * @code{.json}
 * {
 *   "scenario": "ga102",          // or "design_dir": "path"
 *   "analysis": "monte_carlo",
 *   "trials": 1000, "seed": 42, "threads": 4
 * }
 * @endcode
 *
 * A batch file is either a top-level array of requests or an
 * object `{"scenarios": "catalog.json", "requests": [...]}` whose
 * optional catalog (resolved relative to the batch file) is loaded
 * into the scenario registry first, so batches can name
 * user-defined workloads without recompilation.
 *
 * Unknown keys are rejected with the offending key named, exactly
 * like the design-directory loaders in `config_loader.h`.
 */

#ifndef ECOCHIP_IO_REQUEST_IO_H
#define ECOCHIP_IO_REQUEST_IO_H

#include <optional>
#include <string>
#include <vector>

#include "json/json.h"
#include "json/stream_writer.h"
#include "session/analysis_request.h"

namespace ecochip {

/**
 * Emit one request document through the streaming writer -- the
 * one request serializer (batch files, chunk files, the served
 * wire, and the canonical cache-key text all go through it).
 */
void appendRequest(json::StreamWriter &writer,
                   const AnalysisRequest &request);

/**
 * Parse one request document.
 *
 * @param doc Parsed JSON object.
 * @param context Source label for error messages.
 * @throws ConfigError on unknown keys, missing binding, or
 *         malformed spec arguments.
 */
AnalysisRequest requestFromJson(const json::Value &doc,
                                const std::string &context =
                                    "request");

/**
 * Parse a request list: a top-level array, or the `requests`
 * member of a batch object.
 */
std::vector<AnalysisRequest>
requestsFromJson(const json::Value &doc,
                 const std::string &context = "requests");

/**
 * Canonical text of one request -- the single serialization that
 * request hashing (the analysis server's content-addressed result
 * cache, `server/result_cache.h`) routes through.
 *
 * Two requests that parse to the same `AnalysisRequest` always
 * canonicalize to the same bytes, however their source JSON was
 * spelled: member order is fixed by construction, numbers print
 * through one fixed format, defaulted optional members are
 * omitted, and scheduling-only knobs that cannot change the
 * result (`MonteCarloSpec::threads` -- results are bit-identical
 * at any thread count) are normalized away. Locked by the
 * round-trip tests in `tests/test_server.cpp`.
 */
std::string canonicalRequestText(const AnalysisRequest &request);

/** A parsed batch file. */
struct BatchFile
{
    /** Requests in file order. */
    std::vector<AnalysisRequest> requests;

    /**
     * Path of the scenario catalog the batch names (already
     * resolved relative to the batch file), when one is given.
     */
    std::optional<std::string> scenarioCatalog;
};

/**
 * Load a batch file (`--batch` workflow).
 *
 * @param path Path to the requests JSON.
 */
BatchFile loadBatchFile(const std::string &path);

/**
 * Write @p batch as a pretty batch document -- the inverse of
 * `loadBatchFile`: `{"scenarios": ..., "requests": [...]}`, the
 * `scenarios` member only when the batch names a catalog. The
 * catalog path is written as given; `loadBatchFile` resolves a
 * relative one against the file's directory, so callers that
 * move a batch write it absolute.
 *
 * @throws ConfigError when @p path cannot be written.
 */
void writeBatchFile(const BatchFile &batch, const std::string &path);

/**
 * Write the sub-batch of @p requests at @p indices, in that order,
 * under @p catalog -- the document `writeBatchFile` writes for a
 * BatchFile holding copies of those requests, without the copies.
 * `writeChunkFiles` writes each chunk with it.
 *
 * @throws ConfigError when @p path cannot be written.
 */
void writeBatchFile(const std::vector<AnalysisRequest> &requests,
                    const std::vector<std::size_t> &indices,
                    const std::optional<std::string> &catalog,
                    const std::string &path);

/** Parse CostParams; missing keys keep their defaults. */
CostParams costParamsFromJson(const json::Value &doc,
                              const std::string &context =
                                  "cost params");

/** Parse Monte-Carlo sampling bands. */
UncertaintyBands
uncertaintyBandsFromJson(const json::Value &doc,
                         const std::string &context = "bands");

} // namespace ecochip

#endif // ECOCHIP_IO_REQUEST_IO_H
