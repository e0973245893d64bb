/**
 * @file
 * Uniform serialization of `AnalysisResult` -- the single
 * JSON/markdown path every session verb's output flows through,
 * no matter which analysis produced it.
 */

#ifndef ECOCHIP_IO_RESULT_WRITER_H
#define ECOCHIP_IO_RESULT_WRITER_H

#include <ostream>
#include <string>

#include "json/stream_writer.h"
#include "session/analysis_result.h"

namespace ecochip {

/**
 * Emit any analysis result through the streaming writer -- the
 * one result serializer (`--json` files, worker outcome streams,
 * server responses).
 *
 * The document always carries `kind`, `scenario`, and `detail`;
 * the verb-specific payload lands under a key named after the
 * kind (`report`, `sweep`, `uncertainty`, `sensitivity`, `cost`).
 */
void appendResult(json::StreamWriter &writer,
                  const AnalysisResult &result);

/** Emit the distribution summary of one sampled metric. */
void appendSampleStats(json::StreamWriter &writer,
                       const SampleStats &stats);

/**
 * Render any analysis result as a markdown report.
 *
 * @param os Destination stream.
 * @param result Result of any session verb.
 */
void writeResultMarkdown(std::ostream &os,
                         const AnalysisResult &result);

/** Convenience: the markdown report as a string. */
std::string resultMarkdown(const AnalysisResult &result);

} // namespace ecochip

#endif // ECOCHIP_IO_RESULT_WRITER_H
