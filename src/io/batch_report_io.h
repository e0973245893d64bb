/**
 * @file
 * JSON serialization of `BatchReport` and the NDJSON stream
 * format -- the wire formats of the batch engine's output side,
 * mirroring `io/request_io.h` on the input side.
 *
 * Two formats live here (field-by-field reference in
 * `docs/file_formats.md`):
 *
 *  - **BatchReport JSON** (`--batch --json`, `--shard_worker`
 *    reports, `--shard` merged output): one object
 *    `{"succeeded": N, "failed": M, "outcomes": [...]}` whose
 *    outcomes sit in request order. Shard workers write this
 *    format to disk and the shard merge step reassembles the
 *    per-shard documents into one report that is byte-identical
 *    to the single-process run.
 *
 *  - **NDJSON stream events** (`--batch --stream`): one compact
 *    JSON object per line, emitted in completion order as worker
 *    threads finish. Each line carries the outcome plus the
 *    request's original batch `index`, so consumers can reorder
 *    or join against the input file.
 */

#ifndef ECOCHIP_IO_BATCH_REPORT_IO_H
#define ECOCHIP_IO_BATCH_REPORT_IO_H

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "engine/analysis_engine.h"
#include "json/stream_writer.h"

namespace ecochip {

/**
 * Emit one outcome through the streaming writer (shard workers
 * and the server stream every completion through it):
 * `{"request": ..., "ok": true, "result": ...}` on success,
 * `{"request": ..., "ok": false, "error": "..."}` on failure.
 */
void appendOutcome(json::StreamWriter &writer,
                   const RequestOutcome &outcome);

/**
 * Emit one NDJSON stream event -- the outcome document with the
 * request's batch `index` prepended -- through the writer.
 */
void appendStreamEvent(json::StreamWriter &writer,
                       std::size_t index,
                       const RequestOutcome &outcome);

/**
 * The whole report as one document, compact or pretty:
 * `{"succeeded": N, "failed": M, "outcomes": [...]}` with the
 * outcomes in request order.
 */
std::string batchReportText(const BatchReport &report,
                            bool pretty);

/** Write `batchReportText` pretty-printed to @p path. */
void writeBatchReportFile(const BatchReport &report,
                          const std::string &path);

/** A batch run whose outcomes were encoded by the engine workers. */
struct EncodedBatch
{
    BatchReport report;

    /**
     * Each outcome as it stands in the pretty report file (the
     * `appendOutcome` document at the indent of the report's
     * `outcomes` array), in request order; empty when the run was
     * not asked for them.
     */
    std::vector<std::string> outcomeTexts;
};

/**
 * Run @p requests on @p engine, encoding each outcome on the
 * worker that produced it, outside the engine's delivery lock:
 * its report text when @p report_texts is set, and its
 * `streamEventLine` when @p on_event is. @p on_event then receives
 * the lines in completion order, one call at a time, as the
 * requests finish.
 */
EncodedBatch runEncodedBatch(
    AnalysisEngine &engine,
    const std::vector<AnalysisRequest> &requests,
    bool report_texts,
    const std::function<void(const std::string &line)> &on_event =
        {});

/**
 * Write the report of a run made with `report_texts` to @p path:
 * the bytes of `writeBatchReportFile(batch.report, path)`, spliced
 * from the outcome texts straight into the file.
 */
void writeBatchReportFile(const EncodedBatch &batch,
                          const std::string &path);

/**
 * The stream event as one compact NDJSON line (no trailing
 * newline -- the stream writer owns the line discipline).
 */
std::string streamEventLine(std::size_t index,
                            const RequestOutcome &outcome);

} // namespace ecochip

#endif // ECOCHIP_IO_BATCH_REPORT_IO_H
