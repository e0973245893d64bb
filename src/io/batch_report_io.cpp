#include "io/batch_report_io.h"

#include <string_view>
#include <utility>

#include "io/request_io.h"
#include "io/result_writer.h"
#include "support/error.h"

namespace ecochip {

namespace {

/** The members shared by outcome documents and stream events. */
void
appendOutcomeMembers(json::StreamWriter &writer,
                     const RequestOutcome &outcome)
{
    writer.key("request");
    appendRequest(writer, outcome.request);
    writer.key("ok");
    writer.boolean(outcome.ok());
    if (outcome.ok()) {
        writer.key("result");
        appendResult(writer, *outcome.result);
    } else {
        writer.key("error");
        writer.string(outcome.error);
    }
}

/** The report up to its open `outcomes` array. */
void
beginReport(json::StreamWriter &writer, const BatchReport &report)
{
    writer.beginObject();
    writer.key("succeeded");
    writer.number(static_cast<double>(report.succeeded()));
    writer.key("failed");
    writer.number(static_cast<double>(report.failed()));
    writer.key("outcomes");
    writer.beginArray();
}

/** An outcome's depth in the report: root object, outcomes array. */
constexpr std::size_t kOutcomeDepth = 2;

/*
 * The per-outcome encoders below write into a buffer each thread
 * reuses, so a worker allocates once for a whole batch, and hand
 * back an exact-size copy instead of a buffer grown by doubling.
 */

/** @p outcome as it stands in the pretty report file. */
std::string
reportOutcomeText(const RequestOutcome &outcome)
{
    thread_local json::StreamWriter writer(true, kOutcomeDepth);
    writer.clear();
    appendOutcome(writer, outcome);
    return writer.str();
}

} // namespace

void
appendOutcome(json::StreamWriter &writer,
              const RequestOutcome &outcome)
{
    writer.beginObject();
    appendOutcomeMembers(writer, outcome);
    writer.endObject();
}

void
appendStreamEvent(json::StreamWriter &writer, std::size_t index,
                  const RequestOutcome &outcome)
{
    writer.beginObject();
    writer.key("index");
    writer.number(static_cast<double>(index));
    appendOutcomeMembers(writer, outcome);
    writer.endObject();
}

std::string
batchReportText(const BatchReport &report, bool pretty)
{
    json::StreamWriter writer(pretty);
    beginReport(writer, report);
    for (const auto &outcome : report.outcomes)
        appendOutcome(writer, outcome);
    writer.endArray();
    writer.endObject();
    return writer.take();
}

void
writeBatchReportFile(const BatchReport &report,
                     const std::string &path)
{
    json::writeFile(batchReportText(report, true), path);
}

EncodedBatch
runEncodedBatch(AnalysisEngine &engine,
                const std::vector<AnalysisRequest> &requests,
                bool report_texts,
                const std::function<void(const std::string &)>
                    &on_event)
{
    EncodedBatch batch;
    batch.report.outcomes.resize(requests.size());
    if (report_texts)
        batch.outcomeTexts.resize(requests.size());
    // Each worker writes only the slots of its own index; a line
    // lives from its worker's encode to its delivery.
    std::vector<std::string> lines(on_event ? requests.size() : 0);
    engine.runStream(
        requests,
        [&](std::size_t index, RequestOutcome &&outcome) {
            if (on_event)
                on_event(std::exchange(lines[index], {}));
            batch.report.outcomes[index] = std::move(outcome);
        },
        [&](std::size_t index, const RequestOutcome &outcome) {
            if (report_texts)
                batch.outcomeTexts[index] =
                    reportOutcomeText(outcome);
            if (on_event)
                lines[index] = streamEventLine(index, outcome);
        });
    return batch;
}

void
writeBatchReportFile(const EncodedBatch &batch,
                     const std::string &path)
{
    const BatchReport &report = batch.report;
    const std::size_t n = report.outcomes.size();
    requireModel(batch.outcomeTexts.size() == n,
                 "batch report file needs every outcome's text");

    // The report around its outcomes, with the place of each.
    json::StreamWriter writer(true);
    beginReport(writer, report);
    std::vector<std::size_t> slots;
    slots.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        slots.push_back(writer.placeholder());
    writer.endArray();
    writer.endObject();
    const std::string frame = writer.take();

    const std::string_view text(frame);
    std::vector<std::string_view> pieces;
    pieces.reserve(2 * n + 1);
    std::size_t from = 0;
    for (std::size_t i = 0; i < n; ++i) {
        pieces.push_back(text.substr(from, slots[i] - from));
        pieces.push_back(batch.outcomeTexts[i]);
        from = slots[i];
    }
    pieces.push_back(text.substr(from));
    json::writeFile(pieces, path);
}

std::string
streamEventLine(std::size_t index, const RequestOutcome &outcome)
{
    thread_local json::StreamWriter writer;
    writer.clear();
    appendStreamEvent(writer, index, outcome);
    return writer.str();
}

} // namespace ecochip
