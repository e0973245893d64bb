#include "io/batch_report_io.h"

#include "io/request_io.h"
#include "io/result_writer.h"

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
    writer.beginObject();
    writer.key("succeeded");
    writer.number(static_cast<double>(report.succeeded()));
    writer.key("failed");
    writer.number(static_cast<double>(report.failed()));
    writer.key("outcomes");
    writer.beginArray();
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

std::string
streamEventLine(std::size_t index, const RequestOutcome &outcome)
{
    json::StreamWriter writer;
    appendStreamEvent(writer, index, outcome);
    return writer.take();
}

} // namespace ecochip
