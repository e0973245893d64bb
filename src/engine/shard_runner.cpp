#include "engine/shard_runner.h"

#include <fstream>
#include <functional>
#include <string>
#include <utility>

#include "engine/analysis_engine.h"
#include "io/batch_report_io.h"
#include "io/request_io.h"
#include "support/error.h"

namespace ecochip {

int
runShardWorker(const std::string &sub_batch_path,
               const std::string &report_path,
               int engine_threads,
               const std::string &scenarios_path,
               const std::string &events_path)
{
    const BatchFile batch = loadBatchFile(sub_batch_path);

    ScenarioRegistry registry = ScenarioRegistry::builtin();
    if (!scenarios_path.empty())
        registry.loadFile(scenarios_path);
    if (batch.scenarioCatalog)
        registry.loadFile(*batch.scenarioCatalog);

    EngineOptions options;
    options.threads = engine_threads;
    options.registry = std::move(registry);
    AnalysisEngine engine(std::move(options));

    // Each outcome is encoded on its engine worker; with an events
    // path its stream line is flushed the moment the request
    // completes, so a tailing coordinator only ever reads whole
    // lines. The report is spliced from the same workers' texts,
    // bit-identical to the non-streaming path.
    std::ofstream events;
    std::function<void(const std::string &)> on_event;
    if (!events_path.empty()) {
        events.open(events_path, std::ios::out | std::ios::trunc);
        requireConfig(events.good(),
                      "cannot open the worker event stream for "
                      "writing: " +
                          events_path);
        on_event = [&events](const std::string &line) {
            events << line << '\n';
            events.flush();
        };
    }
    const EncodedBatch run =
        runEncodedBatch(engine, batch.requests, true, on_event);
    writeBatchReportFile(run, report_path);
    return run.report.allOk() ? 0 : 1;
}

} // namespace ecochip
