/**
 * @file
 * Batch engine walkthrough: declarative `AnalysisRequest`s
 * scheduled asynchronously across a thread pool, with scenario
 * deduplication, per-request failure isolation, and the JSON wire
 * format (`eco_chip --batch` uses exactly this path).
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/batch_engine
 */

#include <iostream>

#include "engine/analysis_engine.h"
#include "io/request_io.h"

int
main()
{
    using namespace ecochip;

    // 1. Declare *what* to compute: one request per question.
    //    Requests are plain values -- the same ones eco_chip
    //    reads from requests.json.
    std::vector<AnalysisRequest> requests;
    for (const char *name : {"ga102", "ga102-mono", "emr",
                             "server-4die", "hbm-accel"})
        requests.push_back(
            {ScenarioRef::scenario(name), EstimateSpec{}});

    SweepSpec sweep;
    sweep.nodesNm = {7.0, 10.0, 14.0};
    requests.push_back({ScenarioRef::scenario("ga102"), sweep});

    MonteCarloSpec mc;
    mc.trials = 256;
    mc.seed = 42;
    requests.push_back({ScenarioRef::scenario("ga102"), mc});

    // A deliberately broken request: it fails alone, the batch
    // completes.
    requests.push_back({ScenarioRef::scenario("typo-scenario"),
                        EstimateSpec{}});

    json::StreamWriter wire(true);
    appendRequest(wire, requests[5]);
    std::cout << "wire format of request #5:\n"
              << wire.take() << "\n\n";

    // 2. Hand the batch to the engine, which owns *how* it runs:
    //    4 workers, one shared evaluation context per distinct
    //    scenario. Results are bit-identical at any thread count.
    AnalysisEngine engine(4);
    const BatchReport report = engine.runBatch(requests);

    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
        const RequestOutcome &outcome = report.outcomes[i];
        std::cout << "#" << i << " "
                  << toString(outcome.request.kind()) << " "
                  << outcome.request.scenario.label() << ": ";
        if (!outcome.ok()) {
            std::cout << "FAILED (" << outcome.error << ")\n";
            continue;
        }
        if (outcome.result->report)
            std::cout << outcome.result->report->totalCo2Kg()
                      << " kg CO2 total";
        else if (!outcome.result->points.empty())
            std::cout << outcome.result->points.size()
                      << " sweep points";
        else if (outcome.result->uncertainty)
            std::cout << "embodied p50 "
                      << outcome.result->uncertainty->embodied
                             .percentile(50.0)
                      << " kg CO2";
        std::cout << "\n";
    }

    std::cout << "\n" << report.succeeded() << "/"
              << report.outcomes.size() << " ok across "
              << engine.contextCount()
              << " deduplicated evaluation contexts\n";

    // 3. Futures, for streaming consumers: submit() returns
    //    immediately; .get() waits for that one request.
    auto future = engine.submit(
        {ScenarioRef::scenario("a15"), EstimateSpec{}});
    std::cout << "a15 total: "
              << future.get().report->totalCo2Kg()
              << " kg CO2\n";

    // The demo intentionally included one failing request; the
    // example itself succeeds when isolation held.
    return report.failed() == 1 ? 0 : 1;
}
