/**
 * @file
 * Carbon-aware SoC partitioning: an exhaustive design-space search
 * over a GA102-class GPU's digital split, memory and analog nodes,
 * and packaging architecture (the `ga102-disaggregation-space`
 * generator) reports the carbon-optimal configurations -- the
 * paper's Sec. VI workflow, fully automated. The two winners and
 * the monolithic baseline are then re-estimated with the mask-NRE
 * carbon extension, and the embodied winner is re-examined
 * through an `AnalysisSession` (Monte-Carlo bands + dollar cost on
 * one shared context).
 *
 * Run from the repository root: the spec is read from
 * data/searches/exhaustive_disaggregation.json.
 */

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "io/search_io.h"
#include "search/search_driver.h"
#include "session/analysis_session.h"
#include "support/error.h"

int
main()
{
    using namespace ecochip;

    SearchSpec spec;
    try {
        spec = loadSearchSpecFile(
            "data/searches/exhaustive_disaggregation.json");
    } catch (const ConfigError &e) {
        std::cerr << e.what()
                  << "\n(run from the repository root)\n";
        return 1;
    }

    EngineOptions options;
    options.threads = 4;
    const SearchResult result = SearchDriver(options).run(spec);
    std::cout << "Evaluated " << result.evaluated.size()
              << " disaggregation configurations of \""
              << spec.generator << "\"\n\n";

    // Point metrics follow the spec's objectives: embodied_kg,
    // then total_kg.
    const auto label = [&](const EvaluatedPoint &point) {
        return point.name.substr(spec.generator.size() + 1);
    };
    std::vector<const EvaluatedPoint *> ranked;
    for (const auto &point : result.evaluated)
        ranked.push_back(&point);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto *a, const auto *b) {
                  return a->metrics[0] < b->metrics[0];
              });
    const EvaluatedPoint &best = *ranked.front();
    const EvaluatedPoint &best_total = *std::min_element(
        result.evaluated.begin(), result.evaluated.end(),
        [](const auto &a, const auto &b) {
            return a.metrics[1] < b.metrics[1];
        });

    std::cout << std::fixed << std::setprecision(2);
    std::cout << "Top configurations by embodied carbon "
                 "(mask NRE off):\n";
    for (std::size_t i = 0; i < 8 && i < ranked.size(); ++i) {
        const auto &p = *ranked[i];
        std::cout << "  " << i + 1 << ". " << std::setw(68)
                  << std::left << label(p) << std::right
                  << "  Cemb " << std::setw(7) << p.metrics[0]
                  << " kg, Ctot " << std::setw(7) << p.metrics[1]
                  << " kg\n";
    }

    // Re-estimate the winners and the built-in monolithic
    // baseline with the Sec. V-C mask-NRE extension.
    auto registry = std::make_shared<ScenarioRegistry>(
        ScenarioRegistry::builtin());
    if (spec.catalog)
        registry->loadFile(*spec.catalog);
    const auto with_nre = [&](const std::string &name) {
        return ScenarioBuilder()
            .registry(registry)
            .scenario(name)
            .includeMaskNre()
            .build();
    };
    const AnalysisSession winner = with_nre(best.name);
    const CarbonReport mono =
        *with_nre("ga102-mono").estimate().report;
    const CarbonReport emb = *winner.estimate().report;
    const CarbonReport tot =
        *with_nre(best_total.name).estimate().report;

    std::cout << "\nWith mask NRE:\n";
    std::cout << "Monolithic baseline: " << mono.embodiedCo2Kg()
              << " kg embodied, " << mono.totalCo2Kg()
              << " kg total\n";
    std::cout << "Best embodied: " << label(best) << " saves "
              << 100.0 * (1.0 - emb.embodiedCo2Kg() /
                                    mono.embodiedCo2Kg())
              << "% embodied carbon\n";
    std::cout << "Best total:    " << label(best_total) << " saves "
              << 100.0 * (1.0 - tot.totalCo2Kg() /
                                    mono.totalCo2Kg())
              << "% total carbon\n";

    std::cout << "\nWinner breakdown (" << label(best) << "):\n"
              << "  Cmfg " << emb.mfgCo2Kg << " kg, CHI "
              << emb.hi.totalCo2Kg() << " kg, Cdes "
              << emb.designCo2Kg << " kg, mask NRE "
              << emb.nreCo2Kg << " kg, Cop "
              << emb.operation.co2Kg << " kg\n";

    // How confident is the winner's number? Uncertainty and cost
    // run on the winner's one shared context.
    const AnalysisResult bands =
        winner.monteCarlo(500, 42, Parallelism{4});
    const SampleStats &band = bands.uncertainty->embodied;
    std::cout << "\nMonte-Carlo (500 trials, 4 threads): Cemb "
              << band.percentile(5.0) << " - "
              << band.percentile(95.0) << " kg (p5-p95), mean "
              << band.mean() << " kg\n";

    const CostBreakdown cost = *winner.cost().cost;
    std::cout << "Unit cost of the winner: $" << cost.totalUsd()
              << " (die $" << cost.dieUsd << ", NRE $"
              << cost.nreUsd << ")\n";
    return 0;
}
