#include "search/search_driver.h"

#include <algorithm>
#include <utility>

#include "support/error.h"

namespace ecochip {

SearchDriver::SearchDriver(EngineOptions options)
    : options_(std::move(options))
{}

void
SearchDriver::validate(const SearchSpec &spec)
{
    requireConfig(!spec.generator.empty(),
                  "search spec needs a generator");
    requireConfig(!spec.objectives.empty(),
                  "search spec needs at least one objective");
    for (const auto &objective : spec.objectives)
        requireConfig(objective.weight > 0.0,
                      "objective weight must be positive");
    for (const auto &constraint : spec.constraints)
        requireConfig(!constraint.min || !constraint.max ||
                          *constraint.min <= *constraint.max,
                      "constraint min exceeds max");
    requireConfig(spec.batchSize >= 1,
                  "batch_size must be >= 1");
    requireConfig(spec.strategy.restarts >= 1,
                  "restarts must be >= 1");
    requireConfig(spec.strategy.steps >= 0,
                  "steps must be >= 0");
    requireConfig(spec.strategy.initialTemp >= 0.0,
                  "initial_temp must be >= 0");
    requireConfig(spec.strategy.cooling > 0.0 &&
                      spec.strategy.cooling <= 1.0,
                  "cooling must be in (0, 1]");
}

std::vector<AnalysisRequest>
SearchDriver::expand(const SearchSpec &spec,
                     const ScenarioSpace &space)
{
    const auto tracked = trackedMetrics(spec);
    const bool needs_cost =
        std::find(tracked.begin(), tracked.end(),
                  SearchMetric::CostUsd) != tracked.end();

    std::vector<AnalysisRequest> requests;
    requests.reserve(space.size() * (needs_cost ? 2 : 1));
    for (std::size_t flat = 0; flat < space.size(); ++flat) {
        const std::string name = space.nameAt(flat);
        requests.push_back(
            {ScenarioRef::scenario(name), EstimateSpec{}});
        if (needs_cost) {
            CostSpec cost;
            if (spec.costParams)
                cost.params = *spec.costParams;
            requests.push_back(
                {ScenarioRef::scenario(name), cost});
        }
    }
    return requests;
}

SearchResult
SearchDriver::run(const SearchSpec &spec)
{
    validate(spec);

    EngineOptions options = options_;
    if (spec.catalog)
        options.registry.loadFile(*spec.catalog);

    AnalysisEngine engine(std::move(options));
    const ScenarioSpace space(
        engine.registry().generator(spec.generator));
    SearchContext ctx(spec, space, engine);
    makeStrategy(spec.strategy)->run(ctx);

    SearchResult result;
    result.spec = spec;
    result.spaceSize = space.size();
    result.evaluated = ctx.points();
    result.requests = ctx.requests();
    result.report.outcomes = ctx.outcomes();

    // Scalarized winner: lowest score, first-evaluated on ties.
    for (std::size_t i = 0; i < result.evaluated.size(); ++i) {
        const EvaluatedPoint &point = result.evaluated[i];
        if (!point.feasible)
            continue;
        if (!result.best ||
            point.score <
                result.evaluated[*result.best].score)
            result.best = i;
    }

    // Pareto frontier over the feasible points' objective
    // vectors, maximized metrics negated into minimization.
    const auto tracked = trackedMetrics(spec);
    std::vector<ParetoPoint> candidates;
    std::vector<std::size_t> candidate_slots;
    for (std::size_t i = 0; i < result.evaluated.size(); ++i) {
        const EvaluatedPoint &point = result.evaluated[i];
        if (!point.feasible)
            continue;
        ParetoPoint candidate;
        candidate.name = point.name;
        candidate.objectives.reserve(spec.objectives.size());
        for (const auto &objective : spec.objectives) {
            const auto slot =
                std::find(tracked.begin(), tracked.end(),
                          objective.metric);
            const double value =
                point.metrics[static_cast<std::size_t>(
                    slot - tracked.begin())];
            candidate.objectives.push_back(
                objective.maximize ? -value : value);
        }
        candidates.push_back(std::move(candidate));
        candidate_slots.push_back(i);
    }
    for (const std::size_t index : paretoFrontier(candidates))
        result.frontier.push_back(candidate_slots[index]);

    return result;
}

} // namespace ecochip
