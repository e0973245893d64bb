#include "io/search_io.h"

#include <cmath>
#include <filesystem>

#include "io/config_loader.h"
#include "io/request_io.h"
#include "support/error.h"

namespace ecochip {

namespace {

/** Sanity caps, in the spirit of request_io's trial/thread caps:
 *  fat-fingered values are rejected, not allowed to spawn absurd
 *  work. */
constexpr std::int64_t kMaxRestarts = 4096;
constexpr std::int64_t kMaxSteps = 10'000'000;
constexpr std::int64_t kMaxBatchSize = 65'536;

StrategySpec
strategyFromJson(const json::Value &doc,
                 const std::string &context)
{
    rejectUnknownKeys(doc,
                      {"kind", "seed", "restarts", "steps",
                       "initial_temp", "cooling"},
                      context);

    StrategySpec spec;
    spec.kind = strategyKindFromString(
        doc.stringOr("kind", "exhaustive"), context);
    if (doc.contains("seed")) {
        const std::int64_t seed = doc.at("seed").asInteger();
        requireConfig(seed >= 0,
                      context + ": seed must be non-negative");
        spec.seed = static_cast<std::uint64_t>(seed);
    }
    if (doc.contains("restarts")) {
        const std::int64_t restarts =
            doc.at("restarts").asInteger();
        requireConfig(restarts >= 1 && restarts <= kMaxRestarts,
                      context + ": restarts must be in [1, " +
                          std::to_string(kMaxRestarts) + "]");
        spec.restarts = static_cast<int>(restarts);
    }
    if (doc.contains("steps")) {
        const std::int64_t steps = doc.at("steps").asInteger();
        requireConfig(steps >= 0 && steps <= kMaxSteps,
                      context + ": steps must be in [0, " +
                          std::to_string(kMaxSteps) + "]");
        spec.steps = static_cast<int>(steps);
    }
    spec.initialTemp =
        doc.numberOr("initial_temp", spec.initialTemp);
    requireConfig(spec.initialTemp >= 0.0,
                  context + ": initial_temp must be >= 0");
    spec.cooling = doc.numberOr("cooling", spec.cooling);
    requireConfig(spec.cooling > 0.0 && spec.cooling <= 1.0,
                  context + ": cooling must be in (0, 1]");
    return spec;
}

ObjectiveSpec
objectiveFromJson(const json::Value &doc,
                  const std::string &context)
{
    rejectUnknownKeys(doc, {"metric", "goal", "weight"},
                      context);
    ObjectiveSpec spec;
    spec.metric = searchMetricFromString(
        doc.at("metric").asString(), context);
    const std::string goal = doc.stringOr("goal", "min");
    requireConfig(goal == "min" || goal == "max",
                  context +
                      ": goal must be \"min\" or \"max\"");
    spec.maximize = goal == "max";
    spec.weight = doc.numberOr("weight", spec.weight);
    requireConfig(spec.weight > 0.0,
                  context + ": weight must be positive");
    return spec;
}

ConstraintSpec
constraintFromJson(const json::Value &doc,
                   const std::string &context)
{
    rejectUnknownKeys(doc, {"metric", "min", "max"}, context);
    ConstraintSpec spec;
    spec.metric = searchMetricFromString(
        doc.at("metric").asString(), context);
    if (doc.contains("min"))
        spec.min = doc.at("min").asNumber();
    if (doc.contains("max"))
        spec.max = doc.at("max").asNumber();
    requireConfig(spec.min || spec.max,
                  context +
                      ": constraint needs a min or a max");
    requireConfig(!spec.min || !spec.max ||
                      *spec.min <= *spec.max,
                  context + ": constraint min exceeds max");
    return spec;
}

/** The `metrics` member: one point's values, tracked order. */
void
appendMetrics(json::StreamWriter &writer,
              const EvaluatedPoint &point,
              const std::vector<SearchMetric> &tracked)
{
    writer.key("metrics");
    writer.beginObject();
    for (std::size_t i = 0; i < tracked.size(); ++i) {
        writer.key(toString(tracked[i]));
        writer.number(point.metrics[i]);
    }
    writer.endObject();
}

} // namespace

SearchSpec
searchSpecFromJson(const json::Value &doc,
                   const std::string &context)
{
    rejectUnknownKeys(doc,
                      {"generator", "scenarios", "strategy",
                       "objectives", "constraints",
                       "batch_size", "cost_params"},
                      context);

    SearchSpec spec;
    spec.generator = doc.at("generator").asString();
    requireConfig(!spec.generator.empty(),
                  context + ": generator must not be empty");
    if (doc.contains("scenarios"))
        spec.catalog = doc.at("scenarios").asString();
    if (doc.contains("strategy"))
        spec.strategy = strategyFromJson(
            doc.at("strategy"), context + ": strategy");

    const auto &objectives = doc.at("objectives").asArray();
    requireConfig(!objectives.empty(),
                  context +
                      ": needs at least one objective");
    std::size_t index = 0;
    for (const auto &entry : objectives) {
        spec.objectives.push_back(objectiveFromJson(
            entry, context + ": objective #" +
                       std::to_string(index)));
        ++index;
    }

    if (doc.contains("constraints")) {
        index = 0;
        for (const auto &entry :
             doc.at("constraints").asArray()) {
            spec.constraints.push_back(constraintFromJson(
                entry, context + ": constraint #" +
                           std::to_string(index)));
            ++index;
        }
    }

    if (doc.contains("batch_size")) {
        const std::int64_t batch =
            doc.at("batch_size").asInteger();
        requireConfig(batch >= 1 && batch <= kMaxBatchSize,
                      context +
                          ": batch_size must be in [1, " +
                          std::to_string(kMaxBatchSize) + "]");
        spec.batchSize = static_cast<int>(batch);
    }

    if (doc.contains("cost_params"))
        spec.costParams = costParamsFromJson(
            doc.at("cost_params"),
            context + ": cost_params");

    return spec;
}

SearchSpec
loadSearchSpecFile(const std::string &path)
{
    SearchSpec spec =
        searchSpecFromJson(json::parseFile(path), path);
    if (spec.catalog) {
        // Catalog paths resolve relative to the spec file, so a
        // searches/ directory ships as a self-contained unit
        // (same rule as batch files).
        const std::filesystem::path catalog(*spec.catalog);
        if (!catalog.is_absolute())
            spec.catalog = (std::filesystem::path(path)
                                .parent_path() /
                            catalog)
                               .string();
    }
    return spec;
}

void
appendSearchResult(json::StreamWriter &writer,
                   const SearchResult &result)
{
    const auto tracked = trackedMetrics(result.spec);

    writer.beginObject();
    writer.key("generator");
    writer.string(result.spec.generator);
    writer.key("strategy");
    writer.string(toString(result.spec.strategy.kind));
    writer.key("seed");
    writer.number(static_cast<double>(result.spec.strategy.seed));
    writer.key("space_size");
    writer.number(static_cast<double>(result.spaceSize));
    writer.key("evaluations");
    writer.number(static_cast<double>(result.evaluated.size()));

    writer.key("best");
    if (result.best) {
        const EvaluatedPoint &best =
            result.evaluated[*result.best];
        writer.beginObject();
        writer.key("scenario");
        writer.string(best.name);
        writer.key("score");
        writer.number(best.score);
        appendMetrics(writer, best, tracked);
        writer.endObject();
    } else {
        writer.null();
    }

    writer.key("frontier");
    writer.beginArray();
    for (const std::size_t slot : result.frontier) {
        const EvaluatedPoint &point = result.evaluated[slot];
        writer.beginObject();
        writer.key("scenario");
        writer.string(point.name);
        appendMetrics(writer, point, tracked);
        writer.endObject();
    }
    writer.endArray();

    writer.key("points");
    writer.beginArray();
    for (const EvaluatedPoint &point : result.evaluated) {
        writer.beginObject();
        writer.key("scenario");
        writer.string(point.name);
        writer.key("ok");
        writer.boolean(point.ok);
        writer.key("feasible");
        writer.boolean(point.feasible);
        // +inf (infeasible/failed) has no JSON spelling; the
        // feasible flag already says why the score is absent.
        if (std::isfinite(point.score)) {
            writer.key("score");
            writer.number(point.score);
        }
        if (!point.ok) {
            writer.key("error");
            writer.string(point.error);
        } else {
            appendMetrics(writer, point, tracked);
        }
        writer.endObject();
    }
    writer.endArray();
    writer.endObject();
}

} // namespace ecochip
