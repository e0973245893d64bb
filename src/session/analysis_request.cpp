#include "session/analysis_request.h"

#include <utility>

#include "core/explorer.h"
#include "session/analysis_session.h"
#include "support/error.h"

namespace ecochip {

ScenarioRef
ScenarioRef::scenario(std::string name)
{
    ScenarioRef ref;
    ref.kind = Kind::Registry;
    ref.value = std::move(name);
    return ref;
}

ScenarioRef
ScenarioRef::designDirectory(std::string dir)
{
    ScenarioRef ref;
    ref.kind = Kind::DesignDirectory;
    ref.value = std::move(dir);
    return ref;
}

std::string
ScenarioRef::label() const
{
    return (kind == Kind::Registry ? "scenario:" : "dir:") +
           value;
}

AnalysisKind
specKind(const AnalysisSpec &spec)
{
    return std::visit(
        [](const auto &alternative) {
            using Spec = std::decay_t<decltype(alternative)>;
            if constexpr (std::is_same_v<Spec, EstimateSpec>)
                return AnalysisKind::Estimate;
            else if constexpr (std::is_same_v<Spec, SweepSpec>)
                return AnalysisKind::Sweep;
            else if constexpr (std::is_same_v<Spec,
                                              MonteCarloSpec>)
                return AnalysisKind::MonteCarlo;
            else if constexpr (std::is_same_v<Spec,
                                              SensitivitySpec>)
                return AnalysisKind::Sensitivity;
            else
                return AnalysisKind::Cost;
        },
        spec);
}

namespace {

AnalysisResult
runEstimate(const AnalysisSession &session, const EstimateSpec &)
{
    AnalysisResult result;
    result.kind = AnalysisKind::Estimate;
    result.scenario = session.system().name;
    result.detail = "point estimate";
    result.report =
        session.context().estimator().estimate(session.system());
    return result;
}

AnalysisResult
runSweep(const AnalysisSession &session, const SweepSpec &spec)
{
    requireConfig(spec.nodesNm.empty() !=
                      spec.nodesPerChiplet.empty(),
                  "sweep spec needs exactly one of nodes_nm / "
                  "nodes_per_chiplet");
    std::vector<std::vector<double>> expanded;
    const std::vector<std::vector<double>> *candidates =
        &spec.nodesPerChiplet;
    if (spec.nodesPerChiplet.empty()) {
        expanded.assign(session.system().chiplets.size(),
                        spec.nodesNm);
        candidates = &expanded;
    }

    TechSpaceExplorer explorer(session.context().estimator());

    AnalysisResult result;
    result.kind = AnalysisKind::Sweep;
    result.scenario = session.system().name;
    result.points = explorer.sweep(session.system(), *candidates);
    result.detail = std::to_string(result.points.size()) +
                    " node assignments";
    return result;
}

AnalysisResult
runMonteCarlo(const AnalysisSession &session,
              const MonteCarloSpec &spec)
{
    MonteCarloAnalyzer analyzer(session.context().config(),
                                session.context().sharedTech(),
                                spec.bands);

    AnalysisResult result;
    result.kind = AnalysisKind::MonteCarlo;
    result.scenario = session.system().name;
    result.trials = spec.trials;
    result.seed = spec.seed;
    result.detail =
        std::to_string(spec.trials) + " trials, seed " +
        std::to_string(spec.seed) +
        (spec.threads > 1
             ? ", " + std::to_string(spec.threads) + " threads"
             : "");
    result.uncertainty =
        analyzer.run(session.system(), spec.trials, spec.seed,
                     Parallelism{spec.threads});
    return result;
}

AnalysisResult
runSensitivity(const AnalysisSession &session,
               const SensitivitySpec &spec)
{
    SensitivityAnalyzer analyzer(session.context().config(),
                                 session.context().sharedTech());

    AnalysisResult result;
    result.kind = AnalysisKind::Sensitivity;
    result.scenario = session.system().name;
    result.metric = spec.metric;
    result.detail = std::string(toString(spec.metric)) +
                    " elasticities at +/-" +
                    std::to_string(static_cast<int>(
                        spec.delta * 100.0 + 0.5)) +
                    "%";
    result.sensitivity = analyzer.analyze(
        session.system(),
        SensitivityAnalyzer::standardParameters(), spec.metric,
        spec.delta);
    return result;
}

AnalysisResult
runCost(const AnalysisSession &session, const CostSpec &spec)
{
    AnalysisResult result;
    result.kind = AnalysisKind::Cost;
    result.scenario = session.system().name;
    result.detail = "dollar cost per part";
    result.cost = session.context().estimator().cost(
        session.system(), spec.params);
    return result;
}

} // namespace

AnalysisResult
runSpec(const AnalysisSession &session, const AnalysisSpec &spec)
{
    return std::visit(
        [&](const auto &alternative) {
            using Spec = std::decay_t<decltype(alternative)>;
            if constexpr (std::is_same_v<Spec, EstimateSpec>)
                return runEstimate(session, alternative);
            else if constexpr (std::is_same_v<Spec, SweepSpec>)
                return runSweep(session, alternative);
            else if constexpr (std::is_same_v<Spec,
                                              MonteCarloSpec>)
                return runMonteCarlo(session, alternative);
            else if constexpr (std::is_same_v<Spec,
                                              SensitivitySpec>)
                return runSensitivity(session, alternative);
            else
                return runCost(session, alternative);
        },
        spec);
}

CarbonMetric
carbonMetricFromString(const std::string &name)
{
    if (name == "embodied")
        return CarbonMetric::Embodied;
    if (name == "operational")
        return CarbonMetric::Operational;
    if (name == "total")
        return CarbonMetric::Total;
    throw ConfigError("unknown carbon metric \"" + name +
                      "\" (expected embodied, operational, or "
                      "total)");
}

AnalysisKind
analysisKindFromString(const std::string &name)
{
    if (name == "estimate")
        return AnalysisKind::Estimate;
    if (name == "sweep")
        return AnalysisKind::Sweep;
    if (name == "monte_carlo")
        return AnalysisKind::MonteCarlo;
    if (name == "sensitivity")
        return AnalysisKind::Sensitivity;
    if (name == "cost")
        return AnalysisKind::Cost;
    throw ConfigError("unknown analysis kind \"" + name +
                      "\" (expected estimate, sweep, "
                      "monte_carlo, sensitivity, or cost)");
}

} // namespace ecochip
