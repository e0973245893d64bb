#include "session/analysis_session.h"

#include <utility>

#include "session/analysis_request.h"
#include "support/error.h"

namespace ecochip {

const char *
toString(AnalysisKind kind)
{
    switch (kind) {
      case AnalysisKind::Estimate: return "estimate";
      case AnalysisKind::Sweep: return "sweep";
      case AnalysisKind::MonteCarlo: return "monte_carlo";
      case AnalysisKind::Sensitivity: return "sensitivity";
      case AnalysisKind::Cost: return "cost";
    }
    return "unknown";
}

const char *
toString(CarbonMetric metric)
{
    switch (metric) {
      case CarbonMetric::Embodied: return "embodied";
      case CarbonMetric::Operational: return "operational";
      case CarbonMetric::Total: return "total";
    }
    return "unknown";
}

AnalysisSession::AnalysisSession(
    std::shared_ptr<const EvaluationContext> context,
    SystemSpec system)
    : context_(std::move(context)), system_(std::move(system))
{
    requireConfig(static_cast<bool>(context_),
                  "session needs an evaluation context");
    requireConfig(!system_.chiplets.empty(),
                  "session system has no chiplets");
}

AnalysisSession
AnalysisSession::withSystem(SystemSpec system) const
{
    return AnalysisSession(context_, std::move(system));
}

// Every verb is a thin adapter: build the declarative spec, run
// it inline through the same executor the AnalysisEngine
// schedules, so the two paths cannot drift apart.

AnalysisResult
AnalysisSession::estimate() const
{
    return runSpec(*this, EstimateSpec{});
}

AnalysisResult
AnalysisSession::sweep(
    const std::vector<double> &candidate_nodes_nm) const
{
    SweepSpec spec;
    spec.nodesNm = candidate_nodes_nm;
    return runSpec(*this, spec);
}

AnalysisResult
AnalysisSession::sweep(
    const std::vector<std::vector<double>>
        &candidates_per_chiplet) const
{
    SweepSpec spec;
    spec.nodesPerChiplet = candidates_per_chiplet;
    return runSpec(*this, spec);
}

AnalysisResult
AnalysisSession::monteCarlo(int trials, std::uint64_t seed,
                            Parallelism parallelism,
                            UncertaintyBands bands) const
{
    MonteCarloSpec spec;
    spec.trials = trials;
    spec.seed = seed;
    spec.threads = parallelism.threads;
    spec.bands = bands;
    return runSpec(*this, spec);
}

AnalysisResult
AnalysisSession::sensitivity(CarbonMetric metric,
                             double delta) const
{
    SensitivitySpec spec;
    spec.metric = metric;
    spec.delta = delta;
    return runSpec(*this, spec);
}

AnalysisResult
AnalysisSession::cost(const CostParams &params) const
{
    CostSpec spec;
    spec.params = params;
    return runSpec(*this, spec);
}

ScenarioBuilder &
ScenarioBuilder::registry(ScenarioRegistry registry)
{
    return this->registry(std::make_shared<const ScenarioRegistry>(
        std::move(registry)));
}

ScenarioBuilder &
ScenarioBuilder::registry(
    std::shared_ptr<const ScenarioRegistry> registry)
{
    requireConfig(static_cast<bool>(registry),
                  "scenario builder needs a registry");
    registry_ = std::move(registry);
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::scenario(const std::string &name)
{
    scenarioName_ = name;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::designDirectory(const std::string &dir)
{
    designDir_ = dir;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::system(SystemSpec system)
{
    system_ = std::move(system);
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::config(EcoChipConfig config)
{
    config_ = std::move(config);
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::tech(TechDb tech)
{
    return this->tech(
        std::make_shared<const TechDb>(std::move(tech)));
}

ScenarioBuilder &
ScenarioBuilder::tech(std::shared_ptr<const TechDb> tech)
{
    requireConfig(static_cast<bool>(tech),
                  "scenario builder needs a technology database");
    tech_ = std::move(tech);
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::packaging(PackagingArch arch)
{
    packaging_ = arch;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::operating(OperatingSpec spec)
{
    operating_ = spec;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::includeMaskNre(bool on)
{
    includeMaskNre_ = on;
    return *this;
}

AnalysisSession
ScenarioBuilder::build() const
{
    const int sources = (scenarioName_ ? 1 : 0) +
                        (designDir_ ? 1 : 0) +
                        (system_ ? 1 : 0);
    requireConfig(sources == 1,
                  "set exactly one of scenario(), "
                  "designDirectory(), system()");

    SystemSpec system;
    EcoChipConfig config;
    if (scenarioName_) {
        const ScenarioRegistry &registry =
            registry_ ? *registry_ : ScenarioRegistry::builtin();
        DesignBundle bundle =
            registry.instantiate(*scenarioName_, *tech_);
        system = std::move(bundle.system);
        config = std::move(bundle.config);
    } else if (designDir_) {
        DesignBundle bundle =
            loadDesignDirectory(*designDir_, *tech_);
        system = std::move(bundle.system);
        config = std::move(bundle.config);
    } else {
        system = *system_;
    }

    if (config_)
        config = *config_;
    if (packaging_)
        config.package.arch = *packaging_;
    if (operating_)
        config.operating = *operating_;
    if (includeMaskNre_)
        config.includeMaskNre = *includeMaskNre_;

    auto context = std::make_shared<const EvaluationContext>(
        std::move(config), tech_);
    return AnalysisSession(std::move(context),
                           std::move(system));
}

} // namespace ecochip
