#include "analysis/sensitivity.h"

#include <algorithm>
#include <cmath>

#include "kernels/batch_evaluator.h"
#include "kernels/trial_batch.h"
#include "support/error.h"

namespace ecochip {

namespace {

/** Rebuild a node-keyed table with every ordinate scaled. */
PiecewiseLinear
scaledNodeTable(const std::function<double(double)> &eval,
                double scale)
{
    std::vector<std::pair<double, double>> points;
    for (double node : TechDb::standardNodesNm())
        points.emplace_back(node, scale * eval(node));
    return PiecewiseLinear(points);
}

} // namespace

SensitivityAnalyzer::SensitivityAnalyzer(
    EcoChipConfig config, std::shared_ptr<const TechDb> tech)
    : config_(std::move(config)), tech_(std::move(tech))
{
    requireConfig(static_cast<bool>(tech_),
                  "sensitivity needs a technology database");
}

std::vector<SensitivityParameter>
SensitivityAnalyzer::standardParameters()
{
    std::vector<SensitivityParameter> params;
    params.push_back(
        {"defect density D0",
         [](EcoChipConfig &, TechDb &tech, double scale) {
             tech.setDefectDensityTable(scaledNodeTable(
                 [&tech](double n) {
                     return tech.defectDensityPerCm2(n);
                 },
                 scale));
         },
         ScaleTarget::DefectDensityTable});
    params.push_back(
        {"fab energy per area EPA",
         [](EcoChipConfig &, TechDb &tech, double scale) {
             tech.setEpaTable(scaledNodeTable(
                 [&tech](double n) {
                     return tech.epaKwhPerCm2(n);
                 },
                 scale));
         },
         ScaleTarget::EpaTable});
    params.push_back(
        {"fab carbon intensity",
         [](EcoChipConfig &config, TechDb &, double scale) {
             config.fabIntensityGPerKwh *= scale;
         },
         ScaleTarget::FabIntensity});
    params.push_back(
        {"packaging carbon intensity",
         [](EcoChipConfig &config, TechDb &, double scale) {
             config.package.intensityGPerKwh *= scale;
         },
         ScaleTarget::PackageIntensity});
    params.push_back(
        {"design iterations Ndes",
         [](EcoChipConfig &config, TechDb &, double scale) {
             config.design.designIterations = std::max(
                 1, static_cast<int>(std::lround(
                        config.design.designIterations * scale)));
         },
         ScaleTarget::DesignIterations});
    params.push_back(
        {"chiplet volume NMi",
         [](EcoChipConfig &config, TechDb &, double scale) {
             config.design.chipletVolume *= scale;
         },
         ScaleTarget::ChipletVolume});
    params.push_back(
        {"lifetime",
         [](EcoChipConfig &config, TechDb &, double scale) {
             config.operating.lifetimeYears *= scale;
         },
         ScaleTarget::Lifetime});
    params.push_back(
        {"duty cycle TON",
         [](EcoChipConfig &config, TechDb &, double scale) {
             config.operating.dutyCycle =
                 std::min(1.0, config.operating.dutyCycle * scale);
         },
         ScaleTarget::DutyCycle});
    return params;
}

double
SensitivityAnalyzer::evaluate(const SystemSpec &system,
                              const EcoChipConfig &config,
                              const TechDb &tech,
                              CarbonMetric metric) const
{
    EcoChip estimator(config, tech);
    const CarbonReport report = estimator.estimate(system);
    switch (metric) {
      case CarbonMetric::Embodied:
        return report.embodiedCo2Kg();
      case CarbonMetric::Operational:
        return report.operation.co2Kg;
      case CarbonMetric::Total:
        return report.totalCo2Kg();
    }
    throw ModelError("unhandled carbon metric");
}

void
SensitivityAnalyzer::fillTrial(TrialBatch &batch,
                               std::size_t row,
                               ScaleTarget target,
                               double scale) const
{
    switch (target) {
      case ScaleTarget::DefectDensityTable:
        batch.defectDensityScale[row] = scale;
        batch.rebuildDefectDensity[row] = 1;
        break;
      case ScaleTarget::EpaTable:
        batch.epaScale[row] = scale;
        batch.rebuildEpa[row] = 1;
        break;
      case ScaleTarget::FabIntensity:
        batch.fabIntensityScale[row] = scale;
        break;
      case ScaleTarget::PackageIntensity:
        batch.packageIntensityScale[row] = scale;
        break;
      case ScaleTarget::DesignIterations:
        // Same rounded-and-floored integer count the scalar
        // closure writes back into the configuration.
        batch.designIterations[row] =
            static_cast<double>(std::max(
                1, static_cast<int>(std::lround(
                       config_.design.designIterations * scale))));
        break;
      case ScaleTarget::ChipletVolume:
        batch.chipletVolumeScale[row] = scale;
        break;
      case ScaleTarget::Lifetime:
        batch.lifetimeScale[row] = scale;
        break;
      case ScaleTarget::DutyCycle:
        batch.dutyCycleScale[row] = scale;
        break;
    }
}

std::vector<SensitivityResult>
SensitivityAnalyzer::analyze(
    const SystemSpec &system,
    const std::vector<SensitivityParameter> &parameters,
    CarbonMetric metric, double delta) const
{
    requireConfig(delta > 0.0 && delta < 1.0,
                  "perturbation delta must be in (0, 1)");

    // Batched evaluation needs every parameter to declare its
    // kernel column; one opaque closure sends the whole sweep down
    // the legacy scalar path.
    bool batchable = true;
    for (const auto &param : parameters)
        batchable &= param.target.has_value();
    if (!batchable)
        return analyzeScalar(system, parameters, metric, delta);

    // Row 0 is the unperturbed baseline; rows 1 + 2i / 2 + 2i are
    // parameter i at scale (1 - delta) / (1 + delta).
    TrialBatch batch;
    batch.resize(1 + 2 * parameters.size());
    for (std::size_t i = 0; i < parameters.size(); ++i) {
        fillTrial(batch, 1 + 2 * i, *parameters[i].target,
                  1.0 - delta);
        fillTrial(batch, 2 + 2 * i, *parameters[i].target,
                  1.0 + delta);
    }

    const BatchEvaluator evaluator(config_, *tech_, system);
    std::vector<double> embodied(batch.size()),
        operational(batch.size()), total(batch.size());
    const double *metrics = nullptr;
    switch (metric) {
      case CarbonMetric::Embodied: metrics = embodied.data(); break;
      case CarbonMetric::Operational:
        metrics = operational.data();
        break;
      case CarbonMetric::Total: metrics = total.data(); break;
    }
    if (!metrics)
        throw ModelError("unhandled carbon metric");

    // Baseline first: its positivity check must fire before any
    // perturbed evaluation, exactly like the scalar path.
    evaluator.evaluateRange(batch, 0, 1, embodied.data(),
                            operational.data(), total.data());
    const double base = metrics[0];
    requireModel(base > 0.0, "baseline metric must be positive");
    evaluator.evaluateRange(batch, 1, batch.size(),
                            embodied.data(), operational.data(),
                            total.data());

    std::vector<SensitivityResult> results;
    results.reserve(parameters.size());
    for (std::size_t i = 0; i < parameters.size(); ++i) {
        SensitivityResult row;
        row.name = parameters[i].name;
        row.baseValue = base;
        row.lowValue = metrics[1 + 2 * i];
        row.highValue = metrics[2 + 2 * i];
        row.elasticity =
            (std::log(row.highValue) - std::log(row.lowValue)) /
            (std::log(1.0 + delta) - std::log(1.0 - delta));
        results.push_back(std::move(row));
    }
    return results;
}

std::vector<SensitivityResult>
SensitivityAnalyzer::analyzeScalar(
    const SystemSpec &system,
    const std::vector<SensitivityParameter> &parameters,
    CarbonMetric metric, double delta) const
{
    const double base =
        evaluate(system, config_, *tech_, metric);
    requireModel(base > 0.0, "baseline metric must be positive");

    std::vector<SensitivityResult> results;
    for (const auto &param : parameters) {
        SensitivityResult row;
        row.name = param.name;
        row.baseValue = base;

        for (double sign : {-1.0, +1.0}) {
            EcoChipConfig config = config_;
            TechDb tech = *tech_;
            param.apply(config, tech, 1.0 + sign * delta);
            const double value =
                evaluate(system, config, tech, metric);
            (sign < 0 ? row.lowValue : row.highValue) = value;
        }

        // Central-difference log-log slope.
        row.elasticity =
            (std::log(row.highValue) - std::log(row.lowValue)) /
            (std::log(1.0 + delta) - std::log(1.0 - delta));
        results.push_back(std::move(row));
    }
    return results;
}

} // namespace ecochip
