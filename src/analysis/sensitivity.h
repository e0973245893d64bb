/**
 * @file
 * One-at-a-time sensitivity analysis over ECO-CHIP's input
 * parameters.
 *
 * The paper's validation discussion (Sec. VII) emphasizes that
 * ECO-CHIP "can generate numbers as accurate as the accuracy of
 * the input parameters, e.g., design time, yields, and defect
 * densities". This module quantifies that statement: it perturbs
 * each input by a relative amount and reports the elasticity of
 * the chosen carbon metric -- which inputs industry users must
 * pin down first.
 */

#ifndef ECOCHIP_ANALYSIS_SENSITIVITY_H
#define ECOCHIP_ANALYSIS_SENSITIVITY_H

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/ecochip.h"

namespace ecochip {

struct TrialBatch;

/**
 * Batch-kernel column a standard parameter maps to. Parameters
 * that declare a target are evaluated through the data-oriented
 * BatchEvaluator (one model build for the whole sweep); parameters
 * without one fall back to the per-perturbation scalar path.
 */
enum class ScaleTarget
{
    DefectDensityTable, ///< rebuild D0(p) with scaled ordinates
    EpaTable,           ///< rebuild EPA(p) with scaled ordinates
    FabIntensity,       ///< fab carbon intensity Cmfg,src
    PackageIntensity,   ///< packaging carbon intensity
    DesignIterations,   ///< Ndes (rounded, floored at 1)
    ChipletVolume,      ///< amortization volume NMi
    Lifetime,           ///< product lifetime (years)
    DutyCycle,          ///< TON, clamped to <= 1
};

/** A perturbable input parameter. */
struct SensitivityParameter
{
    /** Display name ("defect density", "EPA", ...). */
    std::string name;

    /**
     * Applies a multiplicative scale to the parameter inside the
     * configuration/technology pair.
     */
    std::function<void(EcoChipConfig &, TechDb &, double scale)>
        apply;

    /**
     * Batch-kernel column equivalent to `apply`; must produce
     * bit-identical estimates when set. Custom parameters may
     * leave it empty to opt out of batched evaluation.
     */
    std::optional<ScaleTarget> target;
};

/** Result row of a sensitivity sweep. */
struct SensitivityResult
{
    std::string name;

    /** Metric at scale (1 - delta). */
    double lowValue = 0.0;

    /** Metric at the unperturbed baseline. */
    double baseValue = 0.0;

    /** Metric at scale (1 + delta). */
    double highValue = 0.0;

    /**
     * Central-difference elasticity
     * d(ln metric) / d(ln parameter).
     */
    double elasticity = 0.0;
};

/** Carbon metric to differentiate. */
enum class CarbonMetric
{
    Embodied,
    Operational,
    Total,
};

/** One-at-a-time sensitivity analyzer. */
class SensitivityAnalyzer
{
  public:
    /**
     * @param config Baseline configuration.
     * @param tech Shared baseline technology calibration
     *        (non-null).
     */
    explicit SensitivityAnalyzer(
        EcoChipConfig config,
        std::shared_ptr<const TechDb> tech = TechDb::defaults());

    /**
     * The standard parameter set: defect density, fab EPA, fab
     * carbon intensity, design iterations, chiplet volume,
     * lifetime, duty cycle, packaging carbon intensity.
     */
    static std::vector<SensitivityParameter>
    standardParameters();

    /**
     * Run the sweep.
     *
     * @param system System under study.
     * @param parameters Parameters to perturb.
     * @param metric Carbon metric to differentiate.
     * @param delta Relative perturbation (default 10%).
     */
    std::vector<SensitivityResult>
    analyze(const SystemSpec &system,
            const std::vector<SensitivityParameter> &parameters,
            CarbonMetric metric = CarbonMetric::Embodied,
            double delta = 0.10) const;

  private:
    double evaluate(const SystemSpec &system,
                    const EcoChipConfig &config,
                    const TechDb &tech,
                    CarbonMetric metric) const;

    /** Write one perturbed trial row into the batch. */
    void fillTrial(TrialBatch &batch, std::size_t row,
                   ScaleTarget target, double scale) const;

    /** Legacy copy-the-config path for opaque parameters. */
    std::vector<SensitivityResult> analyzeScalar(
        const SystemSpec &system,
        const std::vector<SensitivityParameter> &parameters,
        CarbonMetric metric, double delta) const;

    EcoChipConfig config_;
    std::shared_ptr<const TechDb> tech_;
};

} // namespace ecochip

#endif // ECOCHIP_ANALYSIS_SENSITIVITY_H
