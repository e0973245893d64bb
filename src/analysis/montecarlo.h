/**
 * @file
 * Monte-Carlo uncertainty quantification of carbon estimates.
 *
 * Table I publishes *ranges*, not point values; industry actors
 * hold the accurate numbers (paper Sec. VII). This module samples
 * the uncertain inputs uniformly within configurable relative
 * bands around the default calibration and reports the resulting
 * carbon distribution -- so a claimed "30% embodied saving" can be
 * stated with confidence bounds.
 *
 * Trials are evaluated through the data-oriented batch kernel
 * (src/kernels/): one BatchEvaluator precomputes every
 * trial-invariant quantity, and each worker draws and evaluates
 * fixed-size blocks of trials through one reused structure-of-arrays
 * TrialBatch. A run with enough trials spreads its blocks over a
 * private pool of worker threads (see MonteCarloAnalyzer::workers).
 * Reports stay bit-identical to the legacy
 * copy-the-config-per-trial path for equal seeds, at any thread
 * count.
 */

#ifndef ECOCHIP_ANALYSIS_MONTECARLO_H
#define ECOCHIP_ANALYSIS_MONTECARLO_H

#include <cstddef>
#include <cstdint>
#include <memory>

#include "core/ecochip.h"
#include "support/stats.h"

namespace ecochip {

/** Relative half-widths of the sampled input bands. */
struct UncertaintyBands
{
    /** Defect density D0(p): +/- 30%. */
    double defectDensity = 0.30;

    /** Fab energy per area EPA(p): +/- 20%. */
    double epa = 0.20;

    /** Fab / packaging carbon intensity: +/- 15%. */
    double intensity = 0.15;

    /** Design-compute anchor (SP&R hours): +/- 30%. */
    double designTime = 0.30;

    /** Use-phase duty cycle: +/- 25%. */
    double dutyCycle = 0.25;

    bool operator==(const UncertaintyBands &) const = default;
};

/** Distribution summary of one carbon metric. */
struct UncertaintyReport
{
    SampleStats embodied;
    SampleStats operational;
    SampleStats total;
};

/**
 * Trial-batching knob for Monte-Carlo runs.
 *
 * Trials are statistically independent, so they batch across a
 * pool of worker threads. Each trial's draws sit at the same
 * positions of the seed's stream whichever worker evaluates it,
 * which keeps every report bit-identical to the single-threaded
 * run for equal seeds.
 */
struct Parallelism
{
    /**
     * Most worker threads to use (1 = run serially on the
     * caller); MonteCarloAnalyzer::workers caps it further.
     */
    int threads = 1;

    /** One worker per hardware thread. */
    static Parallelism hardware();
};

/** Monte-Carlo driver. */
class MonteCarloAnalyzer
{
  public:
    /** Trials a worker draws and evaluates at a time. */
    static constexpr std::size_t kBlock = 1024;

    /**
     * Fewest trials worth a worker thread of their own: one block,
     * which outlasts starting and joining the thread.
     */
    static constexpr int kMinTrialsPerWorker = static_cast<int>(kBlock);

    /**
     * Worker threads, the caller included, for a run of @p trials
     * asking for @p threads on a machine with @p hardware hardware
     * threads (0 = unknown, counted as 1):
     * min(threads, ceil(trials / kMinTrialsPerWorker), hardware),
     * and at least 1. One worker means the run is inline.
     */
    static int workers(int threads, int trials, unsigned hardware);

    /**
     * @param config Baseline configuration.
     * @param tech Shared baseline technology calibration
     *        (non-null).
     * @param bands Sampling half-widths.
     */
    explicit MonteCarloAnalyzer(
        EcoChipConfig config,
        std::shared_ptr<const TechDb> tech = TechDb::defaults(),
        UncertaintyBands bands = UncertaintyBands());

    /**
     * Run @p trials independent samples.
     *
     * @param system System under study.
     * @param trials Sample count (>= 2).
     * @param seed PRNG seed; equal seeds give equal reports.
     * @param parallelism Trial batching; any thread count yields
     *        the same report as the serial run for equal seeds.
     */
    UncertaintyReport run(const SystemSpec &system, int trials,
                          std::uint64_t seed = 42,
                          Parallelism parallelism = {}) const;

  private:
    EcoChipConfig config_;
    std::shared_ptr<const TechDb> tech_;
    UncertaintyBands bands_;
};

} // namespace ecochip

#endif // ECOCHIP_ANALYSIS_MONTECARLO_H
