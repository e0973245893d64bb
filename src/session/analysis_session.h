/**
 * @file
 * Synchronous analysis façade: one cached evaluation context,
 * every analysis as a uniform verb.
 *
 * The preferred entry point for new code is the declarative
 * request API (`session/analysis_request.h`): build
 * `AnalysisRequest` values -- JSON round-trippable through
 * `io/request_io.h` -- and hand them to the thread-pooled
 * `engine/AnalysisEngine` (`submit()` futures, completion-order
 * `runStream()` callbacks, or aggregate `runBatch()`), which
 * deduplicates scenario contexts across requests. Whole batches
 * scale past one process through the coordinator
 * (`engine/shard_coordinator.h`, `engine/shard_runner.h`):
 * sub-batch files per worker process, outcomes merged
 * byte-identical to the single-process run. The session remains
 * the right tool for interactive, one-at-a-time use; its verbs
 * are thin adapters that build the equivalent request spec and
 * run it inline through the same `runSpec` executor the engine
 * schedules, so every path returns bit-identical results. The
 * layering and cache-ownership story is documented in
 * `docs/architecture.md`; wire formats in `docs/file_formats.md`.
 *
 * The paper's workflow is always the same shape -- load a design,
 * bind it to a technology database, then run one of several
 * analyses. `ScenarioBuilder` assembles that binding fluently
 * (from the scenario registry, a design directory on disk, or an
 * explicit SystemSpec), and `AnalysisSession` exposes the
 * analyses as verbs (`estimate()`, `sweep()`, `monteCarlo()`,
 * `sensitivity()`, `cost()`) over one immutable
 * `EvaluationContext`. `estimate()`, `sweep()`, and `cost()`
 * share the context's memoized estimator, so per-die
 * manufacturing and whole-system reports computed by one verb
 * are reused by the next (and by `withSystem()` siblings);
 * `monteCarlo()` and `sensitivity()` perturb the inputs per
 * trial/parameter, so they evaluate on purpose-built estimators
 * instead of the shared cache.
 *
 * The hot loops behind `sweep()`, `monteCarlo()`, and
 * `sensitivity()` run through the data-oriented batch kernels in
 * `src/kernels/` (structure-of-arrays trial columns, one
 * precompiled evaluation plan per scenario) and stay bit-identical
 * to the scalar `estimate()` path -- see docs/architecture.md,
 * "Data-oriented evaluation".
 *
 * @code
 *   auto session = ScenarioBuilder().scenario("ga102").build();
 *   auto point = session.estimate();
 *   auto space = session.sweep({7.0, 10.0, 14.0});
 *   auto bands = session.monteCarlo(1000, 42, Parallelism{4});
 *   std::cout << resultMarkdown(space);   // io/result_writer.h
 * @endcode
 */

#ifndef ECOCHIP_SESSION_ANALYSIS_SESSION_H
#define ECOCHIP_SESSION_ANALYSIS_SESSION_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "session/analysis_result.h"
#include "session/scenario_registry.h"

namespace ecochip {

/**
 * The immutable heart of a session: one technology database
 * (shared, never copied) and one configuration, bound into a
 * shared estimator whose evaluation cache every analysis of every
 * session holding this context reuses. Thread-safe: the
 * estimator's cache is guarded internally.
 */
class EvaluationContext
{
  public:
    /**
     * @param config Estimator configuration.
     * @param tech Shared technology calibration (non-null).
     */
    explicit EvaluationContext(
        EcoChipConfig config,
        std::shared_ptr<const TechDb> tech = TechDb::defaults())
        : estimator_(std::move(config), std::move(tech))
    {}

    /** The shared, cache-backed estimator. */
    const EcoChip &estimator() const { return estimator_; }

    /** Technology database in use. */
    const TechDb &tech() const { return estimator_.tech(); }

    /** The same database, shared (never null). */
    const std::shared_ptr<const TechDb> &sharedTech() const
    {
        return estimator_.sharedTech();
    }

    /** Configuration in use. */
    const EcoChipConfig &config() const
    {
        return estimator_.config();
    }

  private:
    EcoChip estimator_;
};

/**
 * A system bound to an evaluation context, with every analysis as
 * a verb returning a uniform `AnalysisResult`.
 *
 * Sessions are cheap to copy and to re-target: `withSystem()`
 * yields a sibling session sharing the same context (and thus the
 * same caches) -- the natural shape of a DSE loop.
 */
class AnalysisSession
{
  public:
    /**
     * @param context Shared evaluation context (non-null).
     * @param system System under study.
     */
    AnalysisSession(
        std::shared_ptr<const EvaluationContext> context,
        SystemSpec system);

    /** The shared evaluation context. */
    const EvaluationContext &context() const { return *context_; }

    /** The system under study. */
    const SystemSpec &system() const { return system_; }

    /** Sibling session on the same context (shared caches). */
    AnalysisSession withSystem(SystemSpec system) const;

    /** Point estimate of the full carbon report (Eqs. 1-3). */
    AnalysisResult estimate() const;

    /**
     * Technology-space sweep over every node assignment.
     *
     * @param candidate_nodes_nm Candidate nodes for each chiplet.
     */
    AnalysisResult
    sweep(const std::vector<double> &candidate_nodes_nm) const;

    /** Sweep with per-chiplet candidate lists. */
    AnalysisResult
    sweep(const std::vector<std::vector<double>>
              &candidates_per_chiplet) const;

    /**
     * Monte-Carlo uncertainty bands.
     *
     * @param trials Sample count (>= 2).
     * @param seed PRNG seed; equal seeds give equal reports at
     *        any thread count.
     * @param parallelism Trial batching across worker threads.
     * @param bands Sampling half-widths.
     */
    AnalysisResult
    monteCarlo(int trials, std::uint64_t seed = 42,
               Parallelism parallelism = {},
               UncertaintyBands bands = UncertaintyBands()) const;

    /**
     * One-at-a-time sensitivity over the standard parameter set.
     *
     * @param metric Carbon metric to differentiate.
     * @param delta Relative perturbation.
     */
    AnalysisResult
    sensitivity(CarbonMetric metric = CarbonMetric::Embodied,
                double delta = 0.10) const;

    /** Dollar-cost breakdown under the configured package. */
    AnalysisResult cost(const CostParams &params = CostParams()) const;

  private:
    std::shared_ptr<const EvaluationContext> context_;
    SystemSpec system_;
};

/**
 * Fluent assembly of an `AnalysisSession`.
 *
 * Exactly one system source must be set: a registry `scenario()`,
 * a `designDirectory()` on disk, or an explicit `system()`.
 * Scenario/directory configurations can then be overridden
 * piecemeal (`packaging()`, `operating()`, ...).
 */
class ScenarioBuilder
{
  public:
    ScenarioBuilder() = default;

    /** Use a copy of @p registry instead of the built-in catalog. */
    ScenarioBuilder &registry(ScenarioRegistry registry);

    /**
     * Use a shared catalog instead of the built-in one, without
     * copying it (how `AnalysisEngine` binds every request).
     */
    ScenarioBuilder &
    registry(std::shared_ptr<const ScenarioRegistry> registry);

    /** Start from a named scenario. */
    ScenarioBuilder &scenario(const std::string &name);

    /** Start from a design directory (`--design_dir` layout). */
    ScenarioBuilder &designDirectory(const std::string &dir);

    /** Start from an explicit system. */
    ScenarioBuilder &system(SystemSpec system);

    /** Replace the whole configuration. */
    ScenarioBuilder &config(EcoChipConfig config);

    /** Replace the technology calibration with a copy of @p tech. */
    ScenarioBuilder &tech(TechDb tech);

    /**
     * Replace the technology calibration with a shared one; the
     * context built refers to it instead of copying it.
     */
    ScenarioBuilder &tech(std::shared_ptr<const TechDb> tech);

    /** Override the packaging architecture. */
    ScenarioBuilder &packaging(PackagingArch arch);

    /** Override the operating specification. */
    ScenarioBuilder &operating(OperatingSpec spec);

    /** Toggle the Sec. V-C mask-NRE carbon extension. */
    ScenarioBuilder &includeMaskNre(bool on = true);

    /**
     * Build the session.
     *
     * @throws ConfigError unless exactly one system source was
     *         set, or when the scenario/directory is unknown.
     */
    AnalysisSession build() const;

  private:
    /** Custom catalog; the built-in registry when null. */
    std::shared_ptr<const ScenarioRegistry> registry_;
    std::optional<std::string> scenarioName_;
    std::optional<std::string> designDir_;
    std::optional<SystemSpec> system_;
    std::optional<EcoChipConfig> config_;
    std::shared_ptr<const TechDb> tech_ = TechDb::defaults();
    std::optional<PackagingArch> packaging_;
    std::optional<OperatingSpec> operating_;
    std::optional<bool> includeMaskNre_;
};

} // namespace ecochip

#endif // ECOCHIP_SESSION_ANALYSIS_SESSION_H
