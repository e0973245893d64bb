#include "analysis/montecarlo.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <latch>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "engine/thread_pool.h"
#include "kernels/batch_evaluator.h"
#include "kernels/trial_batch.h"
#include "support/error.h"
#include "support/rng.h"

namespace ecochip {

namespace {

/** Stream values each trial draws, in band order. */
constexpr std::uint64_t kDrawsPerTrial = 5;

/** A @p rows-trial batch with the Monte-Carlo rebuild flags set. */
TrialBatch
blockBatch(std::size_t rows)
{
    TrialBatch batch;
    batch.resize(rows);
    // The legacy path re-interpolated both tables at the standard
    // node anchors; the rebuild flags reproduce that.
    batch.rebuildDefectDensity.assign(rows, 1);
    batch.rebuildEpa.assign(rows, 1);
    return batch;
}

/**
 * Draw trials [first, first + count) into rows [0, count) of
 * @p batch. Trial t's draws are stream values 5t..5t+4 of the
 * seed, so a block drawn alone equals the same rows of one serial
 * draw of every trial.
 */
void
drawTrials(const UncertaintyBands &bands, std::uint64_t seed,
           std::size_t first, std::size_t count, TrialBatch &batch)
{
    Rng rng(seed);
    rng.skip(kDrawsPerTrial * first);
    auto scale_band = [&rng](double half_width) {
        return rng.uniform(1.0 - half_width, 1.0 + half_width);
    };
    for (std::size_t row = 0; row < count; ++row) {
        const double defect_density =
            scale_band(bands.defectDensity);
        const double epa = scale_band(bands.epa);
        const double intensity = scale_band(bands.intensity);
        const double design_time = scale_band(bands.designTime);
        const double duty_cycle = scale_band(bands.dutyCycle);

        // One carbon-intensity draw scales the fab, packaging, and
        // design-compute sources together, exactly like the legacy
        // per-trial config mutation did.
        batch.defectDensityScale[row] = defect_density;
        batch.epaScale[row] = epa;
        batch.fabIntensityScale[row] = intensity;
        batch.packageIntensityScale[row] = intensity;
        batch.designIntensityScale[row] = intensity;
        batch.sprHoursScale[row] = design_time;
        batch.dutyCycleScale[row] = duty_cycle;
    }
}

} // namespace

Parallelism
Parallelism::hardware()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return Parallelism{hw == 0 ? 1 : static_cast<int>(hw)};
}

int
MonteCarloAnalyzer::workers(int threads, int trials,
                            unsigned hardware)
{
    const long long by_trials =
        (static_cast<long long>(trials) + kMinTrialsPerWorker - 1) /
        kMinTrialsPerWorker;
    const long long capped =
        std::min({static_cast<long long>(threads), by_trials,
                  static_cast<long long>(std::max(hardware, 1u))});
    return static_cast<int>(std::max(capped, 1LL));
}

MonteCarloAnalyzer::MonteCarloAnalyzer(
    EcoChipConfig config, std::shared_ptr<const TechDb> tech,
    UncertaintyBands bands)
    : config_(std::move(config)), tech_(std::move(tech)),
      bands_(bands)
{
    requireConfig(static_cast<bool>(tech_),
                  "Monte Carlo needs a technology database");
    requireConfig(
        bands.defectDensity >= 0.0 && bands.defectDensity < 1.0 &&
            bands.epa >= 0.0 && bands.epa < 1.0 &&
            bands.intensity >= 0.0 && bands.intensity < 1.0 &&
            bands.designTime >= 0.0 && bands.designTime < 1.0 &&
            bands.dutyCycle >= 0.0 && bands.dutyCycle < 1.0,
        "uncertainty bands must be in [0, 1)");
}

UncertaintyReport
MonteCarloAnalyzer::run(const SystemSpec &system, int trials,
                        std::uint64_t seed,
                        Parallelism parallelism) const
{
    requireConfig(trials >= 2, "need at least two trials");
    requireConfig(parallelism.threads >= 1,
                  "need at least one worker thread");

    // All scenario-invariant setup happens once, not per trial.
    const BatchEvaluator evaluator(config_, *tech_, system);

    const std::size_t n = static_cast<std::size_t>(trials);
    std::vector<double> embodied(n), operational(n), total(n);
    const std::size_t blocks = (n + kBlock - 1) / kBlock;
    std::atomic<std::size_t> next_block{0};

    // Each worker takes whole blocks until none is left, drawing
    // them into its own reused batch. Results land by trial index,
    // so which worker takes which block never affects the report.
    auto work = [&] {
        TrialBatch batch = blockBatch(std::min(kBlock, n));
        for (std::size_t block = next_block++; block < blocks;
             block = next_block++) {
            const std::size_t first = block * kBlock;
            const std::size_t count = std::min(kBlock, n - first);
            drawTrials(bands_, seed, first, count, batch);
            evaluator.evaluateRange(batch, 0, count,
                                    embodied.data() + first,
                                    operational.data() + first,
                                    total.data() + first);
        }
    };

    // Asked once: the query reads a system file on Linux.
    static const unsigned hardware =
        std::thread::hardware_concurrency();
    const int worker_count =
        workers(parallelism.threads, trials, hardware);
    if (worker_count <= 1) {
        work();
        return UncertaintyReport{SampleStats(std::move(embodied)),
                                 SampleStats(std::move(operational)),
                                 SampleStats(std::move(total))};
    }

    // A trial or sort that throws must surface as the same
    // catchable exception the serial path produces, not
    // std::terminate; the other workers stop at their next block.
    std::exception_ptr failure;
    std::mutex failure_mutex;
    const auto record = [&] {
        std::lock_guard lock(failure_mutex);
        if (!failure)
            failure = std::current_exception();
    };
    std::latch drawn(worker_count);
    auto draw = [&] {
        try {
            work();
        } catch (...) {
            next_block = blocks;
            record();
        }
        drawn.count_down();
    };
    std::optional<SampleStats> embodied_stats, operational_stats,
        total_stats;
    const auto summarize = [&](std::optional<SampleStats> &stats,
                               std::vector<double> &samples) {
        try {
            stats.emplace(std::move(samples));
        } catch (...) {
            record();
        }
    };
    {
        // The caller is one of the workers. Once every block is
        // drawn, two of the three sorts go to the pool and the
        // third runs here; ~ThreadPool drains the queue and joins
        // the workers.
        ThreadPool pool(worker_count - 1);
        for (int w = 1; w < worker_count; ++w)
            pool.post(draw);
        draw();
        drawn.wait();
        if (!failure) {
            pool.post([&] { summarize(embodied_stats, embodied); });
            pool.post(
                [&] { summarize(operational_stats, operational); });
            summarize(total_stats, total);
        }
    }
    if (failure)
        std::rethrow_exception(failure);
    return UncertaintyReport{std::move(*embodied_stats),
                             std::move(*operational_stats),
                             std::move(*total_stats)};
}

} // namespace ecochip
