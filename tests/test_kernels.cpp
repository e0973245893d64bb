/**
 * @file
 * Golden bit-identity tests for the data-oriented batch kernels
 * (`src/kernels/`). The kernels restructure the hot loops of the
 * tech-space sweep, the Monte-Carlo analyzer, and the sensitivity
 * sweep into compile-once/evaluate-many form; their contract is
 * that every number they produce is *byte-identical* to the
 * scalar `EcoChip::estimate()` path. These tests pin that
 * contract against test-local reimplementations of the legacy
 * scalar loops (per-point / per-trial model construction), across
 * every built-in scenario and every packaging architecture.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "analysis/montecarlo.h"
#include "analysis/sensitivity.h"
#include "core/explorer.h"
#include "core/testcases.h"
#include "kernels/batch_evaluator.h"
#include "kernels/trial_batch.h"
#include "session/scenario_registry.h"
#include "support/rng.h"
#include "support/stats.h"

namespace ecochip {
namespace {

// ------------------------------------------------ bit equality

::testing::AssertionResult
bitEqual(const char *a_expr, const char *b_expr, double a, double b)
{
    std::uint64_t a_bits = 0, b_bits = 0;
    std::memcpy(&a_bits, &a, sizeof a);
    std::memcpy(&b_bits, &b, sizeof b);
    if (a_bits == b_bits)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a_expr << " and " << b_expr
           << " differ in bits: " << a << " vs " << b
           << " (delta " << (b - a) << ")";
}

#define EXPECT_BITEQ(a, b) EXPECT_PRED_FORMAT2(bitEqual, a, b)

void
expectReportBitIdentical(const CarbonReport &expected,
                         const CarbonReport &actual)
{
    EXPECT_BITEQ(expected.mfgCo2Kg, actual.mfgCo2Kg);
    EXPECT_BITEQ(expected.designCo2Kg, actual.designCo2Kg);
    EXPECT_BITEQ(expected.nreCo2Kg, actual.nreCo2Kg);
    EXPECT_BITEQ(expected.hi.packageCo2Kg, actual.hi.packageCo2Kg);
    EXPECT_BITEQ(expected.hi.routingCo2Kg, actual.hi.routingCo2Kg);
    EXPECT_BITEQ(expected.hi.packageAreaMm2,
                 actual.hi.packageAreaMm2);
    EXPECT_BITEQ(expected.hi.whitespaceAreaMm2,
                 actual.hi.whitespaceAreaMm2);
    EXPECT_BITEQ(expected.hi.packageYield, actual.hi.packageYield);
    EXPECT_EQ(expected.hi.bridgeCount, actual.hi.bridgeCount);
    EXPECT_BITEQ(expected.hi.bondCount, actual.hi.bondCount);
    EXPECT_BITEQ(expected.hi.stackBondCo2Kg,
                 actual.hi.stackBondCo2Kg);
    EXPECT_BITEQ(expected.hi.commAreaMm2, actual.hi.commAreaMm2);
    EXPECT_BITEQ(expected.hi.nocPowerW, actual.hi.nocPowerW);
    EXPECT_BITEQ(expected.operation.avgPowerW,
                 actual.operation.avgPowerW);
    EXPECT_BITEQ(expected.operation.lifetimeEnergyKwh,
                 actual.operation.lifetimeEnergyKwh);
    EXPECT_BITEQ(expected.operation.co2Kg, actual.operation.co2Kg);
    EXPECT_BITEQ(expected.embodiedCo2Kg(), actual.embodiedCo2Kg());
    EXPECT_BITEQ(expected.totalCo2Kg(), actual.totalCo2Kg());
    ASSERT_EQ(expected.chiplets.size(), actual.chiplets.size());
    for (std::size_t i = 0; i < expected.chiplets.size(); ++i) {
        EXPECT_EQ(expected.chiplets[i].name,
                  actual.chiplets[i].name);
        EXPECT_BITEQ(expected.chiplets[i].nodeNm,
                     actual.chiplets[i].nodeNm);
        EXPECT_BITEQ(expected.chiplets[i].areaMm2,
                     actual.chiplets[i].areaMm2);
        EXPECT_BITEQ(expected.chiplets[i].yield,
                     actual.chiplets[i].yield);
        EXPECT_BITEQ(expected.chiplets[i].mfgCo2Kg,
                     actual.chiplets[i].mfgCo2Kg);
        EXPECT_BITEQ(expected.chiplets[i].designCo2Kg,
                     actual.chiplets[i].designCo2Kg);
    }
}

// ------------------------------------------------ scalar oracles

/**
 * Per-chiplet candidate lists that keep the cross product small:
 * the first two chiplets get two candidates each, the rest keep a
 * single node, so every scenario sweeps at most four points while
 * still exercising per-chiplet lists and mixed-node assignments.
 */
std::vector<std::vector<double>>
smallCandidateGrid(const SystemSpec &system)
{
    std::vector<std::vector<double>> grid;
    for (std::size_t i = 0; i < system.chiplets.size(); ++i) {
        // A monolithic die's blocks must share one node, so its
        // "sweep" collapses to a single assignment.
        if (system.singleDie)
            grid.push_back({10.0});
        else if (i < 2)
            grid.push_back({7.0, 14.0});
        else
            grid.push_back({10.0});
    }
    return grid;
}

/**
 * The legacy sweep loop: cartesian odometer over the candidate
 * lists, one `estimate()` per point on a *fresh* estimator (no
 * shared caches), mirroring the pre-kernel scalar evaluation.
 */
std::vector<ExplorationPoint>
scalarSweep(const EcoChipConfig &config, const TechDb &tech,
            const SystemSpec &system,
            const std::vector<std::vector<double>> &candidates)
{
    std::vector<ExplorationPoint> points;
    std::vector<std::size_t> index(candidates.size(), 0);
    while (true) {
        std::vector<double> assignment;
        assignment.reserve(index.size());
        for (std::size_t i = 0; i < index.size(); ++i)
            assignment.push_back(candidates[i][index[i]]);

        ExplorationPoint point;
        point.nodesNm = assignment;
        point.system = system.withNodes(assignment);
        const EcoChip fresh(config, tech);
        point.report = fresh.estimate(point.system);
        points.push_back(std::move(point));

        std::size_t pos = index.size();
        while (pos > 0) {
            --pos;
            if (++index[pos] < candidates[pos].size())
                break;
            index[pos] = 0;
            if (pos == 0)
                return points;
        }
    }
}

/**
 * The legacy Monte-Carlo trial: draw scales serially from the
 * seed, then rebuild the technology tables and configuration per
 * trial and evaluate on a throwaway estimator. Copied from the
 * pre-kernel analyzer; the batch path must reproduce its sample
 * vectors exactly.
 */
UncertaintyReport
scalarMonteCarlo(const EcoChipConfig &base_config,
                 const TechDb &base_tech,
                 const UncertaintyBands &bands,
                 const SystemSpec &system, int trials,
                 std::uint64_t seed)
{
    struct Scales
    {
        double defectDensity = 1.0;
        double epa = 1.0;
        double intensity = 1.0;
        double designTime = 1.0;
        double dutyCycle = 1.0;
    };

    Rng rng(seed);
    auto scale_band = [&rng](double half_width) {
        return rng.uniform(1.0 - half_width, 1.0 + half_width);
    };
    std::vector<Scales> scales;
    scales.reserve(trials);
    for (int trial = 0; trial < trials; ++trial) {
        Scales s;
        s.defectDensity = scale_band(bands.defectDensity);
        s.epa = scale_band(bands.epa);
        s.intensity = scale_band(bands.intensity);
        s.designTime = scale_band(bands.designTime);
        s.dutyCycle = scale_band(bands.dutyCycle);
        scales.push_back(s);
    }

    std::vector<double> embodied(trials), operational(trials),
        total(trials);
    for (int trial = 0; trial < trials; ++trial) {
        EcoChipConfig config = base_config;
        TechDb tech = base_tech;

        std::vector<std::pair<double, double>> d0_points;
        std::vector<std::pair<double, double>> epa_points;
        for (double node : TechDb::standardNodesNm()) {
            d0_points.emplace_back(
                node, scales[trial].defectDensity *
                          base_tech.defectDensityPerCm2(node));
            epa_points.emplace_back(
                node, scales[trial].epa *
                          base_tech.epaKwhPerCm2(node));
        }
        tech.setDefectDensityTable(PiecewiseLinear(d0_points));
        tech.setEpaTable(PiecewiseLinear(epa_points));

        config.fabIntensityGPerKwh *= scales[trial].intensity;
        config.package.intensityGPerKwh *= scales[trial].intensity;
        config.design.intensityGPerKwh *= scales[trial].intensity;
        config.design.sprHoursPerMgate *= scales[trial].designTime;
        config.operating.dutyCycle =
            std::min(1.0, config.operating.dutyCycle *
                              scales[trial].dutyCycle);

        const EcoChip estimator(std::move(config),
                                std::move(tech));
        const CarbonReport report = estimator.estimate(system);
        embodied[trial] = report.embodiedCo2Kg();
        operational[trial] = report.operation.co2Kg;
        total[trial] = report.totalCo2Kg();
    }
    return UncertaintyReport{SampleStats(std::move(embodied)),
                             SampleStats(std::move(operational)),
                             SampleStats(std::move(total))};
}

void
expectStatsBitIdentical(const SampleStats &expected,
                        const SampleStats &actual)
{
    ASSERT_EQ(expected.count(), actual.count());
    EXPECT_BITEQ(expected.mean(), actual.mean());
    EXPECT_BITEQ(expected.stddev(), actual.stddev());
    EXPECT_BITEQ(expected.min(), actual.min());
    EXPECT_BITEQ(expected.max(), actual.max());
    for (double p : {5.0, 25.0, 50.0, 75.0, 95.0})
        EXPECT_BITEQ(expected.percentile(p),
                     actual.percentile(p));
}

/** Configuration variants covering every packaging architecture. */
std::vector<EcoChipConfig>
architectureConfigs()
{
    std::vector<EcoChipConfig> configs;
    for (PackagingArch arch :
         {PackagingArch::RdlFanout, PackagingArch::SiliconBridge,
          PackagingArch::PassiveInterposer,
          PackagingArch::ActiveInterposer,
          PackagingArch::Stack3d}) {
        EcoChipConfig config;
        config.package.arch = arch;
        config.operating = testcases::ga102Operating();
        configs.push_back(config);
    }
    // NRE extension on top of an interposer package.
    EcoChipConfig nre;
    nre.package.arch = PackagingArch::ActiveInterposer;
    nre.operating = testcases::ga102Operating();
    nre.includeMaskNre = true;
    configs.push_back(nre);
    return configs;
}

// ------------------------------------------------ sweep goldens

TEST(KernelSweepGolden, BitIdenticalAcrossBuiltinScenarios)
{
    const TechDb tech;
    for (const std::string &name :
         ScenarioRegistry::builtin().names()) {
        SCOPED_TRACE("scenario " + name);
        const DesignBundle bundle =
            ScenarioRegistry::builtin().instantiate(name, tech);
        const auto grid =
            smallCandidateGrid(bundle.system);

        const std::vector<ExplorationPoint> expected =
            scalarSweep(bundle.config, tech, bundle.system, grid);

        const EcoChip estimator(bundle.config, tech);
        const TechSpaceExplorer explorer(estimator);
        const std::vector<ExplorationPoint> actual =
            explorer.sweep(bundle.system, grid);

        ASSERT_EQ(expected.size(), actual.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
            SCOPED_TRACE("point " + expected[i].label());
            ASSERT_EQ(expected[i].nodesNm, actual[i].nodesNm);
            expectReportBitIdentical(expected[i].report,
                                     actual[i].report);
        }
    }
}

TEST(KernelSweepGolden, BitIdenticalAcrossArchitectures)
{
    const TechDb tech;
    for (const EcoChipConfig &config : architectureConfigs()) {
        SCOPED_TRACE("arch " +
                     std::to_string(static_cast<int>(
                         config.package.arch)) +
                     (config.includeMaskNre ? " +nre" : ""));
        const SystemSpec system = testcases::ga102ThreeChiplet(
            tech, 7.0, 10.0, 14.0);
        const std::vector<std::vector<double>> grid(
            system.chiplets.size(),
            std::vector<double>{7.0, 14.0});

        const std::vector<ExplorationPoint> expected =
            scalarSweep(config, tech, system, grid);

        const EcoChip estimator(config, tech);
        const std::vector<ExplorationPoint> actual =
            TechSpaceExplorer(estimator).sweep(system, grid);

        ASSERT_EQ(expected.size(), actual.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
            SCOPED_TRACE("point " + expected[i].label());
            expectReportBitIdentical(expected[i].report,
                                     actual[i].report);
        }
    }
}

TEST(KernelSweepGolden, StackedGroupsBitIdentical)
{
    // Partial 3D stacking (stack groups on a 2.5D base) walks the
    // group-bond branch of the kernel.
    const TechDb tech;
    EcoChipConfig config;
    config.package.arch = PackagingArch::PassiveInterposer;
    config.operating = testcases::hbmAcceleratorOperating();
    const SystemSpec system = testcases::hbmAccelerator(tech);

    const auto grid = smallCandidateGrid(system);
    const std::vector<ExplorationPoint> expected =
        scalarSweep(config, tech, system, grid);

    const EcoChip estimator(config, tech);
    const std::vector<ExplorationPoint> actual =
        TechSpaceExplorer(estimator).sweep(system, grid);

    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        expectReportBitIdentical(expected[i].report,
                                 actual[i].report);
}

TEST(KernelSweepGolden, RepeatedSweepServedFromSharedCache)
{
    // Second sweep on the same estimator must hit the shared
    // report cache and reproduce the first run exactly.
    const TechDb tech;
    EcoChipConfig config;
    config.package.arch = PackagingArch::RdlFanout;
    config.operating = testcases::ga102Operating();
    const SystemSpec system =
        testcases::ga102ThreeChiplet(tech, 7.0, 10.0, 14.0);

    const EcoChip estimator(config, tech);
    const TechSpaceExplorer explorer(estimator);
    const std::vector<double> nodes = {7.0, 10.0, 14.0};
    const auto first = explorer.sweep(system, nodes);
    const auto second = explorer.sweep(system, nodes);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectReportBitIdentical(first[i].report,
                                 second[i].report);
}

TEST(KernelSweepGolden, SweptPointMatchesDirectEstimate)
{
    // A point pulled out of the sweep equals a direct scalar
    // estimate() of the same assignment on the same estimator.
    const TechDb tech;
    EcoChipConfig config;
    config.package.arch = PackagingArch::SiliconBridge;
    config.operating = testcases::emrOperating();
    const SystemSpec system = testcases::emrTwoChiplet(tech);

    const EcoChip estimator(config, tech);
    const auto points = TechSpaceExplorer(estimator)
                            .sweep(system, {7.0, 10.0});
    ASSERT_FALSE(points.empty());
    for (const auto &point : points) {
        const CarbonReport direct =
            estimator.estimate(point.system);
        expectReportBitIdentical(direct, point.report);
    }
}

// ------------------------------------------- Monte-Carlo goldens

TEST(KernelMonteCarloGolden, BitIdenticalToScalarTrials)
{
    const TechDb tech;
    const UncertaintyBands bands;
    for (const std::string &name :
         {std::string("ga102"), std::string("server-4die"),
          std::string("hbm-accel")}) {
        SCOPED_TRACE("scenario " + name);
        const DesignBundle bundle =
            ScenarioRegistry::builtin().instantiate(name, tech);

        for (std::uint64_t seed : {1ull, 42ull, 987654321ull}) {
            SCOPED_TRACE("seed " + std::to_string(seed));
            const UncertaintyReport expected = scalarMonteCarlo(
                bundle.config, tech, bands, bundle.system, 16,
                seed);

            const MonteCarloAnalyzer analyzer(
                bundle.config, std::make_shared<const TechDb>(tech),
                bands);
            const UncertaintyReport actual = analyzer.run(
                bundle.system, 16, seed, Parallelism{1});

            expectStatsBitIdentical(expected.embodied,
                                    actual.embodied);
            expectStatsBitIdentical(expected.operational,
                                    actual.operational);
            expectStatsBitIdentical(expected.total, actual.total);
        }
    }
}

TEST(KernelMonteCarloGolden, ThreadCountNeverChangesTheReport)
{
    const TechDb tech;
    EcoChipConfig config;
    config.package.arch = PackagingArch::ActiveInterposer;
    config.operating = testcases::ga102Operating();
    const SystemSpec system =
        testcases::ga102ThreeChiplet(tech, 7.0, 10.0, 14.0);

    const MonteCarloAnalyzer analyzer(
        config, std::make_shared<const TechDb>(tech));
    const UncertaintyReport serial =
        analyzer.run(system, 24, 42, Parallelism{1});
    for (int threads : {2, 4, 7}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const UncertaintyReport threaded =
            analyzer.run(system, 24, 42, Parallelism{threads});
        expectStatsBitIdentical(serial.embodied,
                                threaded.embodied);
        expectStatsBitIdentical(serial.operational,
                                threaded.operational);
        expectStatsBitIdentical(serial.total, threaded.total);
    }
}

// ------------------------------------------- sensitivity goldens

TEST(KernelSensitivityGolden, BatchMatchesScalarFallback)
{
    // Clearing every parameter's batch target forces the scalar
    // per-perturbation path; with targets set, the batch kernel
    // runs. Both must produce byte-identical rows.
    const TechDb tech;
    for (const std::string &name :
         {std::string("ga102"), std::string("emr"),
          std::string("hbm-accel")}) {
        SCOPED_TRACE("scenario " + name);
        const DesignBundle bundle =
            ScenarioRegistry::builtin().instantiate(name, tech);
        const SensitivityAnalyzer analyzer(
            bundle.config, std::make_shared<const TechDb>(tech));

        const auto batched =
            SensitivityAnalyzer::standardParameters();
        auto scalar = batched;
        for (auto &param : scalar)
            param.target.reset();

        for (CarbonMetric metric :
             {CarbonMetric::Embodied, CarbonMetric::Operational,
              CarbonMetric::Total}) {
            SCOPED_TRACE("metric " + std::to_string(
                                         static_cast<int>(metric)));
            const auto expected = analyzer.analyze(
                bundle.system, scalar, metric, 0.10);
            const auto actual = analyzer.analyze(
                bundle.system, batched, metric, 0.10);
            ASSERT_EQ(expected.size(), actual.size());
            for (std::size_t i = 0; i < expected.size(); ++i) {
                SCOPED_TRACE("parameter " + expected[i].name);
                EXPECT_EQ(expected[i].name, actual[i].name);
                EXPECT_BITEQ(expected[i].baseValue,
                             actual[i].baseValue);
                EXPECT_BITEQ(expected[i].lowValue,
                             actual[i].lowValue);
                EXPECT_BITEQ(expected[i].highValue,
                             actual[i].highValue);
                EXPECT_BITEQ(expected[i].elasticity,
                             actual[i].elasticity);
            }
        }
    }
}

TEST(KernelSensitivityGolden, MixedCustomParametersStillScalar)
{
    // A custom parameter without a batch target sends the whole
    // sweep down the scalar path; rows must match the all-scalar
    // run bit for bit.
    const TechDb tech;
    EcoChipConfig config;
    config.package.arch = PackagingArch::RdlFanout;
    config.operating = testcases::ga102Operating();
    const SystemSpec system =
        testcases::ga102ThreeChiplet(tech, 7.0, 10.0, 14.0);
    const SensitivityAnalyzer analyzer(
        config, std::make_shared<const TechDb>(tech));

    auto params = SensitivityAnalyzer::standardParameters();
    params.push_back(
        {"wafer-area intensity (custom)",
         [](EcoChipConfig &cfg, TechDb &, double scale) {
             cfg.fabIntensityGPerKwh *= scale;
         },
         std::nullopt});

    auto all_scalar = params;
    for (auto &param : all_scalar)
        param.target.reset();

    const auto expected = analyzer.analyze(
        system, all_scalar, CarbonMetric::Total, 0.05);
    const auto actual = analyzer.analyze(
        system, params, CarbonMetric::Total, 0.05);
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].name, actual[i].name);
        EXPECT_BITEQ(expected[i].lowValue, actual[i].lowValue);
        EXPECT_BITEQ(expected[i].highValue, actual[i].highValue);
        EXPECT_BITEQ(expected[i].elasticity,
                     actual[i].elasticity);
    }
}

// ------------------------------------------ sample-stats oracle

/**
 * The comparison-sort statistics: std::sort, then the mean and
 * standard deviation summed in sorted order, and the linear
 * percentile. Independent of SampleStats, so it catches a wrong
 * sort order or a lost sample.
 */
struct SortedReference
{
    std::vector<double> sorted;
    double mean = 0.0;
    double stddev = 0.0;

    explicit SortedReference(std::vector<double> samples)
        : sorted(std::move(samples))
    {
        std::sort(sorted.begin(), sorted.end());
        double sum = 0.0;
        for (double v : sorted)
            sum += v;
        mean = sum / static_cast<double>(sorted.size());
        if (sorted.size() > 1) {
            double ss = 0.0;
            for (double v : sorted)
                ss += (v - mean) * (v - mean);
            stddev = std::sqrt(
                ss / static_cast<double>(sorted.size() - 1));
        }
    }

    double
    percentile(double p) const
    {
        if (sorted.size() == 1)
            return sorted.front();
        const double rank =
            p / 100.0 * static_cast<double>(sorted.size() - 1);
        const std::size_t lo = static_cast<std::size_t>(rank);
        const double frac = rank - static_cast<double>(lo);
        if (lo + 1 >= sorted.size())
            return sorted.back();
        return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
    }
};

constexpr double kPercentiles[] = {0.0,  1.0,  5.0,  25.0, 50.0,
                                   62.5, 75.0, 95.0, 99.0, 100.0};

void
expectMatchesReference(const std::vector<double> &samples)
{
    SCOPED_TRACE("n = " + std::to_string(samples.size()));
    const SortedReference expected(samples);
    const SampleStats actual(samples);
    ASSERT_EQ(expected.sorted.size(), actual.count());
    EXPECT_BITEQ(expected.mean, actual.mean());
    EXPECT_BITEQ(expected.stddev, actual.stddev());
    EXPECT_BITEQ(expected.sorted.front(), actual.min());
    EXPECT_BITEQ(expected.sorted.back(), actual.max());
    for (double p : kPercentiles)
        EXPECT_BITEQ(expected.percentile(p), actual.percentile(p));
    // Every sample is its own percentile at an exact rank.
    if (expected.sorted.size() <= 65) {
        for (std::size_t i = 0; i < expected.sorted.size(); ++i) {
            const double p =
                expected.sorted.size() == 1
                    ? 0.0
                    : 100.0 * static_cast<double>(i) /
                          static_cast<double>(
                              expected.sorted.size() - 1);
            EXPECT_BITEQ(expected.percentile(p),
                         actual.percentile(p));
        }
    }
}

/** Samples spread over signs and twelve decades of magnitude. */
std::vector<double>
mixedSamples(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> samples(n);
    for (double &v : samples) {
        const double magnitude =
            std::pow(10.0, rng.uniform(-6.0, 6.0));
        v = rng.uniform01() < 0.3 ? -magnitude : magnitude;
    }
    return samples;
}

TEST(SampleStatsOracle, MatchesComparisonSortAtEverySize)
{
    // 1024 samples is where the radix sort takes over.
    for (std::size_t n :
         {1u, 2u, 63u, 64u, 65u, 1000u, 1023u, 1024u, 1025u, 90000u})
        expectMatchesReference(mixedSamples(n, 17 + n));
}

TEST(SampleStatsOracle, NarrowPositiveBandLikeMonteCarloOutput)
{
    // Same sign and exponent everywhere: the high-byte passes are
    // skipped, the low ones still order the samples.
    for (std::size_t n : {2u, 64u, 90000u}) {
        Rng rng(n);
        std::vector<double> samples(n);
        for (double &v : samples)
            v = rng.uniform(1024.0, 2048.0);
        expectMatchesReference(samples);
    }
}

/** Sample counts on both sides of the switch to the radix sort. */
constexpr std::size_t kSmallAndRadixSizes[] = {65, 2000};

/** @p pattern repeated up to @p n samples. */
std::vector<double>
repeated(const std::vector<double> &pattern, std::size_t n)
{
    std::vector<double> samples(n);
    for (std::size_t i = 0; i < n; ++i)
        samples[i] = pattern[i % pattern.size()];
    return samples;
}

TEST(SampleStatsOracle, Duplicates)
{
    for (std::size_t n : kSmallAndRadixSizes) {
        expectMatchesReference(std::vector<double>(n, 3.25));
        Rng rng(5);
        std::vector<double> samples(n);
        const double levels[] = {-2.5, -1.0, 0.5, 7.0, 1e9};
        for (double &v : samples)
            v = levels[rng.next() % 5];
        expectMatchesReference(samples);
    }
}

TEST(SampleStatsOracle, NegativeValues)
{
    for (std::size_t n : {2u, 63u, 1000u, 5000u}) {
        std::vector<double> samples = mixedSamples(n, n);
        for (double &v : samples)
            v = -std::fabs(v);
        expectMatchesReference(samples);
    }
}

TEST(SampleStatsOracle, Subnormals)
{
    const double tiny = std::numeric_limits<double>::denorm_min();
    const double least_normal = std::numeric_limits<double>::min();
    for (std::size_t n : kSmallAndRadixSizes) {
        std::vector<double> samples = {
            tiny,          -tiny,          3 * tiny,
            least_normal,  -least_normal,  least_normal / 2,
            -least_normal / 3, 1.0,        -1.0};
        Rng rng(9);
        while (samples.size() < n)
            samples.push_back((rng.uniform01() - 0.5) *
                              least_normal);
        expectMatchesReference(samples);
    }
}

TEST(SampleStatsOracle, Infinities)
{
    const double inf = std::numeric_limits<double>::infinity();
    for (std::size_t n : kSmallAndRadixSizes) {
        std::vector<double> samples = mixedSamples(n - 2, 3);
        samples.push_back(inf);
        expectMatchesReference(samples);
        samples.push_back(-inf);
        expectMatchesReference(samples);
        samples[10] = inf;
        samples[20] = -inf;
        expectMatchesReference(samples);
    }
}

TEST(SampleStatsOracle, MixedSignedZerosCompareByValue)
{
    // std::sort leaves -0 and +0 in either order; SampleStats puts
    // -0 first. Both orders give the same values.
    const std::vector<double> pattern = {0.0, -0.0, 1.5, -0.0, -2.0,
                                         0.0, -0.0, 0.0, 3.0};
    for (std::size_t n : {std::size_t{4}, pattern.size(),
                          std::size_t{2000}}) {
        SCOPED_TRACE("n = " + std::to_string(n));
        const std::vector<double> samples = repeated(pattern, n);
        const SortedReference expected(samples);
        const SampleStats actual(samples);
        EXPECT_EQ(expected.mean, actual.mean());
        EXPECT_EQ(expected.stddev, actual.stddev());
        EXPECT_EQ(expected.sorted.front(), actual.min());
        EXPECT_EQ(expected.sorted.back(), actual.max());
        for (double p : kPercentiles)
            EXPECT_EQ(expected.percentile(p), actual.percentile(p));
    }
    for (std::size_t n : kSmallAndRadixSizes) {
        const SampleStats zeros(repeated({0.0, -0.0, 0.0}, n));
        EXPECT_TRUE(std::signbit(zeros.min()));
        EXPECT_FALSE(std::signbit(zeros.max()));
    }
}

TEST(SampleStatsOracle, NanSortsToAnEndByItsSignBit)
{
    // No comparison of doubles can order a NaN; SampleStats puts a
    // positive NaN above +inf and a negative one below -inf. The
    // sums read NaN.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (std::size_t n : {std::size_t{5}, std::size_t{2000}}) {
        SCOPED_TRACE("n = " + std::to_string(n));
        const SampleStats positive(
            repeated({2.0, nan, -1.0, inf, 0.5}, n));
        EXPECT_EQ(positive.count(), n);
        EXPECT_EQ(positive.min(), -1.0);
        EXPECT_TRUE(std::isnan(positive.max()));
        EXPECT_EQ(positive.percentile(25.0), 0.5);
        EXPECT_TRUE(std::isnan(positive.mean()));
        EXPECT_TRUE(std::isnan(positive.stddev()));

        const SampleStats negative(
            repeated({2.0, -nan, -inf, 0.5}, n));
        EXPECT_TRUE(std::isnan(negative.min()));
        EXPECT_EQ(negative.max(), 2.0);
        EXPECT_TRUE(std::isnan(negative.mean()));
    }
}

// ------------------------------------ Monte-Carlo block oracle

/**
 * The draw-everything-first Monte-Carlo loop: every trial's scales
 * drawn serially from the seed into one trial-count-sized batch,
 * then one evaluation over all of it.
 */
UncertaintyReport
drawAllFirstMonteCarlo(const EcoChipConfig &config,
                       const TechDb &tech,
                       const UncertaintyBands &bands,
                       const SystemSpec &system, int trials,
                       std::uint64_t seed)
{
    Rng rng(seed);
    auto scale_band = [&rng](double half_width) {
        return rng.uniform(1.0 - half_width, 1.0 + half_width);
    };
    TrialBatch batch;
    batch.resize(static_cast<std::size_t>(trials));
    for (int trial = 0; trial < trials; ++trial) {
        const double defect_density =
            scale_band(bands.defectDensity);
        const double epa = scale_band(bands.epa);
        const double intensity = scale_band(bands.intensity);
        const double design_time = scale_band(bands.designTime);
        const double duty_cycle = scale_band(bands.dutyCycle);
        batch.defectDensityScale[trial] = defect_density;
        batch.epaScale[trial] = epa;
        batch.fabIntensityScale[trial] = intensity;
        batch.packageIntensityScale[trial] = intensity;
        batch.designIntensityScale[trial] = intensity;
        batch.sprHoursScale[trial] = design_time;
        batch.dutyCycleScale[trial] = duty_cycle;
        batch.rebuildDefectDensity[trial] = 1;
        batch.rebuildEpa[trial] = 1;
    }

    const BatchEvaluator evaluator(config, tech, system);
    std::vector<double> embodied(trials), operational(trials),
        total(trials);
    evaluator.evaluateRange(batch, 0, batch.size(), embodied.data(),
                            operational.data(), total.data());
    return UncertaintyReport{SampleStats(std::move(embodied)),
                             SampleStats(std::move(operational)),
                             SampleStats(std::move(total))};
}

TEST(KernelMonteCarloGolden, BlocksMatchDrawingEveryTrialFirst)
{
    const auto tech = TechDb::defaults();
    EcoChipConfig config;
    config.package.arch = PackagingArch::SiliconBridge;
    config.operating = testcases::ga102Operating();
    const SystemSpec system =
        testcases::ga102ThreeChiplet(*tech, 7.0, 10.0, 14.0);
    const UncertaintyBands bands;
    const MonteCarloAnalyzer analyzer(config, tech, bands);

    constexpr int kBlock =
        static_cast<int>(MonteCarloAnalyzer::kBlock);
    for (int trials :
         {kBlock - 1, kBlock, kBlock + 1, 3 * kBlock + 7}) {
        SCOPED_TRACE("trials " + std::to_string(trials));
        const UncertaintyReport expected = drawAllFirstMonteCarlo(
            config, *tech, bands, system, trials, 2024);
        for (int threads : {1, 2, 3, 8}) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            const UncertaintyReport actual = analyzer.run(
                system, trials, 2024, Parallelism{threads});
            expectStatsBitIdentical(expected.embodied,
                                    actual.embodied);
            expectStatsBitIdentical(expected.operational,
                                    actual.operational);
            expectStatsBitIdentical(expected.total, actual.total);
        }
    }
}

} // namespace
} // namespace ecochip
