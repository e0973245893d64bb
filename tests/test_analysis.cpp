/**
 * @file
 * Tests for the analysis module: RNG, statistics, sensitivity,
 * and Monte-Carlo uncertainty.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "analysis/montecarlo.h"
#include "analysis/sensitivity.h"
#include "core/testcases.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/stats.h"

namespace ecochip {
namespace {

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(7), b(7), c(8);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    Rng a2(7);
    for (int i = 0; i < 100; ++i)
        differs |= a2.next() != c.next();
    EXPECT_TRUE(differs);
}

TEST(Rng, SkipEqualsThatManyDraws)
{
    for (std::uint64_t n : {0ull, 1ull, 5ull, 4096ull}) {
        Rng drawn(31), skipped(31);
        for (std::uint64_t i = 0; i < n; ++i)
            drawn.next();
        skipped.skip(n);
        for (int i = 0; i < 8; ++i)
            EXPECT_EQ(drawn.next(), skipped.next());
    }
    // Skips compose, and the counter wraps like repeated draws.
    Rng once(~0ull), twice(~0ull);
    once.skip(5 * 1000003ull);
    twice.skip(5 * 1000000ull);
    twice.skip(15);
    EXPECT_EQ(once.next(), twice.next());
}

TEST(Rng, Uniform01InRangeAndWellSpread)
{
    Rng rng(123);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform01();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRespectsBounds)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(0.7, 1.3);
        ASSERT_GE(v, 0.7);
        ASSERT_LT(v, 1.3);
    }
}

TEST(SampleStats, HandComputedMoments)
{
    SampleStats stats({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
    EXPECT_NEAR(stats.stddev(), 1.2909944, 1e-6);
    EXPECT_DOUBLE_EQ(stats.min(), 1.0);
    EXPECT_DOUBLE_EQ(stats.max(), 4.0);
    EXPECT_EQ(stats.count(), 4u);
}

TEST(SampleStats, Percentiles)
{
    SampleStats stats({10.0, 20.0, 30.0, 40.0, 50.0});
    EXPECT_DOUBLE_EQ(stats.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(stats.percentile(50.0), 30.0);
    EXPECT_DOUBLE_EQ(stats.percentile(100.0), 50.0);
    EXPECT_DOUBLE_EQ(stats.percentile(25.0), 20.0);
    EXPECT_DOUBLE_EQ(stats.percentile(87.5), 45.0);
    EXPECT_THROW(stats.percentile(-1.0), ConfigError);
    EXPECT_THROW(stats.percentile(101.0), ConfigError);
}

TEST(SampleStats, SingleSampleDegenerates)
{
    SampleStats stats({7.0});
    EXPECT_DOUBLE_EQ(stats.mean(), 7.0);
    EXPECT_DOUBLE_EQ(stats.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(stats.percentile(50.0), 7.0);
    EXPECT_THROW(SampleStats({}), ConfigError);
}

class SensitivityTest : public ::testing::Test
{
  protected:
    EcoChipConfig
    config() const
    {
        EcoChipConfig c;
        c.operating = testcases::ga102Operating();
        return c;
    }

    SystemSpec
    system(const TechDb &tech) const
    {
        return testcases::ga102ThreeChiplet(tech, 7.0, 14.0,
                                            10.0);
    }
};

TEST_F(SensitivityTest, FabIntensityNearUnitElasticityOfMfg)
{
    // Embodied carbon is dominated by fab energy whose carbon
    // scales linearly with intensity -> elasticity close to but
    // below 1 (gas/material terms don't scale).
    SensitivityAnalyzer analyzer(config());
    TechDb tech;
    std::vector<SensitivityParameter> params;
    for (auto &p : SensitivityAnalyzer::standardParameters())
        if (p.name == "fab carbon intensity")
            params.push_back(p);
    ASSERT_EQ(params.size(), 1u);

    const auto results = analyzer.analyze(
        system(tech), params, CarbonMetric::Embodied);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GT(results[0].elasticity, 0.3);
    EXPECT_LT(results[0].elasticity, 1.0);
    EXPECT_LT(results[0].lowValue, results[0].baseValue);
    EXPECT_GT(results[0].highValue, results[0].baseValue);
}

TEST_F(SensitivityTest, LifetimeOnlyMovesOperationalCarbon)
{
    SensitivityAnalyzer analyzer(config());
    TechDb tech;
    std::vector<SensitivityParameter> params;
    for (auto &p : SensitivityAnalyzer::standardParameters())
        if (p.name == "lifetime")
            params.push_back(p);

    const auto emb = analyzer.analyze(
        system(tech), params, CarbonMetric::Embodied);
    EXPECT_NEAR(emb[0].elasticity, 0.0, 1e-9);

    const auto op = analyzer.analyze(
        system(tech), params, CarbonMetric::Operational);
    EXPECT_NEAR(op[0].elasticity, 1.0, 1e-6);
}

TEST_F(SensitivityTest, ChipletVolumeHasNegativeElasticity)
{
    // More parts -> better design amortization -> lower Cemb.
    SensitivityAnalyzer analyzer(config());
    TechDb tech;
    std::vector<SensitivityParameter> params;
    for (auto &p : SensitivityAnalyzer::standardParameters())
        if (p.name == "chiplet volume NMi")
            params.push_back(p);
    const auto results = analyzer.analyze(
        system(tech), params, CarbonMetric::Embodied);
    EXPECT_LT(results[0].elasticity, 0.0);
}

TEST_F(SensitivityTest, StandardParametersAllEvaluate)
{
    SensitivityAnalyzer analyzer(config());
    TechDb tech;
    const auto results = analyzer.analyze(
        system(tech), SensitivityAnalyzer::standardParameters(),
        CarbonMetric::Total);
    EXPECT_EQ(results.size(),
              SensitivityAnalyzer::standardParameters().size());
    for (const auto &row : results) {
        EXPECT_GT(row.lowValue, 0.0) << row.name;
        EXPECT_GT(row.highValue, 0.0) << row.name;
    }
}

TEST_F(SensitivityTest, DeltaValidation)
{
    SensitivityAnalyzer analyzer(config());
    TechDb tech;
    EXPECT_THROW(
        analyzer.analyze(system(tech),
                         SensitivityAnalyzer::standardParameters(),
                         CarbonMetric::Total, 0.0),
        ConfigError);
    EXPECT_THROW(
        analyzer.analyze(system(tech),
                         SensitivityAnalyzer::standardParameters(),
                         CarbonMetric::Total, 1.0),
        ConfigError);
}

class MonteCarloTest : public ::testing::Test
{
  protected:
    EcoChipConfig
    config() const
    {
        EcoChipConfig c;
        c.operating = testcases::ga102Operating();
        return c;
    }
};

TEST_F(MonteCarloTest, DeterministicForEqualSeeds)
{
    MonteCarloAnalyzer analyzer(config());
    TechDb tech;
    const SystemSpec system =
        testcases::ga102ThreeChiplet(tech, 7.0, 14.0, 10.0);
    const UncertaintyReport a = analyzer.run(system, 50, 99);
    const UncertaintyReport b = analyzer.run(system, 50, 99);
    EXPECT_DOUBLE_EQ(a.embodied.mean(), b.embodied.mean());
    EXPECT_DOUBLE_EQ(a.total.percentile(90.0),
                     b.total.percentile(90.0));
}

TEST_F(MonteCarloTest, IndependentAnalyzersIdenticalForEqualSeeds)
{
    // Two analyzers constructed from scratch must reproduce the
    // exact same distribution for the same seed: CTest runs suites
    // in parallel (`ctest -j`), so any hidden global RNG state
    // would surface as flaky cross-run differences here.
    TechDb tech;
    const SystemSpec system =
        testcases::ga102ThreeChiplet(tech, 7.0, 14.0, 10.0);

    const MonteCarloAnalyzer first(config());
    const MonteCarloAnalyzer second(config());
    const UncertaintyReport a = first.run(system, 64, 2024);
    const UncertaintyReport b = second.run(system, 64, 2024);

    const auto expect_identical = [](const SampleStats &x,
                                     const SampleStats &y) {
        EXPECT_EQ(x.count(), y.count());
        EXPECT_DOUBLE_EQ(x.mean(), y.mean());
        EXPECT_DOUBLE_EQ(x.stddev(), y.stddev());
        EXPECT_DOUBLE_EQ(x.min(), y.min());
        EXPECT_DOUBLE_EQ(x.max(), y.max());
        for (double p : {5.0, 50.0, 95.0})
            EXPECT_DOUBLE_EQ(x.percentile(p), y.percentile(p));
    };
    expect_identical(a.embodied, b.embodied);
    expect_identical(a.operational, b.operational);
    expect_identical(a.total, b.total);

    // A different seed must actually move the distribution.
    const UncertaintyReport c = first.run(system, 64, 2025);
    EXPECT_NE(a.total.mean(), c.total.mean());
}

TEST_F(MonteCarloTest, DistributionBracketsDeterministicValue)
{
    MonteCarloAnalyzer analyzer(config());
    TechDb tech;
    const SystemSpec system =
        testcases::ga102ThreeChiplet(tech, 7.0, 14.0, 10.0);

    EcoChip point_estimator(config());
    const double point =
        point_estimator.estimate(system).embodiedCo2Kg();

    const UncertaintyReport report =
        analyzer.run(system, 200, 7);
    EXPECT_LT(report.embodied.min(), point);
    EXPECT_GT(report.embodied.max(), point);
    EXPECT_NEAR(report.embodied.mean(), point,
                0.15 * point);
    // Spread is real but bounded.
    EXPECT_GT(report.embodied.stddev(), 0.0);
    EXPECT_LT(report.embodied.stddev(), 0.5 * point);
}

TEST(MonteCarloWorkers, InlineBelowOneWorkerOfTrials)
{
    const int min = MonteCarloAnalyzer::kMinTrialsPerWorker;
    EXPECT_EQ(MonteCarloAnalyzer::workers(1, 1000000, 64), 1);
    EXPECT_EQ(MonteCarloAnalyzer::workers(8, 2, 64), 1);
    EXPECT_EQ(MonteCarloAnalyzer::workers(8, 256, 64), 1);
    EXPECT_EQ(MonteCarloAnalyzer::workers(8, min, 64), 1);
    EXPECT_EQ(MonteCarloAnalyzer::workers(8, min + 1, 64), 2);
    EXPECT_EQ(MonteCarloAnalyzer::workers(8, 3 * min, 64), 3);
    EXPECT_EQ(MonteCarloAnalyzer::workers(8, 3 * min + 1, 64), 4);
}

TEST(MonteCarloWorkers, CappedByRequestAndHardware)
{
    const int max_threads = 4096;
    const int many_trials = 100000000;
    EXPECT_EQ(MonteCarloAnalyzer::workers(max_threads, many_trials,
                                          4),
              4);
    EXPECT_EQ(MonteCarloAnalyzer::workers(3, many_trials, 64), 3);
    EXPECT_EQ(MonteCarloAnalyzer::workers(max_threads, 90000, 256),
              (90000 + MonteCarloAnalyzer::kMinTrialsPerWorker - 1) /
                  MonteCarloAnalyzer::kMinTrialsPerWorker);
    // An unknown hardware count runs inline.
    EXPECT_EQ(MonteCarloAnalyzer::workers(8, many_trials, 0), 1);
    EXPECT_EQ(MonteCarloAnalyzer::workers(8, many_trials, 1), 1);
    // The largest trial count does not overflow the rounding.
    EXPECT_EQ(MonteCarloAnalyzer::workers(
                  max_threads, std::numeric_limits<int>::max(), 16),
              16);
}

TEST_F(MonteCarloTest, ZeroBandsCollapseToPointEstimate)
{
    UncertaintyBands none;
    none.defectDensity = 0.0;
    none.epa = 0.0;
    none.intensity = 0.0;
    none.designTime = 0.0;
    none.dutyCycle = 0.0;
    MonteCarloAnalyzer analyzer(config(), TechDb::defaults(), none);
    TechDb tech;
    const SystemSpec system =
        testcases::ga102ThreeChiplet(tech, 7.0, 14.0, 10.0);

    const UncertaintyReport report =
        analyzer.run(system, 10, 1);
    EXPECT_NEAR(report.total.stddev(), 0.0, 1e-9);

    EcoChip point_estimator(config());
    EXPECT_NEAR(report.total.mean(),
                point_estimator.estimate(system).totalCo2Kg(),
                1e-9);
}

TEST_F(MonteCarloTest, Validation)
{
    UncertaintyBands bad;
    bad.defectDensity = 1.5;
    EXPECT_THROW(
        MonteCarloAnalyzer(config(), TechDb::defaults(), bad),
        ConfigError);
    MonteCarloAnalyzer analyzer(config());
    TechDb tech;
    EXPECT_THROW(
        analyzer.run(
            testcases::ga102ThreeChiplet(tech, 7.0, 14.0, 10.0),
            1),
        ConfigError);
}

} // namespace
} // namespace ecochip
