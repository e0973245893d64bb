/**
 * @file
 * Tests for the AnalysisSession / ScenarioBuilder /
 * ScenarioRegistry API layer: golden equivalence against the
 * legacy direct-construction path, evaluation-cache coherence,
 * parallel Monte-Carlo determinism, and the unified result
 * serialization.
 */

#include <gtest/gtest.h>

#include "core/explorer.h"
#include "core/testcases.h"
#include "io/config_loader.h"
#include "io/result_writer.h"
#include "session/analysis_session.h"
#include "support/error.h"

namespace ecochip {
namespace {

EcoChipConfig
ga102Config()
{
    EcoChipConfig config;
    config.package.arch = PackagingArch::RdlFanout;
    config.operating = testcases::ga102Operating();
    return config;
}

// ------------------------------------------------ golden values

TEST(SessionGolden, EstimateBitIdenticalToLegacyPath)
{
    // Legacy: hand-wired estimator.
    EcoChip legacy(ga102Config());
    const SystemSpec system = testcases::ga102ThreeChiplet(
        legacy.tech(), 7.0, 10.0, 14.0);
    const CarbonReport expected = legacy.estimate(system);

    // New: registry scenario through the session façade.
    const AnalysisSession session =
        ScenarioBuilder().scenario("ga102").build();
    const AnalysisResult result = session.estimate();

    ASSERT_TRUE(result.report.has_value());
    const CarbonReport &actual = *result.report;
    EXPECT_EQ(expected.mfgCo2Kg, actual.mfgCo2Kg);
    EXPECT_EQ(expected.designCo2Kg, actual.designCo2Kg);
    EXPECT_EQ(expected.nreCo2Kg, actual.nreCo2Kg);
    EXPECT_EQ(expected.hi.packageCo2Kg, actual.hi.packageCo2Kg);
    EXPECT_EQ(expected.hi.routingCo2Kg, actual.hi.routingCo2Kg);
    EXPECT_EQ(expected.operation.co2Kg, actual.operation.co2Kg);
    EXPECT_EQ(expected.embodiedCo2Kg(), actual.embodiedCo2Kg());
    EXPECT_EQ(expected.totalCo2Kg(), actual.totalCo2Kg());
    ASSERT_EQ(expected.chiplets.size(), actual.chiplets.size());
    for (std::size_t i = 0; i < expected.chiplets.size(); ++i) {
        EXPECT_EQ(expected.chiplets[i].name,
                  actual.chiplets[i].name);
        EXPECT_EQ(expected.chiplets[i].yield,
                  actual.chiplets[i].yield);
        EXPECT_EQ(expected.chiplets[i].mfgCo2Kg,
                  actual.chiplets[i].mfgCo2Kg);
        EXPECT_EQ(expected.chiplets[i].designCo2Kg,
                  actual.chiplets[i].designCo2Kg);
    }
}

TEST(SessionGolden, SweepBitIdenticalToLegacyExplorer)
{
    EcoChip legacy(ga102Config());
    const SystemSpec system = testcases::ga102ThreeChiplet(
        legacy.tech(), 7.0, 10.0, 14.0);
    TechSpaceExplorer explorer(legacy);
    const auto expected =
        explorer.sweep(system, {7.0, 10.0, 14.0});

    const AnalysisSession session =
        ScenarioBuilder().scenario("ga102").build();
    const AnalysisResult result =
        session.sweep({7.0, 10.0, 14.0});

    ASSERT_EQ(expected.size(), result.points.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].label(),
                  result.points[i].label());
        EXPECT_EQ(expected[i].report.embodiedCo2Kg(),
                  result.points[i].report.embodiedCo2Kg());
        EXPECT_EQ(expected[i].report.totalCo2Kg(),
                  result.points[i].report.totalCo2Kg());
    }
}

TEST(SessionGolden, CostMatchesLegacyPath)
{
    EcoChip legacy(ga102Config());
    const SystemSpec system = testcases::ga102ThreeChiplet(
        legacy.tech(), 7.0, 10.0, 14.0);
    const CostBreakdown expected = legacy.cost(system);

    const AnalysisSession session =
        ScenarioBuilder().scenario("ga102").build();
    const AnalysisResult result = session.cost();

    ASSERT_TRUE(result.cost.has_value());
    EXPECT_EQ(expected.dieUsd, result.cost->dieUsd);
    EXPECT_EQ(expected.packageUsd, result.cost->packageUsd);
    EXPECT_EQ(expected.assemblyUsd, result.cost->assemblyUsd);
    EXPECT_EQ(expected.totalUsd(), result.cost->totalUsd());
}

// ------------------------------------------------ Monte Carlo

TEST(SessionMonteCarlo, ParallelMatchesSerialForEqualSeeds)
{
    const AnalysisSession session =
        ScenarioBuilder().scenario("ga102").build();

    const AnalysisResult serial =
        session.monteCarlo(64, 7, Parallelism{1});
    const AnalysisResult parallel =
        session.monteCarlo(64, 7, Parallelism{4});

    ASSERT_TRUE(serial.uncertainty.has_value());
    ASSERT_TRUE(parallel.uncertainty.has_value());
    auto expect_same = [](const SampleStats &a,
                          const SampleStats &b) {
        EXPECT_EQ(a.mean(), b.mean());
        EXPECT_EQ(a.stddev(), b.stddev());
        EXPECT_EQ(a.min(), b.min());
        EXPECT_EQ(a.max(), b.max());
        EXPECT_EQ(a.percentile(50.0), b.percentile(50.0));
    };
    expect_same(serial.uncertainty->embodied,
                parallel.uncertainty->embodied);
    expect_same(serial.uncertainty->operational,
                parallel.uncertainty->operational);
    expect_same(serial.uncertainty->total,
                parallel.uncertainty->total);
}

TEST(SessionMonteCarlo, MoreThreadsThanTrialsIsFine)
{
    const AnalysisSession session =
        ScenarioBuilder().scenario("ga102").build();
    const AnalysisResult result =
        session.monteCarlo(3, 11, Parallelism{16});
    EXPECT_EQ(result.uncertainty->embodied.count(), 3u);
}

TEST(SessionMonteCarlo, RejectsNonPositiveThreadCount)
{
    MonteCarloAnalyzer analyzer(ga102Config());
    TechDb tech;
    const SystemSpec system =
        testcases::ga102ThreeChiplet(tech, 7.0, 10.0, 14.0);
    EXPECT_THROW(analyzer.run(system, 8, 42, Parallelism{0}),
                 ConfigError);
}

// ------------------------------------------------ registry

TEST(Registry, EveryBuiltinScenarioBuildsAndEstimates)
{
    const auto &registry = ScenarioRegistry::builtin();
    EXPECT_GE(registry.scenarios().size(), 8u);
    for (const std::string &name : registry.names()) {
        const AnalysisSession session =
            ScenarioBuilder().scenario(name).build();
        const AnalysisResult result = session.estimate();
        ASSERT_TRUE(result.report.has_value()) << name;
        EXPECT_GT(result.report->embodiedCo2Kg(), 0.0) << name;
        EXPECT_GT(result.report->totalCo2Kg(),
                  result.report->embodiedCo2Kg())
            << name << " should have operational carbon";
    }
}

TEST(Registry, ContainsNewWorkloadFamilies)
{
    const auto &registry = ScenarioRegistry::builtin();
    EXPECT_TRUE(registry.contains("ga102"));
    EXPECT_TRUE(registry.contains("a15"));
    EXPECT_TRUE(registry.contains("emr"));
    EXPECT_TRUE(registry.contains("server-4die"));
    EXPECT_TRUE(registry.contains("hbm-accel"));
    EXPECT_FALSE(registry.contains("nonexistent"));
}

TEST(Registry, UnknownScenarioListsAvailableNames)
{
    try {
        ScenarioBuilder().scenario("bogus").build();
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("bogus"), std::string::npos);
        EXPECT_NE(what.find("ga102"), std::string::npos);
    }
}

TEST(Registry, RejectsDuplicateAndAnonymousScenarios)
{
    ScenarioRegistry registry;
    registry.add({"x", "one",
                  [](const TechDb &) { return DesignBundle{}; }});
    EXPECT_THROW(
        registry.add({"x", "dup",
                      [](const TechDb &) {
                          return DesignBundle{};
                      }}),
        ConfigError);
    EXPECT_THROW(
        registry.add({"", "anon",
                      [](const TechDb &) {
                          return DesignBundle{};
                      }}),
        ConfigError);
}

TEST(Registry, ServerPartIsOperationDominated)
{
    const AnalysisSession session =
        ScenarioBuilder().scenario("server-4die").build();
    const CarbonReport report = *session.estimate().report;
    EXPECT_GT(report.operation.co2Kg, report.embodiedCo2Kg());
    // Twins reuse the compute design: exactly one compute die
    // carries design carbon.
    int designed = 0;
    for (const auto &c : report.chiplets)
        if (c.designCo2Kg > 0.0)
            ++designed;
    EXPECT_EQ(designed, 3); // compute0, io-hub, msc
}

TEST(Registry, HbmAcceleratorStacksShareFootprints)
{
    const AnalysisSession session =
        ScenarioBuilder().scenario("hbm-accel").build();
    EXPECT_EQ(session.system().chiplets.size(), 18u);
    const CarbonReport report = *session.estimate().report;
    // Stacked towers bond their tiers vertically.
    EXPECT_GT(report.hi.stackBondCo2Kg, 0.0);
    EXPECT_GT(report.hi.bondCount, 0.0);
}

// ------------------------------------------------ builder

TEST(Builder, RequiresExactlyOneSystemSource)
{
    EXPECT_THROW(ScenarioBuilder().build(), ConfigError);

    TechDb tech;
    const SystemSpec system =
        testcases::ga102ThreeChiplet(tech, 7.0, 10.0, 14.0);
    EXPECT_THROW(ScenarioBuilder()
                     .scenario("ga102")
                     .system(system)
                     .build(),
                 ConfigError);
}

TEST(Builder, OverridesApplyOnTopOfScenarioConfig)
{
    const AnalysisSession session =
        ScenarioBuilder()
            .scenario("ga102")
            .packaging(PackagingArch::PassiveInterposer)
            .includeMaskNre(true)
            .build();
    EXPECT_EQ(session.context().config().package.arch,
              PackagingArch::PassiveInterposer);
    EXPECT_TRUE(session.context().config().includeMaskNre);
    const CarbonReport report = *session.estimate().report;
    EXPECT_GT(report.nreCo2Kg, 0.0);
}

TEST(Builder, WithSystemSharesTheEvaluationContext)
{
    const AnalysisSession session =
        ScenarioBuilder().scenario("ga102").build();
    const AnalysisSession sibling = session.withSystem(
        testcases::ga102Monolithic(session.context().tech()));
    EXPECT_EQ(&session.context(), &sibling.context());
}

// ------------------------------------------------ eval cache

TEST(EvalCache, RepeatedEstimatesAreBitIdentical)
{
    EcoChip estimator(ga102Config());
    const SystemSpec system = testcases::ga102ThreeChiplet(
        estimator.tech(), 7.0, 10.0, 14.0);
    const CarbonReport first = estimator.estimate(system);
    const CarbonReport second = estimator.estimate(system);
    EXPECT_EQ(first.mfgCo2Kg, second.mfgCo2Kg);
    EXPECT_EQ(first.embodiedCo2Kg(), second.embodiedCo2Kg());
    EXPECT_EQ(first.totalCo2Kg(), second.totalCo2Kg());
    EXPECT_GE(estimator.cache().report.size(), 1u);
}

TEST(EvalCache, SweepPopulatesSharedSubEvaluations)
{
    EcoChip estimator(ga102Config());
    const SystemSpec system = testcases::ga102ThreeChiplet(
        estimator.tech(), 7.0, 10.0, 14.0);
    TechSpaceExplorer explorer(estimator);
    explorer.sweep(system, {7.0, 10.0, 14.0});
    // 27 systems, but only 3 chiplets x 3 nodes of unique
    // (area, node) manufacturing points.
    EXPECT_EQ(estimator.cache().report.size(), 27u);
    EXPECT_EQ(estimator.cache().mfg.size(), 9u);
}

TEST(EvalCache, SetConfigInvalidatesMemoizedResults)
{
    EcoChipConfig config = ga102Config();
    EcoChip estimator(config);
    const SystemSpec system = testcases::ga102ThreeChiplet(
        estimator.tech(), 7.0, 10.0, 14.0);
    const CarbonReport before = estimator.estimate(system);

    config.includeWastage = false;
    estimator.setConfig(config);
    EXPECT_EQ(estimator.cache().report.size(), 0u);
    const CarbonReport after = estimator.estimate(system);
    EXPECT_LT(after.mfgCo2Kg, before.mfgCo2Kg);
}

TEST(EvalCache, CopiedEstimatorsShareMemoizedResults)
{
    EcoChip original(ga102Config());
    const SystemSpec system = testcases::ga102ThreeChiplet(
        original.tech(), 7.0, 10.0, 14.0);
    const CarbonReport expected = original.estimate(system);

    const EcoChip copy = original;
    EXPECT_GE(copy.cache().report.size(), 1u);
    EXPECT_EQ(copy.estimate(system).totalCo2Kg(),
              expected.totalCo2Kg());
}

// ------------------------------------------------ serialization

/** The parsed `--json` document of one result. */
json::Value
resultDoc(const AnalysisResult &result)
{
    json::StreamWriter writer;
    appendResult(writer, result);
    return json::parse(writer.take());
}

TEST(ResultWriter, JsonCarriesKindScenarioAndPayload)
{
    const AnalysisSession session =
        ScenarioBuilder().scenario("ga102").build();

    const json::Value estimate =
        resultDoc(session.estimate());
    EXPECT_EQ(estimate.at("kind").asString(), "estimate");
    EXPECT_EQ(estimate.at("scenario").asString(), "GA102-3c");
    EXPECT_TRUE(estimate.contains("report"));

    const json::Value sweep =
        resultDoc(session.sweep({7.0, 10.0}));
    EXPECT_EQ(sweep.at("kind").asString(), "sweep");
    EXPECT_EQ(sweep.at("sweep").asArray().size(), 8u);
    EXPECT_TRUE(sweep.contains("best_embodied"));

    const json::Value mc = resultDoc(
        session.monteCarlo(16, 3, Parallelism{2}));
    EXPECT_EQ(mc.at("kind").asString(), "monte_carlo");
    EXPECT_EQ(mc.at("uncertainty").at("trials").asNumber(),
              16.0);
    EXPECT_GT(mc.at("uncertainty")
                  .at("embodied")
                  .at("p95")
                  .asNumber(),
              mc.at("uncertainty")
                  .at("embodied")
                  .at("p5")
                  .asNumber());

    const json::Value cost = resultDoc(session.cost());
    EXPECT_EQ(cost.at("kind").asString(), "cost");
    EXPECT_GT(cost.at("cost").at("total_usd").asNumber(), 0.0);

    const json::Value sens = resultDoc(session.sensitivity());
    EXPECT_EQ(sens.at("kind").asString(), "sensitivity");
    EXPECT_GT(sens.at("sensitivity").at("rows").asArray().size(),
              0u);
}

TEST(ResultWriter, MarkdownRendersEveryKind)
{
    const AnalysisSession session =
        ScenarioBuilder().scenario("ga102").build();

    const std::string estimate =
        resultMarkdown(session.estimate());
    EXPECT_NE(estimate.find("# ECO-CHIP estimate: GA102-3c"),
              std::string::npos);
    EXPECT_NE(estimate.find("**total (Ctot)**"),
              std::string::npos);

    const std::string sweep =
        resultMarkdown(session.sweep({7.0, 14.0}));
    EXPECT_NE(sweep.find("Technology-space sweep"),
              std::string::npos);
    EXPECT_NE(sweep.find("Lowest embodied CFP"),
              std::string::npos);

    const std::string mc = resultMarkdown(
        session.monteCarlo(16, 3, Parallelism{2}));
    EXPECT_NE(mc.find("Monte-Carlo uncertainty"),
              std::string::npos);

    const std::string cost = resultMarkdown(session.cost());
    EXPECT_NE(cost.find("Dollar cost"), std::string::npos);
}

TEST(ResultWriter, MarkdownEstimateHasChipletAndBreakdownSections)
{
    const AnalysisSession session =
        ScenarioBuilder().scenario("ga102").build();
    const std::string md = resultMarkdown(session.estimate());
    EXPECT_NE(md.find("## Per-chiplet manufacturing"),
              std::string::npos);
    EXPECT_NE(md.find("| digital | 7 |"), std::string::npos) << md;
    EXPECT_NE(md.find("## Carbon breakdown"), std::string::npos);
    EXPECT_NE(md.find("**embodied (Cemb)**"), std::string::npos);
}

TEST(ResultWriter, MarkdownMaskNreRowOnlyWhenEnabled)
{
    const std::string without = resultMarkdown(
        ScenarioBuilder().scenario("ga102").build().estimate());
    EXPECT_EQ(without.find("mask NRE"), std::string::npos);

    const std::string with = resultMarkdown(ScenarioBuilder()
                                                .scenario("ga102")
                                                .includeMaskNre()
                                                .build()
                                                .estimate());
    EXPECT_NE(with.find("| mask NRE, amortized |"),
              std::string::npos)
        << with;
}

TEST(ResultWriter, StackGroupRoundTripsThroughArchitectureJson)
{
    // The architecture document of ga102Hbm(tech, 2, 2): two
    // planar dies plus two two-tier memory towers.
    TechDb tech;
    const SystemSpec hbm = testcases::ga102Hbm(tech, 2, 2);
    const SystemSpec parsed = systemFromJson(json::parse(R"({
        "name": "GA102-hbm",
        "chiplets": [
            {"name": "digital", "node_nm": 7, "area_mm2": 400},
            {"name": "analog", "node_nm": 10, "area_mm2": 90},
            {"name": "hbm0-t0", "type": "memory", "node_nm": 14,
             "area_mm2": 30, "stack_group": "hbm0"},
            {"name": "hbm0-t1", "type": "memory", "node_nm": 14,
             "area_mm2": 30, "reused": true, "stack_group": "hbm0"},
            {"name": "hbm1-t0", "type": "memory", "node_nm": 14,
             "area_mm2": 30, "reused": true, "stack_group": "hbm1"},
            {"name": "hbm1-t1", "type": "memory", "node_nm": 14,
             "area_mm2": 30, "reused": true, "stack_group": "hbm1"}
        ]
    })"),
                                             tech);
    ASSERT_EQ(parsed.chiplets.size(), hbm.chiplets.size());
    for (std::size_t i = 0; i < hbm.chiplets.size(); ++i) {
        EXPECT_EQ(parsed.chiplets[i].name, hbm.chiplets[i].name);
        EXPECT_EQ(parsed.chiplets[i].stackGroup,
                  hbm.chiplets[i].stackGroup);
        EXPECT_EQ(parsed.chiplets[i].reused,
                  hbm.chiplets[i].reused);
    }
}

} // namespace
} // namespace ecochip
