/**
 * @file
 * Tests for the generative scenario spaces and the design-space
 * search driver (src/search/): odometer expansion and derived
 * names, the axis transforms, registry resolution of derived
 * names, Pareto frontier properties, the exhaustive ==
 * hand-expanded-batch identity, climber seed determinism across
 * engine thread counts, the search_io wire format, and the shipped
 * GA102 disaggregation space against its `makeDigitalSplit`
 * oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/disaggregate.h"
#include "core/testcases.h"
#include "engine/analysis_engine.h"
#include "io/batch_report_io.h"
#include "io/search_io.h"
#include "json/json.h"
#include "json/stream_writer.h"
#include "search/pareto.h"
#include "search/scenario_space.h"
#include "search/search_driver.h"
#include "session/analysis_session.h"
#include "session/scenario_registry.h"
#include "support/error.h"

#ifndef ECOCHIP_DATA_DIR
#define ECOCHIP_DATA_DIR ""
#endif

namespace ecochip {
namespace {

/** what() of a ConfigError thrown by @p fn ("" = no throw). */
template <typename Fn>
std::string
configErrorOf(Fn &&fn)
{
    try {
        fn();
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "";
}

/** A 3-die accelerator catalog with one generator over
 *  (node x split x packaging x lifetime). */
json::Value
pcaCatalog()
{
    return json::parse(R"({
        "generators": [{
            "name": "pca",
            "description": "PE node/split space",
            "architecture": {
                "name": "FPGA-PCA",
                "packaging": "rdl_fanout",
                "chiplets": [
                    {"name": "pe-array", "type": "logic",
                     "node_nm": 7, "area_mm2": 140.0},
                    {"name": "bram", "type": "memory",
                     "node_nm": 10, "area_mm2": 90.0},
                    {"name": "io-xcvr", "type": "io",
                     "node_nm": 14, "area_mm2": 70.0,
                     "reused": true}
                ]
            },
            "operational": {
                "lifetime_years": 3, "duty_cycle": 0.35,
                "avg_power_w": 60.0,
                "intensity_g_per_kwh": 700
            },
            "axes": [
                {"axis": "node_nm", "name": "pe_node",
                 "chiplet": "pe-array", "values": [5, 7]},
                {"axis": "chiplet_count", "name": "pe_split",
                 "chiplet": "pe-array", "values": [1, 4]},
                {"axis": "packaging",
                 "values": ["rdl_fanout", "silicon_bridge"]},
                {"axis": "lifetime_years", "values": [2, 4]}
            ]
        }]
    })");
}

/** A stacked-memory catalog exercising the stack_count axis. */
json::Value
hbmCatalog()
{
    return json::parse(R"({
        "generators": [{
            "name": "hbm-space",
            "architecture": {
                "name": "HBM-HOST",
                "packaging": "passive_interposer",
                "chiplets": [
                    {"name": "compute", "type": "logic",
                     "node_nm": 7, "area_mm2": 150.0},
                    {"name": "hbm0-dram0", "type": "memory",
                     "node_nm": 10, "area_mm2": 60.0,
                     "reused": true, "stack_group": "hbm0"},
                    {"name": "hbm0-dram1", "type": "memory",
                     "node_nm": 10, "area_mm2": 60.0,
                     "reused": true, "stack_group": "hbm0"}
                ]
            },
            "axes": [
                {"axis": "stack_count", "name": "towers",
                 "group": "hbm", "values": [0, 1, 3]}
            ]
        }]
    })");
}

ScenarioRegistry
pcaRegistry()
{
    ScenarioRegistry registry;
    registry.loadJson(pcaCatalog(), "catalog.json", ".");
    return registry;
}

class ScenarioSpaceTest : public ::testing::Test
{
  protected:
    // The space refers to its template: keep the registry alive.
    ScenarioRegistry registry_ = pcaRegistry();
    ScenarioSpace space_{registry_.generator("pca")};
    TechDb tech_;
};

TEST_F(ScenarioSpaceTest, ExpansionSizeAndOdometerOrder)
{
    EXPECT_EQ(space_.axisCount(), 4u);
    EXPECT_EQ(space_.size(), 16u); // 2 * 2 * 2 * 2

    // Last axis varies fastest.
    EXPECT_EQ(space_.nameAt(0),
              "pca/pe_node=5/pe_split=1/packaging=rdl_fanout/"
              "lifetime_years=2");
    EXPECT_EQ(space_.nameAt(1),
              "pca/pe_node=5/pe_split=1/packaging=rdl_fanout/"
              "lifetime_years=4");
    EXPECT_EQ(space_.nameAt(space_.size() - 1),
              "pca/pe_node=7/pe_split=4/"
              "packaging=silicon_bridge/lifetime_years=4");
}

TEST_F(ScenarioSpaceTest, FlatIndexRoundTrip)
{
    for (std::size_t flat = 0; flat < space_.size(); ++flat) {
        const auto indices = space_.indicesAt(flat);
        ASSERT_EQ(indices.size(), space_.axisCount());
        EXPECT_EQ(space_.flatIndex(indices), flat);
        EXPECT_EQ(space_.nameAt(indices), space_.nameAt(flat));
    }
}

TEST_F(ScenarioSpaceTest, ParseNameRoundTripAndStrictness)
{
    for (std::size_t flat = 0; flat < space_.size(); ++flat) {
        const auto parsed = space_.parseName(space_.nameAt(flat));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, space_.indicesAt(flat));
    }

    // Only the exact nameAt spelling resolves.
    EXPECT_FALSE(space_.parseName("other/pe_node=5"));
    EXPECT_FALSE(space_.parseName("pca"));
    EXPECT_FALSE(space_.parseName("pca/pe_node=5"));
    EXPECT_FALSE(space_.parseName(
        "pca/pe_split=1/pe_node=5/packaging=rdl_fanout/"
        "lifetime_years=2")); // reordered axes
    EXPECT_FALSE(space_.parseName(
        "pca/pe_node=5.0/pe_split=1/packaging=rdl_fanout/"
        "lifetime_years=2")); // non-canonical number spelling
    EXPECT_FALSE(space_.parseName(
        "pca/pe_node=6/pe_split=1/packaging=rdl_fanout/"
        "lifetime_years=2")); // value not a declared candidate
    EXPECT_FALSE(space_.parseName(
        space_.nameAt(0) + "/extra=1"));
}

TEST_F(ScenarioSpaceTest, NodeAxisRetargetsKeepingContent)
{
    // pe_node=5 vs pe_node=7, other axes at index 0.
    const DesignBundle at5 =
        space_.instantiate({0, 0, 0, 0}, tech_);
    const DesignBundle at7 =
        space_.instantiate({1, 0, 0, 0}, tech_);

    const auto find = [](const DesignBundle &b,
                         const std::string &name) {
        const auto it = std::find_if(
            b.system.chiplets.begin(), b.system.chiplets.end(),
            [&](const Chiplet &c) { return c.name == name; });
        EXPECT_NE(it, b.system.chiplets.end());
        return *it;
    };

    const Chiplet pe5 = find(at5, "pe-array");
    const Chiplet pe7 = find(at7, "pe-array");
    EXPECT_DOUBLE_EQ(pe5.nodeNm, 5.0);
    EXPECT_DOUBLE_EQ(pe7.nodeNm, 7.0);
    // Retarget keeps transistor content; area re-derives.
    EXPECT_DOUBLE_EQ(pe5.transistorsMtr, pe7.transistorsMtr);
    EXPECT_LT(pe5.areaMm2(tech_), pe7.areaMm2(tech_));
    // Untargeted chiplets are untouched.
    EXPECT_DOUBLE_EQ(find(at5, "bram").nodeNm, 10.0);
    EXPECT_DOUBLE_EQ(find(at5, "io-xcvr").nodeNm, 14.0);

    // The system is stamped with the derived point name.
    EXPECT_EQ(at5.system.name, space_.nameAt({0, 0, 0, 0}));
}

TEST_F(ScenarioSpaceTest, ChipletSplitMakesReusedTwins)
{
    const DesignBundle whole =
        space_.instantiate({1, 0, 0, 0}, tech_); // pe_split=1
    const DesignBundle split =
        space_.instantiate({1, 1, 0, 0}, tech_); // pe_split=4

    EXPECT_EQ(whole.system.chiplets.size(), 3u);
    ASSERT_EQ(split.system.chiplets.size(), 6u);

    double total = 0.0;
    int reused = 0;
    for (int s = 0; s < 4; ++s) {
        const Chiplet &slice =
            split.system.chiplets[static_cast<std::size_t>(s)];
        EXPECT_EQ(slice.name,
                  "pe-array" + std::to_string(s));
        total += slice.transistorsMtr;
        reused += slice.reused ? 1 : 0;
    }
    // Content divided evenly; twins after the first reused.
    EXPECT_NEAR(total,
                whole.system.chiplets[0].transistorsMtr, 1e-9);
    EXPECT_EQ(reused, 3);
    // Packaging axis landed too.
    EXPECT_EQ(split.config.package.arch,
              PackagingArch::RdlFanout);
}

TEST(StackAxisTest, ReplicationAndTrimRenameTowers)
{
    ScenarioRegistry registry;
    registry.loadJson(hbmCatalog(), "catalog.json", ".");
    const ScenarioSpace space(registry.generator("hbm-space"));
    const TechDb tech;
    ASSERT_EQ(space.size(), 3u);

    // towers=0: the family is trimmed away.
    const DesignBundle none = space.instantiate({0}, tech);
    EXPECT_EQ(none.system.chiplets.size(), 1u);
    EXPECT_EQ(none.system.chiplets[0].name, "compute");

    // towers=1: exactly the exemplar tower.
    const DesignBundle one = space.instantiate({1}, tech);
    EXPECT_EQ(one.system.chiplets.size(), 3u);

    // towers=3: clones renamed into their tower group.
    const DesignBundle three = space.instantiate({2}, tech);
    ASSERT_EQ(three.system.chiplets.size(), 7u);
    std::vector<std::string> names;
    for (const auto &chiplet : three.system.chiplets)
        names.push_back(chiplet.name);
    for (const char *expected :
         {"hbm1-dram0", "hbm1-dram1", "hbm2-dram0",
          "hbm2-dram1"})
        EXPECT_NE(std::find(names.begin(), names.end(),
                            expected),
                  names.end())
            << expected;
    for (const auto &chiplet : three.system.chiplets) {
        if (chiplet.stackGroup == "hbm2") {
            EXPECT_TRUE(chiplet.reused);
        }
    }
}

TEST(ScenarioRegistryGeneratorTest, ResolvesDerivedNames)
{
    ScenarioRegistry registry;
    registry.loadJson(pcaCatalog(), "catalog.json", ".");
    const ScenarioSpace space(registry.generator("pca"));
    const TechDb tech;

    const std::string name = space.nameAt(std::size_t{5});
    EXPECT_TRUE(registry.contains(name));
    EXPECT_FALSE(registry.contains("pca/pe_node=6"));

    const DesignBundle bundle = registry.instantiate(name, tech);
    EXPECT_EQ(bundle.system.name, name);

    // Plain-name lookup failures advertise the templates.
    const std::string message = configErrorOf(
        [&] { (void)registry.get("nope"); });
    EXPECT_NE(message.find("generator templates: pca/..."),
              std::string::npos)
        << message;
    const std::string unknown = configErrorOf(
        [&] { (void)registry.generator("nope"); });
    EXPECT_NE(unknown.find("unknown generator \"nope\""),
              std::string::npos)
        << unknown;
}

TEST(ScenarioRegistryGeneratorTest,
     AxisValidationNamesGeneratorAndAxis)
{
    const auto load = [](const char *axes_json) {
        json::Value doc = json::parse(std::string(R"({
            "generators": [{
                "name": "g",
                "architecture": {
                    "name": "sys",
                    "chiplets": [{"name": "die",
                                  "type": "logic",
                                  "node_nm": 7,
                                  "area_mm2": 50.0}]
                },
                "axes": )") + axes_json + "}]}");
        ScenarioRegistry registry;
        registry.loadJson(doc, "cat.json", ".");
    };

    // Empty axis: file, generator, and axis all named.
    const std::string empty = configErrorOf([&] {
        load(R"([{"axis": "node_nm", "values": []}])");
    });
    EXPECT_NE(empty.find("cat.json"), std::string::npos)
        << empty;
    EXPECT_NE(empty.find("generator \"g\""), std::string::npos)
        << empty;
    EXPECT_NE(empty.find("axis \"node_nm\""), std::string::npos)
        << empty;
    EXPECT_NE(
        empty.find("empty axis (needs at least one value)"),
        std::string::npos)
        << empty;

    // Duplicate value, spelled canonically in the message.
    const std::string dup = configErrorOf([&] {
        load(R"([{"axis": "node_nm", "values": [7, 7.0]}])");
    });
    EXPECT_NE(dup.find("generator \"g\""), std::string::npos)
        << dup;
    EXPECT_NE(dup.find("duplicate axis value \"7\""),
              std::string::npos)
        << dup;

    // Unknown packaging spelling is caught at load time.
    const std::string pkg = configErrorOf([&] {
        load(R"([{"axis": "packaging", "values": ["bogus"]}])");
    });
    EXPECT_NE(
        pkg.find("unknown packaging architecture \"bogus\""),
        std::string::npos)
        << pkg;
}

// ------------------------------------------------------- pareto

TEST(ParetoTest, NoDominatedSurvivorAndFullCoverage)
{
    const std::vector<ParetoPoint> points = {
        {"a", {1.0, 9.0}}, {"b", {2.0, 8.0}},
        {"c", {3.0, 7.0}}, {"d", {3.0, 8.0}}, // dominated by c
        {"e", {9.0, 1.0}}, {"f", {9.0, 9.0}}, // dominated
        {"g", {0.5, 9.5}},
    };
    const auto frontier = paretoFrontier(points);

    const auto dominates = [&](const ParetoPoint &p,
                               const ParetoPoint &q) {
        bool better = false;
        for (std::size_t k = 0; k < p.objectives.size(); ++k) {
            if (p.objectives[k] > q.objectives[k])
                return false;
            if (p.objectives[k] < q.objectives[k])
                better = true;
        }
        return better;
    };

    // No survivor is dominated by any input point...
    for (const std::size_t slot : frontier)
        for (const auto &other : points)
            EXPECT_FALSE(dominates(other, points[slot]));
    // ...and every non-survivor is dominated by some survivor.
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (std::find(frontier.begin(), frontier.end(), i) !=
            frontier.end())
            continue;
        bool covered = false;
        for (const std::size_t slot : frontier)
            covered |= dominates(points[slot], points[i]);
        EXPECT_TRUE(covered) << points[i].name;
    }
    EXPECT_EQ(frontier.size(), 5u);
}

TEST(ParetoTest, PermutationInvariance)
{
    const std::vector<ParetoPoint> points = {
        {"a", {1.0, 9.0}}, {"b", {2.0, 8.0}},
        {"c", {3.0, 7.0}}, {"d", {3.0, 8.0}},
        {"e", {9.0, 1.0}}, {"f", {9.0, 9.0}},
    };
    std::vector<ParetoPoint> shuffled = {
        points[4], points[1], points[5],
        points[0], points[3], points[2]};

    const auto names = [](const std::vector<ParetoPoint> &in,
                          const std::vector<std::size_t> &sel) {
        std::vector<std::string> out;
        for (const std::size_t slot : sel)
            out.push_back(in[slot].name);
        return out;
    };
    // Same survivors in the same (sorted) output order, however
    // the input was permuted.
    EXPECT_EQ(names(points, paretoFrontier(points)),
              names(shuffled, paretoFrontier(shuffled)));
}

TEST(ParetoTest, DeterministicTieOrdering)
{
    // Equal objective vectors: both survive, name-ordered.
    const std::vector<ParetoPoint> points = {
        {"zeta", {1.0, 1.0}},
        {"alpha", {1.0, 1.0}},
        {"mid", {0.5, 2.0}},
    };
    const auto frontier = paretoFrontier(points);
    ASSERT_EQ(frontier.size(), 3u);
    // Sorted by objectives first, then name.
    EXPECT_EQ(points[frontier[0]].name, "mid");
    EXPECT_EQ(points[frontier[1]].name, "alpha");
    EXPECT_EQ(points[frontier[2]].name, "zeta");

    EXPECT_TRUE(paretoFrontier({}).empty());
}

// ------------------------------------------------------- driver

SearchSpec
pcaSearchSpec(StrategyKind kind)
{
    SearchSpec spec;
    spec.generator = "pca";
    spec.strategy.kind = kind;
    spec.strategy.seed = 7;
    spec.strategy.restarts = 3;
    spec.strategy.steps = 40;
    spec.batchSize = 5; // deliberately not a divisor of 16
    spec.objectives.push_back(
        {SearchMetric::EmbodiedKg, false, 1.0});
    spec.constraints.push_back(
        {SearchMetric::CostUsd, std::nullopt, 1000.0});
    return spec;
}

/** The `--search --json` document of @p result. */
std::string
searchResultText(const SearchResult &result, bool pretty = true)
{
    json::StreamWriter writer(pretty);
    appendSearchResult(writer, result);
    return writer.take();
}

SearchDriver
pcaDriver(int threads)
{
    EngineOptions options;
    options.threads = threads;
    options.registry.loadJson(pcaCatalog(), "catalog.json",
                              ".");
    return SearchDriver(std::move(options));
}

TEST(SearchDriverTest, ExhaustiveMatchesHandExpandedBatch)
{
    const SearchSpec spec =
        pcaSearchSpec(StrategyKind::Exhaustive);

    SearchDriver driver = pcaDriver(4);
    const SearchResult result = driver.run(spec);

    // The same registry, engine config, and request list by
    // hand.
    EngineOptions options;
    options.threads = 4;
    options.registry.loadJson(pcaCatalog(), "catalog.json",
                              ".");
    AnalysisEngine engine(std::move(options));
    const ScenarioSpace space(engine.registry().generator("pca"));
    const auto requests = SearchDriver::expand(spec, space);
    const BatchReport by_hand = engine.runBatch(requests);

    // Byte-identity through the report serializer -- the
    // search_equivalence CTest locks the same property through
    // files and `cmp`.
    EXPECT_EQ(batchReportText(result.report, true),
              batchReportText(by_hand, true));

    // Exhaustive covers the whole space in odometer order.
    ASSERT_EQ(result.evaluated.size(), space.size());
    for (std::size_t flat = 0; flat < space.size(); ++flat)
        EXPECT_EQ(result.evaluated[flat].flat, flat);
    EXPECT_EQ(result.spaceSize, space.size());
    ASSERT_TRUE(result.best.has_value());
    EXPECT_TRUE(result.evaluated[*result.best].feasible);
    EXPECT_FALSE(result.frontier.empty());
}

TEST(SearchDriverTest, ClimbersAreSeedDeterministicAcrossThreads)
{
    for (const StrategyKind kind :
         {StrategyKind::Greedy, StrategyKind::Annealing}) {
        const SearchSpec spec = pcaSearchSpec(kind);
        std::vector<std::string> dumps;
        for (const int threads : {1, 4, 8}) {
            SearchDriver driver = pcaDriver(threads);
            dumps.push_back(searchResultText(driver.run(spec)));
        }
        EXPECT_EQ(dumps[0], dumps[1]) << toString(kind);
        EXPECT_EQ(dumps[0], dumps[2]) << toString(kind);
    }
}

TEST(SearchDriverTest, ConstraintsGateFeasibilityAndBest)
{
    SearchSpec spec = pcaSearchSpec(StrategyKind::Exhaustive);
    // Tight area cap: split points (4 small dies ~ same silicon)
    // stay, but nothing is pruned by cost; pick a bound between
    // the observed extremes so both classes exist.
    spec.constraints.clear();
    spec.constraints.push_back(
        {SearchMetric::AreaMm2, std::nullopt, 280.0});

    SearchDriver driver = pcaDriver(2);
    const SearchResult result = driver.run(spec);

    std::size_t feasible = 0;
    for (const auto &point : result.evaluated) {
        EXPECT_TRUE(point.ok);
        if (point.feasible) {
            ++feasible;
            EXPECT_TRUE(std::isfinite(point.score));
        } else {
            EXPECT_TRUE(std::isinf(point.score));
        }
    }
    ASSERT_GT(feasible, 0u);
    ASSERT_LT(feasible, result.evaluated.size());
    ASSERT_TRUE(result.best.has_value());
    EXPECT_TRUE(result.evaluated[*result.best].feasible);
    // The frontier only admits feasible points.
    for (const std::size_t slot : result.frontier)
        EXPECT_TRUE(result.evaluated[slot].feasible);
}

TEST(SearchDriverTest, ValidateRejectsBrokenSpecs)
{
    const SearchSpec good =
        pcaSearchSpec(StrategyKind::Exhaustive);
    EXPECT_NO_THROW(SearchDriver::validate(good));

    SearchSpec spec = good;
    spec.objectives.clear();
    EXPECT_THROW(SearchDriver::validate(spec), ConfigError);

    spec = good;
    spec.objectives[0].weight = 0.0;
    EXPECT_THROW(SearchDriver::validate(spec), ConfigError);

    spec = good;
    spec.batchSize = 0;
    EXPECT_THROW(SearchDriver::validate(spec), ConfigError);

    spec = good;
    spec.strategy.restarts = 0;
    EXPECT_THROW(SearchDriver::validate(spec), ConfigError);

    spec = good;
    spec.constraints.push_back(
        {SearchMetric::AreaMm2, 10.0, 5.0}); // min > max
    EXPECT_THROW(SearchDriver::validate(spec), ConfigError);

    spec = good;
    spec.generator = "unknown-generator";
    SearchDriver driver = pcaDriver(1);
    EXPECT_THROW((void)driver.run(spec), ConfigError);
}

// ----------------------------------------------------- wire fmt

TEST(SearchIoTest, SpecRoundTripsLosslessly)
{
    SearchSpec spec;
    spec.generator = "pca";
    spec.catalog = "catalog.json";
    spec.strategy.kind = StrategyKind::Annealing;
    spec.strategy.seed = 99;
    spec.strategy.restarts = 2;
    spec.strategy.steps = 17;
    spec.strategy.initialTemp = 2.5;
    spec.strategy.cooling = 0.9;
    spec.objectives.push_back(
        {SearchMetric::TotalKg, false, 1.0});
    spec.objectives.push_back(
        {SearchMetric::PerfProxy, true, 0.25});
    spec.constraints.push_back(
        {SearchMetric::CostUsd, 10.0, 500.0});
    spec.batchSize = 32;

    // Every member of the schema, spelled as a spec file spells
    // it, parses back to exactly the spec above.
    const SearchSpec back = searchSpecFromJson(json::parse(R"({
        "generator": "pca",
        "scenarios": "catalog.json",
        "strategy": {"kind": "annealing", "seed": 99,
                     "restarts": 2, "steps": 17,
                     "initial_temp": 2.5, "cooling": 0.9},
        "objectives": [
            {"metric": "total_kg", "goal": "min", "weight": 1},
            {"metric": "perf_proxy", "goal": "max",
             "weight": 0.25}
        ],
        "constraints": [
            {"metric": "cost_usd", "min": 10, "max": 500}
        ],
        "batch_size": 32
    })"),
                                               "round.json");
    EXPECT_EQ(back, spec);
}

TEST(SearchIoTest, RejectsUnknownKeysNamingFileAndKey)
{
    const json::Value doc = json::parse(R"({
        "generator": "pca",
        "objectives": [{"metric": "embodied_kg"}],
        "bogus_knob": 1
    })");
    const std::string message = configErrorOf([&] {
        (void)searchSpecFromJson(doc, "spec.json");
    });
    EXPECT_NE(message.find("spec.json"), std::string::npos)
        << message;
    EXPECT_NE(message.find("bogus_knob"), std::string::npos)
        << message;

    // Unknown metric spellings list the accepted ones.
    const json::Value bad = json::parse(R"({
        "generator": "pca",
        "objectives": [{"metric": "carbon"}]
    })");
    const std::string metric = configErrorOf([&] {
        (void)searchSpecFromJson(bad, "spec.json");
    });
    EXPECT_NE(metric.find("embodied_kg"), std::string::npos)
        << metric;
}

TEST(SearchIoTest, ResultDocumentOmitsNonFiniteScores)
{
    SearchSpec spec = pcaSearchSpec(StrategyKind::Exhaustive);
    spec.constraints.clear();
    spec.constraints.push_back(
        {SearchMetric::AreaMm2, std::nullopt, 280.0});

    SearchDriver driver = pcaDriver(2);
    const json::Value doc =
        json::parse(searchResultText(driver.run(spec)));

    EXPECT_EQ(doc.at("generator").asString(), "pca");
    EXPECT_EQ(doc.at("strategy").asString(), "exhaustive");
    EXPECT_EQ(static_cast<std::size_t>(
                  doc.at("space_size").asInteger()),
              std::size_t{16});
    EXPECT_TRUE(doc.contains("best"));
    EXPECT_TRUE(doc.contains("frontier"));

    bool saw_infeasible = false;
    for (const auto &point : doc.at("points").asArray()) {
        if (point.at("feasible").asBoolean()) {
            EXPECT_TRUE(point.contains("score"));
        } else {
            saw_infeasible = true;
            EXPECT_FALSE(point.contains("score"));
        }
        // The document (and so the whole result) stays
        // parseable JSON even with infeasible points.
        EXPECT_NO_THROW(json::parse(point.dump(false)));
    }
    EXPECT_TRUE(saw_infeasible);
}

/** A hand-built result over the two tracked metrics
 *  embodied_kg (objective) and cost_usd (constraint). */
SearchResult
handBuiltResult()
{
    SearchResult result;
    result.spec.generator = "g";
    result.spec.strategy.seed = 7;
    result.spec.objectives.push_back(
        {SearchMetric::EmbodiedKg, false, 1.0});
    result.spec.constraints.push_back(
        {SearchMetric::CostUsd, std::nullopt, 100.0});
    result.spaceSize = 4;
    const double inf = std::numeric_limits<double>::infinity();
    result.evaluated.push_back(
        {0, "g/a", true, "", {1.5, 20.0}, true, 1.5});
    result.evaluated.push_back(
        {1, "g/b", true, "", {0.5, 200.0}, false, inf});
    result.evaluated.push_back(
        {2, "g/c", false, "boom", {}, false, inf});
    return result;
}

TEST(SearchIoTest, ResultDocumentBytesWithBestPoint)
{
    SearchResult result = handBuiltResult();
    result.frontier = {0};
    result.best = 0;
    EXPECT_EQ(
        searchResultText(result, false),
        R"({"generator":"g","strategy":"exhaustive","seed":7,)"
        R"("space_size":4,"evaluations":3,)"
        R"("best":{"scenario":"g/a","score":1.5,)"
        R"("metrics":{"embodied_kg":1.5,"cost_usd":20}},)"
        R"("frontier":[{"scenario":"g/a",)"
        R"("metrics":{"embodied_kg":1.5,"cost_usd":20}}],)"
        R"("points":[)"
        R"({"scenario":"g/a","ok":true,"feasible":true,)"
        R"("score":1.5,)"
        R"("metrics":{"embodied_kg":1.5,"cost_usd":20}},)"
        R"({"scenario":"g/b","ok":true,"feasible":false,)"
        R"("metrics":{"embodied_kg":0.5,"cost_usd":200}},)"
        R"({"scenario":"g/c","ok":false,"feasible":false,)"
        R"("error":"boom"}]})");
}

TEST(SearchIoTest, ResultDocumentBytesWithoutBestPoint)
{
    SearchResult result = handBuiltResult();
    result.evaluated.erase(result.evaluated.begin());
    EXPECT_EQ(searchResultText(result), R"({
    "generator": "g",
    "strategy": "exhaustive",
    "seed": 7,
    "space_size": 4,
    "evaluations": 2,
    "best": null,
    "frontier": [],
    "points": [
        {
            "scenario": "g/b",
            "ok": true,
            "feasible": false,
            "metrics": {
                "embodied_kg": 0.5,
                "cost_usd": 200
            }
        },
        {
            "scenario": "g/c",
            "ok": false,
            "feasible": false,
            "error": "boom"
        }
    ]
})");
}

// ------------------------------------- shipped GA102 split space

constexpr const char *kGa102Space = "ga102-disaggregation-space";

TEST(DisaggregationSpace, PointsMatchDigitalSplitBitForBit)
{
    ScenarioRegistry registry;
    registry.loadFile(std::string(ECOCHIP_DATA_DIR) +
                      "/scenarios/search_spaces.json");
    const ScenarioSpace space(registry.generator(kGa102Space));
    ASSERT_EQ(space.size(), 135u);

    // Oracle: the GA102 die-shot blocks split by
    // makeDigitalSplit, estimated under the GA102 operating point.
    const TechDb tech;
    const auto bits = [](double v) {
        return std::bit_cast<std::uint64_t>(v);
    };
    std::size_t checked = 0;
    for (const int memory : {7, 10, 14})
        for (const int analog : {7, 10, 14})
            for (const int split : {1, 2, 3, 4, 6})
                for (const PackagingArch arch :
                     {PackagingArch::RdlFanout,
                      PackagingArch::SiliconBridge,
                      PackagingArch::PassiveInterposer}) {
                    EcoChipConfig config;
                    config.operating = testcases::ga102Operating();
                    config.package.arch = arch;
                    const CarbonReport expected =
                        EcoChip(config).estimate(makeDigitalSplit(
                            "oracle", testcases::ga102Blocks(), tech,
                            split, 7.0, memory, analog));

                    const std::string name =
                        std::string(kGa102Space) +
                        "/memory_node=" + std::to_string(memory) +
                        "/analog_node=" + std::to_string(analog) +
                        "/digital_split=" + std::to_string(split) +
                        "/packaging=" + toString(arch);
                    const DesignBundle point =
                        registry.instantiate(name, tech);
                    const CarbonReport actual =
                        EcoChip(point.config).estimate(point.system);

                    EXPECT_EQ(bits(expected.embodiedCo2Kg()),
                              bits(actual.embodiedCo2Kg()))
                        << name;
                    EXPECT_EQ(bits(expected.totalCo2Kg()),
                              bits(actual.totalCo2Kg()))
                        << name;
                    ++checked;
                }
    EXPECT_EQ(checked, space.size());
}

TEST(DisaggregationSpace, SearchFindsSplitWinnersBelowMonolith)
{
    const SearchSpec spec = loadSearchSpecFile(
        std::string(ECOCHIP_DATA_DIR) +
        "/searches/exhaustive_disaggregation.json");
    EngineOptions options;
    options.threads = 2;
    const SearchResult result = SearchDriver(options).run(spec);
    ASSERT_EQ(result.evaluated.size(), 135u);

    // metrics[] follows the spec's objectives: embodied, total.
    const auto best_by = [&](std::size_t metric) {
        return *std::min_element(
            result.evaluated.begin(), result.evaluated.end(),
            [&](const EvaluatedPoint &a, const EvaluatedPoint &b) {
                return a.metrics[metric] < b.metrics[metric];
            });
    };
    const EvaluatedPoint embodied = best_by(0);
    const EvaluatedPoint total = best_by(1);
    EXPECT_EQ(embodied.name,
              std::string(kGa102Space) +
                  "/memory_node=14/analog_node=10/digital_split=6/"
                  "packaging=rdl_fanout");
    EXPECT_NEAR(embodied.metrics[0], 24.0777, 1e-4);
    EXPECT_EQ(total.name,
              std::string(kGa102Space) +
                  "/memory_node=7/analog_node=7/digital_split=6/"
                  "packaging=passive_interposer");
    EXPECT_NEAR(total.metrics[1], 185.203, 1e-3);

    // The paper's thesis: a chiplet split is greener than the
    // monolithic 7 nm die on both counts.
    const CarbonReport mono = *ScenarioBuilder()
                                   .scenario("ga102-mono")
                                   .build()
                                   .estimate()
                                   .report;
    EXPECT_LT(embodied.metrics[0], mono.embodiedCo2Kg());
    EXPECT_LT(total.metrics[1], mono.totalCo2Kg());
}

} // namespace
} // namespace ecochip
