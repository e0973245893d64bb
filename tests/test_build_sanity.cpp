/**
 * @file
 * Build/link sanity: touches one symbol from each of the 17
 * `src/` subsystems so the `ecochip` library's link coverage is
 * total — a subsystem dropped from CMakeLists.txt fails this
 * suite at link time, not in some distant feature test.
 */

#include <gtest/gtest.h>

#include "act/act_model.h"
#include "analysis/montecarlo.h"
#include "analysis/sensitivity.h"
#include "chiplet/chiplet.h"
#include "core/ecochip.h"
#include "core/testcases.h"
#include "cost/cost_model.h"
#include "design/design_model.h"
#include "floorplan/floorplan.h"
#include "io/config_loader.h"
#include "io/result_writer.h"
#include "json/json.h"
#include "manufacture/mfg_model.h"
#include "noc/network_model.h"
#include "operation/operational_model.h"
#include "package/package_model.h"
#include "support/interp.h"
#include "support/stats.h"
#include "tech/carbon_intensity.h"
#include "tech/tech_db.h"
#include "wafer/wafer_model.h"
#include "yield/yield_model.h"

// The library leans on C++20 (std::numbers, std::span); a build
// configured for an older standard must fail loudly here rather
// than via obscure errors deep in the source tree. Checked via the
// feature macro, not __cplusplus, which MSVC misreports without
// /Zc:__cplusplus.
#include <version>
#if !defined(__cpp_lib_math_constants) ||                         \
    __cpp_lib_math_constants < 201907L
#error "ecochip requires C++20 (std::numbers); configure CMake " \
       "with a C++20-capable toolchain"
#endif

namespace ecochip {
namespace {

TEST(BuildSanity, EverySubsystemLinks)
{
    // tech
    TechDb tech;
    EXPECT_GT(carbonIntensityGPerKwh(EnergySource::Coal), 0.0);

    // wafer
    WaferModel wafer;
    EXPECT_GT(wafer.diesPerWafer(100.0), 0);

    // yield
    EXPECT_GT(negativeBinomialYield(1.0, 0.1, 2.0), 0.0);

    // chiplet
    const Chiplet chiplet = Chiplet::fromArea(
        "sanity", DesignType::Logic, 7.0, 50.0, tech);
    EXPECT_GT(chiplet.areaMm2(tech), 0.0);

    // manufacture
    ManufacturingModel mfg(tech);
    EXPECT_GT(mfg.chipletMfg(chiplet).dieCo2Kg, 0.0);

    // design
    DesignModel design(tech);
    EXPECT_GT(design.chipletDesign(chiplet).co2Kg, 0.0);

    // act
    ActModel act(tech);
    EXPECT_GT(act.dieCo2Kg(chiplet), 0.0);

    // noc
    NetworkModel network(tech);
    EXPECT_GT(network.meshEstimate(4, 7.0, 1.0e9).avgLatencyNs,
              0.0);

    // floorplan
    Floorplanner planner;
    const FloorplanResult plan =
        planner.plan({{"a", 50.0, 1.0}, {"b", 50.0, 1.0}});
    EXPECT_EQ(plan.placements.size(), 2u);

    // support
    const SampleStats stats({1.0, 2.0, 3.0});
    EXPECT_DOUBLE_EQ(stats.mean(), 2.0);
    const PiecewiseLinear interp({{0.0, 0.0}, {1.0, 2.0}});
    EXPECT_DOUBLE_EQ(interp.eval(0.5), 1.0);

    // json + io (config load path)
    const json::Value doc = json::parse(R"({
        "name": "sanity-soc",
        "chiplets": [
            {"name": "d", "type": "logic",
             "node_nm": 7, "area_mm2": 50.0}
        ]
    })");
    const SystemSpec from_json = systemFromJson(doc, tech);
    EXPECT_EQ(from_json.chiplets.size(), 1u);

    // core (full pipeline)
    EcoChipConfig config;
    config.operating = testcases::ga102Operating();
    EcoChip estimator(config);
    const SystemSpec system =
        testcases::ga102ThreeChiplet(estimator.tech(), 7.0, 10.0,
                                     14.0);
    const CarbonReport report = estimator.estimate(system);
    EXPECT_GT(report.totalCo2Kg(), 0.0);

    // package
    PackageModel package(tech, mfg);
    EXPECT_GE(package.evaluate(system).totalCo2Kg(), 0.0);

    // cost
    CostModel cost(tech);
    EXPECT_GT(cost.systemCost(system, PackageParams{}).dieUsd,
              0.0);

    // operation
    OperationalModel operation(tech, config.operating);
    EXPECT_GT(operation.evaluate(system).co2Kg, 0.0);

    // io (report path)
    AnalysisResult estimate;
    estimate.report = report;
    EXPECT_FALSE(resultMarkdown(estimate).empty());

    // analysis
    const auto params = SensitivityAnalyzer::standardParameters();
    EXPECT_FALSE(params.empty());
    MonteCarloAnalyzer analyzer(config);
    const UncertaintyReport uncertainty =
        analyzer.run(system, 8, 1);
    EXPECT_GT(uncertainty.total.mean(), 0.0);
}

} // namespace
} // namespace ecochip
