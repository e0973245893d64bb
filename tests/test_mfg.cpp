/**
 * @file
 * Unit and property tests for the manufacturing-CFP model
 * (Eqs. 5-6).
 */

#include <string>

#include <gtest/gtest.h>

#include "manufacture/mfg_model.h"
#include "support/error.h"
#include "support/units.h"
#include "yield/yield_model.h"

namespace ecochip {
namespace {

class MfgTest : public ::testing::Test
{
  protected:
    TechDb tech_;
    ManufacturingModel mfg_{tech_};
};

TEST_F(MfgTest, GrossCfpaMatchesEq6Numerator)
{
    // Numerator of Eq. 6 at 7 nm with coal (700 g/kWh):
    // eta_eq * 0.7 kg/kWh * EPA + Cgas + Cmat.
    const double expected =
        tech_.equipmentDerate(7.0) * 0.7 *
            tech_.epaKwhPerCm2(7.0) +
        tech_.cgasKgPerCm2(7.0) + tech_.cmaterialKgPerCm2(7.0);
    EXPECT_NEAR(mfg_.grossCfpaKgPerCm2(7.0), expected, 1e-12);
}

TEST_F(MfgTest, DieMfgMatchesEq5ByHand)
{
    const double area = 100.0, node = 7.0;
    const MfgBreakdown b = mfg_.dieMfg(area, node);

    YieldModel ym(tech_);
    const double yield = ym.dieYield(area, node);
    EXPECT_DOUBLE_EQ(b.yield, yield);

    const double cfpa = mfg_.grossCfpaKgPerCm2(node) / yield;
    EXPECT_NEAR(b.cfpaKgPerCm2, cfpa, 1e-12);
    EXPECT_NEAR(b.dieCo2Kg, cfpa * 1.0, 1e-12); // 100 mm^2 = 1 cm^2

    WaferModel wafer;
    const double wasted = wafer.wastedAreaPerDieMm2(area);
    EXPECT_NEAR(b.wastedCo2Kg,
                tech_.cfpaSiKgPerCm2(node) * wasted *
                    units::kCm2PerMm2,
                1e-12);
    EXPECT_NEAR(b.totalCo2Kg(), b.dieCo2Kg + b.wastedCo2Kg,
                1e-12);
}

TEST_F(MfgTest, DiesOutsideTheWaferRangeNameTheirArea)
{
    const auto message_of = [&](double area) {
        try {
            (void)mfg_.dieMfg(area, 7.0);
        } catch (const ConfigError &e) {
            return std::string(e.what());
        }
        return std::string();
    };
    EXPECT_EQ(message_of(1e300),
              "config error: die of 1e+300 mm^2 does not fit the "
              "wafer");
    EXPECT_EQ(message_of(1e-20),
              "config error: die of 1e-20 mm^2 is too small: its "
              "dies-per-wafer count does not fit in a long");
    EXPECT_EQ(message_of(1e-300),
              "config error: die of 1e-300 mm^2 is too small: its "
              "dies-per-wafer count does not fit in a long");
}

TEST_F(MfgTest, WastageToggleRemovesPeripheryTerm)
{
    ManufacturingModel no_waste(tech_);
    no_waste.setIncludeWastage(false);
    EXPECT_FALSE(no_waste.includeWastage());

    const MfgBreakdown with = mfg_.dieMfg(200.0, 7.0);
    const MfgBreakdown without = no_waste.dieMfg(200.0, 7.0);
    EXPECT_GT(with.wastedCo2Kg, 0.0);
    EXPECT_DOUBLE_EQ(without.wastedCo2Kg, 0.0);
    EXPECT_DOUBLE_EQ(with.dieCo2Kg, without.dieCo2Kg);
}

TEST_F(MfgTest, ChipletMfgUsesAreaModel)
{
    const Chiplet chiplet = Chiplet::fromArea(
        "c", DesignType::Logic, 7.0, 150.0, tech_);
    const MfgBreakdown via_chiplet = mfg_.chipletMfg(chiplet);
    const MfgBreakdown via_die = mfg_.dieMfg(150.0, 7.0);
    EXPECT_NEAR(via_chiplet.totalCo2Kg(), via_die.totalCo2Kg(),
                1e-9);
}

TEST_F(MfgTest, SystemSumsChiplets)
{
    SystemSpec system;
    system.chiplets.push_back(Chiplet::fromArea(
        "a", DesignType::Logic, 7.0, 100.0, tech_));
    system.chiplets.push_back(Chiplet::fromArea(
        "b", DesignType::Memory, 10.0, 50.0, tech_));

    const double expected =
        mfg_.chipletMfg(system.chiplets[0]).totalCo2Kg() +
        mfg_.chipletMfg(system.chiplets[1]).totalCo2Kg();
    EXPECT_NEAR(mfg_.systemMfgCo2Kg(system), expected, 1e-12);
}

TEST_F(MfgTest, SingleDieCombinesBlocksIntoOneDie)
{
    SystemSpec mono;
    mono.singleDie = true;
    mono.chiplets.push_back(Chiplet::fromArea(
        "logic", DesignType::Logic, 7.0, 100.0, tech_));
    mono.chiplets.push_back(Chiplet::fromArea(
        "mem", DesignType::Memory, 7.0, 50.0, tech_));

    EXPECT_NEAR(mfg_.systemMfgCo2Kg(mono),
                mfg_.dieMfg(150.0, 7.0).totalCo2Kg(), 1e-9);

    // One big die yields worse than two smaller dies -> costs
    // more, the crux of Fig. 2.
    SystemSpec split = mono;
    split.singleDie = false;
    EXPECT_GT(mfg_.systemMfgCo2Kg(mono),
              mfg_.systemMfgCo2Kg(split));
}

TEST_F(MfgTest, SuperlinearGrowthWithArea)
{
    // Doubling the area more than doubles the carbon (yield
    // decay), Fig. 2(a).
    const double small = mfg_.dieMfg(100.0, 10.0).dieCo2Kg;
    const double large = mfg_.dieMfg(200.0, 10.0).dieCo2Kg;
    EXPECT_GT(large, 2.0 * small);
}

TEST_F(MfgTest, AdvancedNodesCostMorePerArea)
{
    EXPECT_GT(mfg_.grossCfpaKgPerCm2(7.0),
              mfg_.grossCfpaKgPerCm2(28.0));
    EXPECT_GT(mfg_.grossCfpaKgPerCm2(28.0),
              mfg_.grossCfpaKgPerCm2(65.0));
}

TEST_F(MfgTest, InputValidation)
{
    EXPECT_THROW(mfg_.dieMfg(0.0, 7.0), ConfigError);
    EXPECT_THROW(mfg_.dieMfg(-10.0, 7.0), ConfigError);
    EXPECT_THROW(ManufacturingModel(tech_, WaferModel(), 0.0),
                 ConfigError);
    SystemSpec empty;
    EXPECT_THROW(mfg_.systemMfgCo2Kg(empty), ConfigError);
}

TEST_F(MfgTest, CleanerFabEnergyLowersCarbon)
{
    ManufacturingModel coal(tech_, WaferModel(), 700.0);
    ManufacturingModel wind(tech_, WaferModel(), 11.0);
    EXPECT_GT(coal.dieMfg(100.0, 7.0).totalCo2Kg(),
              wind.dieMfg(100.0, 7.0).totalCo2Kg());
    // Gas and material terms are energy-source independent: the
    // wind fab still emits a material+gas floor.
    EXPECT_GT(wind.dieMfg(100.0, 7.0).totalCo2Kg(), 0.5);
}

/** Manufacturing carbon is monotone in area at every node. */
class MfgAreaMonotonicityTest
    : public ::testing::TestWithParam<double>
{
  protected:
    TechDb tech_;
    ManufacturingModel mfg_{tech_};
};

TEST_P(MfgAreaMonotonicityTest, DieCarbonGrowsWithArea)
{
    const double node = GetParam();
    double prev = 0.0;
    for (double area : {10.0, 25.0, 50.0, 100.0, 200.0, 400.0}) {
        const double co2 = mfg_.dieMfg(area, node).totalCo2Kg();
        EXPECT_GT(co2, prev);
        prev = co2;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Nodes, MfgAreaMonotonicityTest,
    ::testing::ValuesIn(TechDb::standardNodesNm()));

} // namespace
} // namespace ecochip
