/**
 * @file
 * Unit and property tests for the wafer geometry model (Eqs. 7-8).
 */

#include <cmath>
#include <numbers>
#include <string>

#include <gtest/gtest.h>

#include "support/error.h"
#include "wafer/wafer_model.h"

namespace ecochip {
namespace {

TEST(WaferModel, AreaIsCircle)
{
    WaferModel wafer(300.0);
    EXPECT_NEAR(wafer.areaMm2(),
                std::numbers::pi * 150.0 * 150.0, 1e-9);
    EXPECT_DOUBLE_EQ(wafer.diameterMm(), 300.0);
}

TEST(WaferModel, DefaultIsPaper450mm)
{
    WaferModel wafer;
    EXPECT_DOUBLE_EQ(wafer.diameterMm(), 450.0);
}

TEST(WaferModel, DpwMatchesEq7ByHand)
{
    // 100 mm^2 die, side 10 mm, on a 450 mm wafer:
    // usable radius = 225 - 10/sqrt(2); DPW = floor(pi r^2 / 100).
    WaferModel wafer(450.0);
    const double r = 225.0 - 10.0 / std::numbers::sqrt2;
    const long expected = static_cast<long>(
        std::floor(std::numbers::pi * r * r / 100.0));
    EXPECT_EQ(wafer.diesPerWafer(100.0), expected);
}

TEST(WaferModel, WastedAreaMatchesEq8ByHand)
{
    WaferModel wafer(450.0);
    const long dpw = wafer.diesPerWafer(100.0);
    const double expected =
        (wafer.areaMm2() - dpw * 100.0) / dpw;
    EXPECT_NEAR(wafer.wastedAreaPerDieMm2(100.0), expected, 1e-9);
}

TEST(WaferModel, OversizedDieYieldsZeroDpw)
{
    WaferModel wafer(100.0);
    // Side 100 mm die cannot fit a 100 mm wafer.
    EXPECT_EQ(wafer.diesPerWafer(10000.0), 0);
    EXPECT_THROW(wafer.wastedAreaPerDieMm2(10000.0), ConfigError);
    EXPECT_DOUBLE_EQ(wafer.utilization(10000.0), 0.0);
}

TEST(WaferModel, InputValidation)
{
    EXPECT_THROW(WaferModel(0.0), ConfigError);
    EXPECT_THROW(WaferModel(-300.0), ConfigError);
    WaferModel wafer;
    EXPECT_THROW(wafer.diesPerWafer(0.0), ConfigError);
    EXPECT_THROW(wafer.diesPerWafer(-5.0), ConfigError);
}

/** The message of the ConfigError @p fn throws ("" if none). */
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

TEST(WaferModel, VanishingDieCountOverflowIsATypedError)
{
    WaferModel wafer(300.0);
    // ~7e14 dies still count; 1e-20 mm^2 would need ~7e24.
    EXPECT_GT(wafer.diesPerWafer(1e-10), 0);
    EXPECT_EQ(configErrorOf([&] { wafer.diesPerWafer(1e-20); }),
              "config error: die of 1e-20 mm^2 is too small: its "
              "dies-per-wafer count does not fit in a long");
    EXPECT_EQ(configErrorOf([&] { wafer.diesPerWafer(1e-300); }),
              "config error: die of 1e-300 mm^2 is too small: its "
              "dies-per-wafer count does not fit in a long");
    // The quotient overflows to inf for a denormal area.
    EXPECT_THROW(wafer.diesPerWafer(1e-320), ConfigError);
    EXPECT_THROW(wafer.wastedAreaPerDieMm2(1e-20), ConfigError);
    EXPECT_THROW(wafer.utilization(1e-20), ConfigError);
}

/** Die-size sweep invariants. */
class WaferSweepTest : public ::testing::TestWithParam<double>
{
  protected:
    WaferModel wafer_;
};

TEST_P(WaferSweepTest, ExtractedAreaNeverExceedsWafer)
{
    const double die = GetParam();
    const long dpw = wafer_.diesPerWafer(die);
    EXPECT_LE(dpw * die, wafer_.areaMm2());
}

TEST_P(WaferSweepTest, UtilizationInUnitInterval)
{
    const double u = wafer_.utilization(GetParam());
    EXPECT_GT(u, 0.0);
    EXPECT_LT(u, 1.0);
}

TEST_P(WaferSweepTest, WastedPlusDieAreaIsConsistent)
{
    const double die = GetParam();
    const long dpw = wafer_.diesPerWafer(die);
    const double wasted = wafer_.wastedAreaPerDieMm2(die);
    EXPECT_NEAR(dpw * (die + wasted), wafer_.areaMm2(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(DieSizes, WaferSweepTest,
                         ::testing::Values(1.0, 10.0, 25.0, 64.0,
                                           100.0, 250.0, 628.0,
                                           1526.0));

TEST(WaferModel, SmallerDiesWasteLessPerDie)
{
    // The amortized wastage advantage of chiplets (Fig. 3): on
    // average across sizes, small dies waste far less silicon per
    // die than reticle-sized ones.
    WaferModel wafer;
    EXPECT_LT(wafer.wastedAreaPerDieMm2(25.0),
              wafer.wastedAreaPerDieMm2(628.0));
    EXPECT_LT(wafer.wastedAreaPerDieMm2(100.0),
              wafer.wastedAreaPerDieMm2(1526.0));
}

TEST(WaferModel, LargerWafersImproveUtilization)
{
    // Table I supports 25 - 450 mm wafers; bigger wafers waste
    // proportionally less periphery for the same die.
    const double die = 100.0;
    WaferModel small(200.0);
    WaferModel large(450.0);
    EXPECT_GT(large.utilization(die), small.utilization(die));
}

TEST(WaferModel, DpwScalesRoughlyInverselyWithDieArea)
{
    WaferModel wafer;
    const long dpw_100 = wafer.diesPerWafer(100.0);
    const long dpw_50 = wafer.diesPerWafer(50.0);
    EXPECT_GT(dpw_50, dpw_100);
    EXPECT_NEAR(static_cast<double>(dpw_50) / dpw_100, 2.0, 0.2);
}

} // namespace
} // namespace ecochip
