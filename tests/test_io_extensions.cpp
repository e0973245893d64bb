/**
 * @file
 * Tests for node-list loading, the energy-mix helper, and the
 * shipped data/testcases design directories.
 */

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "core/testcases.h"
#include "io/config_loader.h"
#include "support/error.h"
#include "tech/carbon_intensity.h"

#ifndef ECOCHIP_DATA_DIR
#define ECOCHIP_DATA_DIR ""
#endif

namespace ecochip {
namespace {

class NodeListTest : public ::testing::Test
{
  protected:
    std::string
    writeList(const std::string &content)
    {
        const std::string path =
            ::testing::TempDir() + "/ecochip_nodes.txt";
        std::ofstream out(path);
        out << content;
        out.close();
        return path;
    }
};

TEST_F(NodeListTest, ParsesPlainAndSuffixedNodes)
{
    const auto nodes = loadNodeList(writeList(
        "7\n10nm\n\n# legacy candidates\n14 # analog\n"));
    ASSERT_EQ(nodes.size(), 3u);
    EXPECT_DOUBLE_EQ(nodes[0], 7.0);
    EXPECT_DOUBLE_EQ(nodes[1], 10.0);
    EXPECT_DOUBLE_EQ(nodes[2], 14.0);
}

TEST_F(NodeListTest, RejectsGarbageAndEmpty)
{
    EXPECT_THROW(loadNodeList(writeList("seven\n")), ConfigError);
    EXPECT_THROW(loadNodeList(writeList("-7\n")), ConfigError);
    EXPECT_THROW(loadNodeList(writeList("# only comments\n")),
                 ConfigError);
    EXPECT_THROW(loadNodeList("/no/such/file.txt"), ConfigError);
}

TEST(EnergyMix, WeightedAverage)
{
    // 50/50 coal+wind = (700 + 11) / 2.
    EXPECT_NEAR(mixedIntensityGPerKwh(
                    {{EnergySource::Coal, 0.5},
                     {EnergySource::Wind, 0.5}}),
                355.5, 1e-9);
    // Unnormalized weights behave the same.
    EXPECT_NEAR(mixedIntensityGPerKwh(
                    {{EnergySource::Coal, 2.0},
                     {EnergySource::Wind, 2.0}}),
                355.5, 1e-9);
    // Single source reduces to its own intensity.
    EXPECT_DOUBLE_EQ(
        mixedIntensityGPerKwh({{EnergySource::Solar, 1.0}}),
        carbonIntensityGPerKwh(EnergySource::Solar));
}

TEST(EnergyMix, Validation)
{
    EXPECT_THROW(mixedIntensityGPerKwh({}), ConfigError);
    EXPECT_THROW(mixedIntensityGPerKwh(
                     {{EnergySource::Coal, -1.0}}),
                 ConfigError);
    EXPECT_THROW(mixedIntensityGPerKwh(
                     {{EnergySource::Coal, 0.0}}),
                 ConfigError);
}

class ShippedDataTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        data_dir_ = ECOCHIP_DATA_DIR;
        if (data_dir_.empty() ||
            !std::filesystem::is_directory(data_dir_))
            GTEST_SKIP() << "data dir unavailable";
    }

    std::string data_dir_;
};

TEST_F(ShippedDataTest, AllTestcaseDirectoriesLoadAndEstimate)
{
    TechDb tech;
    for (const char *name : {"GA102", "A15", "EMR", "ARVR"}) {
        const std::string dir =
            data_dir_ + "/testcases/" + name;
        ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
        const DesignBundle bundle =
            loadDesignDirectory(dir, tech);
        EXPECT_FALSE(bundle.system.chiplets.empty()) << name;

        EcoChip estimator(bundle.config, tech);
        const CarbonReport report =
            estimator.estimate(bundle.system);
        EXPECT_GT(report.embodiedCo2Kg(), 0.0) << name;
        EXPECT_GT(report.totalCo2Kg(),
                  report.embodiedCo2Kg())
            << name;
    }
}

TEST_F(ShippedDataTest, Ga102DirMatchesBuiltinTestcase)
{
    TechDb tech;
    const DesignBundle bundle = loadDesignDirectory(
        data_dir_ + "/testcases/GA102", tech);
    // The shipped config mirrors the built-in (7,10,14)
    // three-chiplet testcase within area-inversion rounding.
    const SystemSpec builtin =
        testcases::ga102ThreeChiplet(tech, 7.0, 10.0, 14.0);
    ASSERT_EQ(bundle.system.chiplets.size(),
              builtin.chiplets.size());
    EXPECT_NEAR(bundle.system.chiplet("digital").areaMm2(tech),
                builtin.chiplet("digital").areaMm2(tech), 1.0);
}

} // namespace
} // namespace ecochip
