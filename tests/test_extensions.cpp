/**
 * @file
 * Tests for the mask-set NRE carbon extension (paper Sec. V-C
 * future work).
 */

#include <gtest/gtest.h>

#include "core/ecochip.h"
#include "core/testcases.h"
#include "manufacture/nre_model.h"
#include "support/error.h"

namespace ecochip {
namespace {

class NreTest : public ::testing::Test
{
  protected:
    TechDb tech_;
    NreCarbonModel nre_{tech_};
};

TEST_F(NreTest, MaskSetCarbonMatchesEnergyTable)
{
    // 20,000 kWh at 700 g/kWh = 14,000 kg at 7 nm.
    EXPECT_NEAR(nre_.maskSetCo2Kg(7.0),
                tech_.maskSetEnergyKwh(7.0) * 0.7, 1e-9);
}

TEST_F(NreTest, AdvancedNodesHaveCostlierMasks)
{
    EXPECT_GT(nre_.maskSetCo2Kg(3.0), nre_.maskSetCo2Kg(7.0));
    EXPECT_GT(nre_.maskSetCo2Kg(7.0), nre_.maskSetCo2Kg(28.0));
    EXPECT_GT(nre_.maskSetCo2Kg(28.0), nre_.maskSetCo2Kg(65.0));
}

TEST_F(NreTest, AmortizesOverChipletVolume)
{
    Chiplet c = Chiplet::fromArea("c", DesignType::Logic, 7.0,
                                  100.0, tech_);
    EXPECT_NEAR(nre_.amortizedCo2Kg(c),
                nre_.maskSetCo2Kg(7.0) / 100000.0, 1e-12);

    NreCarbonModel small_run(tech_, 700.0, 1000.0);
    EXPECT_NEAR(small_run.amortizedCo2Kg(c),
                nre_.maskSetCo2Kg(7.0) / 1000.0, 1e-12);
}

TEST_F(NreTest, ReusedChipletsShareMasks)
{
    Chiplet c = Chiplet::fromArea("c", DesignType::Logic, 7.0,
                                  100.0, tech_);
    c.reused = true;
    EXPECT_DOUBLE_EQ(nre_.amortizedCo2Kg(c), 0.0);
}

TEST_F(NreTest, MonolithPaysOneMaskSet)
{
    SystemSpec mono;
    mono.singleDie = true;
    mono.chiplets.push_back(Chiplet::fromArea(
        "logic", DesignType::Logic, 7.0, 100.0, tech_));
    mono.chiplets.push_back(Chiplet::fromArea(
        "mem", DesignType::Memory, 7.0, 50.0, tech_));
    EXPECT_NEAR(nre_.systemNreCo2Kg(mono),
                nre_.maskSetCo2Kg(7.0) / 100000.0, 1e-12);
}

TEST_F(NreTest, Validation)
{
    EXPECT_THROW(NreCarbonModel(tech_, 0.0), ConfigError);
    EXPECT_THROW(NreCarbonModel(tech_, 700.0, 0.5), ConfigError);
    SystemSpec empty;
    EXPECT_THROW(nre_.systemNreCo2Kg(empty), ConfigError);
}

TEST(NreIntegration, FlagAddsNreToEmbodied)
{
    EcoChipConfig base;
    base.operating = testcases::ga102Operating();
    EcoChipConfig with_nre = base;
    with_nre.includeMaskNre = true;

    EcoChip plain(base);
    EcoChip nre(with_nre);
    const SystemSpec system = testcases::ga102ThreeChiplet(
        plain.tech(), 7.0, 14.0, 10.0);

    const CarbonReport r_plain = plain.estimate(system);
    const CarbonReport r_nre = nre.estimate(system);
    EXPECT_DOUBLE_EQ(r_plain.nreCo2Kg, 0.0);
    EXPECT_GT(r_nre.nreCo2Kg, 0.0);
    EXPECT_NEAR(r_nre.embodiedCo2Kg(),
                r_plain.embodiedCo2Kg() + r_nre.nreCo2Kg, 1e-9);
}

TEST(NreIntegration, IdenticalSlicesShareOneMaskSet)
{
    // Nc=6 has four identical digital slices: only the first
    // carries mask carbon, so the per-system digital mask NRE
    // equals the monolith's single 7 nm set.
    TechDb tech;
    NreCarbonModel nre(tech);
    const SystemSpec split = testcases::ga102Split(tech, 6);
    int fresh = 0;
    for (const auto &c : split.chiplets)
        if (!c.reused && c.type == DesignType::Logic)
            ++fresh;
    EXPECT_EQ(fresh, 1);
}

TEST(NreIntegration, VolumeManufacturedChipletsAmortizeBetter)
{
    // The paper's Sec. V-C prediction: "when chiplets are
    // manufactured in large volumes, the CFP associated with NRE
    // costs ... also gets amortized across NMi" -- chiplets built
    // at 10x the system volume beat the monolith's mask set even
    // though they need more mask sets in total.
    EcoChipConfig mono_config;
    mono_config.includeMaskNre = true;
    mono_config.operating = testcases::ga102Operating();
    EcoChip mono_est(mono_config);
    const CarbonReport mono = mono_est.estimate(
        testcases::ga102Monolithic(mono_est.tech()));

    EcoChipConfig reuse_config = mono_config;
    reuse_config.design.chipletVolume = 1.0e6; // NMi = 10 NS
    EcoChip reuse_est(reuse_config);
    const CarbonReport split = reuse_est.estimate(
        testcases::ga102Split(reuse_est.tech(), 6));

    EXPECT_LT(split.nreCo2Kg, mono.nreCo2Kg);
}

} // namespace
} // namespace ecochip
