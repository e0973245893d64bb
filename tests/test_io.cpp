/**
 * @file
 * Unit tests for JSON configuration loading and report emission.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "engine/analysis_engine.h"
#include "io/batch_report_io.h"
#include "io/config_loader.h"
#include "io/event_journal_io.h"
#include "json/ondemand.h"
#include "json/stream_writer.h"
#include "support/error.h"
#include "support/reference_json.h"

namespace ecochip {
namespace {

TEST(ConfigLoader, SystemFromJsonWithAreas)
{
    TechDb tech;
    const json::Value doc = json::parse(R"({
        "name": "soc",
        "monolithic": false,
        "chiplets": [
            {"name": "digital", "type": "logic", "node_nm": 7,
             "area_mm2": 500.0},
            {"name": "memory", "type": "memory", "node_nm": 10,
             "area_mm2": 68.0, "reused": true}
        ]
    })");
    const SystemSpec system = systemFromJson(doc, tech);
    EXPECT_EQ(system.name, "soc");
    EXPECT_FALSE(system.singleDie);
    ASSERT_EQ(system.chiplets.size(), 2u);
    EXPECT_NEAR(system.chiplets[0].areaMm2(tech), 500.0, 1e-9);
    EXPECT_EQ(system.chiplets[1].type, DesignType::Memory);
    EXPECT_TRUE(system.chiplets[1].reused);
}

TEST(ConfigLoader, SystemFromJsonWithTransistors)
{
    TechDb tech;
    const json::Value doc = json::parse(R"({
        "name": "soc",
        "chiplets": [
            {"name": "c", "type": "logic", "node_nm": 7,
             "transistors_mtr": 9100.0}
        ]
    })");
    const SystemSpec system = systemFromJson(doc, tech);
    EXPECT_NEAR(system.chiplets[0].areaMm2(tech), 100.0, 1e-9);
}

TEST(ConfigLoader, SystemJsonValidation)
{
    TechDb tech;
    // Both area and transistors given.
    EXPECT_THROW(
        systemFromJson(json::parse(R"({"chiplets": [
            {"name": "c", "node_nm": 7, "area_mm2": 10,
             "transistors_mtr": 100}]})"),
                       tech),
        ConfigError);
    // Neither given.
    EXPECT_THROW(
        systemFromJson(json::parse(R"({"chiplets": [
            {"name": "c", "node_nm": 7}]})"),
                       tech),
        ConfigError);
    // Empty chiplet list.
    EXPECT_THROW(
        systemFromJson(json::parse(R"({"chiplets": []})"), tech),
        ConfigError);
    // Bad node.
    EXPECT_THROW(
        systemFromJson(json::parse(R"({"chiplets": [
            {"name": "c", "node_nm": -7, "area_mm2": 10}]})"),
                       tech),
        ConfigError);
}

// The *RoundTrip tests below pin the loaders to the full schema
// each config file carries: every member, spelled as a document
// on disk spells it, parsed back field by field.

TEST(ConfigLoader, SystemRoundTrip)
{
    TechDb tech;
    const SystemSpec loaded = systemFromJson(json::parse(R"({
        "name": "rt",
        "monolithic": true,
        "chiplets": [
            {"name": "logic", "type": "logic", "node_nm": 7,
             "transistors_mtr": 10920, "reused": false},
            {"name": "mem", "type": "memory", "node_nm": 7,
             "transistors_mtr": 5460, "reused": true,
             "stack_group": "hbm0"}
        ]
    })"),
                                             tech);
    EXPECT_EQ(loaded.name, "rt");
    EXPECT_TRUE(loaded.singleDie);
    ASSERT_EQ(loaded.chiplets.size(), 2u);
    EXPECT_EQ(loaded.chiplets[0].name, "logic");
    EXPECT_EQ(loaded.chiplets[0].type, DesignType::Logic);
    EXPECT_DOUBLE_EQ(loaded.chiplets[0].nodeNm, 7.0);
    EXPECT_DOUBLE_EQ(loaded.chiplets[0].transistorsMtr, 10920.0);
    EXPECT_FALSE(loaded.chiplets[0].reused);
    EXPECT_TRUE(loaded.chiplets[0].stackGroup.empty());
    EXPECT_EQ(loaded.chiplets[1].name, "mem");
    EXPECT_EQ(loaded.chiplets[1].type, DesignType::Memory);
    EXPECT_DOUBLE_EQ(loaded.chiplets[1].transistorsMtr, 5460.0);
    EXPECT_TRUE(loaded.chiplets[1].reused);
    EXPECT_EQ(loaded.chiplets[1].stackGroup, "hbm0");
}

TEST(ConfigLoader, PackageParamsRoundTrip)
{
    const PackageParams loaded = packageParamsFromJson(json::parse(R"({
        "arch": "3d",
        "intensity_g_per_kwh": 450,
        "spacing_mm": 0.75,
        "rdl_layers": 8,
        "rdl_node_nm": 28,
        "substrate_base_layers": 5,
        "bridge_layers": 3,
        "bridge_node_nm": 45,
        "bridge_range_mm": 3.0,
        "bridge_area_mm2": 6.5,
        "bridge_embed_yield": 0.95,
        "interposer_node_nm": 40,
        "interposer_beol_layers": 7,
        "repeater_area_fraction": 0.05,
        "bond_type": "hybrid",
        "tsv_pitch_um": 30,
        "microbump_pitch_um": 36,
        "hybrid_bond_pitch_um": 2.0,
        "tsv_fail_probability": 2e-7,
        "microbump_fail_probability": 3e-7,
        "hybrid_bond_fail_probability": 4e-9,
        "tier_assembly_yield": 0.97,
        "bond_process_node_nm": 22,
        "router": {"ports": 6, "flit_width_bits": 256,
                   "buffers_per_vc": 8, "virtual_channels": 2},
        "noc_flit_rate_hz": 2e9
    })"));
    EXPECT_EQ(loaded.arch, PackagingArch::Stack3d);
    EXPECT_DOUBLE_EQ(loaded.intensityGPerKwh, 450.0);
    EXPECT_DOUBLE_EQ(loaded.spacingMm, 0.75);
    EXPECT_EQ(loaded.rdlLayers, 8);
    EXPECT_DOUBLE_EQ(loaded.rdlNodeNm, 28.0);
    EXPECT_EQ(loaded.substrateBaseLayers, 5);
    EXPECT_EQ(loaded.bridgeLayers, 3);
    EXPECT_DOUBLE_EQ(loaded.bridgeNodeNm, 45.0);
    EXPECT_DOUBLE_EQ(loaded.bridgeRangeMm, 3.0);
    EXPECT_DOUBLE_EQ(loaded.bridgeAreaMm2, 6.5);
    EXPECT_DOUBLE_EQ(loaded.bridgeEmbedYield, 0.95);
    EXPECT_DOUBLE_EQ(loaded.interposerNodeNm, 40.0);
    EXPECT_EQ(loaded.interposerBeolLayers, 7);
    EXPECT_DOUBLE_EQ(loaded.repeaterAreaFraction, 0.05);
    EXPECT_EQ(loaded.bondType, BondType::HybridBond);
    EXPECT_DOUBLE_EQ(loaded.tsvPitchUm, 30.0);
    EXPECT_DOUBLE_EQ(loaded.microbumpPitchUm, 36.0);
    EXPECT_DOUBLE_EQ(loaded.hybridBondPitchUm, 2.0);
    EXPECT_DOUBLE_EQ(loaded.tsvFailProbability, 2e-7);
    EXPECT_DOUBLE_EQ(loaded.microbumpFailProbability, 3e-7);
    EXPECT_DOUBLE_EQ(loaded.hybridBondFailProbability, 4e-9);
    EXPECT_DOUBLE_EQ(loaded.tierAssemblyYield, 0.97);
    EXPECT_DOUBLE_EQ(loaded.bondProcessNodeNm, 22.0);
    EXPECT_EQ(loaded.router.ports, 6);
    EXPECT_EQ(loaded.router.flitWidthBits, 256);
    EXPECT_EQ(loaded.router.buffersPerVc, 8);
    EXPECT_EQ(loaded.router.virtualChannels, 2);
    EXPECT_DOUBLE_EQ(loaded.nocFlitRateHz, 2e9);
}

TEST(ConfigLoader, PackageParamsDefaultsWhenKeysMissing)
{
    const PackageParams loaded =
        packageParamsFromJson(json::parse("{}"));
    const PackageParams defaults;
    EXPECT_EQ(loaded.arch, defaults.arch);
    EXPECT_EQ(loaded.rdlLayers, defaults.rdlLayers);
    EXPECT_DOUBLE_EQ(loaded.spacingMm, defaults.spacingMm);
}

TEST(ConfigLoader, DesignParamsRoundTrip)
{
    const DesignParams loaded = designParamsFromJson(json::parse(R"({
        "pdes_w": 15,
        "design_iterations": 42,
        "intensity_g_per_kwh": 300,
        "spr_hours_per_mgate": 20,
        "analyze_fraction": 0.5,
        "verif_multiple": 3,
        "gates_per_transistor": 0.25,
        "chiplet_volume": 5e5,
        "system_volume": 2e5
    })"));
    EXPECT_DOUBLE_EQ(loaded.pdesW, 15.0);
    EXPECT_EQ(loaded.designIterations, 42);
    EXPECT_DOUBLE_EQ(loaded.intensityGPerKwh, 300.0);
    EXPECT_DOUBLE_EQ(loaded.sprHoursPerMgate, 20.0);
    EXPECT_DOUBLE_EQ(loaded.analyzeFraction, 0.5);
    EXPECT_DOUBLE_EQ(loaded.verifMultiple, 3.0);
    EXPECT_DOUBLE_EQ(loaded.gatesPerTransistor, 0.25);
    EXPECT_DOUBLE_EQ(loaded.chipletVolume, 5e5);
    EXPECT_DOUBLE_EQ(loaded.systemVolume, 2e5);
}

TEST(ConfigLoader, OperatingSpecRoundTripWithOptionals)
{
    const OperatingSpec loaded = operatingSpecFromJson(json::parse(R"({
        "lifetime_years": 4,
        "duty_cycle": 0.2,
        "avg_frequency_hz": 2e9,
        "switching_activity": 0.15,
        "intensity_g_per_kwh": 500,
        "avg_power_w": 75,
        "annual_energy_kwh": 1.5
    })"));
    EXPECT_DOUBLE_EQ(loaded.lifetimeYears, 4.0);
    EXPECT_DOUBLE_EQ(loaded.dutyCycle, 0.2);
    EXPECT_DOUBLE_EQ(loaded.avgFrequencyHz, 2e9);
    EXPECT_DOUBLE_EQ(loaded.switchingActivity, 0.15);
    EXPECT_DOUBLE_EQ(loaded.useIntensityGPerKwh, 500.0);
    ASSERT_TRUE(loaded.avgPowerW.has_value());
    EXPECT_DOUBLE_EQ(*loaded.avgPowerW, 75.0);
    ASSERT_TRUE(loaded.annualEnergyKwh.has_value());
    EXPECT_DOUBLE_EQ(*loaded.annualEnergyKwh, 1.5);

    const OperatingSpec loaded2 = operatingSpecFromJson(
        json::parse(R"({"avg_power_w": 130})"));
    ASSERT_TRUE(loaded2.avgPowerW.has_value());
    EXPECT_DOUBLE_EQ(*loaded2.avgPowerW, 130.0);
    EXPECT_FALSE(loaded2.annualEnergyKwh.has_value());
}

class DesignDirTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per test: gtest_discover_tests runs each case as
        // its own process, so a shared directory name races under
        // `ctest -j`.
        const auto *info = ::testing::UnitTest::GetInstance()
                               ->current_test_info();
        dir_ = std::filesystem::path(::testing::TempDir()) /
               (std::string("ecochip_design_dir_") +
                info->name());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    void
    writeFile(const std::string &name, const std::string &text)
    {
        std::ofstream out(dir_ / name);
        out << text;
    }

    std::filesystem::path dir_;
};

TEST_F(DesignDirTest, LoadsAllConfigFiles)
{
    writeFile("architecture.json", R"({
        "name": "dircase",
        "packaging": "passive_interposer",
        "chiplets": [
            {"name": "a", "type": "logic", "node_nm": 7,
             "area_mm2": 100.0},
            {"name": "b", "type": "memory", "node_nm": 10,
             "area_mm2": 40.0}
        ]})");
    writeFile("packageC.json",
              R"({"interposer_node_nm": 40,
                  "interposer_beol_layers": 6})");
    writeFile("designC.json", R"({"design_iterations": 50})");
    writeFile("operationalC.json", R"({"lifetime_years": 5})");

    TechDb tech;
    const DesignBundle bundle =
        loadDesignDirectory(dir_.string(), tech);
    EXPECT_EQ(bundle.system.name, "dircase");
    EXPECT_EQ(bundle.config.package.arch,
              PackagingArch::PassiveInterposer);
    EXPECT_DOUBLE_EQ(bundle.config.package.interposerNodeNm,
                     40.0);
    EXPECT_EQ(bundle.config.package.interposerBeolLayers, 6);
    EXPECT_EQ(bundle.config.design.designIterations, 50);
    EXPECT_DOUBLE_EQ(bundle.config.operating.lifetimeYears, 5.0);
}

TEST_F(DesignDirTest, ArchitectureOnlyUsesDefaults)
{
    writeFile("architecture.json", R"({
        "name": "minimal",
        "chiplets": [
            {"name": "a", "type": "logic", "node_nm": 7,
             "area_mm2": 100.0}
        ]})");
    TechDb tech;
    const DesignBundle bundle =
        loadDesignDirectory(dir_.string(), tech);
    EXPECT_EQ(bundle.config.package.arch,
              PackageParams().arch);
}

TEST(ConfigLoader, UnknownKeysAreRejectedWithKeyName)
{
    TechDb tech;
    // Top-level architecture typo.
    try {
        systemFromJson(json::parse(R"({
            "nmae": "soc",
            "chiplets": [{"name": "c", "node_nm": 7,
                          "area_mm2": 10.0}]})"),
                       tech);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("\"nmae\""),
                  std::string::npos)
            << e.what();
    }

    // Chiplet-level typo.
    EXPECT_THROW(
        systemFromJson(json::parse(R"({"chiplets": [
            {"name": "c", "node_nm": 7, "area_mm2": 10,
             "resued": true}]})"),
                       tech),
        ConfigError);

    // Knob-file typos: every loader rejects, naming the key.
    EXPECT_THROW(
        packageParamsFromJson(json::parse(R"({"rdl_layer": 4})")),
        ConfigError);
    EXPECT_THROW(packageParamsFromJson(json::parse(
                     R"({"router": {"prots": 5}})")),
                 ConfigError);
    EXPECT_THROW(designParamsFromJson(
                     json::parse(R"({"design_iters": 50})")),
                 ConfigError);
    EXPECT_THROW(operatingSpecFromJson(
                     json::parse(R"({"lifetime_yrs": 3})")),
                 ConfigError);
}

TEST_F(DesignDirTest, TypoedKeyReportsFileAndKey)
{
    writeFile("architecture.json", R"({
        "name": "typocase",
        "chiplets": [
            {"name": "a", "type": "logic", "node_nm": 7,
             "area_mm2": 100.0}
        ]})");
    writeFile("operationalC.json", R"({"liftime_years": 5})");

    TechDb tech;
    try {
        loadDesignDirectory(dir_.string(), tech);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("operationalC.json"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("\"liftime_years\""),
                  std::string::npos)
            << what;
    }
}

TEST_F(DesignDirTest, MissingArchitectureThrows)
{
    TechDb tech;
    EXPECT_THROW(loadDesignDirectory(dir_.string(), tech),
                 ConfigError);
    EXPECT_THROW(loadDesignDirectory("/no/such/dir", tech),
                 ConfigError);
}

TEST(ReportJson, CarriesAllSections)
{
    EcoChip estimator;
    SystemSpec system;
    system.chiplets.push_back(Chiplet::fromArea(
        "a", DesignType::Logic, 7.0, 100.0, estimator.tech()));
    system.chiplets.push_back(Chiplet::fromArea(
        "b", DesignType::Memory, 10.0, 50.0, estimator.tech()));
    const CarbonReport report = estimator.estimate(system);
    json::StreamWriter writer;
    appendReport(writer, report);
    const json::Value doc = json::parse(writer.take());

    EXPECT_NEAR(doc.at("mfg_co2_kg").asNumber(), report.mfgCo2Kg,
                1e-12);
    EXPECT_NEAR(doc.at("embodied_co2_kg").asNumber(),
                report.embodiedCo2Kg(), 1e-12);
    EXPECT_NEAR(doc.at("total_co2_kg").asNumber(),
                report.totalCo2Kg(), 1e-12);
    EXPECT_EQ(doc.at("chiplets").size(), 2u);
    EXPECT_TRUE(doc.at("hi").contains("package_co2_kg"));
    EXPECT_TRUE(doc.at("operational").contains("co2_kg"));
    // Serialized report parses back.
    EXPECT_NO_THROW(json::parse(doc.dump(true)));
}

// ----------------------------------------------- wire identity

/** A small batch with success and failure outcomes -- the two
 *  shapes every wire serializer must handle. */
BatchReport
sampleBatchReport()
{
    std::vector<AnalysisRequest> requests;
    requests.push_back(
        {ScenarioRef::scenario("ga102"), EstimateSpec{}});
    requests.push_back({ScenarioRef::scenario("no-such-scenario"),
                        EstimateSpec{}});
    SweepSpec sweep;
    sweep.nodesNm = {7.0, 10.0};
    requests.push_back({ScenarioRef::scenario("emr"), sweep});
    AnalysisEngine engine(2);
    return engine.runBatch(requests);
}

/** @p text as the reference serializer re-emits its parse. */
std::string
referenceCanonical(const std::string &text, bool pretty)
{
    return json::reference::dump(json::reference::parse(text),
                                 pretty);
}

TEST(WireIdentity, WriterEmittersMatchDomDumpsByteForByte)
{
    const BatchReport report = sampleBatchReport();
    ASSERT_EQ(report.outcomes.size(), 3u);
    ASSERT_EQ(report.failed(), 1u);

    // Whole-report text is canonical in both modes, and the
    // pretty document is the layout of the compact one.
    const std::string compact = batchReportText(report, false);
    EXPECT_EQ(compact, referenceCanonical(compact, false));
    EXPECT_EQ(batchReportText(report, true),
              referenceCanonical(compact, true));

    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
        const RequestOutcome &outcome = report.outcomes[i];
        json::StreamWriter writer;
        appendOutcome(writer, outcome);
        const std::string outcome_text = writer.take();
        EXPECT_EQ(outcome_text,
                  referenceCanonical(outcome_text, false))
            << i;

        // A stream event is the outcome with "index" in front.
        json::StreamWriter event_writer;
        appendStreamEvent(event_writer, i, outcome);
        const std::string line = event_writer.take();
        EXPECT_EQ(line, "{\"index\":" + std::to_string(i) + "," +
                            outcome_text.substr(1))
            << i;
        EXPECT_EQ(streamEventLine(i, outcome), line) << i;
    }
}

TEST(WireIdentity, JournalRoundTripPreservesCanonicalBytes)
{
    const BatchReport report = sampleBatchReport();
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "ecochip_wire_identity_journal.ndjson")
            .string();
    std::filesystem::remove(path);

    EventJournalWriter journal;
    journal.open(path, false);
    std::vector<std::string> outcome_texts;
    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
        json::StreamWriter writer;
        appendOutcome(writer, report.outcomes[i]);
        outcome_texts.push_back(writer.take());
        journal.append(i, outcome_texts.back());
    }

    const auto entries = replayEventJournalText(path);
    ASSERT_EQ(entries.size(), report.outcomes.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        EXPECT_EQ(entries[i].index, i);
        // Replay yields canonical compact text: the exact bytes
        // the writer emitted, spliceable without a reparse.
        EXPECT_EQ(entries[i].outcome, outcome_texts[i]) << i;
        EXPECT_NO_THROW(
            json::ondemand::validate(entries[i].outcome));
    }

    // splitEventLine agrees with the replay on every line.
    std::ifstream in(path);
    std::string line;
    std::size_t n = 0;
    while (std::getline(in, line)) {
        const auto entry = splitEventLine(line, path);
        EXPECT_EQ(entry.index, entries[n].index);
        EXPECT_EQ(entry.outcome, entries[n].outcome);
        ++n;
    }
    EXPECT_EQ(n, entries.size());
    std::filesystem::remove(path);
}

TEST(WireIdentity, SplitEventLineRejectsEventsWithoutAnIndex)
{
    for (const char *line :
         {R"([1])", R"({"ok":true})", R"({"index":-1})",
          R"({"index":2.5})", R"({"index":"0"})", R"({"index":1e300})"})
        EXPECT_THROW(splitEventLine(line, "events"), ConfigError)
            << line;
    // An index past int64 is refused before any narrowing cast.
    try {
        splitEventLine(R"({"index":1e300,"ok":true})", "events");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "out of the integer range"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace ecochip
