/**
 * @file
 * Tests for the `hosts.json` host-manifest wire format
 * (`io/host_manifest_io.h`): JSON round-trips, unknown-key
 * rejection naming file+key (the `config_loader` contract),
 * duplicate-host / zero-slot validation, and command-template
 * placeholder validation/expansion.
 */

#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "io/host_manifest_io.h"
#include "support/error.h"

#ifndef ECOCHIP_DATA_DIR
#define ECOCHIP_DATA_DIR ""
#endif

namespace ecochip {
namespace {

TEST(HostManifest, RoundTripsThroughJson)
{
    const HostManifest parsed = hostManifestFromJson(json::parse(R"({
        "hosts": [
            {"name": "alpha", "slots": 2},
            {"name": "node-a", "slots": 8,
             "command": "ssh {host} eco_chip --shard_worker {sub_batch} --json {report} --engine_threads {threads} {scenarios_args}"}
        ]
    })"),
                                                     "round-trip");
    ASSERT_EQ(parsed.hosts.size(), 2u);
    EXPECT_EQ(parsed.hosts[0].name, "alpha");
    EXPECT_EQ(parsed.hosts[0].slots, 2);
    EXPECT_EQ(parsed.hosts[0].command, "");
    EXPECT_EQ(parsed.hosts[1].name, "node-a");
    EXPECT_EQ(parsed.hosts[1].slots, 8);
    EXPECT_EQ(parsed.hosts[1].command,
              "ssh {host} eco_chip --shard_worker {sub_batch} "
              "--json {report} --engine_threads {threads} "
              "{scenarios_args}");
    // isLocal() is derived, not stored.
    EXPECT_TRUE(parsed.hosts[0].isLocal());
    EXPECT_FALSE(parsed.hosts[1].isLocal());
    EXPECT_EQ(parsed.totalSlots(), 10);
}

TEST(HostManifest, SlotsDefaultToOne)
{
    const HostManifest manifest = hostManifestFromJson(
        json::parse(R"({"hosts": [{"name": "solo"}]})"));
    ASSERT_EQ(manifest.hosts.size(), 1u);
    EXPECT_EQ(manifest.hosts[0].slots, 1);
    EXPECT_TRUE(manifest.hosts[0].isLocal());
    EXPECT_EQ(manifest.totalSlots(), 1);
}

TEST(HostManifest, RejectsUnknownKeysNamingFileAndKey)
{
    // Top level.
    try {
        hostManifestFromJson(
            json::parse(R"({"hosts": [], "hoots": 1})"),
            "cluster.json");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("cluster.json"), std::string::npos)
            << what;
        EXPECT_NE(what.find("\"hoots\""), std::string::npos)
            << what;
    }

    // Per-host entry: a typo'd "slot" must not load as the
    // default.
    try {
        hostManifestFromJson(
            json::parse(
                R"({"hosts": [{"name": "a", "slot": 4}]})"),
            "cluster.json");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("cluster.json"), std::string::npos)
            << what;
        EXPECT_NE(what.find("\"slot\""), std::string::npos)
            << what;
    }
}

TEST(HostManifest, RejectsDuplicateHosts)
{
    try {
        hostManifestFromJson(
            json::parse(R"({"hosts": [
                {"name": "a", "slots": 1},
                {"name": "b"},
                {"name": "a", "slots": 2}
            ]})"),
            "dup.json");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("duplicate host"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("\"a\""), std::string::npos)
            << what;
    }
}

TEST(HostManifest, RejectsInvalidSlotCounts)
{
    // Zero slots: a host that can run nothing is a manifest
    // typo, not a way to drain a host.
    EXPECT_THROW(hostManifestFromJson(json::parse(
                     R"({"hosts": [{"name": "a",
                                    "slots": 0}]})")),
                 ConfigError);
    EXPECT_THROW(hostManifestFromJson(json::parse(
                     R"({"hosts": [{"name": "a",
                                    "slots": -2}]})")),
                 ConfigError);
    // Non-integral counts must not silently truncate.
    EXPECT_THROW(hostManifestFromJson(json::parse(
                     R"({"hosts": [{"name": "a",
                                    "slots": 1.5}]})")),
                 ConfigError);
}

TEST(HostManifest, RejectsStructuralMistakes)
{
    EXPECT_THROW(hostManifestFromJson(json::parse("[]")),
                 ConfigError);
    EXPECT_THROW(hostManifestFromJson(json::parse("{}")),
                 ConfigError);
    EXPECT_THROW(
        hostManifestFromJson(json::parse(R"({"hosts": []})")),
        ConfigError);
    EXPECT_THROW(hostManifestFromJson(
                     json::parse(R"({"hosts": [{}]})")),
                 ConfigError);
    EXPECT_THROW(hostManifestFromJson(json::parse(
                     R"({"hosts": [{"name": ""}]})")),
                 ConfigError);
    EXPECT_THROW(hostManifestFromJson(json::parse(
                     R"({"hosts": [{"name": "a",
                                    "command": ""}]})")),
                 ConfigError);
}

TEST(HostManifest, ValidatesCommandTemplatePlaceholders)
{
    // A typo'd placeholder fails at load time, naming it.
    try {
        hostManifestFromJson(
            json::parse(R"({"hosts": [
                {"name": "a",
                 "command": "ssh {hostt} run {sub_batch}"}
            ]})"),
            "cluster.json");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("{hostt}"), std::string::npos)
            << what;
        EXPECT_NE(what.find("cluster.json"), std::string::npos)
            << what;
    }

    // Unterminated brace.
    EXPECT_THROW(
        validateCommandTemplate("ssh {host", "t"),
        ConfigError);

    // Every documented placeholder passes.
    validateCommandTemplate(
        "ssh {host} {worker} --shard_worker {sub_batch} "
        "--json {report} --engine_threads {threads} "
        "{scenarios_args}",
        "t");
}

TEST(HostManifest, ExpandsCommandTemplates)
{
    const std::string expanded = expandCommandTemplate(
        "ssh {host} run {sub_batch} -o {report}",
        {{"host", "node-a"},
         {"sub_batch", "/shared/shard_000.json"},
         {"report", "/shared/shard_000.json.report"}});
    EXPECT_EQ(expanded,
              "ssh node-a run /shared/shard_000.json "
              "-o /shared/shard_000.json.report");

    // A placeholder with no value for this dispatch throws.
    EXPECT_THROW(
        expandCommandTemplate("run {report}",
                              {{"host", "node-a"}}),
        ConfigError);
}

TEST(HostManifest, ShippedManifestsLoadAndValidate)
{
    // Every manifest under data/hosts/ must stay loadable --
    // they are the documented examples.
    const auto dir =
        std::filesystem::path(ECOCHIP_DATA_DIR) / "hosts";
    ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
    std::size_t manifests = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".json")
            continue;
        ++manifests;
        const HostManifest manifest =
            loadHostManifest(entry.path().string());
        EXPECT_FALSE(manifest.hosts.empty()) << entry.path();
        EXPECT_GE(manifest.totalSlots(), 1) << entry.path();
    }
    EXPECT_GE(manifests, 3u);
}

TEST(HostManifest, LoadFileNamesThePathInErrors)
{
    const auto path =
        std::filesystem::path(::testing::TempDir()) /
        "ecochip_bad_hosts.json";
    {
        std::ofstream out(path);
        out << R"({"hosts": [{"name": "a", "slotz": 3}]})";
    }
    try {
        loadHostManifest(path.string());
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("ecochip_bad_hosts.json"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("\"slotz\""), std::string::npos)
            << what;
    }
    std::filesystem::remove(path);
}

} // namespace
} // namespace ecochip
