/**
 * @file
 * Tests for the declarative request API and the async batch
 * engine: JSON round-trips, batch-vs-session bit-equality at any
 * thread count, per-request failure isolation, scenario catalog
 * loading, completion-order streaming, and the coordinator
 * behind --shard and --coordinate (merged reports byte-identical
 * to the single-process run under faults, retries, and resume).
 */

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "engine/analysis_engine.h"
#include "engine/shard_coordinator.h"
#include "engine/shard_runner.h"
#include "engine/thread_pool.h"
#include "engine/work_queue.h"
#include "io/batch_report_io.h"
#include "io/event_journal_io.h"
#include "io/request_io.h"
#include "io/result_writer.h"
#include "json/ondemand.h"
#include "json/stream_writer.h"
#include "support/error.h"
#include "support/test_transport.h"

#ifndef ECOCHIP_DATA_DIR
#define ECOCHIP_DATA_DIR ""
#endif

namespace ecochip {
namespace {

/** The compact wire text of one request. */
std::string
requestText(const AnalysisRequest &request)
{
    json::StreamWriter writer;
    appendRequest(writer, request);
    return writer.take();
}

void
expectSameReport(const CarbonReport &expected,
                 const CarbonReport &actual)
{
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
        EXPECT_EQ(expected.chiplets[i].yield,
                  actual.chiplets[i].yield);
        EXPECT_EQ(expected.chiplets[i].mfgCo2Kg,
                  actual.chiplets[i].mfgCo2Kg);
    }
}

// ------------------------------------------------ acceptance

TEST(Engine, BatchOfBuiltinEstimatesMatchesSequentialSessions)
{
    // The acceptance gate: estimates of every builtin scenario
    // through `runBatch` -- with the requests additionally pushed
    // through a JSON round-trip -- are bit-identical to
    // sequential AnalysisSession::estimate() calls, at any
    // engine thread count.
    const auto names = ScenarioRegistry::builtin().names();
    ASSERT_GE(names.size(), 9u);

    std::vector<AnalysisRequest> requests;
    for (const auto &name : names)
        requests.push_back({ScenarioRef::scenario(name),
                            EstimateSpec{}});

    // serialize -> parse -> equal results.
    json::StreamWriter wire(true);
    wire.beginArray();
    for (const auto &request : requests)
        appendRequest(wire, request);
    wire.endArray();
    const std::vector<AnalysisRequest> parsed =
        requestsFromJson(json::parse(wire.take()), "round-trip");
    ASSERT_EQ(parsed.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i)
        EXPECT_TRUE(parsed[i] == requests[i]) << names[i];

    for (int threads : {1, 3, 8}) {
        AnalysisEngine engine(threads);
        const BatchReport report = engine.runBatch(parsed);
        ASSERT_TRUE(report.allOk());
        ASSERT_EQ(report.outcomes.size(), names.size());

        for (std::size_t i = 0; i < names.size(); ++i) {
            const AnalysisResult sequential =
                ScenarioBuilder()
                    .scenario(names[i])
                    .build()
                    .estimate();
            const auto &outcome = report.outcomes[i];
            ASSERT_TRUE(outcome.ok()) << names[i];
            EXPECT_EQ(outcome.request.scenario.value, names[i]);
            ASSERT_TRUE(outcome.result->report.has_value());
            expectSameReport(*sequential.report,
                             *outcome.result->report);
        }
    }
}

TEST(Engine, ThreadCountsAreBitIdenticalForEqualSeeds)
{
    // Every verb kind in one batch; threads=1 and threads=8 must
    // agree bit-for-bit (Monte Carlo seeds included).
    std::vector<AnalysisRequest> requests;
    requests.push_back(
        {ScenarioRef::scenario("ga102"), EstimateSpec{}});
    SweepSpec sweep;
    sweep.nodesNm = {7.0, 10.0, 14.0};
    requests.push_back(
        {ScenarioRef::scenario("ga102"), sweep});
    MonteCarloSpec mc;
    mc.trials = 64;
    mc.seed = 7;
    mc.threads = 2;
    requests.push_back({ScenarioRef::scenario("emr"), mc});
    requests.push_back({ScenarioRef::scenario("a15"),
                        SensitivitySpec{}});
    requests.push_back(
        {ScenarioRef::scenario("hbm-accel"), CostSpec{}});

    AnalysisEngine serial(1);
    AnalysisEngine parallel(8);
    const BatchReport a = serial.runBatch(requests);
    const BatchReport b = parallel.runBatch(requests);
    ASSERT_TRUE(a.allOk());
    ASSERT_TRUE(b.allOk());
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());

    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
        const AnalysisResult &ra = *a.outcomes[i].result;
        const AnalysisResult &rb = *b.outcomes[i].result;
        EXPECT_EQ(ra.kind, rb.kind);
        EXPECT_EQ(ra.scenario, rb.scenario);
        // One serialization path -> byte-equal JSON is the
        // strongest cheap bit-identity check across payloads.
        json::StreamWriter wa, wb;
        appendResult(wa, ra);
        appendResult(wb, rb);
        EXPECT_EQ(wa.take(), wb.take()) << i;
    }
}

// ------------------------------------------------ failure paths

TEST(Engine, FailedRequestNeverTakesDownTheBatch)
{
    std::vector<AnalysisRequest> requests;
    requests.push_back(
        {ScenarioRef::scenario("ga102"), EstimateSpec{}});
    requests.push_back(
        {ScenarioRef::scenario("no-such-scenario"),
         EstimateSpec{}});
    requests.push_back(
        {ScenarioRef::scenario("emr"), EstimateSpec{}});

    AnalysisEngine engine(4);
    const BatchReport report = engine.runBatch(requests);
    ASSERT_EQ(report.outcomes.size(), 3u);
    EXPECT_EQ(report.succeeded(), 2u);
    EXPECT_EQ(report.failed(), 1u);
    EXPECT_FALSE(report.allOk());

    EXPECT_TRUE(report.outcomes[0].ok());
    EXPECT_FALSE(report.outcomes[1].ok());
    EXPECT_TRUE(report.outcomes[2].ok());
    // The error names the unknown scenario and the alternatives,
    // exactly as ScenarioBuilder throws it.
    EXPECT_NE(report.outcomes[1].error.find("no-such-scenario"),
              std::string::npos)
        << report.outcomes[1].error;
    EXPECT_NE(report.outcomes[1].error.find("ga102"),
              std::string::npos);
    EXPECT_TRUE(report.outcomes[1].result == std::nullopt);
}

TEST(Engine, SubmitPropagatesExceptionsThroughTheFuture)
{
    AnalysisEngine engine(2);
    auto future = engine.submit(
        {ScenarioRef::designDirectory("/no/such/dir"),
         EstimateSpec{}});
    EXPECT_THROW(future.get(), ConfigError);

    // An invalid spec fails its own future too.
    SweepSpec empty;
    auto bad_spec = engine.submit(
        {ScenarioRef::scenario("ga102"), empty});
    EXPECT_THROW(bad_spec.get(), ConfigError);

    // The engine stays usable afterwards.
    auto good = engine.submit(
        {ScenarioRef::scenario("ga102"), EstimateSpec{}});
    EXPECT_TRUE(good.get().report.has_value());
}

// ------------------------------------------------ dedup

TEST(Engine, IdenticalBindingsShareOneEvaluationContext)
{
    AnalysisEngine engine(4);
    std::vector<AnalysisRequest> requests;
    for (int i = 0; i < 12; ++i)
        requests.push_back(
            {ScenarioRef::scenario("ga102"), EstimateSpec{}});
    requests.push_back(
        {ScenarioRef::scenario("emr"), EstimateSpec{}});

    const BatchReport report = engine.runBatch(requests);
    ASSERT_TRUE(report.allOk());
    EXPECT_EQ(engine.contextCount(), 2u);

    // Outside a batch a context stays cached: same binding, same
    // context object (shared caches). The batch freed its ga102
    // context, so this one is a third build.
    const AnalysisSession a =
        engine.sessionFor(ScenarioRef::scenario("ga102"));
    a.estimate();
    const AnalysisSession b =
        engine.sessionFor(ScenarioRef::scenario("ga102"));
    EXPECT_EQ(&a.context(), &b.context());
    EXPECT_GE(b.context().estimator().cache().report.size(), 1u);
    EXPECT_EQ(engine.contextCount(), 3u);
}

TEST(Engine, BatchBuildsEachBindingOnceAndFreesItAfterItsLastRequest)
{
    // Four bindings, repeated and interleaved: every binding's
    // last request comes after another binding's first.
    const std::vector<std::string> names = {"ga102", "emr", "a15",
                                            "fpga-pca"};
    std::vector<AnalysisRequest> requests;
    for (int round = 0; round < 6; ++round)
        for (const std::string &name : names) {
            if (round % 2 == 0)
                requests.push_back(
                    {ScenarioRef::scenario(name), EstimateSpec{}});
            else
                requests.push_back(
                    {ScenarioRef::scenario(name), CostSpec{}});
        }

    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE(std::to_string(threads) + " thread(s)");
        AnalysisEngine engine(threads);
        // Every context shares the engine's TechDb, so its use
        // count rises by a context's share while one is cached.
        // Reach it through a binding outside the batch, which
        // stays cached.
        const std::shared_ptr<const TechDb> tech =
            engine.sessionFor(ScenarioRef::scenario("ga102-mono"))
                .context()
                .sharedTech();
        const long idle = tech.use_count();

        const BatchReport report = engine.runBatch(requests);
        ASSERT_TRUE(report.allOk());
        EXPECT_EQ(engine.contextCount(), names.size() + 1);
        EXPECT_EQ(tech.use_count(), idle);

        // A later batch over the same bindings builds them again.
        ASSERT_TRUE(engine.runBatch(requests).allOk());
        EXPECT_EQ(engine.contextCount(), 2 * names.size() + 1);
        EXPECT_EQ(tech.use_count(), idle);
    }
}

// ------------------------------------------------ request JSON

TEST(RequestIo, EveryKindRoundTripsThroughJson)
{
    std::vector<AnalysisRequest> requests;
    requests.push_back(
        {ScenarioRef::scenario("ga102"), EstimateSpec{}});

    SweepSpec per_chiplet;
    per_chiplet.nodesPerChiplet = {{7.0, 10.0}, {10.0, 14.0}};
    requests.push_back(
        {ScenarioRef::designDirectory("data/testcases/GA102"),
         per_chiplet});

    MonteCarloSpec mc;
    mc.trials = 128;
    mc.seed = 1234567;
    mc.threads = 4;
    mc.bands.defectDensity = 0.5;
    requests.push_back({ScenarioRef::scenario("emr"), mc});

    SensitivitySpec sens;
    sens.metric = CarbonMetric::Total;
    sens.delta = 0.05;
    requests.push_back({ScenarioRef::scenario("a15"), sens});

    CostSpec cost;
    cost.params.volume = 5.0e6;
    cost.params.includeNre = false;
    requests.push_back({ScenarioRef::scenario("arvr-2k"), cost});

    for (const auto &request : requests) {
        const std::string text = requestText(request);
        const AnalysisRequest parsed =
            requestFromJson(json::parse(text));
        EXPECT_TRUE(parsed == request) << text;
        EXPECT_EQ(parsed.kind(), request.kind());
    }
}

TEST(RequestIo, RejectsMalformedRequests)
{
    // Unknown key, named in the error.
    try {
        requestFromJson(json::parse(
            R"({"scenario": "ga102", "analysis": "estimate",
                "trils": 10})"));
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("\"trils\""),
                  std::string::npos)
            << e.what();
    }

    // Missing / ambiguous binding.
    EXPECT_THROW(
        requestFromJson(json::parse(R"({"analysis": "cost"})")),
        ConfigError);
    EXPECT_THROW(requestFromJson(json::parse(
                     R"({"scenario": "x", "design_dir": "y"})")),
                 ConfigError);

    // Bad enum values and spec arguments.
    EXPECT_THROW(requestFromJson(json::parse(
                     R"({"scenario": "x", "analysis": "bogus"})")),
                 ConfigError);
    EXPECT_THROW(
        requestFromJson(json::parse(
            R"({"scenario": "x", "analysis": "monte_carlo",
                "trials": 1})")),
        ConfigError);
    EXPECT_THROW(
        requestFromJson(json::parse(
            R"({"scenario": "x", "analysis": "sweep"})")),
        ConfigError);
    EXPECT_THROW(
        requestFromJson(json::parse(
            R"({"scenario": "x", "analysis": "sensitivity",
                "metric": "karbon"})")),
        ConfigError);

    // Batches must be non-empty.
    EXPECT_THROW(requestsFromJson(json::parse("[]")),
                 ConfigError);
    EXPECT_THROW(requestsFromJson(json::parse("{}")),
                 ConfigError);
}

/** Contents of the file at @p path. */
std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(RequestIo, WriteBatchFileBytesAndRoundTrip)
{
    const auto dir = std::filesystem::path(::testing::TempDir()) /
                     "ecochip_write_batch_file";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    SweepSpec sweep;
    sweep.nodesNm = {7.0, 10.0};
    BatchFile batch;
    batch.requests = {
        {ScenarioRef::scenario("ga102"), EstimateSpec{}},
        {ScenarioRef::designDirectory("designs/x"), sweep},
        {ScenarioRef::scenario("a15"),
         MonteCarloSpec{8, 3, 1, {}}},
    };
    const std::string requests_text = R"(    "requests": [
        {
            "scenario": "ga102",
            "analysis": "estimate"
        },
        {
            "design_dir": "designs/x",
            "analysis": "sweep",
            "nodes_nm": [
                7,
                10
            ]
        },
        {
            "scenario": "a15",
            "analysis": "monte_carlo",
            "trials": 8,
            "seed": 3,
            "threads": 1
        }
    ]
}
)";

    const auto plain = dir / "plain.json";
    writeBatchFile(batch, plain.string());
    EXPECT_EQ(slurp(plain), "{\n" + requests_text);
    const BatchFile plain_back = loadBatchFile(plain.string());
    EXPECT_FALSE(plain_back.scenarioCatalog.has_value());
    EXPECT_TRUE(plain_back.requests == batch.requests);

    batch.scenarioCatalog = (dir / "catalog.json").string();
    const auto with_catalog = dir / "with_catalog.json";
    writeBatchFile(batch, with_catalog.string());
    EXPECT_EQ(slurp(with_catalog),
              "{\n    \"scenarios\": \"" + *batch.scenarioCatalog +
                  "\",\n" + requests_text);
    const BatchFile catalog_back =
        loadBatchFile(with_catalog.string());
    EXPECT_EQ(catalog_back.scenarioCatalog, batch.scenarioCatalog);
    EXPECT_TRUE(catalog_back.requests == batch.requests);

    std::filesystem::remove_all(dir);
}

TEST(RequestIo, GuardsAgainstLossyNumericConversions)
{
    // JSON numbers are doubles: a seed above 2^53 cannot
    // round-trip, so serialization refuses it outright.
    MonteCarloSpec big_seed;
    big_seed.seed = (std::uint64_t{1} << 53) + 2;
    EXPECT_THROW(
        requestText({ScenarioRef::scenario("ga102"), big_seed}),
        ConfigError);

    // Non-integral trial/seed/thread counts must not silently
    // truncate.
    EXPECT_THROW(
        requestFromJson(json::parse(
            R"({"scenario": "x", "analysis": "monte_carlo",
                "trials": 10.7})")),
        ConfigError);
    EXPECT_THROW(
        requestFromJson(json::parse(
            R"({"scenario": "x", "analysis": "monte_carlo",
                "seed": -4})")),
        ConfigError);

    // Values past int range (or the sanity caps) are rejected,
    // not wrapped modulo 2^32: 4294967298 must not become "2
    // trials", and 10^10 threads must not become ~1.4 billion.
    EXPECT_THROW(
        requestFromJson(json::parse(
            R"({"scenario": "x", "analysis": "monte_carlo",
                "trials": 4294967298})")),
        ConfigError);
    EXPECT_THROW(
        requestFromJson(json::parse(
            R"({"scenario": "x", "analysis": "monte_carlo",
                "threads": 10000000000})")),
        ConfigError);
    // Past int64 itself the count is refused before any cast.
    try {
        requestFromJson(json::parse(
            R"({"scenario": "x", "analysis": "monte_carlo",
                "trials": 1e300})"));
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "out of the integer range"),
                  std::string::npos)
            << e.what();
    }
}

// ------------------------------------------------ catalogs

class CatalogTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info = ::testing::UnitTest::GetInstance()
                               ->current_test_info();
        dir_ = std::filesystem::path(::testing::TempDir()) /
               (std::string("ecochip_catalog_") + info->name());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    std::string
    writeFile(const std::string &name, const std::string &text)
    {
        const auto path = dir_ / name;
        std::ofstream out(path);
        out << text;
        return path.string();
    }

    std::filesystem::path dir_;
};

constexpr const char *kCatalogJson = R"({
    "scenarios": [
        {
            "name": "tiny-soc",
            "description": "two-chiplet catalog scenario",
            "architecture": {
                "name": "tiny",
                "packaging": "rdl_fanout",
                "chiplets": [
                    {"name": "core", "type": "logic",
                     "node_nm": 7, "area_mm2": 60.0},
                    {"name": "cache", "type": "memory",
                     "node_nm": 10, "area_mm2": 30.0}
                ]
            },
            "operational": {"lifetime_years": 3,
                            "avg_power_w": 15.0}
        }
    ]
})";

TEST_F(CatalogTest, LoadFileRegistersScenariosForTheEngine)
{
    const std::string path =
        writeFile("catalog.json", kCatalogJson);

    EngineOptions options;
    options.threads = 2;
    options.registry.loadFile(path);
    AnalysisEngine engine(std::move(options));

    // Builtin and catalog scenarios resolve side by side.
    EXPECT_TRUE(engine.registry().contains("ga102"));
    EXPECT_TRUE(engine.registry().contains("tiny-soc"));

    const BatchReport report = engine.runBatch(
        {{ScenarioRef::scenario("tiny-soc"), EstimateSpec{}}});
    ASSERT_TRUE(report.allOk());
    const CarbonReport &estimate =
        *report.outcomes[0].result->report;
    EXPECT_EQ(report.outcomes[0].result->scenario, "tiny");
    EXPECT_EQ(estimate.chiplets.size(), 2u);
    EXPECT_GT(estimate.operation.co2Kg, 0.0);
}

TEST_F(CatalogTest, BatchFileResolvesItsCatalogRelatively)
{
    writeFile("catalog.json", kCatalogJson);
    const std::string batch_path = writeFile("batch.json", R"({
        "scenarios": "catalog.json",
        "requests": [
            {"scenario": "tiny-soc", "analysis": "estimate"},
            {"scenario": "ga102", "analysis": "cost"}
        ]
    })");

    const BatchFile batch = loadBatchFile(batch_path);
    ASSERT_TRUE(batch.scenarioCatalog.has_value());
    ASSERT_EQ(batch.requests.size(), 2u);

    EngineOptions options;
    options.threads = 2;
    options.registry.loadFile(*batch.scenarioCatalog);
    AnalysisEngine engine(std::move(options));
    const BatchReport report =
        engine.runBatch(batch.requests);
    EXPECT_TRUE(report.allOk());
    EXPECT_TRUE(
        report.outcomes[1].result->cost.has_value());
}

TEST_F(CatalogTest, BrokenCatalogsFailAtLoadTime)
{
    // Typo'd chiplet key: rejected while loading, naming the
    // catalog and the key.
    const std::string bad = writeFile("bad.json", R"({
        "scenarios": [
            {"name": "broken",
             "architecture": {
                 "name": "b",
                 "chiplets": [
                     {"name": "c", "node_nm": 7,
                      "area_m2": 10.0}
                 ]
             }}
        ]
    })");
    ScenarioRegistry registry;
    try {
        registry.loadFile(bad);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("bad.json"), std::string::npos)
            << what;
        EXPECT_NE(what.find("\"area_m2\""), std::string::npos)
            << what;
    }

    // Duplicate names collide with the builtin catalog.
    const std::string dup = writeFile("dup.json", R"({
        "scenarios": [
            {"name": "ga102",
             "architecture": {
                 "name": "g",
                 "chiplets": [
                     {"name": "c", "node_nm": 7,
                      "area_mm2": 10.0}
                 ]
             }}
        ]
    })");
    ScenarioRegistry builtin_copy = ScenarioRegistry::builtin();
    EXPECT_THROW(builtin_copy.loadFile(dup), ConfigError);

    // design_dir entries fail at load time too when the
    // directory is missing.
    const std::string gone = writeFile("gone.json", R"({
        "scenarios": [
            {"name": "vanished",
             "design_dir": "no/such/dir"}
        ]
    })");
    ScenarioRegistry dir_registry;
    EXPECT_THROW(dir_registry.loadFile(gone), ConfigError);
}

// ------------------------------------------------ streaming

TEST(Stream, DeliversEveryRequestExactlyOnceUnderFailures)
{
    // A batch salted with injected failures (unknown scenario,
    // missing design dir, invalid spec): the stream must deliver
    // every index exactly once, failures included, with the
    // callback serialized.
    std::vector<AnalysisRequest> requests;
    for (int round = 0; round < 3; ++round) {
        requests.push_back(
            {ScenarioRef::scenario("ga102"), EstimateSpec{}});
        requests.push_back(
            {ScenarioRef::scenario("no-such-scenario"),
             EstimateSpec{}});
        requests.push_back(
            {ScenarioRef::designDirectory("/no/such/dir"),
             EstimateSpec{}});
        requests.push_back(
            {ScenarioRef::scenario("emr"), SweepSpec{}});
        requests.push_back(
            {ScenarioRef::scenario("a15"), CostSpec{}});
    }

    AnalysisEngine engine(4);
    std::vector<int> seen(requests.size(), 0);
    std::size_t events = 0;
    std::atomic<int> in_callback{0};
    bool overlapped = false;
    engine.runStream(
        requests, [&](std::size_t index,
                      const RequestOutcome &outcome) {
            if (++in_callback != 1)
                overlapped = true;
            ASSERT_LT(index, requests.size());
            ++seen[index];
            ++events;
            EXPECT_TRUE(outcome.request == requests[index]);
            // Failure pattern matches the request pattern.
            const bool expect_ok = (index % 5 == 0) ||
                                   (index % 5 == 4);
            EXPECT_EQ(outcome.ok(), expect_ok) << index;
            if (!outcome.ok()) {
                EXPECT_FALSE(outcome.error.empty());
            }
            --in_callback;
        });

    EXPECT_FALSE(overlapped);
    EXPECT_EQ(events, requests.size());
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], 1) << i;
}

TEST(Stream, RunBatchIsBitIdenticalToAssemblingTheStream)
{
    std::vector<AnalysisRequest> requests;
    for (const auto &name :
         ScenarioRegistry::builtin().names())
        requests.push_back(
            {ScenarioRef::scenario(name), EstimateSpec{}});
    MonteCarloSpec mc;
    mc.trials = 32;
    mc.seed = 11;
    requests.push_back({ScenarioRef::scenario("emr"), mc});

    AnalysisEngine stream_engine(8);
    BatchReport assembled;
    assembled.outcomes.resize(requests.size());
    stream_engine.runStream(
        requests, [&assembled](std::size_t index,
                               const RequestOutcome &outcome) {
            assembled.outcomes[index] = outcome;
        });

    AnalysisEngine batch_engine(8);
    const BatchReport batch =
        batch_engine.runBatch(requests);

    // One serialization path -> byte-equal JSON is the bit-
    // identity check across every payload kind.
    EXPECT_EQ(batchReportText(assembled, true),
              batchReportText(batch, true));
}

TEST(Stream, NdjsonEventsRoundTripThroughRequestIo)
{
    std::vector<AnalysisRequest> requests;
    requests.push_back(
        {ScenarioRef::scenario("ga102"), EstimateSpec{}});
    MonteCarloSpec mc;
    mc.trials = 16;
    mc.seed = 3;
    requests.push_back({ScenarioRef::scenario("emr"), mc});
    requests.push_back(
        {ScenarioRef::scenario("no-such-scenario"),
         CostSpec{}});

    AnalysisEngine engine(2);
    std::ostringstream ndjson;
    engine.runStream(
        requests, [&ndjson](std::size_t index,
                            const RequestOutcome &outcome) {
            ndjson << streamEventLine(index, outcome) << "\n";
        });

    // Each line is a standalone JSON document whose "request"
    // member parses back to the original request via request_io.
    std::istringstream lines(ndjson.str());
    std::string line;
    std::size_t parsed_lines = 0;
    std::set<std::size_t> indices;
    while (std::getline(lines, line)) {
        const json::Value event = json::parse(line);
        ASSERT_TRUE(event.isObject());
        const auto index = static_cast<std::size_t>(
            event.at("index").asInteger());
        indices.insert(index);
        const AnalysisRequest request =
            requestFromJson(event.at("request"));
        EXPECT_TRUE(request == requests[index]) << line;
        EXPECT_EQ(event.at("ok").asBoolean(),
                  !event.contains("error"));
        ++parsed_lines;
    }
    EXPECT_EQ(parsed_lines, requests.size());
    EXPECT_EQ(indices.size(), requests.size());
}

// ------------------------------------------------ shared binding

/**
 * A generator and a plain scenario over one architecture whose
 * chiplets give `area_mm2`, so their transistor counts depend on
 * the density tables of the TechDb they are parsed against.
 */
json::Value
areaCatalog()
{
    return json::parse(R"({
        "scenarios": [{
            "name": "plain",
            "architecture": {
                "name": "area-soc",
                "packaging": "rdl_fanout",
                "chiplets": [
                    {"name": "core", "type": "logic",
                     "node_nm": 7, "area_mm2": 120.0},
                    {"name": "sram", "type": "memory",
                     "node_nm": 10, "area_mm2": 40.0}
                ]
            }
        }],
        "generators": [{
            "name": "area-space",
            "architecture": {
                "name": "area-soc",
                "packaging": "rdl_fanout",
                "chiplets": [
                    {"name": "core", "type": "logic",
                     "node_nm": 7, "area_mm2": 120.0},
                    {"name": "sram", "type": "memory",
                     "node_nm": 10, "area_mm2": 40.0}
                ]
            },
            "axes": [
                {"axis": "node_nm", "chiplet": "core",
                 "values": [7, 5]},
                {"axis": "chiplet_count", "chiplet": "core",
                 "values": [1, 2]}
            ]
        }]
    })");
}

/** Logic densities well away from the paper's. */
TechDb
denserLogicTech()
{
    TechDb tech;
    tech.setTransistorDensityTable(
        DesignType::Logic,
        PiecewiseLinear({{3.0, 300.0}, {5.0, 250.0}, {7.0, 180.0},
                         {10.0, 100.0}, {65.0, 9.0}}));
    return tech;
}

std::string
resultText(const AnalysisResult &result)
{
    json::StreamWriter writer;
    appendResult(writer, result);
    return writer.take();
}

TEST(SharedBinding, GeneratorPointsBindAgainstTheEngineTechDb)
{
    ScenarioRegistry registry;
    registry.loadJson(areaCatalog(), "catalog.json", ".");
    const TechDb custom = denserLogicTech();

    EngineOptions options;
    options.threads = 2;
    options.registry = registry;
    options.tech = custom;
    AnalysisEngine engine(std::move(options));

    const std::vector<std::string> points = {
        "area-space/node_nm=7/chiplet_count=1",
        "area-space/node_nm=5/chiplet_count=2"};
    std::vector<AnalysisRequest> requests;
    for (const auto &point : points)
        requests.push_back(
            {ScenarioRef::scenario(point), EstimateSpec{}});
    requests.push_back(
        {ScenarioRef::scenario("plain"), EstimateSpec{}});
    const BatchReport report = engine.runBatch(requests);
    ASSERT_TRUE(report.allOk());

    // The same bytes as a builder that parses the point afresh
    // against the same calibration.
    for (std::size_t i = 0; i < points.size(); ++i) {
        const AnalysisSession session = ScenarioBuilder()
                                            .tech(custom)
                                            .registry(registry)
                                            .scenario(points[i])
                                            .build();
        EXPECT_EQ(resultText(*report.outcomes[i].result),
                  resultText(session.estimate()))
            << points[i];
    }

    // The first point is the base itself, so it must evaluate
    // like the plain scenario, which parses its architecture per
    // build: a base parsed against the load-time TechDb() would
    // carry other transistor counts and so other die areas.
    expectSameReport(*report.outcomes[2].result->report,
                     *report.outcomes[0].result->report);

    // And the calibration matters: the default one gives
    // another report.
    const AnalysisSession paper = ScenarioBuilder()
                                      .registry(registry)
                                      .scenario(points[0])
                                      .build();
    EXPECT_NE(resultText(paper.estimate()),
              resultText(*report.outcomes[0].result));
}

// ------------------------------------------------ encoded batches

/** The requests and catalog-extended registry of a shipped batch. */
std::pair<std::vector<AnalysisRequest>, ScenarioRegistry>
shippedBatch(const std::filesystem::path &path)
{
    const BatchFile batch = loadBatchFile(path.string());
    ScenarioRegistry registry = ScenarioRegistry::builtin();
    if (batch.scenarioCatalog)
        registry.loadFile(*batch.scenarioCatalog);
    return {batch.requests, registry};
}

/**
 * One encoded run of @p requests on @p engine: the report file
 * spliced from worker texts and the stream lines are the bytes of
 * the serial encoders.
 */
void
expectRunEncodedLikeSerial(AnalysisEngine &engine,
                           const std::vector<AnalysisRequest> &requests,
                           const ScenarioRegistry &registry,
                           const std::filesystem::path &path)
{
    std::vector<std::string> lines;
    const EncodedBatch run = runEncodedBatch(
        engine, requests, true, [&lines](const std::string &line) {
            lines.push_back(line);
        });
    ASSERT_EQ(run.report.outcomes.size(), requests.size());
    ASSERT_EQ(run.outcomeTexts.size(), requests.size());

    writeBatchReportFile(run, path.string());
    std::ifstream in(path, std::ios::binary);
    std::stringstream file;
    file << in.rdbuf();
    EXPECT_EQ(file.str(), batchReportText(run.report, true) + "\n");

    // Equal to a plain runBatch on a fresh engine, too.
    EngineOptions serial;
    serial.registry = registry;
    AnalysisEngine reference(std::move(serial));
    EXPECT_EQ(file.str(),
              batchReportText(reference.runBatch(requests), true) +
                  "\n");

    ASSERT_EQ(lines.size(), requests.size());
    std::set<std::size_t> seen;
    for (const auto &line : lines) {
        const auto index = static_cast<std::size_t>(
            json::parse(line).at("index").asInteger());
        ASSERT_LT(index, requests.size());
        EXPECT_TRUE(seen.insert(index).second) << index;
        json::StreamWriter fresh;
        appendStreamEvent(fresh, index, run.report.outcomes[index]);
        EXPECT_EQ(line, fresh.take());
    }
}

/**
 * The batch runs `eco_chip --batch` encodes on its workers: the
 * report file spliced from worker texts and the stream lines must
 * be the bytes of the serial encoders, at every thread count, for
 * a first and a second batch on one engine.
 */
void
expectEncodedLikeSerial(const std::vector<AnalysisRequest> &requests,
                        const ScenarioRegistry &registry,
                        const std::string &label)
{
    // One file per test: ctest runs the cases as parallel
    // processes.
    const auto path =
        std::filesystem::path(::testing::TempDir()) /
        (std::string("ecochip_encoded_") +
         ::testing::UnitTest::GetInstance()
             ->current_test_info()
             ->name() +
         ".json");
    // The second batch runs on the same engine and puts a failed
    // request between successes: the workers' reused encode
    // buffers must reset between outcomes and between batches.
    std::vector<AnalysisRequest> second = requests;
    second.insert(second.begin() + requests.size() / 2,
                  {ScenarioRef::scenario("no-such-scenario"),
                   EstimateSpec{}});
    for (const int threads : {1, 2, 8}) {
        EngineOptions options;
        options.threads = threads;
        options.registry = registry;
        AnalysisEngine engine(std::move(options));
        for (const bool again : {false, true}) {
            SCOPED_TRACE(label + (again ? ", then" : "") + " at " +
                         std::to_string(threads) + " thread(s)");
            expectRunEncodedLikeSerial(engine,
                                       again ? second : requests,
                                       registry, path);
        }
    }
    std::filesystem::remove(path);
}

TEST(EncodedBatch, ShippedBatchesSpliceLikeTheSerialEncoders)
{
    const auto dir =
        std::filesystem::path(ECOCHIP_DATA_DIR) / "requests";
    std::size_t batches = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".json")
            continue;
        const auto [requests, registry] = shippedBatch(entry.path());
        expectEncodedLikeSerial(requests, registry,
                                entry.path().filename().string());
        ++batches;
    }
    EXPECT_GE(batches, 2u);
}

TEST(EncodedBatch, FailuresOneRequestAndEmptyBatchesSplice)
{
    ScenarioRegistry registry = ScenarioRegistry::builtin();
    registry.loadJson(areaCatalog(), "catalog.json", ".");

    std::vector<AnalysisRequest> requests;
    requests.push_back({ScenarioRef::scenario(
                            "area-space/node_nm=5/chiplet_count=2"),
                        EstimateSpec{}});
    // Not a point: an unknown axis, and an off-axis value.
    requests.push_back(
        {ScenarioRef::scenario("area-space/packaging=stack_3d"),
         EstimateSpec{}});
    requests.push_back({ScenarioRef::scenario(
                            "area-space/node_nm=6/chiplet_count=1"),
                        CostSpec{}});
    // An error text carrying quotes and control characters.
    requests.push_back(
        {ScenarioRef::scenario("odd \"name\"\n\t\x01\x1f end"),
         EstimateSpec{}});
    requests.push_back({ScenarioRef::scenario(
                            "area-space/node_nm=7/chiplet_count=1"),
                        CostSpec{}});
    SweepSpec sweep;
    sweep.nodesNm = {7.0, 10.0};
    requests.push_back({ScenarioRef::scenario("plain"), sweep});

    expectEncodedLikeSerial(requests, registry, "failures");
    expectEncodedLikeSerial({requests.front()}, registry, "one");
    expectEncodedLikeSerial({}, registry, "empty");

    // 1104 outcomes: 2209 report pieces, so the file's writev
    // calls split at IOV_MAX (1024) pieces.
    std::vector<AnalysisRequest> many;
    for (int copy = 0; copy < 184; ++copy)
        many.insert(many.end(), requests.begin(), requests.end());
    expectEncodedLikeSerial(many, registry, "1104 outcomes");

    // The failures are failures, and the odd text survives.
    AnalysisEngine engine(EngineOptions{1, registry, TechDb()});
    const BatchReport report = engine.runBatch(requests);
    EXPECT_EQ(report.failed(), 3u);
    EXPECT_NE(report.outcomes[3].error.find("\n\t\x01\x1f"),
              std::string::npos);
}

// ------------------------------------------------ sharded runs

/** data/requests path of the shipped tree. */
std::string
shippedBatchPath()
{
    return (std::filesystem::path(ECOCHIP_DATA_DIR) /
            "requests" / "builtin_estimates.json")
        .string();
}

/** A coordinated run's merged report, pretty-printed like
 *  `batchReportText(..., true)`. */
std::string
prettyReport(const CoordinatedRunResult &result)
{
    return json::ondemand::reserialize(result.mergedReportText,
                                       true);
}

/** The outcome documents of a coordinated run's merged report. */
std::vector<json::Value>
mergedOutcomes(const CoordinatedRunResult &result)
{
    return json::parse(result.mergedReportText)
        .at("outcomes")
        .asArray();
}

/** What `eco_chip --shard F --shards K` runs: one local host
 *  with K slots, no retries, no deadline. */
CoordinatorOptions
shardOptions(const std::string &batch_path, int shards)
{
    CoordinatorOptions options;
    options.batchPath = batch_path;
    options.hosts.hosts.push_back({"localhost", shards, ""});
    options.retries = 0;
    return options;
}

TEST(ShardRunner, MergedShardReportsAreByteIdenticalToOneProcess)
{
    // The acceptance gate: the shipped 13-request batch run over
    // 1/2/4 local worker slots merges to the byte-identical
    // BatchReport JSON of the single-process runBatch.
    const BatchFile batch = loadBatchFile(shippedBatchPath());

    // Scoped so the engine's pool threads are joined before the
    // sharded runs fork worker processes.
    std::string single;
    {
        AnalysisEngine engine(4);
        single = batchReportText(
            engine.runBatch(batch.requests), true);
    }

    for (int shards : {1, 2, 4}) {
        CoordinatorOptions options =
            shardOptions(shippedBatchPath(), shards);
        options.engineThreadsPerWorker = 2;
        // No workerExe: fork-without-exec library mode.
        const CoordinatedRunResult result =
            runDynamicCoordinatedBatch(options);
        EXPECT_TRUE(result.allOk());
        EXPECT_EQ(result.redispatches, 0u);
        EXPECT_EQ(result.attempts.size(), result.chunksPlanned);
        EXPECT_EQ(prettyReport(result), single)
            << shards << " shards";
    }
}

TEST(ShardRunner, FailedRequestsSurviveTheShardCut)
{
    // A sub-batch with a failing request: the worker exits 1,
    // the report still merges, and the failure lands at its
    // original index.
    const auto dir =
        std::filesystem::path(::testing::TempDir()) /
        "ecochip_shard_failures";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    std::vector<AnalysisRequest> requests = {
        {ScenarioRef::scenario("ga102"), EstimateSpec{}},
        {ScenarioRef::scenario("no-such-scenario"),
         EstimateSpec{}},
        {ScenarioRef::scenario("emr"), EstimateSpec{}},
    };
    const std::string batch_path =
        (dir / "batch.json").string();
    writeBatchFile({requests, std::nullopt}, batch_path);

    CoordinatorOptions options = shardOptions(batch_path, 3);
    options.shardDir = (dir / "shards").string();
    const CoordinatedRunResult result =
        runDynamicCoordinatedBatch(options);

    EXPECT_EQ(result.chunksPlanned, 3u);
    EXPECT_EQ(result.succeeded, 2u);
    EXPECT_EQ(result.failed, 1u);
    EXPECT_FALSE(result.allOk());
    const auto outcomes = mergedOutcomes(result);
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].at("ok").asBoolean());
    EXPECT_FALSE(outcomes[1].at("ok").asBoolean());
    EXPECT_NE(outcomes[1].at("error").asString().find(
                  "no-such-scenario"),
              std::string::npos);
    EXPECT_TRUE(outcomes[2].at("ok").asBoolean());

    // Scratch files were kept (explicit shardDir).
    EXPECT_EQ(result.shardFiles.size(), 3u);
    for (const auto &path : result.shardFiles)
        EXPECT_TRUE(std::filesystem::exists(path)) << path;

    std::filesystem::remove_all(dir);
}

TEST(ShardRunner, RelativeCatalogPathsSurviveTheShardCut)
{
    // Regression: a batch named by a cwd-relative path whose
    // "scenarios" catalog is batch-relative used to break under
    // sharding -- the sub-batch files live in another directory,
    // so the stored catalog path resolved against the wrong
    // base. writeChunkFiles must pin it to an absolute path.
    const auto dir =
        std::filesystem::path(::testing::TempDir()) /
        "ecochip_shard_rel_catalog";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    {
        std::ofstream catalog(dir / "catalog.json");
        catalog << kCatalogJson;
    }
    {
        std::ofstream batch(dir / "batch.json");
        batch << R"({
            "scenarios": "catalog.json",
            "requests": [
                {"scenario": "tiny-soc", "analysis": "estimate"},
                {"scenario": "ga102", "analysis": "estimate"}
            ]
        })";
    }

    // Address the batch with a path relative to the test's cwd,
    // exactly as a CLI user would.
    const std::string relative_batch =
        std::filesystem::relative(dir / "batch.json").string();
    ASSERT_FALSE(
        std::filesystem::path(relative_batch).is_absolute());

    CoordinatorOptions options = shardOptions(relative_batch, 2);
    options.shardDir = (dir / "shards").string();
    const CoordinatedRunResult result =
        runDynamicCoordinatedBatch(options);
    EXPECT_EQ(result.chunksPlanned, 2u);
    EXPECT_TRUE(result.allOk()) << result.mergedReportText;

    std::filesystem::remove_all(dir);
}

TEST(ShardRunner, WorkerRoundTripsItsSubBatchThroughRequestIo)
{
    // runShardWorker end to end on one file: the report's
    // requests parse back (NDJSON/report round-trip through
    // request_io) and match the sub-batch on disk.
    const auto dir =
        std::filesystem::path(::testing::TempDir()) /
        "ecochip_shard_worker";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    const BatchFile batch = loadBatchFile(shippedBatchPath());
    const ChunkPlan plan = planChunks(batch.requests, 4);
    const auto files =
        writeChunkFiles(batch, plan, dir.string());
    ASSERT_EQ(files.size(), plan.chunkCount());
    ASSERT_GE(files.size(), 2u);

    const std::string report_path =
        (dir / "report.json").string();
    const int code =
        runShardWorker(files[0], report_path, 2);
    EXPECT_EQ(code, 0);

    const json::Value report = json::parseFile(report_path);
    const auto &outcomes = report.at("outcomes").asArray();
    ASSERT_EQ(outcomes.size(), plan.chunks[0].size());
    for (std::size_t j = 0; j < outcomes.size(); ++j) {
        const AnalysisRequest request = requestFromJson(
            outcomes[j].at("request"));
        EXPECT_TRUE(request ==
                    batch.requests[plan.chunks[0][j]]);
    }

    std::filesystem::remove_all(dir);
}

// ------------------------------------------------ coordinator

/** A manifest of @p count local-transport hosts, 1 slot each. */
HostManifest
localHosts(std::size_t count)
{
    HostManifest manifest;
    for (std::size_t i = 0; i < count; ++i)
        manifest.hosts.push_back(
            {"local-" + std::to_string(i), 1, ""});
    return manifest;
}

/** A shared TestTransport wired as every host's transport. */
CoordinatorOptions
testTransportOptions(const std::string &batch_path,
                     std::size_t host_count,
                     std::shared_ptr<TestTransport> transport)
{
    CoordinatorOptions options;
    options.batchPath = batch_path;
    options.hosts = localHosts(host_count);
    options.engineThreadsPerWorker = 2;
    options.transportFactory =
        [transport](const HostSpec &) { return transport; };
    return options;
}

/** Dispatches of @p chunk in @p transport's history. */
std::vector<ShardDispatch>
dispatchesOf(const TestTransport &transport, std::size_t chunk)
{
    std::vector<ShardDispatch> dispatches;
    for (const auto &dispatch : transport.history())
        if (dispatch.shard == chunk)
            dispatches.push_back(dispatch);
    return dispatches;
}

TEST(Coordinator, MergedReportByteIdenticalAtOneTwoFourHosts)
{
    // The acceptance gate: the shipped 13-request batch
    // coordinated across 1/2/4 hosts merges to the
    // byte-identical BatchReport JSON of the single-process
    // runBatch.
    const BatchFile batch = loadBatchFile(shippedBatchPath());

    // Scoped so the engine's pool threads are joined before the
    // coordinated runs fork worker processes.
    std::string single;
    {
        AnalysisEngine engine(4);
        single = batchReportText(
            engine.runBatch(batch.requests), true);
    }

    for (std::size_t hosts : {1u, 2u, 4u}) {
        CoordinatorOptions options;
        options.batchPath = shippedBatchPath();
        options.hosts = localHosts(hosts);
        options.engineThreadsPerWorker = 2;
        // No workerExe: fork-without-exec library mode.
        const CoordinatedRunResult result =
            runDynamicCoordinatedBatch(options);
        EXPECT_TRUE(result.allOk());
        EXPECT_EQ(result.redispatches, 0u);
        EXPECT_EQ(result.attempts.size(), result.chunksPlanned);
        EXPECT_EQ(prettyReport(result), single)
            << hosts << " hosts";
    }
}

TEST(Coordinator, RetriesFailedShardOnAnotherHost)
{
    // Chunk 0's first dispatch dies without a report: the
    // coordinator must retry it on a *different* host and the
    // merged report must still be byte-identical to the
    // single-process run.
    const BatchFile batch = loadBatchFile(shippedBatchPath());
    std::string single;
    {
        AnalysisEngine engine(4);
        single = batchReportText(
            engine.runBatch(batch.requests), true);
    }

    auto transport = std::make_shared<TestTransport>();
    transport->injectFailures(0, 1);
    CoordinatorOptions options = testTransportOptions(
        shippedBatchPath(), 2, transport);
    options.retries = 2;

    const CoordinatedRunResult result =
        runDynamicCoordinatedBatch(options);
    EXPECT_TRUE(result.allOk());
    EXPECT_EQ(result.redispatches, 1u);
    EXPECT_EQ(prettyReport(result), single);

    // Dispatch history: chunk 0 ran twice, on distinct hosts,
    // and the retry wrote to a fresh per-attempt report path
    // (so an orphaned first attempt can never race it).
    const auto chunk0 = dispatchesOf(*transport, 0);
    ASSERT_EQ(chunk0.size(), 2u);
    EXPECT_NE(chunk0[0].host, chunk0[1].host);
    EXPECT_NE(chunk0[0].reportPath, chunk0[1].reportPath);
    EXPECT_NE(chunk0[1].reportPath.find(".retry1"),
              std::string::npos)
        << chunk0[1].reportPath;
    EXPECT_NE(chunk0[0].eventsPath, chunk0[1].eventsPath);

    // The attempt record mirrors it: one failure, then ok.
    std::size_t failed_attempts = 0;
    for (const auto &attempt : result.attempts)
        if (attempt.shard == 0 && !attempt.ok)
            ++failed_attempts;
    EXPECT_EQ(failed_attempts, 1u);
}

TEST(Coordinator, StragglerIsCancelledAndRedispatched)
{
    // Chunk 0's first dispatch hangs: the deadline must cancel
    // it, re-dispatch (on the other host), and the merged
    // report must still be byte-identical.
    const BatchFile batch = loadBatchFile(shippedBatchPath());
    std::string single;
    {
        AnalysisEngine engine(4);
        single = batchReportText(
            engine.runBatch(batch.requests), true);
    }

    auto transport = std::make_shared<TestTransport>();
    transport->injectHangs(0, 1);
    CoordinatorOptions options = testTransportOptions(
        shippedBatchPath(), 2, transport);
    options.retries = 1;
    options.shardTimeoutSeconds = 0.05;

    const CoordinatedRunResult result =
        runDynamicCoordinatedBatch(options);
    EXPECT_TRUE(result.allOk());
    EXPECT_EQ(transport->cancelled(), 1u);
    EXPECT_EQ(result.redispatches, 1u);
    EXPECT_EQ(prettyReport(result), single);

    bool deadline_recorded = false;
    for (const auto &attempt : result.attempts)
        if (!attempt.ok &&
            attempt.reason.find("deadline") !=
                std::string::npos)
            deadline_recorded = true;
    EXPECT_TRUE(deadline_recorded);
}

TEST(Coordinator, SingleHostRetriesInPlace)
{
    // With one host there is no "other host" to exclude: the
    // retry must still happen (on the same host) instead of
    // deadlocking on an impossible exclusion.
    auto transport = std::make_shared<TestTransport>();
    transport->injectFailures(0, 1);
    CoordinatorOptions options = testTransportOptions(
        shippedBatchPath(), 1, transport);
    options.retries = 1;

    const CoordinatedRunResult result =
        runDynamicCoordinatedBatch(options);
    EXPECT_TRUE(result.allOk());
    EXPECT_EQ(result.redispatches, 1u);
    EXPECT_EQ(dispatchesOf(*transport, 0).size(), 2u);
}

TEST(Coordinator, ThrowsOnceRetriesAreExhausted)
{
    auto transport = std::make_shared<TestTransport>();
    transport->injectFailures(0, 100);
    CoordinatorOptions options = testTransportOptions(
        shippedBatchPath(), 2, transport);
    options.retries = 1;

    try {
        runDynamicCoordinatedBatch(options);
        FAIL() << "expected Error";
    } catch (const Error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("no retries left"),
                  std::string::npos)
            << what;
    }
    // retries=1 allows 2 attempts of chunk 0.
    EXPECT_EQ(dispatchesOf(*transport, 0).size(), 2u);
}

TEST(Coordinator, RequestLevelFailuresAreDataNotRetries)
{
    // A worker whose *requests* fail exits 1 with a report:
    // that is data in the merged outcomes, never a re-dispatch.
    const auto dir =
        std::filesystem::path(::testing::TempDir()) /
        "ecochip_coordinator_failures";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    std::vector<AnalysisRequest> requests = {
        {ScenarioRef::scenario("ga102"), EstimateSpec{}},
        {ScenarioRef::scenario("no-such-scenario"),
         EstimateSpec{}},
        {ScenarioRef::scenario("emr"), EstimateSpec{}},
    };
    const std::string batch_path =
        (dir / "batch.json").string();
    writeBatchFile({requests, std::nullopt}, batch_path);

    auto transport = std::make_shared<TestTransport>();
    CoordinatorOptions options =
        testTransportOptions(batch_path, 3, transport);
    options.shardDir = (dir / "shards").string();
    const CoordinatedRunResult result =
        runDynamicCoordinatedBatch(options);

    EXPECT_EQ(result.chunksPlanned, 3u);
    EXPECT_EQ(transport->history().size(), 3u);
    EXPECT_EQ(result.succeeded, 2u);
    EXPECT_EQ(result.failed, 1u);
    EXPECT_EQ(result.redispatches, 0u);
    EXPECT_FALSE(result.allOk());
    const auto outcomes = mergedOutcomes(result);
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_FALSE(outcomes[1].at("ok").asBoolean());

    std::filesystem::remove_all(dir);
}

TEST(Coordinator, CommandTransportExpandsItsTemplate)
{
    HostSpec host;
    host.name = "node-a";
    host.slots = 2;
    host.command =
        "ssh {host} {worker} --shard_worker {sub_batch} "
        "--json {report} --engine_threads {threads} "
        "{scenarios_args}";
    const CommandTransport transport(host);

    ShardDispatch dispatch;
    dispatch.shard = 3;
    dispatch.host = host.name;
    dispatch.subBatchPath = "/shared/shard_003.json";
    dispatch.reportPath = "/shared/shard_003.json.report";
    dispatch.engineThreads = 4;
    dispatch.workerExe = "/shared/eco_chip";
    EXPECT_EQ(transport.commandFor(dispatch),
              "ssh node-a /shared/eco_chip --shard_worker "
              "/shared/shard_003.json --json "
              "/shared/shard_003.json.report "
              "--engine_threads 4 ");

    dispatch.scenariosPath = "/shared/catalog.json";
    EXPECT_EQ(transport.commandFor(dispatch),
              "ssh node-a /shared/eco_chip --shard_worker "
              "/shared/shard_003.json --json "
              "/shared/shard_003.json.report "
              "--engine_threads 4 "
              "--scenarios /shared/catalog.json");

    // {worker} with no worker executable is a config error.
    dispatch.workerExe.clear();
    EXPECT_THROW(transport.commandFor(dispatch), ConfigError);

    // Substituted values with shell metacharacters are quoted
    // so they cannot split into words or grow syntax under
    // `/bin/sh -c`.
    dispatch.workerExe = "/shared/eco_chip";
    dispatch.subBatchPath = "/tmp/my runs/shard_003.json";
    dispatch.scenariosPath = "/tmp/it's/catalog.json";
    const std::string quoted = transport.commandFor(dispatch);
    EXPECT_NE(quoted.find("'/tmp/my runs/shard_003.json'"),
              std::string::npos)
        << quoted;
    EXPECT_NE(
        quoted.find("--scenarios '/tmp/it'\\''s/catalog.json'"),
        std::string::npos)
        << quoted;
}

// ------------------------------------------------ work queue

TEST(WorkQueue, PlanChunksIsBindingCohesive)
{
    // Property: at any chunk target, each scenario binding's
    // requests land in exactly one chunk (so per-worker
    // EvaluationContext dedup survives the cut), every index
    // appears exactly once, and indices ascend within a chunk.
    const BatchFile batch = loadBatchFile(shippedBatchPath());
    const auto &requests = batch.requests;

    for (int target : {1, 2, 3, 5, 8, 100}) {
        const ChunkPlan plan = planChunks(requests, target);
        EXPECT_EQ(plan.requestCount(), requests.size())
            << "target " << target;
        std::map<std::string, std::size_t> home;
        std::set<std::size_t> all;
        for (std::size_t c = 0; c < plan.chunkCount(); ++c) {
            ASSERT_FALSE(plan.chunks[c].empty());
            EXPECT_TRUE(std::is_sorted(plan.chunks[c].begin(),
                                       plan.chunks[c].end()));
            for (std::size_t index : plan.chunks[c]) {
                EXPECT_TRUE(all.insert(index).second)
                    << "duplicate index " << index;
                const std::string key =
                    requests[index].scenario.label();
                const auto it = home.find(key);
                if (it == home.end())
                    home.emplace(key, c);
                else
                    EXPECT_EQ(it->second, c)
                        << "binding " << key
                        << " straddles chunks at target "
                        << target;
            }
        }
        EXPECT_EQ(all.size(), requests.size());
    }

    // A binding bigger than the target still travels whole, as
    // its own chunk.
    std::vector<AnalysisRequest> skewed = {
        {ScenarioRef::scenario("ga102"), EstimateSpec{}},
        {ScenarioRef::scenario("ga102"), CostSpec{}},
        {ScenarioRef::scenario("ga102"), SensitivitySpec{}},
        {ScenarioRef::scenario("emr"), EstimateSpec{}},
    };
    const ChunkPlan oversized = planChunks(skewed, 1);
    ASSERT_EQ(oversized.chunkCount(), 2u);
    EXPECT_EQ(oversized.chunks[0],
              (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(oversized.chunks[1],
              (std::vector<std::size_t>{3}));

    // Subset planning covers exactly the given indices.
    const ChunkPlan partial =
        planChunksOver(requests, {3, 7, 11}, 2);
    std::set<std::size_t> covered;
    for (const auto &chunk : partial.chunks)
        covered.insert(chunk.begin(), chunk.end());
    EXPECT_EQ(covered, (std::set<std::size_t>{3, 7, 11}));

    EXPECT_THROW(planChunks({}, 2), ConfigError);
    EXPECT_THROW(planChunks(requests, 0), ConfigError);
    EXPECT_THROW(planChunksOver(requests, {0, 0}, 2),
                 ConfigError);
    EXPECT_THROW(
        planChunksOver(requests, {requests.size()}, 2),
        ConfigError);
}

TEST(WorkQueue, IncrementalMergerIsPermutationInvariant)
{
    // Outcomes merged in any arrival order produce the exact
    // bytes of the batch report -- the property that makes
    // streaming merge safe under work stealing.
    const BatchFile batch = loadBatchFile(shippedBatchPath());
    AnalysisEngine engine(4);
    const BatchReport report = engine.runBatch(batch.requests);
    const std::string expected = batchReportText(report, true);

    // Canonical compact outcome text -- what workers stream and
    // the coordinator merges.
    std::vector<std::string> outcomes;
    for (const auto &outcome : report.outcomes) {
        json::StreamWriter writer;
        appendOutcome(writer, outcome);
        outcomes.push_back(writer.take());
    }

    std::vector<std::size_t> order(outcomes.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::mt19937 rng(20260808);
    for (int round = 0; round < 8; ++round) {
        std::shuffle(order.begin(), order.end(), rng);
        IncrementalMerger merger(outcomes.size());
        for (std::size_t index : order) {
            EXPECT_FALSE(merger.complete());
            EXPECT_TRUE(merger.add(index, outcomes[index]));
            EXPECT_FALSE(merger.add(index, outcomes[index]))
                << "duplicate delivery must be dropped";
        }
        EXPECT_TRUE(merger.complete());
        EXPECT_EQ(merger.reportText(true), expected)
            << "round " << round;
    }

    // Partial merges report what is missing, and refuse to
    // produce a report.
    IncrementalMerger partial(outcomes.size());
    partial.add(2, outcomes[2]);
    partial.add(5, outcomes[5]);
    EXPECT_EQ(partial.doneCount(), 2u);
    const auto missing = partial.missingIndices();
    EXPECT_EQ(missing.size(), outcomes.size() - 2);
    EXPECT_EQ(std::count(missing.begin(), missing.end(), 2u),
              0);
    EXPECT_THROW(partial.reportText(true), ModelError);
}

// ------------------------------------------------ dynamic coordinator

/** Fault shapes of the dynamic-coordinator test matrix. */
enum class MatrixFault
{
    FailOnce,
    HangThenCancel,
    KillMidStream,
    UnevenSpeed,
};

TEST(DynamicCoordinator, FaultMatrixMergesByteIdentical)
{
    // The acceptance gate: {1,2,4} hosts x {fail-once,
    // hang-then-cancel, kill-mid-stream, uneven-speed} x
    // {fresh, resume-from-journal} -- every cell's dynamically
    // merged report is byte-identical to the single-process
    // batch run.
    const BatchFile batch = loadBatchFile(shippedBatchPath());
    std::string single;
    std::vector<std::string> journal_lines;
    {
        // Scoped so the engine's pool threads are joined before
        // coordinating; the first 5 outcomes double as the
        // resume journal of a "killed" earlier run.
        AnalysisEngine engine(4);
        const BatchReport report =
            engine.runBatch(batch.requests);
        single = batchReportText(report, true);
        for (std::size_t i = 0; i < 5; ++i)
            journal_lines.push_back(
                streamEventLine(i, report.outcomes[i]));
    }

    const auto dir =
        std::filesystem::path(::testing::TempDir()) /
        "ecochip_dyn_matrix";

    for (std::size_t hosts : {1u, 2u, 4u}) {
        for (MatrixFault fault :
             {MatrixFault::FailOnce, MatrixFault::HangThenCancel,
              MatrixFault::KillMidStream,
              MatrixFault::UnevenSpeed}) {
            for (bool resume : {false, true}) {
                std::filesystem::remove_all(dir);
                std::filesystem::create_directories(dir);
                if (resume) {
                    std::ofstream journal(
                        (dir / coordinatorJournalName())
                            .string());
                    for (const auto &line : journal_lines)
                        journal << line << '\n';
                }

                CoordinatorOptions options;
                options.batchPath = shippedBatchPath();
                options.hosts = localHosts(hosts);
                options.engineThreadsPerWorker = 2;
                options.shardDir = dir.string();
                options.resume = resume;
                options.chunkTargetRequests = 2;
                options.retries = 2;

                std::vector<std::shared_ptr<TestTransport>>
                    transports;
                options.transportFactory =
                    [&](const HostSpec &) {
                        auto transport =
                            std::make_shared<TestTransport>();
                        if (transports.empty()) {
                            // Host 0 carries the fault.
                            switch (fault) {
                            case MatrixFault::FailOnce:
                                transport->injectFailures(0, 1);
                                break;
                            case MatrixFault::HangThenCancel:
                                transport->injectHangs(0, 1);
                                break;
                            case MatrixFault::KillMidStream: {
                                TransportFault kill;
                                kill.kind = TransportFault::
                                    Kind::KillMidStream;
                                kill.eventLines = 1;
                                transport->injectFault(0, kill);
                                break;
                            }
                            case MatrixFault::UnevenSpeed:
                                transport->setSpeed(0.01,
                                                    0.005);
                                break;
                            }
                        }
                        transports.push_back(transport);
                        return transport;
                    };
                if (fault == MatrixFault::HangThenCancel) {
                    options.retries = 1;
                    options.shardTimeoutSeconds = 0.2;
                }

                const std::string cell =
                    std::to_string(hosts) + " hosts, fault " +
                    std::to_string(static_cast<int>(fault)) +
                    (resume ? ", resumed" : ", fresh");
                const CoordinatedRunResult result =
                    runDynamicCoordinatedBatch(options);
                EXPECT_TRUE(result.allOk()) << cell;
                EXPECT_EQ(result.resumedOutcomes,
                          resume ? 5u : 0u)
                    << cell;
                EXPECT_EQ(prettyReport(result),
                          single)
                    << cell;
                // The journal now holds every outcome, so a
                // second resume dispatches nothing at all.
                CoordinatorOptions replay = options;
                replay.resume = true;
                replay.transportFactory =
                    [](const HostSpec &) {
                        auto transport =
                            std::make_shared<TestTransport>();
                        // Any dispatch would fail the run.
                        transport->injectFailures(0, 100);
                        return std::shared_ptr<ShardTransport>(
                            transport);
                    };
                replay.retries = 0;
                const CoordinatedRunResult replayed =
                    runDynamicCoordinatedBatch(replay);
                EXPECT_EQ(replayed.resumedOutcomes,
                          batch.requests.size())
                    << cell;
                EXPECT_EQ(replayed.chunksPlanned, 0u) << cell;
                EXPECT_EQ(prettyReport(replayed),
                          single)
                    << cell;
            }
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(DynamicCoordinator, ResumeNeverRerunsJournaledRequests)
{
    // Resumed indices must stay out of every dispatched chunk:
    // the whole point of the journal is that finished work is
    // never re-run.
    const BatchFile batch = loadBatchFile(shippedBatchPath());
    std::vector<std::string> journal_lines;
    {
        AnalysisEngine engine(4);
        const BatchReport report =
            engine.runBatch(batch.requests);
        for (std::size_t i = 0; i < 5; ++i)
            journal_lines.push_back(
                streamEventLine(i, report.outcomes[i]));
    }

    const auto dir =
        std::filesystem::path(::testing::TempDir()) /
        "ecochip_dyn_resume";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    {
        std::ofstream journal(
            (dir / coordinatorJournalName()).string());
        for (const auto &line : journal_lines)
            journal << line << '\n';
    }

    auto transport = std::make_shared<TestTransport>();
    CoordinatorOptions options = testTransportOptions(
        shippedBatchPath(), 2, transport);
    options.shardDir = dir.string();
    options.resume = true;
    options.chunkTargetRequests = 1;

    const CoordinatedRunResult result =
        runDynamicCoordinatedBatch(options);
    EXPECT_EQ(result.resumedOutcomes, 5u);
    EXPECT_TRUE(result.allOk());

    // Every dispatched sub-batch holds only never-journaled
    // requests; across all dispatches they cover exactly the
    // remaining 8.
    std::size_t dispatched_requests = 0;
    for (const auto &dispatch : transport->history()) {
        const BatchFile chunk =
            loadBatchFile(dispatch.subBatchPath);
        dispatched_requests += chunk.requests.size();
        for (const auto &request : chunk.requests)
            for (std::size_t i = 0; i < 5; ++i)
                EXPECT_FALSE(request == batch.requests[i])
                    << "journaled request " << i
                    << " was re-dispatched";
    }
    EXPECT_EQ(dispatched_requests, batch.requests.size() - 5);
    std::filesystem::remove_all(dir);
}

TEST(DynamicCoordinator, StaleJournalIsUnlinkedOnFreshRun)
{
    // A reused --shard_dir with a stale (even corrupt) journal
    // must not poison a fresh run -- the same hygiene as stale
    // shard reports -- so a later --resume cannot replay
    // outcomes of a long-gone batch.
    const auto dir =
        std::filesystem::path(::testing::TempDir()) /
        "ecochip_stale_journal";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto journal_path = dir / coordinatorJournalName();

    const BatchFile batch = loadBatchFile(shippedBatchPath());
    std::string single;
    {
        AnalysisEngine engine(4);
        single = batchReportText(
            engine.runBatch(batch.requests), true);
    }

    {
        std::ofstream stale(journal_path.string());
        stale << "this is not even json\n";
    }
    CoordinatorOptions options;
    options.batchPath = shippedBatchPath();
    options.hosts = localHosts(2);
    options.engineThreadsPerWorker = 2;
    options.shardDir = dir.string();
    const CoordinatedRunResult result =
        runDynamicCoordinatedBatch(options);
    EXPECT_EQ(prettyReport(result), single);
    // The journal was rewritten from scratch: it now replays
    // cleanly and covers the whole batch.
    EXPECT_EQ(
        replayEventJournalText(journal_path.string()).size(),
        batch.requests.size());

    std::filesystem::remove_all(dir);
}

TEST(DynamicCoordinator, ResumeRejectsJournalFromDifferentBatch)
{
    // A journal whose recorded request disagrees with the batch
    // at that index is another batch's checkpoint; replaying it
    // would splice wrong results into the report.
    const BatchFile batch = loadBatchFile(shippedBatchPath());
    const auto dir =
        std::filesystem::path(::testing::TempDir()) /
        "ecochip_wrong_journal";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    {
        AnalysisEngine engine(2);
        const BatchReport report =
            engine.runBatch({batch.requests[1]});
        std::ofstream journal(
            (dir / coordinatorJournalName()).string());
        // Request 1's outcome journaled at index 0: mismatch.
        journal << streamEventLine(0, report.outcomes[0])
                << '\n';
    }

    CoordinatorOptions options;
    options.batchPath = shippedBatchPath();
    options.hosts = localHosts(1);
    options.engineThreadsPerWorker = 2;
    options.shardDir = dir.string();
    options.resume = true;
    try {
        runDynamicCoordinatedBatch(options);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what())
                      .find("different batch"),
                  std::string::npos)
            << e.what();
    }
    std::filesystem::remove_all(dir);

    // And --resume without a shard dir is a config error: a
    // temp dir never has a journal to replay.
    CoordinatorOptions no_dir;
    no_dir.batchPath = shippedBatchPath();
    no_dir.hosts = localHosts(1);
    no_dir.resume = true;
    EXPECT_THROW(runDynamicCoordinatedBatch(no_dir),
                 ConfigError);
}

TEST(DynamicCoordinator, EarlyAbortCancelsUndispatchedChunks)
{
    // abort_after_failures=1 with single-request chunks on one
    // slot: the first chunk fails, every undispatched chunk is
    // cancelled, and the never-run requests report synthetic
    // "aborted" errors -- which stay out of the journal, so a
    // --resume completes them to the exact --batch bytes.
    const auto dir =
        std::filesystem::path(::testing::TempDir()) /
        "ecochip_dyn_abort";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    std::vector<AnalysisRequest> requests = {
        {ScenarioRef::scenario("no-such-scenario"),
         EstimateSpec{}},
        {ScenarioRef::scenario("ga102"), EstimateSpec{}},
        {ScenarioRef::scenario("emr"), EstimateSpec{}},
        {ScenarioRef::scenario("a15"), EstimateSpec{}},
    };
    const std::string batch_path =
        (dir / "batch.json").string();
    writeBatchFile({requests, std::nullopt}, batch_path);

    std::string single;
    {
        AnalysisEngine engine(2);
        single = batchReportText(engine.runBatch(requests), true);
    }

    auto transport = std::make_shared<TestTransport>();
    CoordinatorOptions options =
        testTransportOptions(batch_path, 1, transport);
    options.shardDir = (dir / "shards").string();
    options.chunkTargetRequests = 1;
    options.abortAfterFailedRequests = 1;

    const CoordinatedRunResult result =
        runDynamicCoordinatedBatch(options);
    EXPECT_TRUE(result.aborted);
    EXPECT_EQ(result.chunksPlanned, 4u);
    EXPECT_LT(transport->history().size(), 4u)
        << "abort must leave chunks undispatched";
    const auto outcomes = mergedOutcomes(result);
    ASSERT_EQ(outcomes.size(), 4u);
    EXPECT_FALSE(outcomes[0].at("ok").asBoolean());
    std::size_t aborted_outcomes = 0;
    for (const auto &outcome : outcomes)
        if (outcome.stringOr("error", "").rfind("aborted:",
                                                0) == 0)
            ++aborted_outcomes;
    EXPECT_GE(aborted_outcomes, 1u);

    // Synthetic outcomes were not journaled: only genuinely
    // finished requests replay.
    const auto journaled = replayEventJournalText(
        (std::filesystem::path(options.shardDir) /
         coordinatorJournalName())
            .string());
    EXPECT_EQ(journaled.size(), 4u - aborted_outcomes);

    // Resume (without the abort policy) finishes the batch to
    // the exact single-process bytes.
    CoordinatorOptions finish = options;
    finish.abortAfterFailedRequests = 0;
    finish.resume = true;
    const CoordinatedRunResult finished =
        runDynamicCoordinatedBatch(finish);
    EXPECT_FALSE(finished.aborted);
    EXPECT_EQ(prettyReport(finished), single);

    std::filesystem::remove_all(dir);
}

TEST(DynamicCoordinator, ProgressReportsPerHostCounters)
{
    // The --progress consumer: the final snapshot accounts for
    // every request and chunk, per host, with a sane rate.
    auto transport = std::make_shared<TestTransport>();
    CoordinatorOptions options = testTransportOptions(
        shippedBatchPath(), 2, transport);
    options.chunkTargetRequests = 3;
    std::vector<CoordinatorProgress> snapshots;
    options.onProgress =
        [&](const CoordinatorProgress &progress) {
            snapshots.push_back(progress);
        };

    const CoordinatedRunResult result =
        runDynamicCoordinatedBatch(options);
    EXPECT_TRUE(result.allOk());
    ASSERT_FALSE(snapshots.empty());
    const CoordinatorProgress &last = snapshots.back();
    EXPECT_EQ(last.requestsTotal, 13u);
    EXPECT_EQ(last.requestsDone, 13u);
    EXPECT_EQ(last.requestsFailed, 0u);
    EXPECT_EQ(last.chunksTotal, result.chunksPlanned);
    EXPECT_EQ(last.chunksDone, result.chunksPlanned);
    EXPECT_EQ(last.chunksInFlight, 0u);
    EXPECT_FALSE(last.aborted);
    EXPECT_GE(last.requestsPerSecond, 0.0);
    ASSERT_EQ(last.hosts.size(), 2u);
    std::size_t chunks_by_host = 0;
    std::size_t requests_by_host = 0;
    for (const auto &host : last.hosts) {
        EXPECT_EQ(host.inFlightChunks, 0u);
        chunks_by_host += host.doneChunks;
        requests_by_host += host.doneRequests;
    }
    EXPECT_EQ(chunks_by_host, result.chunksPlanned);
    EXPECT_EQ(requests_by_host, 13u);
}

// ------------------------------------------------ thread pool

TEST(ThreadPoolTest, RejectsNonPositiveWorkerCounts)
{
    EXPECT_THROW(ThreadPool(0), ConfigError);
    EXPECT_THROW(AnalysisEngine(0), ConfigError);
    EXPECT_THROW(ThreadPool(-3), ConfigError);
}

TEST(ThreadPoolTest, DrainsEveryPostedTaskBeforeJoining)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(3);
        EXPECT_EQ(pool.threadCount(), 3);
        for (int i = 0; i < 100; ++i)
            pool.post([&ran] { ++ran; });
        // Destructor must wait for all 100, not drop the queue.
    }
    EXPECT_EQ(ran.load(), 100);
}

} // namespace
} // namespace ecochip
