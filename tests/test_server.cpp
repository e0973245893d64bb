/**
 * @file
 * Tests for the analysis server (`server/analysis_server.h`),
 * its content-addressed result cache, and the canonical request
 * serialization that cache keys hash: served responses
 * byte-identical to local engine outcomes (cold and on cache
 * hits), concurrent clients each getting exactly their answers,
 * malformed-line isolation, SIGTERM / shutdown-verb draining,
 * and corrupt cache entries recovering as misses instead of
 * crashes.
 *
 * Server processes are forked before the parent creates any
 * engine threads (the same fork-only discipline as the shard
 * runner's library mode), then driven through `ServerClient`.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/analysis_engine.h"
#include "io/batch_report_io.h"
#include "io/request_io.h"
#include "json/stream_writer.h"
#include "server/analysis_server.h"
#include "server/result_cache.h"
#include "server/server_client.h"
#include "support/error.h"
#include "support/sha256.h"

#if defined(__unix__) || defined(__APPLE__)
#define ECOCHIP_TEST_HAS_FORK 1
#include <csignal>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#else
#define ECOCHIP_TEST_HAS_FORK 0
#endif

namespace ecochip {
namespace {

// ------------------------------------------------ canonical text

/** The compact wire line of one request. */
std::string
requestText(const AnalysisRequest &request)
{
    json::StreamWriter writer;
    appendRequest(writer, request);
    return writer.take();
}

TEST(CanonicalRequest, StableAcrossJsonRoundTrip)
{
    std::vector<AnalysisRequest> requests = {
        {ScenarioRef::scenario("ga102"), EstimateSpec{}},
        {ScenarioRef::scenario("emr"),
         SweepSpec{{7.0, 10.0, 14.0}, {}}},
        {ScenarioRef::scenario("waferscale"),
         MonteCarloSpec{256, 7, 1, {}}},
        {ScenarioRef::scenario("cpu-mono"), CostSpec{}},
    };
    for (const auto &request : requests) {
        const std::string canonical =
            canonicalRequestText(request);
        const AnalysisRequest reparsed = requestFromJson(
            json::parse(canonical), "canonical round-trip");
        EXPECT_EQ(canonicalRequestText(reparsed), canonical);
    }
}

TEST(CanonicalRequest, MonteCarloThreadsDoNotChangeTheText)
{
    // threads is a scheduling knob -- results are bit-identical
    // at any count -- so it must not split the cache key space.
    AnalysisRequest one = {ScenarioRef::scenario("ga102"),
                           MonteCarloSpec{512, 42, 1, {}}};
    AnalysisRequest eight = one;
    std::get<MonteCarloSpec>(eight.spec).threads = 8;
    EXPECT_EQ(canonicalRequestText(one),
              canonicalRequestText(eight));
    EXPECT_EQ(resultCacheKey(one, "fp"),
              resultCacheKey(eight, "fp"));
}

TEST(CanonicalRequest, SemanticChangesChangeTheKey)
{
    const AnalysisRequest base = {
        ScenarioRef::scenario("ga102"),
        MonteCarloSpec{512, 42, 1, {}}};
    AnalysisRequest seed = base;
    std::get<MonteCarloSpec>(seed.spec).seed = 43;
    AnalysisRequest scenario = base;
    scenario.scenario = ScenarioRef::scenario("emr");

    const std::string key = resultCacheKey(base, "fp");
    EXPECT_NE(resultCacheKey(seed, "fp"), key);
    EXPECT_NE(resultCacheKey(scenario, "fp"), key);
    // ... and so does serving a different catalog.
    EXPECT_NE(resultCacheKey(base, "other-fp"), key);
    EXPECT_EQ(key.size(), 64u);
}

TEST(Sha256, MatchesKnownVectors)
{
    // FIPS 180-4 test vectors -- the cache key derivation is
    // only as portable as the digest underneath it.
    EXPECT_EQ(sha256Hex(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(sha256Hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(sha256Hex(std::string(1000000, 'a')),
              "cdc76e5c9914fb9281a1c7e284d73e67"
              "f1809a48a497200e046d39ccc7112cd0");
}

// ------------------------------------------------ result cache

class ResultCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // Unique per test case: ctest runs each case as its own
        // process, so a shared directory would let one SetUp's
        // remove_all race another case's store/lookup under -j.
        dir_ = std::filesystem::path(::testing::TempDir()) /
               (std::string("ecochip_result_cache_") +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        std::filesystem::remove_all(dir_);
    }

    std::string dirStr() const { return dir_.string(); }

    std::filesystem::path dir_;
};

TEST_F(ResultCacheTest, StoreLookupRoundTripsAndCounts)
{
    ResultCache cache({dirStr(), 0});
    const std::string result = R"({"kind":"estimate","detail":"x"})";

    const std::string key(64, 'a');
    EXPECT_FALSE(cache.lookupText(key).has_value());
    cache.storeText(key, result);
    const auto hit = cache.lookupText(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, result);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);
}

TEST_F(ResultCacheTest, SurvivesReopenAndIndexLoss)
{
    const std::string key(64, 'b');
    {
        ResultCache cache({dirStr(), 0});
        cache.storeText(key, R"({"detail":"persisted"})");
        cache.flushIndex();
    }
    {
        ResultCache cache({dirStr(), 0});
        ASSERT_TRUE(cache.lookupText(key).has_value());
    }
    // Corrupt the index (crash before flushIndex): the object
    // tree is the truth and entries must still be found.
    std::ofstream(dir_ / "index.json") << "{ truncated";
    {
        ResultCache cache({dirStr(), 0});
        ASSERT_TRUE(cache.lookupText(key).has_value());
    }
}

TEST_F(ResultCacheTest, TruncatedObjectRecomputesInsteadOfCrash)
{
    ResultCache cache({dirStr(), 0});
    const std::string result = R"({"detail":"will be truncated"})";
    const std::string key(64, 'c');
    cache.storeText(key, result);

    // Truncate the object file mid-JSON.
    const auto object =
        dir_ / "objects" / key.substr(0, 2) / (key + ".json");
    std::ofstream(object, std::ios::trunc) << "{\"detail\": \"wi";

    EXPECT_FALSE(cache.lookupText(key).has_value());
    EXPECT_EQ(cache.stats().entries, 0u);
    // A fresh store of the recomputed result heals the entry.
    cache.storeText(key, result);
    ASSERT_TRUE(cache.lookupText(key).has_value());
}

TEST_F(ResultCacheTest, LruEvictionKeepsTheHotEntries)
{
    ResultCache cache({dirStr(), 2});
    const std::string result = R"({"detail":"x"})";
    const std::string a(64, 'a'), b(64, 'b'), c(64, 'd');
    cache.storeText(a, result);
    cache.storeText(b, result);
    ASSERT_TRUE(cache.lookupText(a).has_value()); // a is now hot
    cache.storeText(c, result);                       // evicts b
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_TRUE(cache.lookupText(a).has_value());
    EXPECT_FALSE(cache.lookupText(b).has_value());
    EXPECT_TRUE(cache.lookupText(c).has_value());
}

TEST_F(ResultCacheTest, IndexFileBytes)
{
    ResultCache cache({dirStr(), 0});
    const std::string a(64, 'a'), b(64, 'b');
    cache.storeText(a, R"({"detail":"x"})"); // tick 0
    cache.storeText(b, R"({"detail":"y"})"); // tick 1
    ASSERT_TRUE(cache.lookupText(a).has_value()); // a: tick 2
    cache.flushIndex();

    std::ifstream in(dir_ / "index.json", std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(text, "{\n"
                    "    \"version\": 1,\n"
                    "    \"entries\": [\n"
                    "        {\n"
                    "            \"key\": \"" + a + "\",\n"
                    "            \"tick\": 2\n"
                    "        },\n"
                    "        {\n"
                    "            \"key\": \"" + b + "\",\n"
                    "            \"tick\": 1\n"
                    "        }\n"
                    "    ]\n"
                    "}\n");
}

#if ECOCHIP_TEST_HAS_FORK

TEST_F(ResultCacheTest, FailedStoreLeavesNoObjectAndDoesNotThrow)
{
    const std::string key(64, 'e');
    const std::string result =
        R"({"detail":"longer than the file size limit"})";
    const auto object =
        dir_ / "objects" / key.substr(0, 2) / (key + ".json");

    // A file size limit makes every write past 16 bytes fail with
    // EFBIG (SIGXFSZ ignored); it is set in a child, so it limits
    // nothing else.
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        std::signal(SIGXFSZ, SIG_IGN);
        const rlimit limit{16, 16};
        if (setrlimit(RLIMIT_FSIZE, &limit) != 0)
            _exit(2);
        try {
            ResultCache cache({dirStr(), 0});
            cache.storeText(key, result);
            if (std::filesystem::exists(object))
                _exit(3);
            if (std::filesystem::exists(object.string() + ".tmp"))
                _exit(4);
            if (cache.stats().entries != 0 ||
                cache.lookupText(key).has_value())
                _exit(5);
        } catch (...) {
            _exit(6);
        }
        _exit(0);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    // 3: a truncated object under its final name; 4: a stray
    // .tmp; 5: an indexed entry; 6: the store threw.
    EXPECT_EQ(WEXITSTATUS(status), 0);

    // Without the limit the same store lands.
    ResultCache cache({dirStr(), 0});
    EXPECT_FALSE(cache.lookupText(key).has_value());
    cache.storeText(key, result);
    const auto hit = cache.lookupText(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, result);
}

// ------------------------------------------------ live server

/**
 * A forked `--serve`-equivalent child process. Fork happens
 * before the parent test creates any engine threads; the child
 * constructs the server, runs until drained, and _exits with 0
 * (clean drain) or 17 (construction/run threw).
 */
class ServerProcess
{
  public:
    explicit ServerProcess(ServerOptions options)
        : socket_(options.socketPath)
    {
        pid_ = fork();
        if (pid_ == 0) {
            try {
                AnalysisServer server(std::move(options));
                server.run();
                _exit(0);
            } catch (...) {
                _exit(17);
            }
        }
    }

    ~ServerProcess()
    {
        if (pid_ > 0) {
            kill(pid_, SIGKILL);
            int status = 0;
            waitpid(pid_, &status, 0);
        }
    }

    bool started() const { return pid_ > 0; }

    void signal(int signo) const { kill(pid_, signo); }

    /** Reap the child; returns its exit code (-1 on signal). */
    int waitForExit()
    {
        int status = 0;
        waitpid(pid_, &status, 0);
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

    const std::string &socketPath() const { return socket_; }

  private:
    pid_t pid_ = -1;
    std::string socket_;
};

/** Short socket path under /tmp (sun_path is ~108 bytes). */
std::string
testSocket(const std::string &name)
{
    return "/tmp/eco_t_" + name + "_" +
           std::to_string(getpid()) + ".sock";
}

ServerOptions
serverOptions(const std::string &name)
{
    ServerOptions options;
    options.socketPath = testSocket(name);
    options.engineThreads = 2;
    return options;
}

std::vector<AnalysisRequest>
builtinEstimateRequests()
{
    std::vector<AnalysisRequest> requests;
    for (const auto &name : ScenarioRegistry::builtin().names())
        requests.push_back(
            {ScenarioRef::scenario(name), EstimateSpec{}});
    return requests;
}

/** Send every request, read one line each, order by index. */
std::vector<std::string>
serveAll(ServerClient &client,
         const std::vector<AnalysisRequest> &requests)
{
    for (const auto &request : requests)
        client.sendLine(requestText(request));
    std::vector<std::string> by_index(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        std::string line = client.readLine();
        const auto index = static_cast<std::size_t>(
            json::parse(line).at("index").asInteger());
        EXPECT_LT(index, by_index.size());
        EXPECT_TRUE(by_index[index].empty())
            << "duplicate index " << index;
        by_index[index] = std::move(line);
    }
    return by_index;
}

TEST(AnalysisServer,
     ServedLinesMatchLocalStreamEventsForAllBuiltins)
{
    // The tentpole acceptance gate: for every builtin scenario,
    // the served response line is byte-identical to the NDJSON
    // stream event a local `--batch --stream` run emits.
    ServerProcess server(serverOptions("equiv"));
    ASSERT_TRUE(server.started());
    ASSERT_TRUE(ServerClient::waitForServer(
        server.socketPath(), 15.0));

    const auto requests = builtinEstimateRequests();
    ASSERT_GE(requests.size(), 9u);

    // Local reference outcomes (scoped: threads join before any
    // later test forks).
    std::vector<std::string> expected(requests.size());
    {
        AnalysisEngine engine(2);
        const BatchReport report = engine.runBatch(requests);
        for (std::size_t i = 0; i < requests.size(); ++i)
            expected[i] = streamEventLine(
                i, report.outcomes[i]);
    }

    ServerClient client(server.socketPath());
    const auto served = serveAll(client, requests);
    for (std::size_t i = 0; i < requests.size(); ++i)
        EXPECT_EQ(served[i], expected[i]) << "request " << i;

    client.shutdownServer();
    EXPECT_EQ(server.waitForExit(), 0);
}

TEST(AnalysisServer, CacheHitsAreByteIdenticalToColdAnswers)
{
    const auto cache_dir =
        std::filesystem::path(::testing::TempDir()) /
        "ecochip_serve_cache";
    std::filesystem::remove_all(cache_dir);

    ServerOptions options = serverOptions("cache");
    options.cacheDir = cache_dir.string();
    ServerProcess server(std::move(options));
    ASSERT_TRUE(server.started());
    ASSERT_TRUE(ServerClient::waitForServer(
        server.socketPath(), 15.0));

    const auto requests = builtinEstimateRequests();

    ServerClient cold_client(server.socketPath());
    const auto cold = serveAll(cold_client, requests);

    ServerClient warm_client(server.socketPath());
    const auto warm = serveAll(warm_client, requests);

    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t i = 0; i < cold.size(); ++i)
        EXPECT_EQ(warm[i], cold[i]) << "request " << i;

    // Round two must have come from the cache, and the stats
    // verb must say so.
    const json::Value stats = warm_client.stats();
    EXPECT_GE(stats.at("hits").asInteger(),
              static_cast<long long>(requests.size()));
    EXPECT_EQ(static_cast<std::size_t>(
                  stats.at("misses").asInteger()),
              requests.size());
    EXPECT_TRUE(stats.at("cache_enabled").asBoolean());
    EXPECT_GT(stats.at("contexts").asInteger(), 0);
    EXPECT_EQ(stats.at("malformed").asInteger(), 0);

    warm_client.shutdownServer();
    EXPECT_EQ(server.waitForExit(), 0);

    // The drained server flushed its LRU index.
    EXPECT_TRUE(
        std::filesystem::exists(cache_dir / "index.json"));
}

TEST(AnalysisServer, ConcurrentClientsGetExactlyTheirAnswers)
{
    // Multi-client soak (runs under TSan in CI): several client
    // threads each submit the full builtin estimate set on their
    // own connection and must read back exactly their answers --
    // every index once, every outcome ok.
    ServerProcess server(serverOptions("soak"));
    ASSERT_TRUE(server.started());
    ASSERT_TRUE(ServerClient::waitForServer(
        server.socketPath(), 15.0));

    const auto requests = builtinEstimateRequests();
    constexpr int kClients = 6;

    std::mutex mutex;
    std::vector<std::string> failures;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c]() {
            try {
                ServerClient client(server.socketPath());
                const auto lines = serveAll(client, requests);
                for (std::size_t i = 0; i < lines.size(); ++i) {
                    const json::Value event =
                        json::parse(lines[i]);
                    if (!event.at("ok").asBoolean()) {
                        const std::lock_guard<std::mutex> lock(
                            mutex);
                        failures.push_back(
                            "client " + std::to_string(c) +
                            " request " + std::to_string(i) +
                            " failed");
                    }
                }
            } catch (const std::exception &e) {
                const std::lock_guard<std::mutex> lock(mutex);
                failures.push_back("client " +
                                   std::to_string(c) + ": " +
                                   e.what());
            }
        });
    }
    for (auto &thread : clients)
        thread.join();
    EXPECT_TRUE(failures.empty())
        << ::testing::PrintToString(failures);

    ServerClient control(server.socketPath());
    const json::Value stats = control.stats();
    EXPECT_EQ(static_cast<std::size_t>(
                  stats.at("served").asInteger()),
              requests.size() * kClients);
    control.shutdownServer();
    EXPECT_EQ(server.waitForExit(), 0);
}

TEST(AnalysisServer, MalformedLinesAreIsolatedPerConnection)
{
    ServerProcess server(serverOptions("malformed"));
    ASSERT_TRUE(server.started());
    ASSERT_TRUE(ServerClient::waitForServer(
        server.socketPath(), 15.0));

    ServerClient client(server.socketPath());
    client.sendLine("this is not json");
    client.sendLine(
        requestText({ScenarioRef::scenario("ga102"),
                     EstimateSpec{}}));
    client.sendLine("{\"kind\": \"no-such-kind\"}");

    std::map<std::size_t, json::Value> by_index;
    for (int i = 0; i < 3; ++i) {
        const json::Value event =
            json::parse(client.readLine());
        by_index.emplace(static_cast<std::size_t>(
                             event.at("index").asInteger()),
                         event);
    }
    ASSERT_EQ(by_index.size(), 3u);
    EXPECT_FALSE(by_index.at(0).at("ok").asBoolean());
    EXPECT_TRUE(by_index.at(1).at("ok").asBoolean());
    EXPECT_FALSE(by_index.at(2).at("ok").asBoolean());
    EXPECT_FALSE(
        by_index.at(2).at("error").asString().empty());

    // The daemon survived all of it and counted the damage.
    const json::Value stats = client.stats();
    EXPECT_EQ(stats.at("malformed").asInteger(), 2);
    EXPECT_EQ(stats.at("served").asInteger(), 1);
    EXPECT_EQ(stats.at("failed").asInteger(), 0);

    client.shutdownServer();
    EXPECT_EQ(server.waitForExit(), 0);
}

TEST(AnalysisServer, ControlRepliesHaveFixedBytes)
{
    ServerProcess server(serverOptions("control"));
    ASSERT_TRUE(server.started());
    ASSERT_TRUE(ServerClient::waitForServer(
        server.socketPath(), 15.0));

    // Two connections so far: the readiness probe and this one.
    ServerClient client(server.socketPath());
    EXPECT_EQ(client.roundTrip(R"({"control": "stats"})"),
              R"({"control":"stats","served":0,"failed":0,)"
              R"("malformed":0,"connections":2,"contexts":0,)"
              R"("cache_enabled":false,"hits":0,"misses":0,)"
              R"("evictions":0,"entries":0})");
    EXPECT_EQ(client.roundTrip(R"({"control": "reload"})"),
              R"({"control":"reload","error":"unknown control )"
              R"(verb; known verbs: stats, shutdown"})");
    EXPECT_EQ(client.roundTrip(R"({"control": "shutdown"})"),
              R"({"control":"shutdown","draining":true})");
    EXPECT_EQ(server.waitForExit(), 0);
}

TEST(AnalysisServer, SigtermDrainsInFlightRequests)
{
    ServerOptions options = serverOptions("sigterm");
    options.installSignalHandlers = true;
    ServerProcess server(std::move(options));
    ASSERT_TRUE(server.started());
    ASSERT_TRUE(ServerClient::waitForServer(
        server.socketPath(), 15.0));

    ServerClient client(server.socketPath());
    // A request slow enough to still be in flight when the
    // signal lands.
    client.sendLine(
        requestText({ScenarioRef::scenario("ga102"),
                     MonteCarloSpec{20000, 42, 1, {}}}));
    // The stats round-trip proves the server has read and
    // dispatched the line (lines on one connection are processed
    // in order), so SIGTERM now arrives mid-request.
    client.stats();
    server.signal(SIGTERM);

    // The drain must still deliver the in-flight answer.
    const json::Value event = json::parse(client.readLine());
    EXPECT_EQ(event.at("index").asInteger(), 0);
    EXPECT_TRUE(event.at("ok").asBoolean());
    EXPECT_EQ(server.waitForExit(), 0);
}

TEST(AnalysisServer, RefusesToDoubleBindALiveSocket)
{
    ServerProcess server(serverOptions("double"));
    ASSERT_TRUE(server.started());
    ASSERT_TRUE(ServerClient::waitForServer(
        server.socketPath(), 15.0));

    // Same path, live server behind it: constructing a second
    // server must throw instead of stealing the socket.
    ServerOptions duplicate = serverOptions("double");
    EXPECT_THROW(AnalysisServer second(std::move(duplicate)),
                 ConfigError);

    ServerClient client(server.socketPath());
    client.shutdownServer();
    EXPECT_EQ(server.waitForExit(), 0);
}

#endif // ECOCHIP_TEST_HAS_FORK

} // namespace
} // namespace ecochip
