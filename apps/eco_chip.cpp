/**
 * @file
 * `eco_chip` command-line tool -- the C++ equivalent of the
 * reference artifact's `python3 src/ECO_chip.py --design_dir ...`
 * workflow, built on the `AnalysisSession` API. Every flag is
 * documented with runnable examples in `docs/cli.md`.
 *
 * Usage:
 *   eco_chip --design_dir data/testcases/GA102 [options]
 *   eco_chip --scenario ga102 [options]
 *   eco_chip --batch requests.json [--engine_threads N] [--stream]
 *   eco_chip --search spec.json [--json FILE] [--report FILE]
 *            [--expand FILE] [--engine_threads N]
 *   eco_chip --shard requests.json --shards K [--json FILE]
 *   eco_chip --shard_worker sub_batch.json --json report.json
 *   eco_chip --coordinate requests.json --hosts hosts.json
 *            [--retries N] [--shard_timeout S] [--chunk_size N]
 *            [--progress] [--resume] [--abort_after_failures N]
 *   eco_chip --serve --socket PATH [--cache_dir DIR]
 *            [--cache_entries N] [--engine_threads N]
 *   eco_chip --connect PATH (--batch FILE | --stats | --shutdown)
 *
 * Options:
 *   --design_dir DIR   design directory with architecture.json
 *                      (+ optional packageC/designC/operationalC)
 *   --scenario NAME    named scenario from the built-in registry
 *                      (see --list_scenarios)
 *   --batch FILE       run a declarative request batch on the
 *                      async AnalysisEngine; one line of status
 *                      per request, exit 1 if any request failed
 *   --stream           with --batch: emit one NDJSON line per
 *                      request on stdout, in completion order
 *   --search FILE      run a design-space search spec: expand a
 *                      generator template into scenario points
 *                      and drive them through the engine with
 *                      the spec's strategy (exhaustive / greedy /
 *                      annealing -- see docs/search.md)
 *   --report FILE      with --search: write the underlying
 *                      BatchReport of the evaluated requests;
 *                      for exhaustive search, byte-identical to
 *                      --batch over the --expand file
 *   --expand FILE      with --search: write the hand-expanded
 *                      request list as a --batch file (every
 *                      point of the space, odometer order)
 *   --shard FILE       split a batch across --shards worker
 *                      processes and merge their reports; the
 *                      merged BatchReport is byte-identical to
 *                      the --batch run
 *   --shards K         worker process count for --shard
 *                      (default 2; capped at the number of
 *                      distinct scenario bindings)
 *   --shard_dir DIR    keep sub-batch/report files in DIR
 *                      instead of a temp directory
 *   --shard_worker F   run one sub-batch and write its
 *                      BatchReport JSON to the --json path
 *                      (what --shard fork/execs per shard)
 *   --coordinate FILE  pull-dispatch a batch's work chunks onto
 *                      the hosts of a --hosts manifest (local or
 *                      command transports), tail each worker's
 *                      NDJSON event stream, retry failures and
 *                      stragglers, and merge incrementally;
 *                      byte-identical to --batch
 *   --hosts FILE       hosts.json manifest for --coordinate
 *                      (host name, slots, optional command
 *                      template -- see docs/distributed.md)
 *   --retries N        re-dispatches allowed per shard before
 *                      the coordinated run fails (default 2)
 *   --shard_timeout S  straggler deadline in seconds: a shard
 *                      dispatch running longer is cancelled and
 *                      re-dispatched (default: no deadline)
 *   --chunk_size N     with --coordinate: target requests per
 *                      work chunk (whole scenario bindings;
 *                      default: ~3 chunks per host slot)
 *   --progress         with --coordinate: live per-host
 *                      in-flight/done counters and requests/s
 *                      on stderr as events arrive
 *   --resume           with --coordinate --shard_dir: replay the
 *                      outcome journal of a killed run and only
 *                      dispatch the requests it never finished
 *   --abort_after_failures N
 *                      with --coordinate: once N requests have
 *                      failed, cancel undispatched chunks; the
 *                      never-run requests report synthetic
 *                      "aborted" errors (and stay out of the
 *                      journal, so --resume can finish them)
 *   --serve            run the analysis server: accept request
 *                      lines over a Unix-domain socket and answer
 *                      stream-event lines on a warm engine (see
 *                      docs/serving.md)
 *   --socket PATH      the Unix-domain socket --serve binds and
 *                      --connect dials
 *   --cache_dir DIR    with --serve: persist results in a
 *                      content-addressed cache under DIR, so a
 *                      repeated request answers without
 *                      re-evaluating
 *   --cache_entries N  with --cache_dir: keep at most N cached
 *                      results (LRU eviction; default unbounded)
 *   --connect PATH     client mode: submit a --batch file to the
 *                      server on PATH (NDJSON events on stdout,
 *                      summary on stderr), or send --stats /
 *                      --shutdown
 *   --stats            with --connect: print the server's
 *                      counters (served/cache/contexts) and exit
 *   --shutdown         with --connect: ask the server to drain
 *                      gracefully and exit
 *   --engine_threads N engine worker threads for --batch /
 *                      per-process for --shard/--shard_worker /
 *                      the --serve engine pool
 *                      (default: one per hardware thread;
 *                      results are bit-identical at any count)
 *   --scenarios FILE   load a user scenario catalog (JSON) into
 *                      the registry before resolving names
 *   --list_scenarios   print the scenario catalog (and any
 *                      loaded generator templates with their
 *                      axis and point counts) and exit
 *   --node_list LIST   comma-separated nodes (e.g. "7,10,14") to
 *                      explore across all chiplets; prints the
 *                      CFP of every combination
 *   --montecarlo N     also run N Monte-Carlo trials
 *   --threads T        batch Monte-Carlo trials over T threads
 *   --cost             also print the dollar-cost breakdown
 *   --json FILE        write results as JSON (for batch modes:
 *                      the BatchReport document)
 *   --markdown FILE    write all analysis results as markdown
 *   --help             this text
 */

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <filesystem>

#include "engine/analysis_engine.h"
#include "engine/shard_coordinator.h"
#include "engine/shard_runner.h"
#include "engine/work_queue.h"
#include "io/batch_report_io.h"
#include "io/event_journal_io.h"
#include "io/host_manifest_io.h"
#include "io/request_io.h"
#include "io/result_writer.h"
#include "io/search_io.h"
#include "json/ondemand.h"
#include "json/stream_writer.h"
#include "search/search_driver.h"
#include "server/analysis_server.h"
#include "server/server_client.h"
#include "session/analysis_session.h"
#include "support/error.h"
#include "support/table_printer.h"

namespace {

using namespace ecochip;

struct CliOptions
{
    std::string designDir;
    std::string scenario;
    std::string batchPath;
    std::string searchPath;
    std::string searchReportPath;
    std::string searchExpandPath;
    std::string shardPath;
    std::string shardWorkerPath;
    std::string shardDir;
    std::string scenariosPath;
    std::string coordinatePath;
    std::string hostsPath;
    bool serve = false;
    std::string socketPath;
    std::string cacheDir;
    std::string connectPath;
    bool connectStats = false;
    bool connectShutdown = false;
    bool listScenarios = false;
    bool stream = false;

    /** Unset means an unbounded result cache. */
    std::optional<int> cacheEntries;

    /** Unset means the default of 2 worker processes. */
    std::optional<int> shards;

    /** Unset means the coordinator default of 2 re-dispatches. */
    std::optional<int> retries;

    /** Unset means no straggler deadline. */
    std::optional<double> shardTimeout;

    /** Unset means the coordinator's automatic chunk target. */
    std::optional<int> chunkSize;

    /** Live coordinator progress on stderr. */
    bool progress = false;

    /** Replay a previous run's outcome journal. */
    bool resume = false;

    /** Unset means no early-abort policy. */
    std::optional<int> abortAfterFailures;

    /** Unset means one worker per hardware thread. */
    std::optional<int> engineThreads;
    std::vector<double> nodeList;
    int monteCarloTrials = 0;
    int threads = 1;
    bool showCost = false;
    std::optional<std::string> jsonPath;
    std::optional<std::string> markdownPath;
};

void
printUsage(std::ostream &os)
{
    os << "usage: eco_chip (--design_dir DIR | --scenario NAME |"
          " --batch FILE |\n"
          "    --search FILE [--report FILE] [--expand FILE] |\n"
          "    --shard FILE --shards K | --shard_worker FILE |\n"
          "    --coordinate FILE --hosts HOSTS.json |\n"
          "    --serve --socket PATH | --connect PATH)\n"
          "    [--node_list 7,10,14] [--montecarlo N]"
          " [--threads T] [--cost]\n"
          "    [--engine_threads N] [--scenarios FILE]"
          " [--json FILE]\n"
          "    [--markdown FILE] [--list_scenarios] [--stream]\n"
          "    [--shard_dir DIR] [--retries N]"
          " [--shard_timeout S]\n"
          "    [--chunk_size N] [--progress] [--resume]"
          " [--abort_after_failures N]\n"
          "    [--cache_dir DIR] [--cache_entries N]"
          " [--stats] [--shutdown]\n"
          "see docs/cli.md, docs/search.md, docs/distributed.md,"
          " and docs/serving.md for the full flag reference\n";
}

void
printScenarios(std::ostream &os,
               const ScenarioRegistry &registry)
{
    os << "available scenarios:\n";
    for (const auto &scenario : registry.scenarios()) {
        os << "  " << scenario.name << "\n      "
           << scenario.description << "\n";
    }
    if (registry.generators().empty())
        return;
    os << "generator templates (points named "
          "<generator>/<axis>=<value>/..., see docs/search.md):\n";
    for (const auto &generator : registry.generators()) {
        const ScenarioSpace space(generator);
        os << "  " << generator.name << "/...\n      "
           << generator.description << "\n      "
           << generator.axes.size() << " axis(es), "
           << space.size() << " points\n";
    }
}

int
parseIntAtLeast(const std::string &arg, const std::string &token,
                int min)
{
    int value = 0;
    try {
        std::size_t consumed = 0;
        value = std::stoi(token, &consumed);
        requireConfig(consumed == token.size(), "trailing junk");
    } catch (const std::exception &) {
        throw ConfigError("invalid value for " + arg + ": " +
                          token);
    }
    requireConfig(value >= min,
                  arg + (min == 1 ? " must be positive"
                                  : " must be >= " +
                                        std::to_string(min)));
    return value;
}

int
parsePositiveInt(const std::string &arg, const std::string &token)
{
    return parseIntAtLeast(arg, token, 1);
}

int
parseNonNegativeInt(const std::string &arg,
                    const std::string &token)
{
    return parseIntAtLeast(arg, token, 0);
}

double
parsePositiveDouble(const std::string &arg,
                    const std::string &token)
{
    double value = 0.0;
    try {
        std::size_t consumed = 0;
        value = std::stod(token, &consumed);
        requireConfig(consumed == token.size(), "trailing junk");
    } catch (const std::exception &) {
        throw ConfigError("invalid value for " + arg + ": " +
                          token);
    }
    requireConfig(value > 0.0, arg + " must be positive");
    return value;
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_value = [&]() -> std::string {
            requireConfig(i + 1 < argc,
                          arg + " needs an argument");
            return argv[++i];
        };
        if (arg == "--design_dir") {
            opts.designDir = next_value();
        } else if (arg == "--scenario") {
            opts.scenario = next_value();
        } else if (arg == "--batch") {
            opts.batchPath = next_value();
        } else if (arg == "--stream") {
            opts.stream = true;
        } else if (arg == "--search") {
            opts.searchPath = next_value();
        } else if (arg == "--report") {
            opts.searchReportPath = next_value();
        } else if (arg == "--expand") {
            opts.searchExpandPath = next_value();
        } else if (arg == "--shard") {
            opts.shardPath = next_value();
        } else if (arg == "--shards") {
            opts.shards = parsePositiveInt(arg, next_value());
        } else if (arg == "--shard_dir") {
            opts.shardDir = next_value();
        } else if (arg == "--shard_worker") {
            opts.shardWorkerPath = next_value();
        } else if (arg == "--coordinate") {
            opts.coordinatePath = next_value();
        } else if (arg == "--hosts") {
            opts.hostsPath = next_value();
        } else if (arg == "--retries") {
            opts.retries =
                parseNonNegativeInt(arg, next_value());
        } else if (arg == "--shard_timeout") {
            opts.shardTimeout =
                parsePositiveDouble(arg, next_value());
        } else if (arg == "--chunk_size") {
            opts.chunkSize = parsePositiveInt(arg, next_value());
        } else if (arg == "--progress") {
            opts.progress = true;
        } else if (arg == "--resume") {
            opts.resume = true;
        } else if (arg == "--abort_after_failures") {
            opts.abortAfterFailures =
                parsePositiveInt(arg, next_value());
        } else if (arg == "--serve") {
            opts.serve = true;
        } else if (arg == "--socket") {
            opts.socketPath = next_value();
        } else if (arg == "--cache_dir") {
            opts.cacheDir = next_value();
        } else if (arg == "--cache_entries") {
            opts.cacheEntries =
                parsePositiveInt(arg, next_value());
        } else if (arg == "--connect") {
            opts.connectPath = next_value();
        } else if (arg == "--stats") {
            opts.connectStats = true;
        } else if (arg == "--shutdown") {
            opts.connectShutdown = true;
        } else if (arg == "--engine_threads") {
            opts.engineThreads =
                parsePositiveInt(arg, next_value());
        } else if (arg == "--scenarios") {
            opts.scenariosPath = next_value();
        } else if (arg == "--list_scenarios") {
            opts.listScenarios = true;
        } else if (arg == "--node_list") {
            std::stringstream ss(next_value());
            std::string token;
            while (std::getline(ss, token, ',')) {
                double node = 0.0;
                std::size_t consumed = 0;
                try {
                    node = std::stod(token, &consumed);
                } catch (const std::exception &) {
                    throw ConfigError("invalid node value: " +
                                      token);
                }
                requireConfig(consumed == token.size(),
                              "invalid node value: " + token);
                requireConfig(node > 0.0,
                              "node must be positive");
                opts.nodeList.push_back(node);
            }
            requireConfig(!opts.nodeList.empty(),
                          "--node_list is empty");
        } else if (arg == "--montecarlo") {
            opts.monteCarloTrials =
                parsePositiveInt(arg, next_value());
        } else if (arg == "--threads") {
            opts.threads = parsePositiveInt(arg, next_value());
        } else if (arg == "--cost") {
            opts.showCost = true;
        } else if (arg == "--json") {
            opts.jsonPath = next_value();
        } else if (arg == "--markdown") {
            opts.markdownPath = next_value();
        } else if (arg == "--help" || arg == "-h") {
            printUsage(std::cout);
            std::exit(0);
        } else {
            throw ConfigError("unknown option: " + arg);
        }
    }
    const bool batch_mode = !opts.batchPath.empty() ||
                            !opts.searchPath.empty() ||
                            !opts.shardPath.empty() ||
                            !opts.shardWorkerPath.empty() ||
                            !opts.coordinatePath.empty() ||
                            opts.serve ||
                            !opts.connectPath.empty();
    // --connect reuses --batch as its request source, so the
    // pair counts as one source, not two.
    const int sources =
        (opts.designDir.empty() ? 0 : 1) +
        (opts.scenario.empty() ? 0 : 1) +
        (!opts.batchPath.empty() && opts.connectPath.empty()
             ? 1
             : 0) +
        (opts.searchPath.empty() ? 0 : 1) +
        (opts.shardPath.empty() ? 0 : 1) +
        (opts.shardWorkerPath.empty() ? 0 : 1) +
        (opts.coordinatePath.empty() ? 0 : 1) +
        (opts.serve ? 1 : 0) +
        (opts.connectPath.empty() ? 0 : 1);
    requireConfig(sources == 1 ||
                      (sources == 0 && opts.listScenarios),
                  "exactly one of --design_dir / --scenario / "
                  "--batch / --search / --shard / "
                  "--shard_worker / --coordinate / --serve / "
                  "--connect is required");
    requireConfig(opts.searchReportPath.empty() ||
                      !opts.searchPath.empty(),
                  "--report writes a search's BatchReport; it "
                  "requires --search");
    requireConfig(opts.searchExpandPath.empty() ||
                      !opts.searchPath.empty(),
                  "--expand writes a search's hand-expanded "
                  "request list; it requires --search");
    requireConfig(!batch_mode ||
                      (opts.nodeList.empty() &&
                       opts.monteCarloTrials == 0 &&
                       !opts.showCost && opts.threads == 1),
                  "batch modes take their analyses from the "
                  "request file; --node_list/--montecarlo/"
                  "--threads/--cost do not apply");
    requireConfig(!opts.engineThreads ||
                      (batch_mode && opts.connectPath.empty()),
                  "--engine_threads sizes an engine pool; it "
                  "requires --batch, --shard, --shard_worker, "
                  "--coordinate, or --serve");
    requireConfig(!opts.stream || (!opts.batchPath.empty() &&
                                   opts.connectPath.empty()),
                  "--stream emits batch results as NDJSON; it "
                  "requires --batch (--connect always streams)");
    requireConfig(!opts.serve || !opts.socketPath.empty(),
                  "--serve listens on a Unix-domain socket; "
                  "--socket PATH is required");
    requireConfig(opts.socketPath.empty() || opts.serve,
                  "--socket names the --serve listening path; "
                  "it requires --serve");
    requireConfig(opts.cacheDir.empty() || opts.serve,
                  "--cache_dir places the server's result "
                  "cache; it requires --serve");
    requireConfig(!opts.cacheEntries || !opts.cacheDir.empty(),
                  "--cache_entries bounds the result cache; it "
                  "requires --cache_dir");
    requireConfig(!opts.serve ||
                      (!opts.jsonPath && !opts.markdownPath),
                  "--serve answers over the socket; --json/"
                  "--markdown do not apply");
    requireConfig(opts.connectPath.empty() ||
                      (!opts.batchPath.empty() ? 1 : 0) +
                              (opts.connectStats ? 1 : 0) +
                              (opts.connectShutdown ? 1 : 0) ==
                          1,
                  "--connect needs exactly one action: "
                  "--batch FILE, --stats, or --shutdown");
    requireConfig((!opts.connectStats &&
                   !opts.connectShutdown) ||
                      !opts.connectPath.empty(),
                  "--stats/--shutdown are control verbs sent to "
                  "a server; they require --connect");
    requireConfig(opts.scenariosPath.empty() ||
                      opts.connectPath.empty(),
                  "--scenarios loads the serving catalog; pass "
                  "it to --serve, not --connect");
    requireConfig(!opts.shards || !opts.shardPath.empty(),
                  "--shards sizes the worker-process fleet; it "
                  "requires --shard");
    requireConfig(opts.shardDir.empty() ||
                      !opts.shardPath.empty() ||
                      !opts.coordinatePath.empty(),
                  "--shard_dir keeps shard scratch files; it "
                  "requires --shard or --coordinate");
    requireConfig(opts.coordinatePath.empty() ||
                      !opts.hostsPath.empty(),
                  "--coordinate dispatches shards onto a host "
                  "manifest; --hosts HOSTS.json is required");
    requireConfig(opts.hostsPath.empty() ||
                      !opts.coordinatePath.empty(),
                  "--hosts names the coordinator's host "
                  "manifest; it requires --coordinate");
    requireConfig((!opts.retries && !opts.shardTimeout) ||
                      !opts.coordinatePath.empty(),
                  "--retries/--shard_timeout tune the shard "
                  "coordinator; they require --coordinate");
    requireConfig((!opts.chunkSize && !opts.progress &&
                   !opts.resume && !opts.abortAfterFailures) ||
                      !opts.coordinatePath.empty(),
                  "--chunk_size/--progress/--resume/"
                  "--abort_after_failures tune the dynamic "
                  "coordinator; they require --coordinate");
    requireConfig(!opts.resume || !opts.shardDir.empty(),
                  "--resume replays the outcome journal of a "
                  "previous run; it requires --shard_dir");
    requireConfig(opts.shardWorkerPath.empty() ||
                      opts.jsonPath.has_value(),
                  "--shard_worker writes its BatchReport to the "
                  "--json path; --json FILE is required");
    requireConfig(!opts.markdownPath ||
                      (opts.searchPath.empty() &&
                       opts.shardPath.empty() &&
                       opts.shardWorkerPath.empty() &&
                       opts.coordinatePath.empty() &&
                       opts.connectPath.empty()),
                  "--markdown applies to --design_dir/--scenario/"
                  "--batch runs, not search, shard, or server "
                  "modes");
    requireConfig(opts.threads == 1 || opts.monteCarloTrials > 0,
                  "--threads batches Monte-Carlo trials; it "
                  "requires --montecarlo");
    return opts;
}

void
printReport(const SystemSpec &system, const CarbonReport &report)
{
    std::cout << "System: " << system.name << " ("
              << system.chiplets.size()
              << (system.isMonolithic() ? " blocks, monolithic"
                                        : " chiplets")
              << ")\n\n";

    TablePrinter per_chiplet(
        {"chiplet", "node_nm", "area_mm2", "yield", "mfg_kgCO2",
         "design_kgCO2"});
    for (const auto &c : report.chiplets) {
        per_chiplet.addRow(c.name,
                           {c.nodeNm, c.areaMm2, c.yield,
                            c.mfgCo2Kg, c.designCo2Kg});
    }
    per_chiplet.print(std::cout);

    TablePrinter summary({"component", "kgCO2"});
    summary.addRow("manufacturing (Cmfg)", {report.mfgCo2Kg});
    summary.addRow("package (Cpackage)",
                   {report.hi.packageCo2Kg});
    summary.addRow("inter-die comm (Cmfg,comm)",
                   {report.hi.routingCo2Kg});
    summary.addRow("design, amortized (Cdes)",
                   {report.designCo2Kg});
    summary.addRow("embodied (Cemb)", {report.embodiedCo2Kg()});
    summary.addRow("operational (Cop x lifetime)",
                   {report.operation.co2Kg});
    summary.addRow("total (Ctot)", {report.totalCo2Kg()});
    std::cout << '\n';
    summary.print(std::cout);
}

void
printSweep(const AnalysisResult &sweep)
{
    std::cout << "\n" << sweep.detail << ":\n";
    TablePrinter table(
        {"nodes", "Cmfg_kg", "CHI_kg", "Cdes_kg", "Cemb_kg",
         "Cop_kg", "Ctot_kg"});
    for (const auto &p : sweep.points) {
        table.addRow(p.label(),
                     {p.report.mfgCo2Kg,
                      p.report.hi.totalCo2Kg(),
                      p.report.designCo2Kg,
                      p.report.embodiedCo2Kg(),
                      p.report.operation.co2Kg,
                      p.report.totalCo2Kg()});
    }
    table.print(std::cout);
    const auto &best =
        TechSpaceExplorer::bestByEmbodied(sweep.points);
    std::cout << "lowest embodied CFP: " << best.label() << " at "
              << best.report.embodiedCo2Kg() << " kg CO2\n";
}

void
printUncertainty(const AnalysisResult &mc)
{
    std::cout << "\nMonte-Carlo bands (" << mc.detail << "):\n";
    TablePrinter table(
        {"metric", "mean", "stddev", "p5", "p50", "p95"});
    auto row = [&](const char *name, const SampleStats &stats) {
        table.addRow(name, {stats.mean(), stats.stddev(),
                            stats.percentile(5.0),
                            stats.percentile(50.0),
                            stats.percentile(95.0)});
    };
    row("embodied", mc.uncertainty->embodied);
    row("operational", mc.uncertainty->operational);
    row("total", mc.uncertainty->total);
    table.print(std::cout);
}

void
printCost(const AnalysisResult &cost)
{
    std::cout << "\nDollar cost per part:\n";
    TablePrinter table({"component", "usd"});
    table.addRow("silicon dies", {cost.cost->dieUsd});
    table.addRow("package", {cost.cost->packageUsd});
    table.addRow("assembly+test", {cost.cost->assemblyUsd});
    table.addRow("NRE, amortized", {cost.cost->nreUsd});
    table.addRow("total", {cost.cost->totalUsd()});
    table.print(std::cout);
}

/**
 * Run a request batch on the engine. Default: one status line
 * per request (request order) plus a summary. With --stream:
 * stdout carries exactly one NDJSON line per request, in
 * completion order, and the human-readable summary moves to
 * stderr. Either way --json writes the BatchReport document.
 * Returns 1 when any request failed (the batch itself always
 * completes).
 */
int
runBatch(const CliOptions &opts, ScenarioRegistry registry)
{
    const BatchFile batch = loadBatchFile(opts.batchPath);
    if (batch.scenarioCatalog)
        registry.loadFile(*batch.scenarioCatalog);

    EngineOptions engine_options;
    engine_options.threads = opts.engineThreads.value_or(
        Parallelism::hardware().threads);
    engine_options.registry = std::move(registry);
    auto engine =
        std::make_unique<AnalysisEngine>(std::move(engine_options));

    if (!opts.stream)
        std::cout << "batch: " << batch.requests.size()
                  << " requests on " << engine->threads()
                  << " engine thread(s)\n";

    // Each outcome is encoded on the engine worker that produced
    // it: its --json report text, and with --stream its NDJSON
    // line, printed and flushed in completion order as the
    // request finishes, so long batches report progress
    // incrementally.
    std::function<void(const std::string &)> on_event;
    if (opts.stream)
        on_event = [](const std::string &line) {
            std::cout << line << std::endl;
        };
    const EncodedBatch run = runEncodedBatch(
        *engine, batch.requests, opts.jsonPath.has_value(), on_event);
    const BatchReport &report = run.report;
    const std::size_t contexts = engine->contextCount();

    // The outcomes own everything the reports print, so the
    // engine retires -- its pool joins, its catalog is freed (the
    // batch freed its contexts as it went) -- on another thread
    // while this one writes them. The future is joined before
    // returning, and while unwinding (an async future's
    // destructor waits), so nothing outlives the run.
    std::future<void> retired = std::async(
        std::launch::async,
        [engine = std::move(engine)]() mutable { engine.reset(); });

    if (!opts.stream) {
        // Built whole and written at once: one write, not a
        // dozen stream insertions per request.
        std::string status;
        for (std::size_t i = 0; i < report.outcomes.size();
             ++i) {
            const RequestOutcome &outcome = report.outcomes[i];
            status += outcome.ok() ? "  [ok] #" : "  [FAILED] #";
            status += std::to_string(i);
            status += ' ';
            status += toString(outcome.request.kind());
            status += ' ';
            status += outcome.request.scenario.label();
            status += " -- ";
            status += outcome.ok() ? outcome.result->detail
                                   : outcome.error;
            status += '\n';
        }
        std::cout << status;
    }
    (opts.stream ? std::cerr : std::cout)
        << report.succeeded() << "/" << report.outcomes.size()
        << " requests ok, " << contexts
        << " distinct evaluation context(s)\n";

    if (opts.jsonPath) {
        writeBatchReportFile(run, *opts.jsonPath);
        (opts.stream ? std::cerr : std::cout)
            << "results written to " << *opts.jsonPath << "\n";
    }

    if (opts.markdownPath) {
        std::ofstream out(*opts.markdownPath);
        requireConfig(static_cast<bool>(out),
                      "cannot write markdown report: " +
                          *opts.markdownPath);
        for (const auto &outcome : report.outcomes) {
            if (outcome.ok())
                writeResultMarkdown(out, *outcome.result);
            else
                out << "# ECO-CHIP "
                    << toString(outcome.request.kind())
                    << ": FAILED\n\n- "
                    << outcome.request.scenario.label()
                    << ": " << outcome.error << "\n";
            out << "\n";
        }
        out.flush();
        requireConfig(static_cast<bool>(out),
                      "cannot write markdown report: " +
                          *opts.markdownPath);
        std::cout << "markdown report written to "
                  << *opts.markdownPath << "\n";
    }

    retired.get();
    return report.allOk() ? 0 : 1;
}

/**
 * Run a design-space search spec: expand the generator lazily,
 * drive the strategy through the engine, and print the best
 * point and the Pareto frontier. --json writes the SearchResult
 * document, --report the underlying BatchReport (for exhaustive
 * search, byte-identical to --batch over the --expand file), and
 * --expand the hand-expanded request list as a --batch file.
 * Returns 1 when any evaluated request failed.
 */
int
runSearch(const CliOptions &opts, ScenarioRegistry registry)
{
    const SearchSpec spec =
        loadSearchSpecFile(opts.searchPath);

    if (!opts.searchExpandPath.empty()) {
        // The hand-expanded --batch file: a catalog reference
        // (absolute, so the file runs from any directory) plus
        // every point of the space in odometer order.
        ScenarioRegistry expanded = registry;
        if (spec.catalog)
            expanded.loadFile(*spec.catalog);
        const ScenarioSpace space(
            expanded.generator(spec.generator));
        BatchFile batch;
        if (spec.catalog)
            batch.scenarioCatalog =
                std::filesystem::absolute(*spec.catalog).string();
        batch.requests = SearchDriver::expand(spec, space);
        writeBatchFile(batch, opts.searchExpandPath);
        std::cout << "expanded request list written to "
                  << opts.searchExpandPath << "\n";
    }

    EngineOptions engine_options;
    engine_options.threads = opts.engineThreads.value_or(
        Parallelism::hardware().threads);
    engine_options.registry = std::move(registry);
    SearchDriver driver(std::move(engine_options));
    const SearchResult result = driver.run(spec);

    const auto tracked = trackedMetrics(result.spec);
    std::size_t feasible = 0;
    for (const auto &point : result.evaluated)
        if (point.feasible)
            ++feasible;

    std::cout << "search: generator \"" << spec.generator
              << "\" (" << result.spaceSize << " points), "
              << toString(spec.strategy.kind) << " strategy, "
              << "seed " << spec.strategy.seed << "\n"
              << "  evaluated " << result.evaluated.size()
              << " point(s) (" << result.requests.size()
              << " requests), " << feasible << " feasible\n";

    auto print_point = [&](const EvaluatedPoint &point) {
        std::cout << point.name << "\n      ";
        for (std::size_t i = 0; i < tracked.size(); ++i) {
            if (i)
                std::cout << "  ";
            std::cout << toString(tracked[i]) << "="
                      << point.metrics[i];
        }
        std::cout << "\n";
    };

    if (result.best) {
        std::cout << "  best (scalarized): ";
        print_point(result.evaluated[*result.best]);
    } else {
        std::cout << "  best (scalarized): none feasible\n";
    }

    std::cout << "  Pareto frontier: " << result.frontier.size()
              << " point(s)\n";
    for (const std::size_t slot : result.frontier) {
        std::cout << "    ";
        print_point(result.evaluated[slot]);
    }

    if (opts.jsonPath) {
        json::StreamWriter writer(true);
        appendSearchResult(writer, result);
        json::writeFile(writer.str(), *opts.jsonPath);
        std::cout << "search result written to "
                  << *opts.jsonPath << "\n";
    }
    if (!opts.searchReportPath.empty()) {
        writeBatchReportFile(result.report,
                             opts.searchReportPath);
        std::cout << "batch report written to "
                  << opts.searchReportPath << "\n";
    }
    return result.report.allOk() ? 0 : 1;
}

/**
 * Run the analysis server until a signal or a `shutdown` verb
 * drains it. The server owns scenario resolution (builtin
 * registry + optional --scenarios catalog), the engine pool, and
 * the optional on-disk result cache.
 */
int
runServe(const CliOptions &opts)
{
    ServerOptions options;
    options.socketPath = opts.socketPath;
    options.engineThreads = opts.engineThreads.value_or(
        Parallelism::hardware().threads);
    options.scenariosPath = opts.scenariosPath;
    options.cacheDir = opts.cacheDir;
    if (opts.cacheEntries)
        options.cacheMaxEntries =
            static_cast<std::size_t>(*opts.cacheEntries);
    options.installSignalHandlers = true;
    return runAnalysisServer(std::move(options));
}

/**
 * Client mode: submit a batch file to a running server (NDJSON
 * events echo to stdout as they arrive, completion order), or
 * send the --stats / --shutdown control verb. With --json the
 * events are reassembled into the same BatchReport document
 * `--batch --json` writes -- byte-identical, so the two paths
 * can be compared with `cmp`. Returns 1 when any served request
 * failed.
 */
int
runConnect(const CliOptions &opts)
{
    // Absorb the startup race of `--serve ... &` followed
    // immediately by --connect: poll briefly until the daemon
    // answers.
    requireConfig(
        ServerClient::waitForServer(opts.connectPath, 10.0),
        "no analysis server answered on " + opts.connectPath);
    ServerClient client(opts.connectPath);

    if (opts.connectStats) {
        std::cout << client.roundTrip(
                         "{\"control\": \"stats\"}")
                  << "\n";
        return 0;
    }
    if (opts.connectShutdown) {
        std::cout << client.roundTrip(
                         "{\"control\": \"shutdown\"}")
                  << "\n";
        return 0;
    }

    const BatchFile batch = loadBatchFile(opts.batchPath);
    requireConfig(!batch.scenarioCatalog,
                  "this batch file names a scenario catalog, "
                  "but catalogs are server-side state; start "
                  "the server with --scenarios instead");

    json::StreamWriter writer;
    for (const auto &request : batch.requests) {
        appendRequest(writer, request);
        client.sendLine(writer.take());
    }

    // One event line per request, completion order; echo each as
    // it arrives and merge it by index, exactly as the
    // coordinator merges worker events.
    IncrementalMerger merger(batch.requests.size());
    for (std::size_t i = 0; i < batch.requests.size(); ++i) {
        const std::string line = client.readLine();
        std::cout << line << std::endl;
        JournalEntryText entry =
            splitEventLine(line, opts.connectPath);
        requireModel(entry.index < batch.requests.size(),
                     "server answered an out-of-range request "
                     "index");
        requireModel(merger.add(entry.index,
                                std::move(entry.outcome)),
                     "server answered a request index twice");
    }
    const std::size_t succeeded =
        merger.doneCount() - merger.failedCount();

    std::cerr << succeeded << "/" << batch.requests.size()
              << " requests ok (served over "
              << opts.connectPath << ")\n";

    if (opts.jsonPath) {
        // The BatchReport document `--batch --json` writes.
        json::writeFile(merger.reportText(true), *opts.jsonPath);
        std::cerr << "results written to " << *opts.jsonPath
                  << "\n";
    }
    return merger.failedCount() == 0 ? 0 : 1;
}

/**
 * Path of this binary, for re-exec'ing it as shard workers.
 * Prefers /proc/self/exe (immune to PATH and cwd changes) and
 * falls back to argv[0].
 */
std::string
selfExecutable(const char *argv0)
{
    std::error_code ec;
    const auto self =
        std::filesystem::read_symlink("/proc/self/exe", ec);
    return ec ? std::string(argv0) : self.string();
}

/**
 * Per-request status lines for a merged BatchReport -- the same
 * shape --batch prints -- from one on-demand scan of its compact
 * text, no DOM. The binding and kind come straight from the
 * canonical request members (`appendRequest` spells `analysis`
 * as `toString(kind)`).
 */
void
printMergedOutcomes(std::string_view report_text)
{
    json::ondemand::Scanner scanner(report_text);
    std::string key;
    scanner.beginObject();
    while (scanner.nextMember(key)) {
        if (key != "outcomes") {
            scanner.rawValue();
            continue;
        }
        scanner.beginArray();
        for (std::size_t i = 0; scanner.nextElement(); ++i) {
            bool ok = false;
            std::string binding, kind, detail, error;
            scanner.beginObject();
            while (scanner.nextMember(key)) {
                if (key == "ok") {
                    ok = scanner.boolean();
                } else if (key == "error") {
                    error = scanner.string();
                } else if (key == "request") {
                    scanner.beginObject();
                    while (scanner.nextMember(key)) {
                        if (key == "scenario")
                            binding = ScenarioRef::scenario(
                                          scanner.string())
                                          .label();
                        else if (key == "design_dir")
                            binding = ScenarioRef::designDirectory(
                                          scanner.string())
                                          .label();
                        else if (key == "analysis")
                            kind = scanner.string();
                        else
                            scanner.rawValue();
                    }
                } else if (key == "result") {
                    scanner.beginObject();
                    while (scanner.nextMember(key)) {
                        if (key == "detail")
                            detail = scanner.string();
                        else
                            scanner.rawValue();
                    }
                } else {
                    scanner.rawValue();
                }
            }
            std::cout << "  [" << (ok ? "ok" : "FAILED") << "] #"
                      << i << " " << kind << " " << binding
                      << " -- " << (ok ? detail : error) << "\n";
        }
    }
    scanner.expectEnd();
}

/** The coordinator options --shard and --coordinate share. */
CoordinatorOptions
coordinatorOptions(const CliOptions &opts, const char *argv0,
                   const std::string &batch_path)
{
    CoordinatorOptions run;
    run.batchPath = batch_path;
    // Unset: automatic (the machine divided between the workers
    // that run at once).
    run.engineThreadsPerWorker = opts.engineThreads.value_or(0);
    run.shardDir = opts.shardDir;
    run.workerExe = selfExecutable(argv0);
    run.scenariosPath = opts.scenariosPath;
    return run;
}

/**
 * Print a coordinated run's status lines and summary, and write
 * the merged report to --json when asked. @p coordinate adds the
 * --coordinate extras: the re-dispatch count and the journal
 * path. Returns 1 when any request failed.
 */
int
reportCoordinatedRun(const CliOptions &opts,
                     const CoordinatedRunResult &result,
                     bool coordinate)
{
    const std::size_t total = result.succeeded + result.failed;
    if (result.resumedOutcomes > 0)
        std::cout << "resumed " << result.resumedOutcomes
                  << " journaled outcome(s); they were not "
                  << "re-run\n";
    printMergedOutcomes(result.mergedReportText);
    std::cout << result.succeeded << "/" << total
              << " requests ok";
    if (coordinate)
        std::cout << ", " << result.redispatches
                  << " re-dispatch(es)";
    std::cout << "\n";
    if (result.aborted)
        std::cout << "aborted early after "
                  << *opts.abortAfterFailures
                  << " failed request(s); re-run with --resume "
                  << "to finish the remaining requests\n";
    if (!opts.shardDir.empty()) {
        std::cout << "shard scratch files kept in "
                  << opts.shardDir;
        if (coordinate)
            std::cout << " (outcome journal: "
                      << result.journalPath << ")";
        std::cout << "\n";
    }

    if (opts.jsonPath) {
        // The pretty layout, transcoded straight from the
        // compact merge text (one scan, no DOM).
        json::writeFile(
            json::ondemand::reserialize(result.mergedReportText,
                                        true),
            *opts.jsonPath);
        std::cout << "merged report written to "
                  << *opts.jsonPath << "\n";
    }
    return result.allOk() ? 0 : 1;
}

/**
 * Split a batch across --shards local worker processes: a
 * coordinated run over one local host with that many slots, no
 * retries, and no deadline. Prints the same per-request status
 * lines as --batch. Returns 1 when any request failed.
 */
int
runShard(const CliOptions &opts, const char *argv0)
{
    CoordinatorOptions run =
        coordinatorOptions(opts, argv0, opts.shardPath);
    run.hosts.hosts = {
        HostSpec{"localhost", opts.shards.value_or(2), ""}};
    run.retries = 0;

    const CoordinatedRunResult result =
        runDynamicCoordinatedBatch(run);
    std::cout << "shard: " << result.succeeded + result.failed
              << " requests in " << result.chunksPlanned
              << " chunk(s) across " << run.hosts.totalSlots()
              << " worker slot(s), " << result.threadsPerWorker
              << " engine thread(s) each\n";
    return reportCoordinatedRun(opts, result, false);
}

/**
 * Coordinate a batch across the hosts of a manifest: hosts pull
 * binding-cohesive work chunks from the shared queue, stream
 * outcome events back, and the coordinator merges incrementally,
 * retrying failures and cancelled stragglers on other hosts.
 * Prints the same per-request status lines as --batch. Returns 1
 * when any request failed.
 */
int
runCoordinate(const CliOptions &opts, const char *argv0)
{
    CoordinatorOptions run =
        coordinatorOptions(opts, argv0, opts.coordinatePath);
    run.hosts = loadHostManifest(opts.hostsPath);
    run.retries = opts.retries.value_or(2);
    run.shardTimeoutSeconds = opts.shardTimeout.value_or(0.0);
    run.chunkTargetRequests = opts.chunkSize.value_or(0);
    run.resume = opts.resume;
    run.abortAfterFailedRequests =
        opts.abortAfterFailures
            ? static_cast<std::size_t>(*opts.abortAfterFailures)
            : 0;
    if (opts.progress)
        run.onProgress = [](const CoordinatorProgress &p) {
            std::cerr << "progress: " << p.requestsDone << "/"
                      << p.requestsTotal << " requests ("
                      << p.requestsFailed << " failed), "
                      << p.chunksDone << "/" << p.chunksTotal
                      << " chunks done, " << p.chunksInFlight
                      << " in flight";
            for (const auto &host : p.hosts)
                std::cerr << " | " << host.name << ": "
                          << host.inFlightChunks << " running, "
                          << host.doneChunks << " chunks / "
                          << host.doneRequests << " requests "
                          << "done";
            std::cerr << " | "
                      << static_cast<long>(
                             p.requestsPerSecond * 10.0) /
                             10.0
                      << " req/s\n";
        };

    const CoordinatedRunResult result =
        runDynamicCoordinatedBatch(run);
    std::cout << "coordinate: " << result.succeeded + result.failed
              << " requests across " << run.hosts.hosts.size()
              << " host(s) / " << run.hosts.totalSlots()
              << " slot(s), " << result.chunksPlanned
              << " chunk(s), " << result.threadsPerWorker
              << " engine thread(s) each\n";
    return reportCoordinatedRun(opts, result, true);
}

int
run(const CliOptions &opts, const char *argv0)
{
    // Server modes manage their own registries, like the shard
    // modes below.
    if (opts.serve)
        return runServe(opts);

    if (!opts.connectPath.empty())
        return runConnect(opts);

    // Shard modes manage their own registries (the worker loads
    // builtin + catalogs itself, once per process).
    if (!opts.shardWorkerPath.empty())
        // Always stream: the event file beside the report is
        // what a dynamic coordinator tails, and harmless
        // otherwise.
        return runShardWorker(
            opts.shardWorkerPath, *opts.jsonPath,
            opts.engineThreads.value_or(
                Parallelism::hardware().threads),
            opts.scenariosPath, eventsPathFor(*opts.jsonPath));

    if (!opts.shardPath.empty())
        return runShard(opts, argv0);

    if (!opts.coordinatePath.empty())
        return runCoordinate(opts, argv0);

    ScenarioRegistry registry = ScenarioRegistry::builtin();
    if (!opts.scenariosPath.empty())
        registry.loadFile(opts.scenariosPath);

    if (opts.listScenarios) {
        printScenarios(std::cout, registry);
        return 0;
    }

    if (!opts.batchPath.empty())
        return runBatch(opts, std::move(registry));

    if (!opts.searchPath.empty())
        return runSearch(opts, std::move(registry));

    ScenarioBuilder builder;
    builder.registry(std::move(registry));
    if (!opts.designDir.empty())
        builder.designDirectory(opts.designDir);
    else
        builder.scenario(opts.scenario);
    const AnalysisSession session = builder.build();

    if (!opts.nodeList.empty()) {
        // Policy guard: a list longer than the chiplet count is
        // nearly always a per-chiplet assignment pasted from a
        // larger design, so fail fast instead of launching a
        // misdirected |list|^n sweep.
        requireConfig(
            opts.nodeList.size() <= session.system().chiplets.size(),
            "--node_list has " +
                std::to_string(opts.nodeList.size()) +
                " nodes but the design has only " +
                std::to_string(session.system().chiplets.size()) +
                " chiplets");
    }

    std::vector<AnalysisResult> results;

    results.push_back(session.estimate());
    printReport(session.system(), *results.back().report);

    if (!opts.nodeList.empty()) {
        results.push_back(session.sweep(opts.nodeList));
        printSweep(results.back());
    }

    if (opts.monteCarloTrials > 0) {
        results.push_back(
            session.monteCarlo(opts.monteCarloTrials, 42,
                               Parallelism{opts.threads}));
        printUncertainty(results.back());
    }

    if (opts.showCost) {
        results.push_back(session.cost());
        printCost(results.back());
    }

    if (opts.jsonPath) {
        json::StreamWriter writer(true);
        writer.beginArray();
        for (const auto &result : results)
            appendResult(writer, result);
        writer.endArray();
        json::writeFile(writer.str(), *opts.jsonPath);
        std::cout << "\nresults written to " << *opts.jsonPath
                  << "\n";
    }

    if (opts.markdownPath) {
        std::ofstream out(*opts.markdownPath);
        requireConfig(static_cast<bool>(out),
                      "cannot write markdown report: " +
                          *opts.markdownPath);
        for (const auto &result : results) {
            writeResultMarkdown(out, result);
            out << "\n";
        }
        out.flush();
        requireConfig(static_cast<bool>(out),
                      "cannot write markdown report: " +
                          *opts.markdownPath);
        std::cout << "markdown report written to "
                  << *opts.markdownPath << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // The usage banner answers a malformed command line only; a
    // runtime failure (bad file, unknown scenario) prints just
    // its message, so the message is not buried.
    CliOptions opts;
    try {
        opts = parseArgs(argc, argv);
    } catch (const ecochip::Error &e) {
        std::cerr << "eco_chip: " << e.what() << "\n";
        printUsage(std::cerr);
        return 1;
    }
    try {
        return run(opts, argv[0]);
    } catch (const ecochip::Error &e) {
        std::cerr << "eco_chip: " << e.what() << "\n";
        return 1;
    }
}
