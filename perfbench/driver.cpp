/**
 * @file
 * In-process half of the end-to-end benchmark (`perfbench/run.py`).
 *
 *   perfbench_driver reference BATCH OUT
 *       Run BATCH on a one-thread `AnalysisEngine` and write the
 *       report exactly as `eco_chip --batch --json` writes it: the
 *       bytes every timed run is checked against.
 *
 *   perfbench_driver run [--ready=SOCKET] COMMAND...
 *       Run COMMAND with its output discarded and print its wall
 *       time, exit code and max RSS as one JSON line. With --ready,
 *       first print `{"ready_s"}` once SOCKET accepts a connection:
 *       the time from spawn until a daemon serves.
 *
 *   perfbench_driver load STREAM CATALOG CONNECTIONS SEED SPIN
 *       Load generator for `eco_chip --serve`. With SPIN 1 it polls
 *       its sockets without blocking, for a CPU of its own. Computes the
 *       reference outcome of every distinct stream line first, then
 *       reads commands on stdin: `connect SOCKET` opens CONNECTIONS
 *       clients and restarts the stream; `open RATE SECONDS DRAIN`
 *       sends the next stream lines at seeded exponential arrivals
 *       of mean RATE/s (open loop) and prints one JSON line with
 *       every request's timings. `stall MS` stalls the generator for MS
 *       after the next open-loop send; `stats` prints the server's
 *       stats reply; `quit` ends.
 *
 *   perfbench_driver trace INPUTS PRIMARY ECO_CHIP THREADS PAIRS OUT
 *       The traced replay. Times the public functions of each `src/`
 *       module from outside the program with spans held in memory,
 *       and writes them as Chrome trace-event JSON to OUT/trace.json
 *       once the run ends. PRIMARY (`wide` or `deep`) is the batch
 *       whose replay is also run PAIRS times with spans off, to
 *       measure the tracing overhead.
 */

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/analysis_engine.h"
#include "engine/shard_coordinator.h"
#include "engine/work_queue.h"
#include "io/batch_report_io.h"
#include "io/request_io.h"
#include "io/result_writer.h"
#include "json/json.h"
#include "json/ondemand.h"
#include "server/result_cache.h"
#include "support/sha256.h"

using namespace ecochip;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::istringstream in(readFile(path));
    for (std::string line; std::getline(in, line);)
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

/** The registry a batch's requests resolve against. */
ScenarioRegistry
registryFor(const std::string &catalog)
{
    ScenarioRegistry registry = ScenarioRegistry::builtin();
    if (!catalog.empty())
        registry.loadFile(catalog);
    return registry;
}

AnalysisEngine
makeEngine(int threads, ScenarioRegistry registry)
{
    EngineOptions options;
    options.threads = threads;
    options.registry = std::move(registry);
    return AnalysisEngine(std::move(options));
}

/** The report file text `eco_chip --batch --json` writes. */
std::string
reportFileText(const BatchReport &report)
{
    return batchReportText(report, true) + "\n";
}

// ------------------------------------------------------------ spans

/** One timed call: a Chrome trace "complete" event. */
struct Span
{
    const char *name = "";
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1;
    long request = -1;
    /** Which part of the run recorded it ("primary", ...). */
    const char *pass = "";
};

/**
 * Spans recorded in memory on one thread. When disabled, `begin`
 * and `end` do nothing, so the same replay code runs untraced.
 */
class Tracer
{
  public:
    bool enabled = false;
    const char *pass = "primary";

    int begin(const char *name, long request = -1)
    {
        if (!enabled)
            return -1;
        const int id = static_cast<int>(spans_.size());
        spans_.push_back({name, nowNs(), 0,
                          stack_.empty() ? -1 : stack_.back(),
                          request, pass});
        stack_.push_back(id);
        return id;
    }

    void end(int id)
    {
        if (id < 0)
            return;
        spans_[static_cast<std::size_t>(id)].end = nowNs();
        stack_.pop_back();
    }

    void reserve(std::size_t n) { spans_.reserve(n); }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

Tracer tracer;

/** RAII span around one call. */
class Scope
{
  public:
    explicit Scope(const char *name, long request = -1)
        : id_(tracer.begin(name, request))
    {
    }
    ~Scope() { tracer.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int id_;
};

const char *
evalSpanName(AnalysisKind kind)
{
    switch (kind) {
      case AnalysisKind::Estimate: return "core.estimate";
      case AnalysisKind::Cost: return "core.cost";
      case AnalysisKind::MonteCarlo: return "kernels.monte_carlo";
      case AnalysisKind::Sweep: return "kernels.sweep";
      case AnalysisKind::Sensitivity: return "kernels.sensitivity";
    }
    return "core.other";
}

/** Work counts of one replay, for the per-unit metrics. */
struct ReplayCounts
{
    std::size_t requests = 0;
    std::size_t contexts = 0;
    std::size_t reportBytes = 0;
    long trials = 0;
    long sweepPoints = 0;
};

/**
 * One batch the way `eco_chip --batch` runs it, call by call on
 * one thread: decode, catalog, then bind + evaluate per request,
 * then encode. Returns the report file text.
 */
std::string
replayBatch(const std::string &batch_path, ReplayCounts &counts)
{
    BatchFile batch;
    {
        Scope s("io.decode");
        batch = loadBatchFile(batch_path);
    }
    ScenarioRegistry registry = ScenarioRegistry::builtin();
    if (batch.scenarioCatalog) {
        Scope s("session.catalog");
        registry.loadFile(*batch.scenarioCatalog);
    }
    AnalysisEngine engine = makeEngine(1, std::move(registry));

    BatchReport report;
    report.outcomes.reserve(batch.requests.size());
    long id = 0;
    for (const AnalysisRequest &request : batch.requests) {
        Scope r("request", id);
        RequestOutcome outcome;
        outcome.request = request;
        try {
            std::optional<AnalysisSession> session;
            {
                Scope s("session.bind", id);
                session.emplace(engine.sessionFor(request.scenario));
            }
            Scope s(evalSpanName(request.kind()), id);
            outcome.result = runSpec(*session, request.spec);
        } catch (const std::exception &e) {
            outcome.error = e.what();
        }
        if (outcome.result) {
            counts.trials += outcome.result->trials;
            counts.sweepPoints +=
                static_cast<long>(outcome.result->points.size());
        }
        report.outcomes.push_back(std::move(outcome));
        ++id;
    }
    std::string text;
    {
        Scope s("io.encode");
        text = reportFileText(report);
    }
    counts.requests = batch.requests.size();
    counts.contexts = engine.contextCount();
    counts.reportBytes = text.size();
    return text;
}

void
require(bool ok, const std::string &what)
{
    if (!ok)
        throw std::runtime_error(what);
}

// ------------------------------------------------------------ reference

int
runReference(const std::string &batch_path, const std::string &out)
{
    const BatchFile batch = loadBatchFile(batch_path);
    AnalysisEngine engine = makeEngine(
        1, registryFor(batch.scenarioCatalog.value_or("")));
    const BatchReport report = engine.runBatch(batch.requests);
    std::ofstream file(out, std::ios::binary);
    file << reportFileText(report);
    return file ? 0 : 1;
}

// ------------------------------------------------------------ run

/** Whether the Unix socket at @p path accepts a connection. */
bool
accepts(const std::string &path)
{
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    require(fd >= 0, "socket failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    const bool ok = connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)) == 0;
    close(fd);
    return ok;
}

/**
 * Run a command to completion with its output discarded and print
 * `{"wall_s", "exit", "maxrss_kb"}`. Spawning from this small process
 * keeps the caller's own memory out of the child's max RSS, which a
 * forked child otherwise carries into exec. With @p ready_socket set,
 * first poll it every 20 µs and print `{"ready_s"}` when it accepts
 * (or the child exits first: then `ready_s` is -1).
 */
int
runCommand(char **argv, const std::string &ready_socket)
{
    const std::int64_t start = nowNs();
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        const int null = open("/dev/null", O_WRONLY);
        dup2(null, STDOUT_FILENO);
        dup2(null, STDERR_FILENO);
        execvp(argv[0], argv);
        _exit(127);
    }
    if (!ready_socket.empty()) {
        double ready = -1;
        while (true) {
            if (accepts(ready_socket)) {
                ready = (nowNs() - start) / 1e9;
                break;
            }
            siginfo_t info{};
            if (waitid(P_PID, static_cast<id_t>(pid), &info,
                       WEXITED | WNOHANG | WNOWAIT) == 0 &&
                info.si_pid == pid)
                break;
            if (nowNs() - start > 30000000000LL) {
                kill(pid, SIGKILL);
                break;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        std::cout << std::setprecision(9) << "{\"ready_s\":" << ready
                  << "}" << std::endl;
    }
    int status = 0;
    rusage usage{};
    while (wait4(pid, &status, 0, &usage) < 0)
        if (errno != EINTR)
            throw std::runtime_error("wait4 failed");
    const double wall = (nowNs() - start) / 1e9;
    const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : 128 + WTERMSIG(status);
    std::cout << std::setprecision(9) << "{\"wall_s\":" << wall
              << ",\"exit\":" << code
              << ",\"maxrss_kb\":" << usage.ru_maxrss << "}"
              << std::endl;
    return 0;
}

// ------------------------------------------------------------ load

/** One client connection of the load generator. */
struct Connection
{
    int fd = -1;
    std::string inbuf;
    std::string outbuf;
    std::size_t nextIndex = 0;
    /** Per-connection response index -> request ordinal. */
    std::unordered_map<std::size_t, std::size_t> pending;
};

/** Timings of one sent request. */
struct Sent
{
    std::int64_t due = 0;
    std::int64_t sent = 0;
    std::int64_t done = -1;
    bool first = false;
    bool ok = false;
};

class LoadGenerator
{
  public:
    LoadGenerator(const std::string &stream_path,
                  const std::string &catalog, int connections,
                  std::uint64_t seed, bool spin)
        : seed_(seed), connections_(connections), spin_(spin)
    {
        // Expected response suffix (after `{"index":N`) of every
        // distinct line, from a one-thread in-process engine.
        const std::vector<std::string> lines = readLines(stream_path);
        std::unordered_map<std::string, std::size_t> distinct;
        std::vector<AnalysisRequest> requests;
        for (const std::string &line : lines) {
            auto [it, fresh] =
                distinct.emplace(line, requests.size());
            if (fresh)
                requests.push_back(
                    requestFromJson(json::parse(line)));
            stream_.push_back({line, it->second, fresh});
        }
        AnalysisEngine engine = makeEngine(1, registryFor(catalog));
        const BatchReport report = engine.runBatch(requests);
        for (const RequestOutcome &outcome : report.outcomes) {
            const std::string event = streamEventLine(0, outcome);
            expected_.push_back(
                event.substr(std::strlen("{\"index\":0")));
        }
    }

    /**
     * (Re)connect the clients to the server at @p socket_path and
     * restart the stream from its first line, so a fresh server sees
     * the same requests.
     */
    void connectTo(const std::string &socket_path)
    {
        for (Connection &conn : conns_)
            close(conn.fd);
        conns_.clear();
        cursor_ = 0;
        for (int i = 0; i < connections_; ++i) {
            Connection conn;
            conn.fd = socket(AF_UNIX, SOCK_STREAM, 0);
            sockaddr_un addr{};
            addr.sun_family = AF_UNIX;
            std::strncpy(addr.sun_path, socket_path.c_str(),
                         sizeof(addr.sun_path) - 1);
            require(conn.fd >= 0 &&
                        connect(conn.fd,
                                reinterpret_cast<sockaddr *>(&addr),
                                sizeof(addr)) == 0,
                    "cannot connect to " + socket_path);
            conns_.push_back(std::move(conn));
        }
    }

    ~LoadGenerator()
    {
        for (Connection &conn : conns_)
            close(conn.fd);
    }

    LoadGenerator(const LoadGenerator &) = delete;
    LoadGenerator &operator=(const LoadGenerator &) = delete;

    /**
     * Open loop: send for @p seconds at seeded exponential arrivals
     * of mean @p rate/s, round-robin over the connections, then wait
     * up to @p drain_seconds for the answers.
     */
    void openLoop(double rate, double seconds, double drain_seconds)
    {
        std::mt19937_64 rng(seed_ * 1000003u + phases_++);
        std::exponential_distribution<double> gap(rate);
        std::vector<Sent> sent;
        const std::int64_t start = nowNs() + 1000000;
        const std::int64_t stop =
            start + static_cast<std::int64_t>(seconds * 1e9);
        std::int64_t due = start;
        std::size_t mismatches = 0;
        bool sending = true;
        std::int64_t deadline = 0;

        auto send_next = [&](Connection &conn, std::int64_t due_at,
                             std::int64_t now) {
            const Line &line = stream_[cursor_++ % stream_.size()];
            conn.pending[conn.nextIndex++] = sent.size();
            conn.outbuf += line.text;
            conn.outbuf += '\n';
            Sent s;
            s.due = due_at;
            s.sent = now;
            s.first = line.first;
            sent.push_back(s);
            sentExpected_.push_back(line.expected);
            flush(conn);
        };
        while (true) {
            std::int64_t now = nowNs();
            if (sending && due >= stop) {
                sending = false;
                deadline = now + static_cast<std::int64_t>(
                                     drain_seconds * 1e9);
            }
            while (sending && due <= now && due < stop) {
                send_next(conns_[sent.size() % conns_.size()], due, now);
                due += static_cast<std::int64_t>(gap(rng) * 1e9);
                if (stallMs_ > 0) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(stallMs_));
                    stallMs_ = 0;
                }
                now = nowNs();
            }
            if (!sending && (outstanding() == 0 || now >= deadline))
                break;

            std::vector<pollfd> fds;
            for (Connection &conn : conns_)
                fds.push_back(
                    {conn.fd,
                     static_cast<short>(
                         POLLIN | (conn.outbuf.empty() ? 0 : POLLOUT)),
                     0});
            const std::int64_t wake = sending ? due : deadline;
            const std::int64_t wait_ns =
                spin_ ? 0 : std::max<std::int64_t>(0, wake - nowNs());
            const timespec timeout{
                static_cast<time_t>(wait_ns / 1000000000),
                static_cast<long>(wait_ns % 1000000000)};
            if (ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 &&
                errno != EINTR)
                throw std::runtime_error("ppoll failed");
            for (std::size_t i = 0; i < fds.size(); ++i) {
                Connection &conn = conns_[i];
                if (fds[i].revents & POLLOUT)
                    flush(conn);
                if (fds[i].revents & (POLLIN | POLLHUP))
                    receive(conn, sent, mismatches);
            }
        }

        // One JSON line: per request [due time from the phase start,
        // send lateness, completion from the due time (-1 when
        // unanswered or wrong), first sighting], times in µs.
        std::ostringstream out;
        out << std::setprecision(10) << "{\"mismatches\":" << mismatches
            << ",\"requests\":[";
        for (std::size_t i = 0; i < sent.size(); ++i) {
            const Sent &s = sent[i];
            out << (i ? "," : "") << "[" << (s.due - start) / 1000.0
                << "," << (s.sent - s.due) / 1000.0 << ","
                << (s.done < 0 || !s.ok ? -1.0
                                        : (s.done - s.due) / 1000.0)
                << "," << (s.first ? 1 : 0) << "]";
        }
        out << "]}";
        std::cout << out.str() << std::endl;
        // Unanswered requests stay pending; their late answers are
        // discarded by the next phase's index map.
        for (Connection &conn : conns_)
            conn.pending.clear();
        sentExpected_.clear();
    }

    /** Stall the generator for @p ms after its next open-loop send,
     *  to test that lateness is accounted for. */
    void stallAfterNextSend(int ms) { stallMs_ = ms; }

    /** The server's stats control reply. */
    void stats()
    {
        Connection &conn = conns_.front();
        conn.outbuf += "{\"control\":\"stats\"}\n";
        while (!conn.outbuf.empty())
            flush(conn);
        while (true) {
            const auto nl = conn.inbuf.find('\n');
            if (nl != std::string::npos) {
                const std::string line = conn.inbuf.substr(0, nl);
                conn.inbuf.erase(0, nl + 1);
                if (line.find("\"control\"") != std::string::npos) {
                    std::cout << line << std::endl;
                    return;
                }
                continue;
            }
            char buf[65536];
            const ssize_t n = read(conn.fd, buf, sizeof(buf));
            require(n > 0, "server closed the stats connection");
            conn.inbuf.append(buf, static_cast<std::size_t>(n));
        }
    }

  private:
    struct Line
    {
        std::string text;
        std::size_t expected = 0;
        bool first = false;
    };

    std::size_t outstanding() const
    {
        std::size_t n = 0;
        for (const Connection &conn : conns_)
            n += conn.pending.size();
        return n;
    }

    static void flush(Connection &conn)
    {
        while (!conn.outbuf.empty()) {
            const ssize_t n = send(conn.fd, conn.outbuf.data(),
                                   conn.outbuf.size(),
                                   MSG_DONTWAIT | MSG_NOSIGNAL);
            if (n <= 0)
                return;
            conn.outbuf.erase(0, static_cast<std::size_t>(n));
        }
    }

    /** Read what @p conn has and match the responses in it. */
    void receive(Connection &conn, std::vector<Sent> &sent,
                 std::size_t &mismatches)
    {
        char buf[1 << 16];
        const ssize_t n = recv(conn.fd, buf, sizeof(buf), MSG_DONTWAIT);
        if (n <= 0)
            return;
        const std::int64_t now = nowNs();
        conn.inbuf.append(buf, static_cast<std::size_t>(n));
        std::size_t begin = 0;
        for (std::size_t nl; (nl = conn.inbuf.find('\n', begin)) !=
                             std::string::npos;
             begin = nl + 1) {
            const std::string_view line(conn.inbuf.data() + begin,
                                        nl - begin);
            constexpr std::string_view prefix = "{\"index\":";
            if (line.substr(0, prefix.size()) != prefix)
                continue;
            char *rest = nullptr;
            const std::size_t index =
                std::strtoull(line.data() + prefix.size(), &rest, 10);
            const auto it = conn.pending.find(index);
            if (it == conn.pending.end())
                continue;
            Sent &s = sent[it->second];
            s.done = now;
            s.ok = std::string_view(rest, static_cast<std::size_t>(
                                              line.data() + line.size() -
                                              rest)) ==
                   expected_[sentExpected_[it->second]];
            if (!s.ok)
                ++mismatches;
            conn.pending.erase(it);
        }
        conn.inbuf.erase(0, begin);
    }

    std::uint64_t seed_;
    int connections_ = 0;
    bool spin_ = false;
    std::vector<Line> stream_;
    std::vector<std::string> expected_;
    std::vector<std::size_t> sentExpected_;
    std::vector<Connection> conns_;
    std::size_t cursor_ = 0;
    std::uint64_t phases_ = 0;
    int stallMs_ = 0;
};

int
runLoad(char **argv)
{
    // Wake from ppoll when a request is due, not up to the default
    // 50 µs timer slack later.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    LoadGenerator load(argv[0], argv[1], std::stoi(argv[2]),
                       std::stoull(argv[3]), std::stoi(argv[4]) != 0);
    std::cout << "{\"ready\":true}" << std::endl;
    for (std::string command; std::cin >> command;) {
        if (command == "connect") {
            std::string socket_path;
            std::cin >> socket_path;
            load.connectTo(socket_path);
            std::cout << "{\"connected\":true}" << std::endl;
        } else if (command == "open") {
            double rate = 0, seconds = 0, drain = 0;
            std::cin >> rate >> seconds >> drain;
            load.openLoop(rate, seconds, drain);
        } else if (command == "stall") {
            int ms = 0;
            std::cin >> ms;
            load.stallAfterNextSend(ms);
            std::cout << "{\"stall\":" << ms << "}" << std::endl;
        } else if (command == "stats") {
            load.stats();
        } else {
            break;
        }
    }
    return 0;
}

// ------------------------------------------------------------ trace

/** JSON-escape a span name or path (they hold no control bytes). */
std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

int
runTrace(char **argv)
{
    const std::string inputs = argv[0];
    const std::string primary = argv[1];
    const std::string eco_chip = argv[2];
    const int threads = std::stoi(argv[3]);
    const int pairs = std::stoi(argv[4]);
    const std::string out_dir = argv[5];
    std::filesystem::create_directories(out_dir);
    tracer.reserve(1u << 20);

    const std::string wide = inputs + "/wide.json";
    const std::string deep = inputs + "/deep.json";
    const std::string primary_batch = primary == "deep" ? deep : wide;
    const std::string secondary_batch = primary == "deep" ? wide : deep;
    const std::string primary_ref =
        readFile(inputs + "/" + primary + ".ref.json");
    const std::string secondary_ref =
        readFile(inputs + "/" + (primary == "deep" ? "wide" : "deep") +
                 ".ref.json");
    const std::string wide_ref = readFile(inputs + "/wide.ref.json");
    std::map<std::string, double> counters;

    // Tracing overhead: the primary replay alternately with spans
    // off and on; only the last traced pass keeps its spans.
    std::vector<double> off_ms, on_ms;
    std::vector<Span> spans;
    ReplayCounts primary_counts;
    for (int i = 0; i < pairs; ++i) {
        for (bool traced : {i % 2 == 0, i % 2 != 0}) {
            tracer = Tracer();
            tracer.reserve(1u << 20);
            tracer.enabled = traced;
            ReplayCounts counts;
            const std::int64_t t0 = nowNs();
            const std::string text = replayBatch(primary_batch, counts);
            const double ms = (nowNs() - t0) / 1e6;
            require(text == primary_ref,
                    "replayed report differs from the reference");
            (traced ? on_ms : off_ms).push_back(ms);
            if (traced)
                spans = tracer.spans();
            primary_counts = counts;
        }
    }
    auto restart = [](const char *pass) {
        tracer = Tracer();
        tracer.reserve(1u << 18);
        tracer.enabled = true;
        tracer.pass = pass;
    };

    // The other batch, traced once, for the layers the primary
    // batch does not reach (core or kernels).
    restart("secondary");
    ReplayCounts secondary_counts;
    {
        Scope s(primary == "deep" ? "replay.wide" : "replay.deep");
        require(replayBatch(secondary_batch, secondary_counts) ==
                    secondary_ref,
                "secondary replay differs from the reference");
    }
    // Parent ids are local to each tracer; offset them.
    auto append_offset = [&spans]() {
        const int base = static_cast<int>(spans.size());
        for (Span s : tracer.spans()) {
            if (s.parent >= 0)
                s.parent += base;
            spans.push_back(s);
        }
    };
    append_offset();

    // Engine scheduling: the primary batch on the thread pool.
    const BatchFile primary_file = loadBatchFile(primary_batch);
    const BatchFile wide_file = loadBatchFile(wide);
    restart("engine");
    double batch_ms = 0;
    {
        AnalysisEngine engine = makeEngine(
            threads, registryFor(primary_file.scenarioCatalog.value_or("")));
        const std::int64_t t0 = nowNs();
        BatchReport report;
        {
            Scope s("engine.batch");
            report = engine.runBatch(primary_file.requests);
        }
        batch_ms = (nowNs() - t0) / 1e6;
        require(reportFileText(report) == primary_ref,
                "pooled report differs from the reference");
    }
    double wide_batch_ms = batch_ms;
    if (primary == "deep") {
        AnalysisEngine engine = makeEngine(
            threads, registryFor(wide_file.scenarioCatalog.value_or("")));
        const std::int64_t t0 = nowNs();
        const BatchReport report = engine.runBatch(wide_file.requests);
        wide_batch_ms = (nowNs() - t0) / 1e6;
        require(reportFileText(report) == wide_ref,
                "pooled wide report differs from the reference");
    }

    // Coordination of the wide batch over one local host with
    // THREADS slots, as `eco_chip --coordinate` runs it.
    const std::string shard_dir = out_dir + "/shards";
    std::filesystem::remove_all(shard_dir);
    CoordinatorOptions run;
    run.batchPath = wide;
    run.hosts.hosts.push_back(HostSpec{"localhost", threads, ""});
    run.shardDir = shard_dir;
    run.workerExe = eco_chip;
    const int slots = threads;
    const int target = static_cast<int>(std::max<std::size_t>(
        1, (wide_file.requests.size() + 3 * slots - 1) / (3 * slots)));
    {
        Scope s("engine.plan_chunks");
        planChunks(wide_file.requests, target);
    }
    CoordinatedRunResult coordinated;
    const std::int64_t c0 = nowNs();
    {
        Scope s("engine.coordinate");
        coordinated = runDynamicCoordinatedBatch(run);
    }
    const double coordinate_ms = (nowNs() - c0) / 1e6;
    require(json::ondemand::reserialize(coordinated.mergedReportText,
                                        true) +
                    "\n" ==
                wide_ref,
            "coordinated report differs from the reference");
    append_offset();

    // Server layers in-process: request decode, canonical text,
    // cache key, and the cache's lookup/store on a fresh directory,
    // in stream order as the server meets them.
    const std::string cache_dir = out_dir + "/cache";
    std::filesystem::remove_all(cache_dir);
    restart("serve");
    {
        ResultCache cache(ResultCacheOptions{cache_dir, 0});
        const std::string catalog = inputs + "/catalog.json";
        Sha256 digest;
        digest.update(readFile(catalog));
        const std::string fingerprint = digest.hexDigest();
        AnalysisEngine engine = makeEngine(1, registryFor(catalog));
        const std::vector<std::string> lines =
            readLines(inputs + "/serve.ndjson");
        const std::size_t n = std::min<std::size_t>(lines.size(), 4000);
        for (std::size_t i = 0; i < n; ++i) {
            const long id = static_cast<long>(i);
            AnalysisRequest request;
            {
                Scope s("io.request_decode", id);
                request = requestFromJson(json::parse(lines[i]));
            }
            {
                Scope s("io.canonical", id);
                canonicalRequestText(request);
            }
            std::string key;
            {
                Scope s("server.cache_key", id);
                key = resultCacheKey(request, fingerprint);
            }
            std::optional<std::string> stored;
            {
                Scope s("server.cache_lookup", id);
                stored = cache.lookupText(key);
            }
            if (stored)
                continue;
            const AnalysisResult result =
                runSpec(engine.sessionFor(request.scenario), request.spec);
            json::StreamWriter writer;
            appendResult(writer, result);
            const std::string payload = writer.take();
            Scope s("server.cache_store", id);
            cache.storeText(key, payload);
        }
        counters["cache_entries"] = static_cast<double>(cache.stats().entries);
    }
    append_offset();

    counters["threads"] = threads;
    counters["primary_requests"] = static_cast<double>(primary_counts.requests);
    counters["primary_contexts"] = static_cast<double>(primary_counts.contexts);
    counters["primary_report_bytes"] =
        static_cast<double>(primary_counts.reportBytes);
    counters["deep_trials"] = static_cast<double>(
        (primary == "deep" ? primary_counts : secondary_counts).trials);
    counters["deep_sweep_points"] = static_cast<double>(
        (primary == "deep" ? primary_counts : secondary_counts).sweepPoints);
    counters["batch_ms"] = batch_ms;
    counters["wide_batch_ms"] = wide_batch_ms;
    counters["coordinate_ms"] = coordinate_ms;
    counters["chunks_planned"] = static_cast<double>(coordinated.chunksPlanned);
    counters["redispatches"] = static_cast<double>(coordinated.redispatches);

    std::ofstream out(out_dir + "/trace.json", std::ios::binary);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << (i ? ",\n" : "\n") << "{\"name\":" << quoted(s.name)
            << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << s.start / 1000.0 << ",\"dur\":" << (s.end - s.start) / 1000.0
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
            << ",\"request\":" << s.request
            << ",\"pass\":" << quoted(s.pass) << "}}";
    }
    out << "\n],\"otherData\":{\"untraced_ms\":[";
    for (std::size_t i = 0; i < off_ms.size(); ++i)
        out << (i ? "," : "") << off_ms[i];
    out << "],\"traced_ms\":[";
    for (std::size_t i = 0; i < on_ms.size(); ++i)
        out << (i ? "," : "") << on_ms[i];
    out << "]";
    for (const auto &[name, value] : counters)
        out << "," << quoted(name) << ":" << value;
    out << "}}\n";
    return out ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const std::string mode = argc > 1 ? argv[1] : "";
        constexpr std::string_view ready = "--ready=";
        if (mode == "run" && argc > 3 &&
            std::string_view(argv[2]).substr(0, ready.size()) == ready)
            return runCommand(argv + 3, argv[2] + ready.size());
        if (mode == "run" && argc > 2)
            return runCommand(argv + 2, "");
        if (mode == "reference" && argc == 4)
            return runReference(argv[2], argv[3]);
        if (mode == "load" && argc == 7)
            return runLoad(argv + 2);
        if (mode == "trace" && argc == 8)
            return runTrace(argv + 2);
        std::cerr << "usage: see the header of perfbench/driver.cpp\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "perfbench_driver: " << e.what() << "\n";
        return 1;
    }
}
