#include "engine/shard_coordinator.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <deque>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "engine/analysis_engine.h"
#include "engine/shard_runner.h"
#include "engine/work_queue.h"
#include "io/event_journal_io.h"
#include "io/request_io.h"
#include "json/ondemand.h"
#include "json/stream_writer.h"
#include "support/error.h"

#if defined(__unix__) || defined(__APPLE__)
#define ECOCHIP_COORD_HAS_FORK 1
#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#else
#define ECOCHIP_COORD_HAS_FORK 0
#endif

namespace ecochip {

namespace {

#if ECOCHIP_COORD_HAS_FORK

/**
 * Fork one child: exec'ing @p argv_strings when non-empty, else
 * running @p in_child. Returns the child's pid. The child _exits
 * (never exit) so it cannot flush stdio buffers or run atexit
 * handlers inherited from the parent.
 */
long
spawnChild(const std::vector<std::string> &argv_strings,
           const std::function<int()> &in_child)
{
    const pid_t pid = fork();
    if (pid < 0)
        throw ModelError("fork() failed spawning a shard "
                         "dispatch");
    if (pid == 0) {
        // Own process group, so cancelling a straggler can kill
        // the whole tree -- a compound command template keeps
        // /bin/sh alive as the worker's parent, and killing the
        // shell alone would orphan the worker. Both sides call
        // setpgid to close the fork/exec race; failure is
        // harmless (the child stays in the parent's group and
        // the direct kill below still lands).
        setpgid(0, 0);
        if (!argv_strings.empty()) {
            std::vector<char *> argv;
            for (const auto &arg : argv_strings)
                argv.push_back(const_cast<char *>(arg.c_str()));
            argv.push_back(nullptr);
            execvp(argv[0], argv.data());
            _exit(127); // exec failed
        }
        int code = 125;
        try {
            code = in_child();
        } catch (...) {
            code = 125;
        }
        _exit(code);
    }
    setpgid(pid, pid); // see the child-side call above
    return pid;
}

/**
 * Non-blocking wait: the child's exit code once it finished
 * (signal-terminated children report 128 + signo, un-waitable
 * ones -1), nullopt while it is still running.
 */
std::optional<int>
pollChild(long pid)
{
    int status = 0;
    pid_t waited;
    do {
        waited = waitpid(static_cast<pid_t>(pid), &status,
                         WNOHANG);
    } while (waited < 0 && errno == EINTR);
    if (waited == 0)
        return std::nullopt;
    if (waited != static_cast<pid_t>(pid))
        return -1; // unaccountable child
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return std::nullopt; // stopped/continued: still running
}

/** Kill and reap a straggler child and its process group. */
void
killChild(long pid)
{
    // Group first (shell wrappers, compound commands), then the
    // direct child in case setpgid lost its race.
    kill(-static_cast<pid_t>(pid), SIGKILL);
    kill(static_cast<pid_t>(pid), SIGKILL);
    int status = 0;
    pid_t waited;
    do {
        waited = waitpid(static_cast<pid_t>(pid), &status, 0);
    } while (waited < 0 && errno == EINTR);
}

#else // !ECOCHIP_COORD_HAS_FORK

[[noreturn]] void
throwNoFork()
{
    throw ConfigError(
        "process transports require a POSIX platform "
        "(fork/exec); inject a custom ShardTransport instead");
}

#endif // ECOCHIP_COORD_HAS_FORK

/** Shared poll step for the pid-keyed transports. */
std::optional<int>
pollPidTable(std::map<std::size_t, long> &pids,
             std::size_t shard)
{
#if !ECOCHIP_COORD_HAS_FORK
    (void)pids;
    (void)shard;
    throwNoFork();
#else
    const auto it = pids.find(shard);
    requireModel(it != pids.end(),
                 "poll() on a shard with no live dispatch");
    const auto code = pollChild(it->second);
    if (code)
        pids.erase(it);
    return code;
#endif
}

/** Shared cancel step for the pid-keyed transports. */
void
cancelPidTable(std::map<std::size_t, long> &pids,
               std::size_t shard)
{
#if !ECOCHIP_COORD_HAS_FORK
    (void)pids;
    (void)shard;
    throwNoFork();
#else
    const auto it = pids.find(shard);
    requireModel(it != pids.end(),
                 "cancel() on a shard with no live dispatch");
    killChild(it->second);
    pids.erase(it);
#endif
}

} // namespace

// ---------------------------------------------- LocalProcessTransport

void
LocalProcessTransport::start(const ShardDispatch &dispatch)
{
#if !ECOCHIP_COORD_HAS_FORK
    (void)dispatch;
    throwNoFork();
#else
    std::vector<std::string> argv;
    if (!dispatch.workerExe.empty()) {
        argv = {dispatch.workerExe,
                "--shard_worker",
                dispatch.subBatchPath,
                "--json",
                dispatch.reportPath,
                "--engine_threads",
                std::to_string(dispatch.engineThreads)};
        if (!dispatch.scenariosPath.empty()) {
            argv.push_back("--scenarios");
            argv.push_back(dispatch.scenariosPath);
        }
    }
    // Fork-only mode runs the worker in the child directly; the
    // coordinator's event loop is single-threaded, so the usual
    // POSIX fork-from-one-thread precondition holds (see
    // engine/shard_runner.h).
    pids_[dispatch.shard] = spawnChild(argv, [dispatch] {
        return runShardWorker(
            dispatch.subBatchPath, dispatch.reportPath,
            dispatch.engineThreads, dispatch.scenariosPath,
            dispatch.eventsPath);
    });
#endif
}

std::optional<int>
LocalProcessTransport::poll(std::size_t shard)
{
    return pollPidTable(pids_, shard);
}

void
LocalProcessTransport::cancel(std::size_t shard)
{
    cancelPidTable(pids_, shard);
}

// ---------------------------------------------- CommandTransport

namespace {

/**
 * POSIX-shell-quote one substituted value. Values made only of
 * known-safe characters pass through untouched (keeps the
 * common expanded command readable and ssh-friendly); anything
 * else -- a shard dir with spaces, a quote -- is single-quoted
 * with embedded quotes escaped, so it can never split into
 * extra words or grow shell syntax inside `/bin/sh -c`.
 */
std::string
shellQuote(const std::string &value)
{
    static const char *safe =
        "abcdefghijklmnopqrstuvwxyz"
        "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        "0123456789" "_@%+=:,./-";
    if (!value.empty() &&
        value.find_first_not_of(safe) == std::string::npos)
        return value;
    std::string quoted = "'";
    for (const char c : value) {
        if (c == '\'')
            quoted += "'\\''";
        else
            quoted += c;
    }
    quoted += "'";
    return quoted;
}

} // namespace

CommandTransport::CommandTransport(HostSpec host)
    : host_(std::move(host))
{
    requireConfig(!host_.command.empty(),
                  "host \"" + host_.name +
                      "\" has no command template; use the "
                      "local transport instead");
    validateCommandTemplate(host_.command,
                            "host \"" + host_.name + "\"");
}

std::string
CommandTransport::commandFor(const ShardDispatch &dispatch) const
{
    if (dispatch.workerExe.empty() &&
        host_.command.find("{worker}") != std::string::npos)
        throw ConfigError(
            "host \"" + host_.name +
            "\" names {worker} in its command template but "
            "this run has no worker executable");
    const std::vector<std::pair<std::string, std::string>>
        values = {
        {"host", shellQuote(host_.name)},
        {"worker", shellQuote(dispatch.workerExe)},
        {"sub_batch", shellQuote(dispatch.subBatchPath)},
        {"report", shellQuote(dispatch.reportPath)},
        {"events",
         shellQuote(dispatch.eventsPath.empty()
                        ? eventsPathFor(dispatch.reportPath)
                        : dispatch.eventsPath)},
        {"threads", std::to_string(dispatch.engineThreads)},
        {"scenarios_args",
         dispatch.scenariosPath.empty()
             ? std::string()
             : "--scenarios " +
                   shellQuote(dispatch.scenariosPath)},
    };
    return expandCommandTemplate(host_.command, values);
}

void
CommandTransport::start(const ShardDispatch &dispatch)
{
#if !ECOCHIP_COORD_HAS_FORK
    (void)dispatch;
    throwNoFork();
#else
    const std::string command = commandFor(dispatch);
    pids_[dispatch.shard] =
        spawnChild({"/bin/sh", "-c", command}, {});
#endif
}

std::optional<int>
CommandTransport::poll(std::size_t shard)
{
    return pollPidTable(pids_, shard);
}

void
CommandTransport::cancel(std::size_t shard)
{
    cancelPidTable(pids_, shard);
}

// ---------------------------------------------- coordinator

namespace {

std::shared_ptr<ShardTransport>
defaultTransport(const HostSpec &host)
{
    if (host.isLocal())
        return std::make_shared<LocalProcessTransport>();
    return std::make_shared<CommandTransport>(host);
}

} // namespace

CoordinatedRunResult
runDynamicCoordinatedBatch(const CoordinatorOptions &options)
{
    const auto &hosts = options.hosts.hosts;
    requireConfig(!hosts.empty(),
                  "host manifest names no hosts");
    requireConfig(options.retries >= 0,
                  "--retries must be >= 0");
    requireConfig(options.shardTimeoutSeconds >= 0.0,
                  "--shard_timeout must be positive "
                  "(0 disables the deadline)");
    requireConfig(options.engineThreadsPerWorker >= 0,
                  "engine threads per worker must be >= 1 "
                  "(or 0 for automatic)");
    requireConfig(options.chunkTargetRequests >= 0,
                  "--chunk_size must be positive "
                  "(or 0 for automatic)");
    requireConfig(!options.resume || !options.shardDir.empty(),
                  "--resume replays the outcome journal of a "
                  "previous run; it requires --shard_dir");

    const BatchFile batch = loadBatchFile(options.batchPath);
    const std::size_t total = batch.requests.size();

    const bool temporary = options.shardDir.empty();
    const std::string dir =
        temporary
            ? (std::filesystem::temp_directory_path() /
               ("ecochip_coordinate_" +
                std::to_string(
#if ECOCHIP_COORD_HAS_FORK
                    static_cast<long>(getpid())
#else
                    0L
#endif
                        )))
                  .string()
            : options.shardDir;

    std::vector<std::shared_ptr<ShardTransport>> transports;
    transports.reserve(hosts.size());
    for (const auto &host : hosts)
        transports.push_back(options.transportFactory
                                 ? options.transportFactory(host)
                                 : defaultTransport(host));

    CoordinatedRunResult result;
    try {
        std::filesystem::create_directories(dir);
        const std::string journal_path =
            (std::filesystem::path(dir) /
             coordinatorJournalName())
                .string();

        IncrementalMerger merger(total);
        std::size_t resumed = 0;
        if (options.resume) {
            for (auto &entry :
                 replayEventJournalText(journal_path)) {
                requireConfig(
                    entry.index < total,
                    journal_path + ": journaled index " +
                        std::to_string(entry.index) +
                        " is out of range for this batch (" +
                        std::to_string(total) +
                        " requests); the journal belongs to a "
                        "different batch -- remove it or run "
                        "without --resume");
                // The journaled outcome is canonical compact
                // text, so its "request" span compares directly
                // against the canonical request serialization --
                // no DOM on either side.
                json::StreamWriter expected_writer;
                appendRequest(expected_writer,
                              batch.requests[entry.index]);
                const std::string expected =
                    expected_writer.take();
                const auto echoed = json::ondemand::findMember(
                    entry.outcome, "request");
                requireConfig(
                    echoed && *echoed == expected,
                    journal_path +
                        ": the journaled outcome for index " +
                        std::to_string(entry.index) +
                        " does not answer this batch's request "
                        "at that index; the journal belongs to "
                        "a different batch -- remove it or run "
                        "without --resume");
                if (merger.add(entry.index,
                               std::move(entry.outcome)))
                    ++resumed;
            }
        } else {
            // Fresh run: a stale journal from a previous run in
            // a reused shard_dir must not leak into this run's
            // checkpoint (the same hygiene as stale shard
            // reports).
            std::error_code stale_ec;
            std::filesystem::remove(journal_path, stale_ec);
        }

        EventJournalWriter journal;
        journal.open(journal_path, options.resume);

        const auto remaining = merger.missingIndices();
        ChunkPlan plan;
        if (!remaining.empty()) {
            const int slots =
                std::max(1, options.hosts.totalSlots());
            // Auto target: ~3 chunks per slot, so fast hosts
            // keep pulling while a straggler grinds on one.
            const int target =
                options.chunkTargetRequests > 0
                    ? options.chunkTargetRequests
                    : static_cast<int>(std::max<std::size_t>(
                          1, (remaining.size() +
                              3 * static_cast<std::size_t>(
                                      slots) -
                              1) /
                                 (3 * static_cast<std::size_t>(
                                          slots))));
            plan = planChunksOver(batch.requests, remaining,
                                  target);
        }
        const std::size_t chunk_count = plan.chunkCount();

        // Concurrency = min(slots, chunks): divide the machine
        // between the workers that can actually run at once.
        const int concurrent = std::max(
            1, std::min(options.hosts.totalSlots(),
                        static_cast<int>(chunk_count)));
        const int worker_threads =
            options.engineThreadsPerWorker > 0
                ? options.engineThreadsPerWorker
                : std::max(1, Parallelism::hardware().threads /
                                  concurrent);

        result.chunksPlanned = chunk_count;
        result.resumedOutcomes = resumed;
        result.threadsPerWorker = worker_threads;
        result.journalPath = journal_path;
        result.shardFiles = writeChunkFiles(batch, plan, dir);

        struct ChunkState
        {
            std::size_t attempts = 0;
            std::set<std::size_t> excludedHosts;
            bool inFlight = false;
            std::size_t host = 0;
            std::chrono::steady_clock::time_point started;
            std::string currentReport;

            /** Tail over the live dispatch's event file. */
            NdjsonTailReader events;

            /** This chunk's outcomes merged so far (across all
             *  of its attempts). */
            std::size_t deliveredRequests = 0;
        };
        std::vector<ChunkState> states(chunk_count);
        std::vector<int> free_slots;
        for (const auto &host : hosts)
            free_slots.push_back(host.slots);
        std::deque<std::size_t> ready;
        for (std::size_t c = 0; c < chunk_count; ++c)
            ready.push_back(c);
        std::size_t completed = 0;
        std::size_t abandoned = 0;
        bool aborted = false;

        std::vector<CoordinatorProgress::Host> host_progress;
        for (const auto &host : hosts) {
            CoordinatorProgress::Host row;
            row.name = host.name;
            host_progress.push_back(std::move(row));
        }

        const auto run_start = std::chrono::steady_clock::now();
        auto last_emit = run_start - std::chrono::hours(1);
        std::size_t fresh_delivered = 0;

        const auto emit_progress = [&](bool force) {
            if (!options.onProgress)
                return;
            const auto now = std::chrono::steady_clock::now();
            if (!force &&
                std::chrono::duration<double>(now - last_emit)
                        .count() < 0.05)
                return;
            last_emit = now;
            CoordinatorProgress snapshot;
            snapshot.hosts = host_progress;
            snapshot.chunksTotal = chunk_count;
            snapshot.chunksDone = completed;
            for (const auto &st : states)
                if (st.inFlight)
                    ++snapshot.chunksInFlight;
            snapshot.requestsTotal = total;
            snapshot.requestsDone = merger.doneCount();
            snapshot.requestsFailed = merger.failedCount();
            snapshot.resumedOutcomes = resumed;
            snapshot.elapsedSeconds =
                std::chrono::duration<double>(now - run_start)
                    .count();
            snapshot.requestsPerSecond =
                snapshot.elapsedSeconds > 0.0
                    ? static_cast<double>(fresh_delivered) /
                          snapshot.elapsedSeconds
                    : 0.0;
            snapshot.aborted = aborted;
            options.onProgress(snapshot);
        };

        const auto record_attempt =
            [&](std::size_t chunk, bool ok,
                const std::string &reason) {
                const ChunkState &st = states[chunk];
                result.attempts.push_back(
                    {chunk, st.attempts - 1,
                     hosts[st.host].name, ok, reason});
            };

        // First delivery of a chunk-local outcome: journal it,
        // merge it, count it. Duplicates (a retried chunk
        // re-streaming what its failed attempt already
        // delivered) are dropped -- results are deterministic,
        // so the first copy is the only copy needed.
        const auto deliver = [&](std::size_t chunk,
                                 std::size_t local,
                                 std::string outcome_text) {
            requireConfig(
                local < plan.chunks[chunk].size(),
                "chunk #" + std::to_string(chunk) +
                    " delivered an event for index " +
                    std::to_string(local) + " but holds only " +
                    std::to_string(plan.chunks[chunk].size()) +
                    " requests");
            const std::size_t original =
                plan.chunks[chunk][local];
            if (merger.filled(original))
                return;
            journal.append(original,
                           std::string_view(outcome_text));
            merger.add(original, std::move(outcome_text));
            ChunkState &st = states[chunk];
            ++st.deliveredRequests;
            ++host_progress[st.host].doneRequests;
            ++fresh_delivered;
        };

        /** Consume the new complete event lines of a chunk's
         *  live dispatch; true when anything arrived. */
        const auto drain_events = [&](std::size_t chunk) {
            bool any = false;
            ChunkState &st = states[chunk];
            for (const auto &line : st.events.poll()) {
                try {
                    json::ondemand::validate(line);
                } catch (const std::exception &) {
                    throw ConfigError(
                        st.events.path() +
                        ": malformed worker event line");
                }
                const JournalEntryText entry = splitEventLine(
                    line, st.events.path());
                deliver(chunk, entry.index, entry.outcome);
                any = true;
            }
            return any;
        };

        // Threshold met: stop feeding the queue. Undispatched
        // chunks are cancelled outright; in-flight ones drain.
        const auto maybe_abort = [&]() {
            if (aborted ||
                options.abortAfterFailedRequests == 0 ||
                merger.failedCount() <
                    options.abortAfterFailedRequests)
                return;
            aborted = true;
            abandoned += ready.size();
            ready.clear();
        };

        const auto handle_failure = [&](std::size_t chunk,
                                        const std::string
                                            &reason) {
            ChunkState &st = states[chunk];
            st.inFlight = false;
            ++free_slots[st.host];
            record_attempt(chunk, false, reason);
            if (aborted) {
                // The run is already winding down; spending
                // retries on a doomed merge helps nobody.
                ++abandoned;
                return;
            }
            if (static_cast<int>(st.attempts) >
                options.retries) {
                // The result (and its attempt history) never
                // escapes on the error path, so the operator's
                // per-attempt trail must ride in the message.
                std::string history;
                for (const auto &attempt : result.attempts)
                    if (attempt.shard == chunk)
                        history += "\n  attempt #" +
                                   std::to_string(
                                       attempt.attempt) +
                                   " on host '" + attempt.host +
                                   "': " + attempt.reason;
                throw Error(
                    "chunk #" + std::to_string(chunk) + " (" +
                    result.shardFiles[chunk] +
                    ") has no retries left after " +
                    std::to_string(st.attempts) +
                    " attempt(s); dispatch history:" + history);
            }
            st.excludedHosts.insert(st.host);
            ++result.redispatches;
            ready.push_back(chunk);
        };

        // On any mid-run error (retries exhausted, transport
        // failure), kill the other in-flight dispatches before
        // unwinding -- orphaned workers must not race the
        // scratch-directory cleanup below.
        const auto cancel_in_flight = [&]() {
            for (std::size_t chunk = 0; chunk < states.size();
                 ++chunk)
                if (states[chunk].inFlight)
                    try {
                        transports[states[chunk].host]->cancel(
                            chunk);
                    } catch (...) {
                        // Best effort; keep the original error.
                    }
        };

        try {
            // Idle backoff: start fine-grained so short chunks
            // complete promptly, decay toward a coarse tick so
            // hour-long dispatches do not busy-poll the
            // coordinating node. Any progress resets it.
            std::chrono::milliseconds idle_sleep{1};
            constexpr std::chrono::milliseconds max_idle_sleep{
                50};
            maybe_abort(); // resumed failures may already trip it
            while (completed + abandoned < chunk_count) {
                // Pull: deal every ready chunk a free slot on
                // the first (manifest order) host it has not
                // failed on; once a chunk has failed everywhere,
                // any host will do -- a one-host manifest must
                // still be able to retry.
                for (std::size_t n = ready.size(); n > 0; --n) {
                    const std::size_t chunk = ready.front();
                    ready.pop_front();
                    ChunkState &st = states[chunk];
                    bool any_unexcluded = false;
                    for (std::size_t h = 0; h < hosts.size();
                         ++h)
                        if (st.excludedHosts.count(h) == 0)
                            any_unexcluded = true;
                    std::optional<std::size_t> chosen;
                    for (std::size_t h = 0; h < hosts.size();
                         ++h) {
                        if (free_slots[h] <= 0)
                            continue;
                        if (any_unexcluded &&
                            st.excludedHosts.count(h) != 0)
                            continue;
                        chosen = h;
                        break;
                    }
                    if (!chosen) {
                        ready.push_back(chunk); // wait for a slot
                        continue;
                    }

                    ShardDispatch dispatch;
                    dispatch.shard = chunk;
                    dispatch.attempt = st.attempts;
                    dispatch.host = hosts[*chosen].name;
                    dispatch.subBatchPath =
                        result.shardFiles[chunk];
                    // Retries write to a fresh per-attempt path:
                    // a cancelled straggler whose worker outlives
                    // the kill (an orphan behind ssh or a shell
                    // wrapper) may still scribble on *its* report
                    // and event files, and must never race the
                    // retry's output.
                    dispatch.reportPath =
                        result.shardFiles[chunk] + ".report";
                    if (st.attempts > 0)
                        dispatch.reportPath +=
                            ".retry" +
                            std::to_string(st.attempts);
                    dispatch.eventsPath =
                        eventsPathFor(dispatch.reportPath);
                    dispatch.engineThreads = worker_threads;
                    dispatch.scenariosPath =
                        options.scenariosPath;
                    dispatch.workerExe = options.workerExe;

                    // Stale outputs (previous run, reused
                    // shard_dir) must never merge as this
                    // dispatch's.
                    std::error_code ec;
                    std::filesystem::remove(dispatch.reportPath,
                                            ec);
                    std::filesystem::remove(dispatch.eventsPath,
                                            ec);

                    ++st.attempts;
                    st.host = *chosen;
                    st.currentReport = dispatch.reportPath;
                    st.events.reset(dispatch.eventsPath);
                    st.started =
                        std::chrono::steady_clock::now();
                    st.inFlight = true;
                    --free_slots[*chosen];
                    ++host_progress[*chosen].inFlightChunks;
                    transports[*chosen]->start(dispatch);
                    emit_progress(false);
                }

                // Poll: tail event streams, collect completions,
                // cancel stragglers.
                bool progressed = false;
                for (std::size_t chunk = 0;
                     chunk < states.size(); ++chunk) {
                    ChunkState &st = states[chunk];
                    if (!st.inFlight)
                        continue;
                    if (drain_events(chunk))
                        progressed = true;
                    const auto code =
                        transports[st.host]->poll(chunk);
                    if (code) {
                        progressed = true;
                        drain_events(chunk); // final lines
                        const bool exit_ok =
                            *code == 0 || *code == 1;
                        const std::size_t chunk_size =
                            plan.chunks[chunk].size();
                        if (exit_ok &&
                            st.deliveredRequests < chunk_size &&
                            std::filesystem::exists(
                                st.currentReport)) {
                            // A worker that streams no events (a
                            // custom command template) still
                            // merges -- from its report file,
                            // scanned without a DOM.
                            try {
                                std::ifstream in(
                                    st.currentReport,
                                    std::ios::binary);
                                std::ostringstream buf;
                                buf << in.rdbuf();
                                const std::string text =
                                    buf.str();
                                json::ondemand::Scanner scanner(
                                    text);
                                scanner.beginObject();
                                std::string key;
                                std::vector<std::string>
                                    outcomes;
                                bool has_outcomes = false;
                                while (scanner.nextMember(key)) {
                                    if (key != "outcomes") {
                                        scanner.rawValue();
                                        continue;
                                    }
                                    has_outcomes = true;
                                    scanner.beginArray();
                                    json::StreamWriter writer;
                                    while (
                                        scanner.nextElement()) {
                                        json::ondemand::
                                            reserializeValue(
                                                scanner,
                                                writer);
                                        outcomes.push_back(
                                            writer.take());
                                    }
                                }
                                scanner.expectEnd();
                                if (has_outcomes &&
                                    outcomes.size() ==
                                        chunk_size)
                                    for (std::size_t j = 0;
                                         j < outcomes.size();
                                         ++j)
                                        deliver(chunk, j,
                                                std::move(
                                                    outcomes
                                                        [j]));
                            } catch (const std::exception &) {
                                // Unusable report: the
                                // incomplete-delivery failure
                                // path below handles it.
                            }
                        }
                        if (exit_ok &&
                            st.deliveredRequests ==
                                chunk_size) {
                            st.inFlight = false;
                            ++free_slots[st.host];
                            --host_progress[st.host]
                                  .inFlightChunks;
                            ++host_progress[st.host].doneChunks;
                            ++completed;
                            record_attempt(chunk, true,
                                           *code == 0
                                               ? "ok"
                                               : "requests "
                                                 "failed");
                        } else if (exit_ok) {
                            --host_progress[st.host]
                                  .inFlightChunks;
                            handle_failure(
                                chunk,
                                "exited " +
                                    std::to_string(*code) +
                                    " but delivered only " +
                                    std::to_string(
                                        st.deliveredRequests) +
                                    " of " +
                                    std::to_string(chunk_size) +
                                    " outcomes");
                        } else {
                            --host_progress[st.host]
                                  .inFlightChunks;
                            handle_failure(
                                chunk,
                                "died with exit code " +
                                    std::to_string(*code) +
                                    " before completing its "
                                    "chunk");
                        }
                        maybe_abort();
                        emit_progress(false);
                    } else if (options.shardTimeoutSeconds >
                               0.0) {
                        const double elapsed =
                            std::chrono::duration<double>(
                                std::chrono::steady_clock::
                                    now() -
                                st.started)
                                .count();
                        if (elapsed >
                            options.shardTimeoutSeconds) {
                            progressed = true;
                            // Salvage whatever the straggler
                            // already streamed before killing
                            // it -- those outcomes are done and
                            // journaled; the retry's duplicates
                            // will be dropped.
                            drain_events(chunk);
                            transports[st.host]->cancel(chunk);
                            --host_progress[st.host]
                                  .inFlightChunks;
                            handle_failure(
                                chunk,
                                "missed the " +
                                    std::to_string(
                                        options
                                            .shardTimeoutSeconds) +
                                    " s deadline (straggler "
                                    "cancelled)");
                            maybe_abort();
                            emit_progress(false);
                        }
                    }
                }

                if (progressed) {
                    idle_sleep = std::chrono::milliseconds{1};
                } else if (completed + abandoned <
                           chunk_count) {
                    std::this_thread::sleep_for(idle_sleep);
                    idle_sleep =
                        std::min(idle_sleep * 2,
                                 max_idle_sleep);
                }
            }
        } catch (...) {
            cancel_in_flight();
            throw;
        }

        // An aborted run reports the requests it never ran as
        // synthetic failures -- visible in the report, absent
        // from the journal, so --resume can still finish them.
        if (aborted)
            for (std::size_t index : merger.missingIndices()) {
                json::StreamWriter writer;
                writer.beginObject();
                writer.key("request");
                appendRequest(writer, batch.requests[index]);
                writer.key("ok");
                writer.boolean(false);
                writer.key("error");
                writer.string(
                    "aborted: the early-abort policy stopped "
                    "dispatching after " +
                    std::to_string(
                        options.abortAfterFailedRequests) +
                    " failed request(s)");
                writer.endObject();
                merger.add(index, writer.take());
            }

        result.aborted = aborted;
        result.mergedReportText = merger.reportText(false);
        result.failed = merger.failedCount();
        result.succeeded = merger.doneCount() - result.failed;
        emit_progress(true); // final snapshot
    } catch (...) {
        if (temporary) {
            std::error_code ec;
            std::filesystem::remove_all(dir, ec);
        }
        throw;
    }

    if (temporary) {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
        result.shardFiles.clear();
        result.journalPath.clear();
    }
    return result;
}

} // namespace ecochip
