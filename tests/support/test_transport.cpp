#include "support/test_transport.h"

#include <filesystem>
#include <fstream>
#include <utility>

#include "engine/shard_runner.h"
#include "io/event_journal_io.h"
#include "io/request_io.h"
#include "support/error.h"

namespace ecochip {

void
TestTransport::injectFault(std::size_t shard,
                           TransportFault fault)
{
    schedule_[shard].push_back(fault);
}

void
TestTransport::injectHangs(std::size_t shard, std::size_t count)
{
    TransportFault fault;
    fault.kind = TransportFault::Kind::Hang;
    for (std::size_t i = 0; i < count; ++i)
        injectFault(shard, fault);
}

void
TestTransport::injectFailures(std::size_t shard,
                              std::size_t count)
{
    TransportFault fault;
    fault.kind = TransportFault::Kind::Fail;
    for (std::size_t i = 0; i < count; ++i)
        injectFault(shard, fault);
}

void
TestTransport::setSpeed(double seconds,
                        double per_request_seconds)
{
    delaySeconds_ = seconds;
    perRequestDelaySeconds_ = per_request_seconds;
}

void
TestTransport::start(const ShardDispatch &dispatch)
{
    history_.push_back(dispatch);
    const std::size_t nth = dispatches_[dispatch.shard]++;

    LiveDispatch live;
    live.dispatch = dispatch;

    std::optional<TransportFault> fault;
    const auto it = schedule_.find(dispatch.shard);
    if (it != schedule_.end() && nth < it->second.size())
        fault = it->second[nth];

    if (fault && fault->kind == TransportFault::Kind::Hang) {
        live.hung = true;
        live_[dispatch.shard] = std::move(live);
        return;
    }
    if (fault && fault->kind == TransportFault::Kind::Fail) {
        live.exitCode = fault->exitCode; // died, no report
        live_[dispatch.shard] = std::move(live);
        return;
    }

    // Healthy (or slow / kill-mid-stream) dispatch: the worker
    // runs in-process at the first poll past the readiness
    // point, so an uneven-speed host is modeled as completions
    // that simply take longer to surface.
    double delay = delaySeconds_;
    if (perRequestDelaySeconds_ > 0.0)
        delay += perRequestDelaySeconds_ *
                 static_cast<double>(
                     loadBatchFile(dispatch.subBatchPath)
                         .requests.size());
    if (fault && fault->kind == TransportFault::Kind::Slow)
        delay += fault->delaySeconds;
    if (fault &&
        fault->kind == TransportFault::Kind::KillMidStream)
        live.truncateEvents = fault->eventLines;
    live.readyAt =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(delay));
    live_[dispatch.shard] = std::move(live);
}

std::optional<int>
TestTransport::poll(std::size_t shard)
{
    const auto it = live_.find(shard);
    requireModel(it != live_.end(),
                 "poll() on a shard with no live dispatch");
    LiveDispatch &live = it->second;
    if (live.hung)
        return std::nullopt; // hung until cancelled
    if (live.exitCode) {
        const int code = *live.exitCode;
        live_.erase(it);
        return code;
    }
    if (std::chrono::steady_clock::now() < live.readyAt)
        return std::nullopt; // still "running"

    const ShardDispatch dispatch = live.dispatch;
    const auto truncate = live.truncateEvents;
    live_.erase(it);

    const std::string events_path =
        dispatch.eventsPath.empty()
            ? eventsPathFor(dispatch.reportPath)
            : dispatch.eventsPath;
    if (!truncate)
        return runShardWorker(
            dispatch.subBatchPath, dispatch.reportPath,
            dispatch.engineThreads, dispatch.scenariosPath,
            events_path);

    // Kill-mid-stream: run the worker against scratch paths,
    // deliver only its first N event lines, and report a
    // SIGKILL exit -- no report file, a partial stream.
    const std::string scratch_report =
        dispatch.reportPath + ".killtmp";
    const std::string scratch_events = events_path + ".killtmp";
    runShardWorker(dispatch.subBatchPath, scratch_report,
                   dispatch.engineThreads,
                   dispatch.scenariosPath, scratch_events);
    {
        std::ifstream in(scratch_events);
        std::ofstream out(events_path,
                          std::ios::out | std::ios::trunc);
        std::string line;
        for (std::size_t n = 0;
             n < *truncate && std::getline(in, line); ++n)
            out << line << '\n';
    }
    std::error_code ec;
    std::filesystem::remove(scratch_report, ec);
    std::filesystem::remove(scratch_events, ec);
    return 128 + 9; // SIGKILLed worker
}

void
TestTransport::cancel(std::size_t shard)
{
    const auto it = live_.find(shard);
    requireModel(it != live_.end(),
                 "cancel() on a shard with no live dispatch");
    live_.erase(it);
    ++cancelled_;
}

} // namespace ecochip
