#include "engine/analysis_engine.h"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "support/error.h"

namespace ecochip {

std::size_t
BatchReport::succeeded() const
{
    std::size_t count = 0;
    for (const auto &outcome : outcomes)
        count += outcome.ok() ? 1 : 0;
    return count;
}

std::size_t
BatchReport::failed() const
{
    return outcomes.size() - succeeded();
}

namespace {

EngineOptions
optionsWithThreads(int threads)
{
    EngineOptions options;
    options.threads = threads;
    return options;
}

/** @p registry, with its generator bases parsed against @p tech. */
std::shared_ptr<const ScenarioRegistry>
boundRegistry(ScenarioRegistry registry,
              const std::shared_ptr<const TechDb> &tech)
{
    registry.bindTech(tech);
    return std::make_shared<const ScenarioRegistry>(
        std::move(registry));
}

} // namespace

AnalysisEngine::AnalysisEngine(EngineOptions options)
    : tech_(std::make_shared<const TechDb>(std::move(options.tech))),
      registry_(boundRegistry(std::move(options.registry), tech_)),
      pool_(options.threads)
{}

AnalysisEngine::AnalysisEngine(int threads)
    : AnalysisEngine(optionsWithThreads(threads))
{}

namespace {

/**
 * ConfigError prefixes its message; strip it so re-throwing a
 * stored failure as a fresh ConfigError does not double it.
 */
std::string
withoutConfigPrefix(std::string what)
{
    constexpr const char *prefix = "config error: ";
    if (what.rfind(prefix, 0) == 0)
        what.erase(0, std::string(prefix).size());
    return what;
}

} // namespace

AnalysisSession
AnalysisEngine::sessionFor(const ScenarioRef &ref)
{
    return sessionFor(ref, ref.label());
}

AnalysisSession
AnalysisEngine::sessionFor(const ScenarioRef &ref,
                           const std::string &key)
{
    std::promise<SessionBuild> promise;
    std::shared_future<SessionBuild> future;
    bool building = false;
    {
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        const auto it = sessions_.find(key);
        if (it != sessions_.end()) {
            future = it->second;
        } else {
            future = promise.get_future().share();
            sessions_.emplace(key, future);
            ++built_;
            building = true;
        }
    }

    if (building) {
        SessionBuild built;
        try {
            ScenarioBuilder builder;
            builder.tech(tech_);
            if (ref.kind == ScenarioRef::Kind::Registry)
                builder.registry(registry_).scenario(ref.value);
            else
                builder.designDirectory(ref.value);
            built.session = builder.build();
        } catch (const ConfigError &e) {
            built.error = withoutConfigPrefix(e.what());
            built.isConfigError = true;
        } catch (const std::exception &e) {
            built.error = e.what();
        } catch (...) {
            built.error = "unknown error building scenario "
                          "context";
        }
        if (!built.session) {
            // Forget the entry so a later request retries (the
            // failure may be transient, e.g. a design directory
            // that appears later); waiters already holding the
            // future still see this failure.
            std::lock_guard<std::mutex> lock(sessionsMutex_);
            sessions_.erase(key);
            --built_;
        }
        promise.set_value(std::move(built));
    }

    const SessionBuild &built = future.get();
    if (built.session)
        return *built.session;
    // Every waiter throws its own exception object; see
    // SessionBuild for why the error travels as data.
    if (built.isConfigError)
        throw ConfigError(built.error);
    throw Error(built.error);
}

void
AnalysisEngine::release(const std::string &key)
{
    std::shared_future<SessionBuild> build;
    {
        std::lock_guard<std::mutex> lock(sessionsMutex_);
        const auto it = sessions_.find(key);
        if (it == sessions_.end())
            return;
        build = std::move(it->second);
        sessions_.erase(it);
    }
    // The last reference to the context goes with `build`, here,
    // outside the lock.
}

std::future<AnalysisResult>
AnalysisEngine::submit(AnalysisRequest request)
{
    auto task = std::make_shared<
        std::packaged_task<AnalysisResult()>>(
        [this, request = std::move(request)] {
            // Binding resolution happens inside the task so a bad
            // scenario name fails *its* future, not the caller.
            const AnalysisSession session =
                sessionFor(request.scenario);
            return runSpec(session, request.spec);
        });
    std::future<AnalysisResult> future = task->get_future();
    pool_.post([task] { (*task)(); });
    return future;
}

void
AnalysisEngine::runStream(
    const std::vector<AnalysisRequest> &requests,
    const StreamCallback &on_complete,
    const WorkerCallback &on_worker)
{
    if (requests.empty())
        return;

    // Shared by every task; runStream outlives them all (it
    // blocks on `remaining`), so the callback and request
    // references stay valid for the tasks' whole lifetime.
    struct StreamState
    {
        std::mutex mutex;
        std::condition_variable drained;
        std::size_t remaining;

        /** Each distinct binding: its requests still running. */
        std::unordered_map<std::string, std::atomic<std::size_t>>
            bindings;

        /** The `bindings` entry of each request. */
        std::vector<std::pair<const std::string,
                              std::atomic<std::size_t>> *>
            bindingOf;
    };
    auto state = std::make_shared<StreamState>();
    state->remaining = requests.size();
    state->bindingOf.reserve(requests.size());
    for (const AnalysisRequest &request : requests) {
        auto &binding =
            *state->bindings.try_emplace(request.scenario.label())
                 .first;
        ++binding.second;
        state->bindingOf.push_back(&binding);
    }

    for (std::size_t i = 0; i < requests.size(); ++i) {
        pool_.post([this, state, &on_complete, &on_worker,
                    &requests, i] {
            auto &[key, running] = *state->bindingOf[i];
            RequestOutcome outcome;
            outcome.request = requests[i];
            try {
                const AnalysisSession session =
                    sessionFor(outcome.request.scenario, key);
                outcome.result =
                    runSpec(session, outcome.request.spec);
            } catch (const std::exception &e) {
                outcome.error = e.what();
            } catch (...) {
                outcome.error = "unknown error";
            }
            // The binding's last request frees its context on this
            // worker, before the delivery that may end the batch,
            // so the next binding reuses the memory and none
            // outlives runStream.
            if (--running == 0)
                release(key);
            if (on_worker)
                on_worker(i, outcome);
            // Deliver under the state lock: events are serialized
            // and the decrement happens only after the callback
            // returned, so runStream cannot unblock mid-delivery.
            std::lock_guard<std::mutex> lock(state->mutex);
            on_complete(i, std::move(outcome));
            if (--state->remaining == 0)
                state->drained.notify_all();
        });
    }

    std::unique_lock<std::mutex> lock(state->mutex);
    state->drained.wait(
        lock, [&state] { return state->remaining == 0; });
}

BatchReport
AnalysisEngine::runBatch(
    const std::vector<AnalysisRequest> &requests)
{
    BatchReport report;
    report.outcomes.resize(requests.size());
    runStream(requests,
              [&report](std::size_t index,
                        RequestOutcome &&outcome) {
                  report.outcomes[index] = std::move(outcome);
              });
    return report;
}

std::size_t
AnalysisEngine::contextCount() const
{
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    return built_;
}

} // namespace ecochip
