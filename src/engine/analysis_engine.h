/**
 * @file
 * Asynchronous batch scheduler for declarative analysis requests.
 *
 * Where `AnalysisSession` answers one question at a time,
 * `AnalysisEngine` takes *what to compute* -- `AnalysisRequest`
 * values, typically parsed from a `requests.json` batch file --
 * and owns *how it is scheduled*: a fixed thread-pool drains the
 * request queue, and identical scenario bindings are deduplicated
 * onto one shared `EvaluationContext`, so a thousand requests
 * against nine scenarios build nine contexts and share their
 * memoized evaluation caches. A batch frees each of its contexts
 * after that binding's last request; `submit` keeps them cached.
 *
 * Three execution shapes, all over the same scheduler:
 *
 *  - `submit()` hands back one `std::future<AnalysisResult>` per
 *    request;
 *  - `runStream()` delivers every `(index, RequestOutcome)` to a
 *    callback in completion order as workers finish -- the
 *    incremental-progress path behind `eco_chip --batch --stream`
 *    and its NDJSON output;
 *  - `runBatch()` waits for the whole batch and returns the
 *    outcomes in request order. It is implemented on top of
 *    `runStream`, so the aggregate and streaming paths can never
 *    diverge.
 *
 * Batches also spread across *processes* and hosts:
 * `engine/shard_coordinator.h` splits a batch file into
 * binding-cohesive sub-batches (`engine/work_queue.h`, so
 * context dedup survives the cut), runs them as worker processes
 * (`engine/shard_runner.h`), and merges their outcomes back into
 * one report that is byte-identical to the single-process run.
 *
 * Determinism is preserved end to end: every request evaluates
 * through the same `runSpec` executor the session verbs use, so a
 * `runBatch` at any thread count -- or sharded over any process
 * count -- is bit-identical to running the requests one by one
 * through `AnalysisSession` (equal seeds included).
 *
 * Wire formats (`requests.json` in, `BatchReport` JSON and NDJSON
 * stream events out) are specified in `docs/file_formats.md`; the
 * CLI surface is documented in `docs/cli.md`.
 *
 * @code
 *   AnalysisEngine engine(EngineOptions{.threads = 8});
 *   auto future = engine.submit(
 *       {ScenarioRef::scenario("ga102"), MonteCarloSpec{}});
 *   engine.runStream(requests, [](std::size_t i,
 *                                 const RequestOutcome &o) {
 *       std::cout << streamEventLine(i, o) << "\n";  // NDJSON
 *   });
 *   BatchReport report = engine.runBatch(requests);
 *   // report.outcomes[i] matches requests[i]; a failed request
 *   // carries its error and never takes down the batch.
 * @endcode
 */

#ifndef ECOCHIP_ENGINE_ANALYSIS_ENGINE_H
#define ECOCHIP_ENGINE_ANALYSIS_ENGINE_H

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/thread_pool.h"
#include "session/analysis_request.h"
#include "session/analysis_session.h"

namespace ecochip {

/**
 * Scheduling knobs of an `AnalysisEngine`. The engine takes the
 * catalog and the calibration over once, at construction, and
 * shares them, immutable, with every binding it makes.
 */
struct EngineOptions
{
    /** Worker threads draining the request queue. */
    int threads = 1;

    /**
     * Scenario catalog requests resolve registry bindings
     * against; extend with `ScenarioRegistry::loadFile` to name
     * user-defined workloads.
     */
    ScenarioRegistry registry = ScenarioRegistry::builtin();

    /** Technology calibration shared by every context. */
    TechDb tech;
};

/** Outcome of one request of a batch. */
struct RequestOutcome
{
    /** The request this outcome answers. */
    AnalysisRequest request;

    /** Result; empty when the request failed. */
    std::optional<AnalysisResult> result;

    /** Error message; empty when the request succeeded. */
    std::string error;

    /** True when the request produced a result. */
    bool ok() const { return result.has_value(); }
};

/** Per-request outcomes of one `runBatch`, in request order. */
struct BatchReport
{
    std::vector<RequestOutcome> outcomes;

    /** Count of successful requests. */
    std::size_t succeeded() const;

    /** Count of failed requests. */
    std::size_t failed() const;

    /** True when every request succeeded. */
    bool allOk() const { return failed() == 0; }
};

/**
 * Completion-order delivery of one finished request: the
 * request's index in the submitted batch plus its outcome, which
 * the callback may move from (a `const RequestOutcome &` parameter
 * binds too). Invocations are serialized (never concurrent), so
 * callbacks may write to shared state -- a stream, a vector slot
 * -- without locking. A callback must not throw and must not
 * re-enter the engine it was called from.
 */
using StreamCallback =
    std::function<void(std::size_t index,
                       RequestOutcome &&outcome)>;

/**
 * Per-outcome work done on the worker thread that produced the
 * outcome, just before its delivery and outside the delivery lock,
 * so calls for different requests run concurrently: encoding the
 * outcome, say, which would otherwise serialize on the delivery.
 * It may read the outcome and write state that belongs to its
 * @p index alone (one vector slot); the delivery of that index
 * happens after it returns, on the same thread. It must not throw.
 */
using WorkerCallback =
    std::function<void(std::size_t index,
                       const RequestOutcome &outcome)>;

/**
 * Thread-pooled analysis scheduler with scenario-context
 * deduplication. Thread-safe: `submit`/`runBatch` may be called
 * from any thread.
 */
class AnalysisEngine
{
  public:
    explicit AnalysisEngine(EngineOptions options = {});

    /** Convenience: default options at @p threads workers. */
    explicit AnalysisEngine(int threads);

    /** Worker count. */
    int threads() const { return pool_.threadCount(); }

    /**
     * The catalog registry bindings resolve against, with its
     * generator bases bound to the engine's TechDb.
     */
    const ScenarioRegistry &registry() const { return *registry_; }

    /**
     * Schedule one request on the pool.
     *
     * The future carries the result -- or the request's exception
     * (`ConfigError` and friends propagate per request, exactly
     * as the session verbs throw them).
     */
    std::future<AnalysisResult> submit(AnalysisRequest request);

    /**
     * Run a whole batch, streaming each outcome as it completes.
     *
     * Requests are scheduled across the pool; @p on_complete is
     * invoked once per request, in completion order (which is
     * scheduling-dependent -- the `index` argument maps an event
     * back to its request). Every request is delivered exactly
     * once, failures included: a failed request streams an
     * outcome carrying its error, exactly as `runBatch` records
     * it. Blocks until the whole batch has been delivered.
     *
     * Each binding's context is built at its first request, as
     * `sessionFor` builds it, and freed on the worker that
     * finishes its last request in the batch, so a batch over
     * thousands of single-use bindings holds only those in
     * flight, and none once it returns. A binding used again
     * after its release (by a later batch, or by a concurrent
     * batch or `submit`) is built again.
     *
     * @p on_worker, when set, runs first for each outcome, on its
     * worker and unserialized (see `WorkerCallback`).
     */
    void runStream(const std::vector<AnalysisRequest> &requests,
                   const StreamCallback &on_complete,
                   const WorkerCallback &on_worker = {});

    /**
     * Run a whole batch and wait for it.
     *
     * Requests are scheduled across the pool; outcome @c i
     * answers request @c i. A failed request records its error in
     * its outcome and never affects the others. Implemented over
     * `runStream`, so the aggregate report is bit-identical to
     * assembling the stream's events by index.
     */
    BatchReport
    runBatch(const std::vector<AnalysisRequest> &requests);

    /**
     * The session a binding resolves to, built on first use and
     * shared (one `EvaluationContext` per distinct binding)
     * afterwards. A build copies nothing catalog-sized: it reads
     * the engine's one registry and TechDb through shared
     * pointers, and a generator point copies only its
     * generator's base design. Distinct bindings build
     * concurrently; workers racing for the same binding wait on
     * one build. A failed
     * build throws to every waiter and is forgotten, so a later
     * request retries it. The session stays cached until a batch
     * over the same binding releases it (see `runStream`).
     */
    AnalysisSession sessionFor(const ScenarioRef &ref);

    /**
     * Evaluation contexts built (or building) over the engine's
     * life, failed builds not counted: one per distinct binding
     * of each batch and per binding `submit` or `sessionFor`
     * built. A freed context that is built again counts again.
     */
    std::size_t contextCount() const;

  private:
    /** Immutable after construction; shared by every context. */
    std::shared_ptr<const TechDb> tech_;

    /** Immutable after construction, bound to `tech_`. */
    std::shared_ptr<const ScenarioRegistry> registry_;

    /**
     * Outcome of one scenario-context build: the session, or the
     * error it failed with. Failures travel as *data*, not as a
     * shared `std::exception_ptr`: concurrent waiters rethrowing
     * one exception object race on its destruction (the last
     * catch block destroys it while another thread still reads
     * `what()`), so `sessionFor` throws every waiter its own
     * fresh exception instead.
     */
    struct SessionBuild
    {
        /** Built session; empty when the build failed. */
        std::optional<AnalysisSession> session;

        /** Failure text (sans type prefix); empty on success. */
        std::string error;

        /** Whether the failure was a ConfigError. */
        bool isConfigError = false;
    };

    /** `sessionFor(ref)` with the binding's key, `ref.label()`. */
    AnalysisSession sessionFor(const ScenarioRef &ref,
                               const std::string &key);

    /** Drop the cached context of binding @p key, if any. */
    void release(const std::string &key);

    mutable std::mutex sessionsMutex_;

    /**
     * Shared futures so the lock is only held for map access,
     * never for context construction (which may touch disk).
     */
    std::unordered_map<std::string,
                       std::shared_future<SessionBuild>>
        sessions_;

    /** Builds entered in `sessions_` and not failed. */
    std::size_t built_ = 0;

    /** Last member: destroyed (drained) before the caches. */
    ThreadPool pool_;
};

} // namespace ecochip

#endif // ECOCHIP_ENGINE_ANALYSIS_ENGINE_H
