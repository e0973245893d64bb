/**
 * @file
 * Fault-injecting `ShardTransport` for the coordinator tests and
 * benchmarks. It is test-only: it lives outside the `ecochip`
 * library, in the `ecochip_test_support` library that the test
 * binaries and `bench_perf` link.
 */

#ifndef ECOCHIP_TESTS_SUPPORT_TEST_TRANSPORT_H
#define ECOCHIP_TESTS_SUPPORT_TEST_TRANSPORT_H

#include <chrono>
#include <cstddef>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "engine/shard_coordinator.h"

namespace ecochip {

/**
 * One scheduled fault of a `TestTransport`: what the nth
 * dispatch of a chunk does instead of (or around) running the
 * worker.
 */
struct TransportFault
{
    enum class Kind
    {
        /** Never completes; polls nullopt until cancelled. */
        Hang,
        /** Reports `exitCode` without writing report/events. */
        Fail,
        /** Runs the worker, but completion is delayed by
         *  `delaySeconds` (a slow host / straggler). */
        Slow,
        /** Kill-mid-stream: the worker's first `eventLines`
         *  event lines reach the events file, no report is
         *  written, and the dispatch reports exit 137 -- a
         *  worker SIGKILLed partway through its chunk. */
        KillMidStream,
    };

    Kind kind = Kind::Fail;

    /** Exit code a `Fail` dispatch reports. */
    int exitCode = 134;

    /** Completion delay of a `Slow` dispatch, seconds. */
    double delaySeconds = 0.0;

    /** Event lines a `KillMidStream` dispatch delivers before
     *  dying. */
    std::size_t eventLines = 0;
};

/**
 * Fault-injecting transport: runs dispatches in-process through
 * `runShardWorker` (no fork). Each chunk has a fault schedule:
 * its nth dispatch consumes the nth scheduled `TransportFault`
 * (in injection order); dispatches beyond the schedule run
 * healthy. Every dispatch (including injected ones) is recorded
 * in `history()` -- the dispatch-order trace the fault-matrix
 * tests assert against.
 */
class TestTransport : public ShardTransport
{
  public:
    /** Append @p fault to @p shard's schedule. */
    void injectFault(std::size_t shard, TransportFault fault);

    /** Append @p count hangs to @p shard's schedule: each hangs
     *  until the coordinator cancels it. */
    void injectHangs(std::size_t shard, std::size_t count);

    /** Append @p count failures to @p shard's schedule: each
     *  fails (exit 134) without writing a report. */
    void injectFailures(std::size_t shard, std::size_t count);

    /**
     * Delay every healthy completion on this transport by
     * @p seconds plus @p per_request_seconds per sub-batch
     * request -- an uneven-speed host whose throughput, not just
     * latency, lags the rest of the fleet.
     */
    void setSpeed(double seconds, double per_request_seconds);

    void start(const ShardDispatch &dispatch) override;
    std::optional<int> poll(std::size_t shard) override;
    void cancel(std::size_t shard) override;
    std::string name() const override { return "test"; }

    /** Every dispatch started, in start order. */
    const std::vector<ShardDispatch> &history() const
    {
        return history_;
    }

    /** Dispatches the coordinator cancelled. */
    std::size_t cancelled() const { return cancelled_; }

  private:
    struct LiveDispatch
    {
        ShardDispatch dispatch;

        /** Hung dispatches poll nullopt until cancelled. */
        bool hung = false;

        /** Exit code decided at start (injected failures);
         *  unset = run the worker at the first ripe poll. */
        std::optional<int> exitCode;

        /** Worker runs at the first poll past this point. */
        std::chrono::steady_clock::time_point readyAt;

        /** Kill-mid-stream: deliver only this many event
         *  lines, no report. */
        std::optional<std::size_t> truncateEvents;
    };

    std::map<std::size_t, std::deque<TransportFault>> schedule_;
    std::map<std::size_t, std::size_t> dispatches_;
    std::map<std::size_t, LiveDispatch> live_;
    std::vector<ShardDispatch> history_;
    std::size_t cancelled_ = 0;
    double delaySeconds_ = 0.0;
    double perRequestDelaySeconds_ = 0.0;
};

} // namespace ecochip

#endif // ECOCHIP_TESTS_SUPPORT_TEST_TRANSPORT_H
