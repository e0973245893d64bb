/**
 * @file
 * The coordinator's work-queue building blocks: chunk planning,
 * sub-batch files, and the incremental (streaming) report merge.
 *
 * The scheduler wants *many more chunks than slots* so fast
 * hosts can keep pulling work while a slow host grinds on one
 * chunk. Requests are grouped by scenario binding and whole
 * groups travel together, so every request against one binding
 * lands in the same worker process and the engine's
 * `EvaluationContext` deduplication survives the cut. A chunk
 * is just a sub-batch file -- requests already serialize to
 * JSON (`io/request_io.h`), so there is no separate wire format
 * to keep in sync.
 *
 * The merge side is incremental: outcomes arrive one stream
 * event at a time (in whatever order hosts deliver them), the
 * merger scatters each to its original batch index exactly once,
 * and the final document is a pure function of the outcome *set*
 * -- merge order can never change the report bytes, which keeps
 * the coordinated run byte-identical to single-process
 * `--batch` (locked by `tests/test_engine.cpp` and the
 * `shard_equivalence` / `coordinate_equivalence` /
 * `coordinate_resume` CTests).
 *
 * Orchestration lives in `engine/shard_coordinator.h`; the
 * on-disk event formats in `io/event_journal_io.h`.
 */

#ifndef ECOCHIP_ENGINE_WORK_QUEUE_H
#define ECOCHIP_ENGINE_WORK_QUEUE_H

#include <cstddef>
#include <string>
#include <vector>

#include "io/request_io.h"
#include "session/analysis_request.h"

namespace ecochip {

/** Which original request indices each work chunk runs. */
struct ChunkPlan
{
    /**
     * Per-chunk original batch indices, ascending within each
     * chunk. Every chunk is non-empty and holds only whole
     * binding groups.
     */
    std::vector<std::vector<std::size_t>> chunks;

    /** Number of chunks planned. */
    std::size_t chunkCount() const { return chunks.size(); }

    /** Total requests across all chunks. */
    std::size_t requestCount() const;
};

/**
 * Plan binding-cohesive chunks of roughly
 * @p target_requests_per_chunk requests over all of @p requests.
 *
 * Requests are grouped by scenario binding (`ScenarioRef` label)
 * in first-appearance order, then whole groups are packed into
 * chunks greedily: a chunk closes once adding the next group
 * would push it past the target (a group larger than the target
 * becomes its own chunk -- groups are never split). Indices are
 * ascending within each chunk, so sub-batches preserve relative
 * request order.
 *
 * @throws ConfigError when @p requests is empty or the target
 *         is < 1.
 */
ChunkPlan planChunks(const std::vector<AnalysisRequest> &requests,
                     int target_requests_per_chunk);

/**
 * Same as `planChunks`, restricted to the requests at
 * @p indices -- the resume path plans chunks over only the
 * requests the journal has not already answered.
 *
 * @throws ConfigError on an empty, out-of-range, or duplicated
 *         index list.
 */
ChunkPlan
planChunksOver(const std::vector<AnalysisRequest> &requests,
               const std::vector<std::size_t> &indices,
               int target_requests_per_chunk);

/**
 * Write one sub-batch file per chunk into @p directory
 * (`chunk_000.json`, `chunk_001.json`, ...). Each file is a
 * regular batch document -- `{"requests": [...]}`, preceded by
 * the original batch's `"scenarios"` catalog path (made
 * absolute) when @p batch names one -- loadable by
 * `loadBatchFile` and thus runnable by `eco_chip
 * --shard_worker`. The chunks may cover a subset of the batch
 * (a resumed run re-plans only the unfinished requests).
 *
 * @return The sub-batch file paths, in chunk order.
 * @throws ConfigError when an index is out of range or appears
 *         in more than one chunk.
 */
std::vector<std::string>
writeChunkFiles(const BatchFile &batch, const ChunkPlan &plan,
                const std::string &directory);

/**
 * Order-insensitive accumulation of a batch's outcomes.
 *
 * Outcome documents (the `appendOutcome` shape) are added at
 * their original batch index as they stream in; the first add
 * per index wins and later duplicates -- a retried chunk
 * re-delivering outcomes its failed attempt already streamed --
 * are ignored. Outcomes are held as canonical compact text
 * spans, never as `json::Value` trees: the hot path scatters
 * scanner output straight into slots and `reportText()` splices
 * the merged document back out, which depends only on which
 * outcomes were added, never on their arrival order.
 */
class IncrementalMerger
{
  public:
    /** @param total_requests Size of the batch being merged. */
    explicit IncrementalMerger(std::size_t total_requests);

    /**
     * Record @p outcome_text (one canonical compact outcome
     * document -- `splitEventLine` and the streaming serializers
     * produce exactly that) as request @p index's result.
     * @return True when this was the first outcome for
     *         @p index, false for a duplicate (ignored).
     * @throws ConfigError when @p index is out of range.
     */
    bool add(std::size_t index, std::string outcome_text);

    /** True when @p index already has an outcome. */
    bool filled(std::size_t index) const;

    /** Outcomes recorded so far. */
    std::size_t doneCount() const { return done_; }

    /** Recorded outcomes whose `ok` member is false. */
    std::size_t failedCount() const { return failed_; }

    /** True once every request has an outcome. */
    bool complete() const { return done_ == slots_.size(); }

    /** Indices still missing an outcome, ascending. */
    std::vector<std::size_t> missingIndices() const;

    /**
     * The merged `BatchReport` document as text, compact or
     * pretty -- exactly the bytes of the single-process report
     * over the same outcomes, assembled by splicing the stored
     * spans (no DOM). All indices must be filled
     * (`requireModel`).
     */
    std::string reportText(bool pretty) const;

  private:
    struct Slot
    {
        bool filled = false;
        bool ok = false;
        std::string outcome; // canonical compact text
    };
    std::vector<Slot> slots_;
    std::size_t done_ = 0;
    std::size_t failed_ = 0;
};

} // namespace ecochip

#endif // ECOCHIP_ENGINE_WORK_QUEUE_H
