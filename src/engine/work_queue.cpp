#include "engine/work_queue.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <utility>

#include "json/ondemand.h"
#include "json/stream_writer.h"
#include "support/error.h"

namespace ecochip {

std::size_t
ChunkPlan::requestCount() const
{
    std::size_t count = 0;
    for (const auto &chunk : chunks)
        count += chunk.size();
    return count;
}

ChunkPlan
planChunks(const std::vector<AnalysisRequest> &requests,
           int target_requests_per_chunk)
{
    std::vector<std::size_t> all(requests.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    return planChunksOver(requests, all,
                          target_requests_per_chunk);
}

ChunkPlan
planChunksOver(const std::vector<AnalysisRequest> &requests,
               const std::vector<std::size_t> &indices,
               int target_requests_per_chunk)
{
    requireConfig(!indices.empty(),
                  "cannot plan chunks over an empty request "
                  "list");
    requireConfig(target_requests_per_chunk >= 1,
                  "--chunk_size must be at least 1");

    // Group the given indices by binding, first-appearance order,
    // so the plan is a pure function of the batch and the index
    // list.
    std::vector<std::vector<std::size_t>> groups;
    std::map<std::string, std::size_t> group_of;
    std::set<std::size_t> seen;
    for (std::size_t index : indices) {
        requireConfig(index < requests.size(),
                      "chunk-plan index " +
                          std::to_string(index) +
                          " is out of range (batch has " +
                          std::to_string(requests.size()) +
                          " requests)");
        requireConfig(seen.insert(index).second,
                      "chunk-plan index " +
                          std::to_string(index) +
                          " appears more than once");
        const std::string key = requests[index].scenario.label();
        const auto it = group_of.find(key);
        if (it == group_of.end()) {
            group_of.emplace(key, groups.size());
            groups.push_back({index});
        } else {
            groups[it->second].push_back(index);
        }
    }

    // Pack whole groups greedily: close the open chunk once the
    // next group would overshoot the target. A group never
    // splits (binding cohesion), so an oversized group simply
    // becomes a chunk of its own.
    const auto target =
        static_cast<std::size_t>(target_requests_per_chunk);
    ChunkPlan plan;
    std::vector<std::size_t> open;
    for (const auto &group : groups) {
        if (!open.empty() &&
            open.size() + group.size() > target) {
            plan.chunks.push_back(std::move(open));
            open.clear();
        }
        open.insert(open.end(), group.begin(), group.end());
    }
    if (!open.empty())
        plan.chunks.push_back(std::move(open));

    // Ascending indices per chunk: sub-batches preserve the
    // original relative request order, keeping the merge a
    // straight scatter.
    for (auto &chunk : plan.chunks)
        std::sort(chunk.begin(), chunk.end());
    return plan;
}

std::vector<std::string>
writeChunkFiles(const BatchFile &batch, const ChunkPlan &plan,
                const std::string &directory)
{
    std::set<std::size_t> seen;
    for (const auto &chunk : plan.chunks)
        for (std::size_t index : chunk) {
            requireConfig(index < batch.requests.size(),
                          "sub-batch index " +
                              std::to_string(index) +
                              " is out of range (batch has " +
                              std::to_string(
                                  batch.requests.size()) +
                              " requests)");
            requireConfig(seen.insert(index).second,
                          "sub-batch index " +
                              std::to_string(index) +
                              " appears in more than one chunk");
        }
    std::filesystem::create_directories(directory);

    // The catalog path was resolved against the original batch
    // file, but may still be cwd-relative; the sub-batches live
    // in another directory, so pin it down to an absolute path.
    std::optional<std::string> catalog;
    if (batch.scenarioCatalog)
        catalog = std::filesystem::absolute(*batch.scenarioCatalog)
                      .lexically_normal()
                      .string();

    std::vector<std::string> paths;
    paths.reserve(plan.chunkCount());
    for (std::size_t c = 0; c < plan.chunkCount(); ++c) {
        char name[32];
        std::snprintf(name, sizeof(name), "chunk_%03zu.json", c);
        paths.push_back(
            (std::filesystem::path(directory) / name).string());
        writeBatchFile(batch.requests, plan.chunks[c], catalog,
                       paths.back());
    }
    return paths;
}

IncrementalMerger::IncrementalMerger(std::size_t total_requests)
    : slots_(total_requests)
{
}

bool
IncrementalMerger::add(std::size_t index,
                       std::string outcome_text)
{
    requireConfig(index < slots_.size(),
                  "outcome index " + std::to_string(index) +
                      " is out of range (batch has " +
                      std::to_string(slots_.size()) +
                      " requests)");
    Slot &slot = slots_[index];
    if (slot.filled)
        return false; // a retried chunk re-delivered it
    slot.filled = true;
    slot.outcome = std::move(outcome_text);
    // Same fallback as Value::booleanOr: a non-object outcome
    // simply has no "ok" member and counts as failed.
    slot.ok = !slot.outcome.empty() &&
              slot.outcome.front() == '{' &&
              json::ondemand::booleanField(slot.outcome, "ok",
                                           false);
    ++done_;
    if (!slot.ok)
        ++failed_;
    return true;
}

bool
IncrementalMerger::filled(std::size_t index) const
{
    return index < slots_.size() && slots_[index].filled;
}

std::vector<std::size_t>
IncrementalMerger::missingIndices() const
{
    std::vector<std::size_t> missing;
    for (std::size_t i = 0; i < slots_.size(); ++i)
        if (!slots_[i].filled)
            missing.push_back(i);
    return missing;
}

std::string
IncrementalMerger::reportText(bool pretty) const
{
    requireModel(complete(),
                 "reportText() on an incomplete merge (" +
                     std::to_string(done_) + " of " +
                     std::to_string(slots_.size()) +
                     " outcomes)");
    const std::size_t succeeded = slots_.size() - failed_;
    json::StreamWriter writer(pretty);
    writer.beginObject();
    writer.key("succeeded");
    writer.number(static_cast<double>(succeeded));
    writer.key("failed");
    writer.number(static_cast<double>(failed_));
    writer.key("outcomes");
    writer.beginArray();
    for (const auto &slot : slots_) {
        if (!pretty) {
            // Slots are canonical compact text: splice verbatim.
            writer.raw(slot.outcome);
        } else {
            json::ondemand::Scanner scanner(slot.outcome);
            json::ondemand::reserializeValue(scanner, writer);
            scanner.expectEnd();
        }
    }
    writer.endArray();
    writer.endObject();
    return writer.take();
}

} // namespace ecochip
