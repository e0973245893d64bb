/**
 * @file
 * Content-addressed persistent result cache of the analysis
 * server (`server/analysis_server.h`).
 *
 * The serve-vs-rebuild economics the server exists for only pay
 * off when repeated questions stop costing evaluations: a cache
 * entry is the serialized `AnalysisResult` JSON of one request,
 * addressed by the SHA-256 of the request's canonical text
 * (`io/request_io.h`, `canonicalRequestText`) plus the serving
 * catalog's fingerprint, so a repeated query is O(lookup) and the
 * served response is byte-identical whether it came from the
 * cache or from a fresh evaluation.
 *
 * On-disk layout under the cache directory (see
 * `docs/serving.md`):
 *
 *     <dir>/objects/<aa>/<64-hex-key>.json   one result each
 *     <dir>/index.json                       LRU index, flushed
 *                                            on shutdown
 *
 * where `<aa>` is the key's first two hex characters (keeps any
 * one directory small). Every object file is written to a
 * temporary name and renamed into place, so readers never see a
 * half-written entry. A corrupt or truncated object (machine
 * crash, manual tampering) is treated as a miss, evicted, and
 * recomputed -- never a crash.
 *
 * The cache is single-owner: exactly one server process owns one
 * cache directory (the server's event loop serializes access, so
 * the class itself takes no locks).
 */

#ifndef ECOCHIP_SERVER_RESULT_CACHE_H
#define ECOCHIP_SERVER_RESULT_CACHE_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "session/analysis_request.h"

namespace ecochip {

/** Sizing and placement of a `ResultCache`. */
struct ResultCacheOptions
{
    /** Cache directory (created if needed). */
    std::string directory;

    /** Entries kept before LRU eviction; 0 = unbounded. */
    std::size_t maxEntries = 0;
};

/** Hit/miss/eviction counters of one server run. */
struct ResultCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    /** Entries currently indexed. */
    std::uint64_t entries = 0;
};

/**
 * The cache key of @p request under @p catalog_fingerprint: 64
 * lowercase hex characters, stable across processes and runs.
 *
 * The fingerprint covers everything outside the request that can
 * change its answer -- the serving registry's catalog (see
 * `AnalysisServer::catalogFingerprint`). Design-directory
 * bindings additionally fold the bytes of the directory's JSON
 * configs into the key, so editing a config on disk changes the
 * key instead of serving a stale result.
 */
std::string resultCacheKey(const AnalysisRequest &request,
                           const std::string &catalog_fingerprint);

/** Persistent, LRU-bounded result store. Not thread-safe. */
class ResultCache
{
  public:
    /**
     * Open (or create) the cache at
     * `ResultCacheOptions::directory` and load its index. A
     * missing or corrupt index is rebuilt by scanning the object
     * tree, so a crash before `flushIndex` loses recency order,
     * not entries.
     */
    explicit ResultCache(ResultCacheOptions options);

    /**
     * The stored result document for @p key as compact JSON, or
     * nullopt. The stored object is validated and canonicalized
     * by the on-demand scanner, never parsed into a DOM. Counts
     * one hit or one miss; a present-but-unreadable entry
     * (truncated file, corrupt JSON) is evicted and counts as a
     * miss, so callers always recompute instead of failing.
     */
    std::optional<std::string>
    lookupText(const std::string &key);

    /**
     * Store @p result_text under @p key, written as-is and
     * atomically, then evict least-recently-used entries down to
     * `maxEntries`. @p result_text must be one compact JSON
     * result document (the streaming serializers produce exactly
     * that). A store whose write fails is dropped: no object, no
     * index entry, no exception.
     */
    void storeText(const std::string &key,
                   std::string_view result_text);

    /** Write the LRU index to `<dir>/index.json`. */
    void flushIndex();

    /** Counters since this cache was opened. */
    const ResultCacheStats &stats() const { return stats_; }

  private:
    std::string objectPath(const std::string &key) const;
    void evictDownTo(std::size_t max_entries);
    void loadIndex();

    ResultCacheOptions options_;
    ResultCacheStats stats_;

    /** key -> last-use tick (monotonic per run). */
    std::map<std::string, std::uint64_t> lastUse_;
    std::uint64_t tick_ = 0;
};

} // namespace ecochip

#endif // ECOCHIP_SERVER_RESULT_CACHE_H
