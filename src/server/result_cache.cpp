#include "server/result_cache.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "io/request_io.h"
#include "json/json.h"
#include "json/ondemand.h"
#include "json/stream_writer.h"
#include "support/error.h"
#include "support/sha256.h"

namespace ecochip {

namespace {

namespace fs = std::filesystem;

/**
 * Fold the bytes of a design directory's JSON configs into a
 * digest, file names included, in sorted order -- editing any
 * config (or adding/removing one) must change every cache key
 * bound to the directory.
 */
void
updateWithDesignDir(Sha256 &digest, const std::string &dir)
{
    std::vector<fs::path> configs;
    std::error_code ec;
    for (fs::directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->path().extension() == ".json")
            configs.push_back(it->path());
    }
    std::sort(configs.begin(), configs.end());
    for (const auto &path : configs) {
        digest.update(path.filename().string());
        digest.update("\0", 1);
        std::ifstream in(path, std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        digest.update(bytes.str());
        digest.update("\0", 1);
    }
}

} // namespace

std::string
resultCacheKey(const AnalysisRequest &request,
               const std::string &catalog_fingerprint)
{
    Sha256 digest;
    digest.update(canonicalRequestText(request));
    digest.update("\n");
    digest.update(catalog_fingerprint);
    if (request.scenario.kind ==
        ScenarioRef::Kind::DesignDirectory) {
        digest.update("\n");
        updateWithDesignDir(digest, request.scenario.value);
    }
    return digest.hexDigest();
}

ResultCache::ResultCache(ResultCacheOptions options)
    : options_(std::move(options))
{
    requireConfig(!options_.directory.empty(),
                  "result cache needs a directory");
    fs::create_directories(fs::path(options_.directory) /
                           "objects");
    loadIndex();
}

std::string
ResultCache::objectPath(const std::string &key) const
{
    return (fs::path(options_.directory) / "objects" /
            key.substr(0, 2) / (key + ".json"))
        .string();
}

void
ResultCache::loadIndex()
{
    const std::string index_path =
        (fs::path(options_.directory) / "index.json").string();

    // The index is advisory: it restores LRU order across
    // restarts, but the objects are the truth. A missing or
    // corrupt index (crash before flushIndex) falls back to a
    // scan of the object tree.
    if (fs::exists(index_path)) {
        try {
            const json::Value doc = json::parseFile(index_path);
            for (const auto &entry :
                 doc.at("entries").asArray()) {
                const std::string key =
                    entry.at("key").asString();
                const auto tick = static_cast<std::uint64_t>(
                    entry.at("tick").asInteger());
                if (fs::exists(objectPath(key))) {
                    lastUse_[key] = tick;
                    tick_ = std::max(tick_, tick + 1);
                }
            }
        } catch (const std::exception &) {
            lastUse_.clear();
        }
    }
    if (lastUse_.empty()) {
        std::error_code ec;
        for (fs::recursive_directory_iterator
                 it(fs::path(options_.directory) / "objects",
                    ec),
             end;
             !ec && it != end; it.increment(ec)) {
            if (!it->is_regular_file(ec))
                continue;
            const std::string name = it->path().stem().string();
            if (name.size() == 64)
                lastUse_[name] = tick_++;
        }
    }
    stats_.entries = lastUse_.size();
    evictDownTo(options_.maxEntries);
    // Entries dropped while reconciling a shrunken maxEntries
    // are housekeeping, not served evictions.
    stats_.evictions = 0;
}

std::optional<std::string>
ResultCache::lookupText(const std::string &key)
{
    const auto it = lastUse_.find(key);
    if (it == lastUse_.end()) {
        ++stats_.misses;
        return std::nullopt;
    }
    try {
        std::ifstream in(objectPath(key), std::ios::binary);
        requireConfig(static_cast<bool>(in),
                      "cannot open JSON file: " +
                          objectPath(key));
        std::ostringstream bytes;
        bytes << in.rdbuf();
        // One scan validates the object and canonicalizes it --
        // no DOM on the warm path.
        std::string result =
            json::ondemand::reserialize(bytes.str(), false);
        it->second = tick_++;
        ++stats_.hits;
        return result;
    } catch (const std::exception &) {
        // Truncated or corrupt object: evict and recompute.
        std::error_code ec;
        fs::remove(objectPath(key), ec);
        lastUse_.erase(it);
        stats_.entries = lastUse_.size();
        ++stats_.misses;
        return std::nullopt;
    }
}

void
ResultCache::storeText(const std::string &key,
                       std::string_view result_text)
{
    const fs::path path = objectPath(key);
    std::error_code ec;
    fs::create_directories(path.parent_path(), ec);

    // Write-then-rename: a crash mid-write leaves a stray .tmp,
    // never a truncated object under its final name. The cache
    // is an optimization, so a store that fails (disk full, an
    // unwritable tree) is dropped, not thrown at the server.
    const fs::path tmp = path.string() + ".tmp";
    try {
        json::writeFile(result_text, tmp.string());
        fs::rename(tmp, path);
    } catch (const std::exception &) {
        fs::remove(tmp, ec);
        return;
    }

    lastUse_[key] = tick_++;
    stats_.entries = lastUse_.size();
    evictDownTo(options_.maxEntries);
}

void
ResultCache::evictDownTo(std::size_t max_entries)
{
    if (max_entries == 0)
        return;
    while (lastUse_.size() > max_entries) {
        auto oldest = lastUse_.begin();
        for (auto it = lastUse_.begin(); it != lastUse_.end();
             ++it)
            if (it->second < oldest->second)
                oldest = it;
        std::error_code ec;
        fs::remove(objectPath(oldest->first), ec);
        lastUse_.erase(oldest);
        ++stats_.evictions;
    }
    stats_.entries = lastUse_.size();
}

void
ResultCache::flushIndex()
{
    json::StreamWriter writer(true);
    writer.beginObject();
    writer.key("version");
    writer.number(1);
    writer.key("entries");
    writer.beginArray();
    for (const auto &[key, tick] : lastUse_) {
        writer.beginObject();
        writer.key("key");
        writer.string(key);
        writer.key("tick");
        writer.number(static_cast<double>(tick));
        writer.endObject();
    }
    writer.endArray();
    writer.endObject();
    json::writeFile(
        writer.str(),
        (fs::path(options_.directory) / "index.json").string());
}

} // namespace ecochip
