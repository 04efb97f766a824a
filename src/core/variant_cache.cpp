#include "core/variant_cache.h"

#include <algorithm>

#include "core/codec.h"
#include "support/logging.h"

namespace gevo::core {

namespace {

/// Round up to the next power of two (min 1).
std::size_t
roundUpPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

/// Largest power of two <= n (n >= 1).
std::size_t
roundDownPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p * 2 <= n)
        p <<= 1;
    return p;
}

/// Shard count for the given request: a power of two, clamped so that a
/// bounded cache can give every shard a capacity of at least one without
/// the per-shard sum exceeding maxEntries.
std::size_t
effectiveShards(std::size_t shardCount, std::size_t maxEntries)
{
    std::size_t shards = roundUpPow2(shardCount == 0 ? 1 : shardCount);
    if (maxEntries > 0)
        shards = std::min(shards, roundDownPow2(maxEntries));
    return shards;
}

} // namespace

VariantCache::VariantCache(std::size_t shardCount, std::size_t maxEntries)
    : shards_(effectiveShards(shardCount, maxEntries)),
      shardMask_(shards_.size() - 1), maxEntries_(maxEntries),
      shardCapacity_(maxEntries == 0 ? 0 : maxEntries / shards_.size())
{
    GEVO_ASSERT(maxEntries == 0 || shardCapacity_ >= 1,
                "bounded cache with zero-capacity shards");
}

std::string
VariantCache::keyOf(const std::vector<mut::Edit>& edits)
{
    // The edit-list codec's fixed-width entries (core/codec.h: 35 bytes
    // per edit), without the count.
    std::string key;
    appendEditEntries(&key, edits);
    return key;
}

std::uint64_t
VariantCache::hashKey(const std::string& key)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : key) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

VariantCache::Shard&
VariantCache::shardFor(const std::string& key)
{
    return shards_[hashKey(key) & shardMask_];
}

const VariantCache::Shard&
VariantCache::shardFor(const std::string& key) const
{
    return shards_[hashKey(key) & shardMask_];
}

bool
VariantCache::lookup(const std::string& key, FitnessResult* out) const
{
    const Shard& shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.map.find(key);
    if (it == shard.map.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    if (shardCapacity_ > 0) {
        // Refresh recency: splice the entry's node to the front.
        shard.order.splice(shard.order.begin(), shard.order,
                           it->second.where);
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    *out = it->second.result;
    return true;
}

bool
VariantCache::insert(const std::string& key, const FitnessResult& result)
{
    Shard& shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto [it, inserted] =
        shard.map.try_emplace(key, Shard::Entry{result, shard.order.end()});
    if (inserted)
        it->second.stamp = stamps_.fetch_add(1);
    if (shardCapacity_ == 0)
        return inserted;
    if (!inserted) {
        // Existing key: keep the first value (fitness is deterministic in
        // the key) but refresh recency — a re-inserted entry is as hot as
        // a looked-up one, and must not be evicted as if cold.
        shard.order.splice(shard.order.begin(), shard.order,
                           it->second.where);
        return false;
    }
    shard.order.push_front(key);
    it->second.where = shard.order.begin();
    if (shard.map.size() > shardCapacity_) {
        shard.map.erase(shard.order.back());
        shard.order.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
}

std::vector<std::pair<std::string, FitnessResult>>
VariantCache::insertedSince(std::uint64_t from) const
{
    std::vector<std::pair<std::uint64_t, std::pair<std::string, FitnessResult>>>
        found;
    if (from < insertions()) {
        for (const auto& shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mu);
            for (const auto& [key, entry] : shard.map) {
                if (entry.stamp >= from)
                    found.push_back({entry.stamp, {key, entry.result}});
            }
        }
    }
    // Stamps are unique, so ordering by them is insertion order.
    std::sort(found.begin(), found.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<std::pair<std::string, FitnessResult>> out;
    out.reserve(found.size());
    for (auto& [stamp, entry] : found)
        out.push_back(std::move(entry));
    return out;
}

std::vector<std::pair<std::string, FitnessResult>>
VariantCache::snapshot() const
{
    std::vector<std::pair<std::string, FitnessResult>> out;
    for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mu);
        if (shardCapacity_ > 0) {
            // Bounded: emit in recency order, least recent first, so an
            // in-order preload() reproduces the eviction order.
            for (auto it = shard.order.rbegin(); it != shard.order.rend();
                 ++it) {
                const auto entry = shard.map.find(*it);
                out.emplace_back(*it, entry->second.result);
            }
        } else {
            // Unbounded: no recency list; sort keys so the snapshot (and
            // therefore the persisted file) is deterministic.
            const std::size_t first = out.size();
            for (const auto& [key, entry] : shard.map)
                out.emplace_back(key, entry.result);
            std::sort(out.begin() + static_cast<std::ptrdiff_t>(first),
                      out.end(),
                      [](const auto& a, const auto& b) {
                          return a.first < b.first;
                      });
        }
    }
    return out;
}

std::size_t
VariantCache::preload(
    const std::vector<std::pair<std::string, FitnessResult>>& entries)
{
    std::size_t added = 0;
    for (const auto& [key, result] : entries)
        added += insert(key, result) ? 1 : 0;
    return added;
}

VariantCache::Stats
VariantCache::stats() const
{
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mu);
        s.entries += shard.map.size();
    }
    return s;
}

void
VariantCache::clear()
{
    for (auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mu);
        shard.map.clear();
        shard.order.clear();
    }
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
}

std::uint64_t
scopeFingerprint(const CompiledVariant& baseline,
                 const FitnessFunction& fitness, const std::string& params)
{
    std::string text =
        baseline.programs.contentKey() + '\n' + fitness.name();
    if (!params.empty())
        text += '\n' + params;
    const std::uint64_t scope = VariantCache::hashKey(text);
    return scope != 0 ? scope : 1;
}

} // namespace gevo::core
