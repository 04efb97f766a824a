#include "core/variant_cache.h"

#include <algorithm>

#include "core/codec.h"

namespace gevo::core {

VariantCache::VariantCache(std::size_t maxEntries) : maxEntries_(maxEntries)
{
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

bool
VariantCache::lookup(const std::string& key, FitnessResult* out) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    if (it == map_.end())
        return false;
    if (maxEntries_ > 0) {
        // Refresh recency: splice the entry's node to the front.
        order_.splice(order_.begin(), order_, it->second.where);
    }
    *out = it->second.result;
    return true;
}

bool
VariantCache::insert(const std::string& key, const FitnessResult& result)
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto [it, inserted] =
        map_.try_emplace(key, Entry{result, order_.end()});
    if (inserted)
        it->second.stamp = stamps_++;
    if (maxEntries_ == 0)
        return inserted;
    if (!inserted) {
        // Existing key: keep the first value (fitness is deterministic in
        // the key) but refresh recency — a re-inserted entry is as hot as
        // a looked-up one, and must not be evicted as if cold.
        order_.splice(order_.begin(), order_, it->second.where);
        return false;
    }
    order_.push_front(key);
    it->second.where = order_.begin();
    if (map_.size() > maxEntries_) {
        map_.erase(order_.back());
        order_.pop_back();
        ++evictions_;
    }
    return true;
}

std::uint64_t
VariantCache::insertions() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stamps_;
}

std::vector<std::pair<std::string, FitnessResult>>
VariantCache::insertedSince(std::uint64_t from) const
{
    std::vector<std::pair<std::uint64_t, std::pair<std::string, FitnessResult>>>
        found;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (from >= stamps_)
            return {};
        for (const auto& [key, entry] : map_) {
            if (entry.stamp >= from)
                found.push_back({entry.stamp, {key, entry.result}});
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
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(map_.size());
    if (maxEntries_ > 0) {
        // Bounded: emit in recency order, least recent first, so an
        // in-order preload() reproduces the eviction order.
        for (auto it = order_.rbegin(); it != order_.rend(); ++it)
            out.emplace_back(*it, map_.find(*it)->second.result);
        return out;
    }
    // Unbounded: no recency list; sort keys so the snapshot (and
    // therefore the persisted file) is deterministic.
    for (const auto& [key, entry] : map_)
        out.emplace_back(key, entry.result);
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
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
    std::lock_guard<std::mutex> lock(mu_);
    Stats s;
    s.entries = map_.size();
    s.evictions = evictions_;
    return s;
}

void
VariantCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    order_.clear();
    evictions_ = 0;
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
