/// \file
/// Content-addressed fitness cache over edit lists.
///
/// The evolutionary search re-creates identical genotypes constantly:
/// crossover of converged parents clones edit lists, elites reappear, and
/// dropped-then-resampled edits recreate earlier individuals. GEVO (Liou et
/// al., TACO 2020) reports that fitness caching is what makes 256x300
/// searches tractable; this cache is our equivalent. Keys are a canonical
/// byte encoding of the edit list — injective, so two distinct lists can
/// never collide, and order-preserving, so reordered-but-distinct lists map
/// to distinct keys (edit application is order-sensitive).
///
/// One mutex guards one hash map and, when the cache is bounded, one
/// recency list. The level-0 cache is touched only by the engine thread
/// and the program cache by at most one evaluator per simulation, so a
/// single lock never contends enough to matter. Results are immutable
/// once inserted — fitness is a deterministic function of the edit list
/// — which is what makes serving cached results trajectory-neutral (same
/// seed, same best edit list, cache on or off).
///
/// By default the cache is unbounded (fine for 77k-evaluation runs). For
/// multi-day searches a `maxEntries` bound makes it an exact LRU: the
/// least recently used entry is dropped when the cache is full.
/// Eviction is trajectory-neutral too — an evicted result is
/// deterministically recomputed on the next miss — it only costs
/// throughput, which the evict counter makes visible.
///
/// Every key added to the cache gets the next insertion stamp, so a
/// reader holding a stamp can ask for what arrived after it
/// (insertedSince). The isolated evaluation backend keeps its long-lived
/// forked sessions in step with the parent's cache this way
/// (farm/client.h).

#ifndef GEVO_CORE_VARIANT_CACHE_H
#define GEVO_CORE_VARIANT_CACHE_H

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/fitness.h"
#include "mutation/edit.h"

namespace gevo::core {

/// Thread-safe fitness cache keyed by canonical edit-list bytes.
class VariantCache {
  public:
    /// \p maxEntries of 0 keeps the cache unbounded; otherwise the least
    /// recently used entry is evicted once the cache holds more.
    explicit VariantCache(std::size_t maxEntries = 0);

    VariantCache(const VariantCache&) = delete;
    VariantCache& operator=(const VariantCache&) = delete;

    /// Canonical content key of \p edits: core/codec.h's edit-list
    /// encoding without its count, 35 bytes per edit holding every
    /// semantic field in order (kind, opIndex, operand kind, srcUid,
    /// dstUid, operand value, newUid). Injective — distinct lists
    /// (including reorderings of the same edits) always yield distinct
    /// keys.
    static std::string keyOf(const std::vector<mut::Edit>& edits);

    /// 64-bit FNV-1a of a canonical key (scope fingerprints,
    /// diagnostics).
    static std::uint64_t hashKey(const std::string& key);

    /// Look up a previously inserted result. A hit refreshes the entry's
    /// recency when the cache is bounded.
    bool lookup(const std::string& key, FitnessResult* out) const;

    /// Insert (idempotent: re-inserting an existing key keeps the first
    /// value, which is safe because fitness is deterministic in the key,
    /// but still refreshes the entry's recency — a re-inserted key is a
    /// hot key). May evict the least-recently-used entry when bounded
    /// and full. True when the key was new to the cache.
    bool insert(const std::string& key, const FitnessResult& result);

    /// Keys added so far: the insertion stamp the next new key gets.
    /// Never reset, not even by clear(), so a stamp stays a valid cursor.
    std::uint64_t insertions() const;

    /// Entries added at stamp \p from or later that are still cached, in
    /// insertion order. Does not touch recency. Scans every entry.
    std::vector<std::pair<std::string, FitnessResult>>
    insertedSince(std::uint64_t from) const;

    /// Deterministic snapshot of every entry: least-recently-used first
    /// when bounded, sorted by key when unbounded (recency is not
    /// tracked then). Feeding a snapshot back through insert() in order
    /// reproduces both the contents and the LRU eviction order, which is
    /// what makes persisted caches re-enter recency deterministically
    /// (core/cache_store.h). Safe to call concurrently with
    /// lookups/inserts.
    std::vector<std::pair<std::string, FitnessResult>> snapshot() const;

    /// Bulk insert() of \p entries in order (preserves LRU order of a
    /// snapshot). Returns the number of keys actually added (existing
    /// keys refresh recency but do not count).
    std::size_t
    preload(const std::vector<std::pair<std::string, FitnessResult>>& entries);

    /// Counters since construction / clear().
    struct Stats {
        std::uint64_t entries = 0;
        std::uint64_t evictions = 0;
    };
    Stats stats() const;

    /// Entry bound this cache was built with (0 = unbounded).
    std::size_t maxEntries() const { return maxEntries_; }

    /// Drop every entry and reset the eviction counter.
    void clear();

  private:
    /// Value, its position in `order_` (order_.end() if unbounded) and
    /// its insertion stamp.
    struct Entry {
        FitnessResult result;
        std::list<std::string>::iterator where;
        std::uint64_t stamp = 0;
    };

    const std::size_t maxEntries_;
    mutable std::mutex mu_;
    std::unordered_map<std::string, Entry> map_;
    /// Recency list, most-recent first; only maintained when bounded.
    mutable std::list<std::string> order_;
    std::uint64_t evictions_ = 0;
    std::uint64_t stamps_ = 0;
};

/// The scope fingerprint of a search: the 64-bit hash of the baseline
/// program content key and the fitness name, then \p params when it is
/// non-empty, each joined by a newline. Equal scopes mean the same
/// baseline module, device model and dataset, so results keyed under one
/// are valid under the other: the persistent cache file and the farm
/// handshake key on the scope, and the checkpoint on the scope with the
/// trajectory parameters as \p params. Never 0: loaders and comparators
/// read 0 as "unchecked".
std::uint64_t scopeFingerprint(const CompiledVariant& baseline,
                               const FitnessFunction& fitness,
                               const std::string& params = {});

} // namespace gevo::core

#endif // GEVO_CORE_VARIANT_CACHE_H
