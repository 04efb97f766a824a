/// Bounded VariantCache: LRU eviction order, entry bounds, counters, and
/// trajectory-neutrality of eviction inside a real search.

#include "core/variant_cache.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "ir/parser.h"
#include "mutation/edit.h"
#include "sim/device_config.h"
#include "sim/device_memory.h"
#include "sim/executor.h"
#include "sim/program.h"

namespace gevo::core {
namespace {

std::string
keyN(std::uint64_t n)
{
    mut::Edit e;
    e.kind = mut::EditKind::OperandReplace;
    e.srcUid = n;
    e.opIndex = 0;
    e.newOperand = ir::Operand::imm(1);
    return VariantCache::keyOf({e});
}

TEST(CacheEviction, UnboundedByDefault)
{
    VariantCache cache;
    EXPECT_EQ(cache.maxEntries(), 0u);
    for (std::uint64_t i = 0; i < 500; ++i)
        cache.insert(keyN(i), FitnessResult::pass(1.0));
    EXPECT_EQ(cache.stats().entries, 500u);
    EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(CacheEviction, EntriesNeverExceedTheBound)
{
    for (const std::size_t maxEntries : {1u, 3u, 8u, 100u}) {
        VariantCache cache(maxEntries);
        for (std::uint64_t i = 0; i < 400; ++i)
            cache.insert(keyN(i),
                         FitnessResult::pass(static_cast<double>(i)));
        const auto stats = cache.stats();
        EXPECT_LE(stats.entries, maxEntries) << "bound " << maxEntries;
        EXPECT_GE(stats.evictions, 400u - maxEntries)
            << "bound " << maxEntries;
    }
}

TEST(CacheEviction, EvictsLeastRecentlyUsed)
{
    VariantCache cache(3);
    cache.insert(keyN(1), FitnessResult::pass(1.0));
    cache.insert(keyN(2), FitnessResult::pass(2.0));
    cache.insert(keyN(3), FitnessResult::pass(3.0));

    // Touch 1: recency becomes [1, 3, 2].
    FitnessResult out;
    ASSERT_TRUE(cache.lookup(keyN(1), &out));

    // Inserting 4 must evict 2 (least recently used), not 1.
    cache.insert(keyN(4), FitnessResult::pass(4.0));
    EXPECT_TRUE(cache.lookup(keyN(1), &out));
    EXPECT_FALSE(cache.lookup(keyN(2), &out));
    EXPECT_TRUE(cache.lookup(keyN(3), &out));
    EXPECT_TRUE(cache.lookup(keyN(4), &out));
    EXPECT_EQ(cache.stats().entries, 3u);
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(CacheEviction, ReinsertDoesNotDuplicateOrEvict)
{
    VariantCache cache(2);
    cache.insert(keyN(1), FitnessResult::pass(1.0));
    cache.insert(keyN(1), FitnessResult::pass(9.0)); // value no-op
    cache.insert(keyN(2), FitnessResult::pass(2.0));
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().evictions, 0u);
    FitnessResult out;
    ASSERT_TRUE(cache.lookup(keyN(1), &out));
    EXPECT_DOUBLE_EQ(out.ms(), 1.0); // first value wins
}

TEST(CacheEviction, ReinsertRefreshesRecency)
{
    // Regression: insert() used to return early on an existing key
    // without touching the recency list, so a re-inserted hot entry kept
    // its stale position and could be evicted as if cold.
    VariantCache cache(3);
    cache.insert(keyN(1), FitnessResult::pass(1.0));
    cache.insert(keyN(2), FitnessResult::pass(2.0));
    cache.insert(keyN(3), FitnessResult::pass(3.0));

    // Re-insert 1: recency must become [1, 3, 2], exactly as a lookup
    // would have made it.
    cache.insert(keyN(1), FitnessResult::pass(1.0));

    // Inserting 4 must evict 2 (least recently used), not the hot 1.
    cache.insert(keyN(4), FitnessResult::pass(4.0));
    FitnessResult out;
    EXPECT_TRUE(cache.lookup(keyN(1), &out));
    EXPECT_FALSE(cache.lookup(keyN(2), &out));
    EXPECT_TRUE(cache.lookup(keyN(3), &out));
    EXPECT_TRUE(cache.lookup(keyN(4), &out));
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(CacheEviction, BoundKeepsTheMostRecentEntries)
{
    // The bound is exact LRU over the whole cache: 40 distinct keys
    // through a bound of 32 leave exactly the 32 most recent. The keys
    // are scattered (an odd multiplier is a bijection on u64), so no
    // key pattern lines them up with any partition of the cache.
    const auto key = [](std::uint64_t i) {
        return keyN(i * 0x9e3779b97f4a7c15ULL);
    };
    VariantCache cache(32);
    for (std::uint64_t i = 0; i < 40; ++i)
        cache.insert(key(i), FitnessResult::pass(static_cast<double>(i)));
    const auto stats = cache.stats();
    EXPECT_EQ(stats.entries, 32u);
    EXPECT_EQ(stats.evictions, 8u);
    FitnessResult out;
    for (std::uint64_t i = 0; i < 40; ++i) {
        EXPECT_EQ(cache.lookup(key(i), &out), i >= 8) << "key " << i;
        if (i >= 8) {
            EXPECT_DOUBLE_EQ(out.ms(), static_cast<double>(i));
        }
    }
}

TEST(CacheEviction, ClearResetsEvictionState)
{
    VariantCache cache(2);
    for (std::uint64_t i = 0; i < 10; ++i)
        cache.insert(keyN(i), FitnessResult::pass(1.0));
    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().evictions, 0u);
    // Reusable after clear: bound still enforced.
    for (std::uint64_t i = 0; i < 10; ++i)
        cache.insert(keyN(i), FitnessResult::pass(1.0));
    EXPECT_LE(cache.stats().entries, 2u);
}

// ---- eviction is trajectory-neutral inside the engine ----

constexpr const char* kToyKernel = R"(
kernel @toy params 1 regs 24 shared 512 local 0 {
entry:
    r1 = tid
    r2 = mov 0
    br memset
memset:
    r3 = mul.i32 r2, 4
    r4 = cvt.i32.i64 r3
    st.i32.shared r4, 0
    r2 = add.i32 r2, 1
    r5 = cmp.lt.i32 r2, 96
    brc r5, memset, work
work:
    r6 = mul.i32 r1, 2
    r7 = cvt.i32.i64 r1
    r8 = mul.i64 r7, 4
    r9 = add.i64 r0, r8
    st.i32.global r9, r6
    ret
}
)";

class ToyFitness : public FitnessFunction {
  public:
    FitnessResult
    evaluate(const CompiledVariant& variant) const override
    {
        const auto* prog = variant.programs.find("toy");
        if (prog == nullptr)
            return FitnessResult::fail("kernel missing");
        sim::DeviceMemory mem(1 << 16);
        const auto out = mem.alloc(64 * 4);
        const auto res = sim::launchKernel(
            sim::p100(), mem, *prog, {1, 64},
            {static_cast<std::uint64_t>(out)});
        if (!res.ok())
            return FitnessResult::fail(res.fault.detail);
        for (int t = 0; t < 64; ++t) {
            if (mem.read<std::int32_t>(out + t * 4) != t * 2)
                return FitnessResult::fail("wrong output");
        }
        return FitnessResult::pass(res.stats.ms);
    }

    std::string name() const override { return "toy"; }
};

TEST(CacheEviction, BoundedCacheIsTrajectoryNeutral)
{
    auto parsed = ir::parseModule(kToyKernel);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    ToyFitness fitness;

    auto runWith = [&](std::size_t maxEntries) {
        EvolutionParams params;
        params.populationSize = 12;
        params.generations = 10;
        params.elitism = 2;
        params.seed = 21;
        params.cacheMaxEntries = maxEntries;
        return EvolutionEngine(parsed.module, fitness, params).run();
    };

    const auto unbounded = runWith(0);
    const auto bounded = runWith(4); // absurdly tight: constant eviction
    EXPECT_GT(bounded.cacheSummary.evictions, 0u);
    EXPECT_LE(bounded.cacheSummary.entries, 8u); // 4 per level
    EXPECT_EQ(unbounded.cacheSummary.evictions, 0u);

    EXPECT_EQ(mut::serializeEdits(unbounded.best.edits),
              mut::serializeEdits(bounded.best.edits));
    ASSERT_EQ(unbounded.history.size(), bounded.history.size());
    for (std::size_t g = 0; g < unbounded.history.size(); ++g) {
        EXPECT_DOUBLE_EQ(unbounded.history[g].bestMs,
                         bounded.history[g].bestMs);
        EXPECT_DOUBLE_EQ(unbounded.history[g].meanMs,
                         bounded.history[g].meanMs);
    }
    // The tight bound costs throughput, never correctness: it must do at
    // least as much real pipeline work as the unbounded cache.
    EXPECT_GE(bounded.cacheSummary.evaluated,
              unbounded.cacheSummary.evaluated);
}

} // namespace
} // namespace gevo::core
