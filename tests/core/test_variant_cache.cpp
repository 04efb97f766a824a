#include "core/variant_cache.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "apps/registry.h"
#include "core/engine.h"
#include "core/workload.h"
#include "ir/parser.h"
#include "ir/verifier.h"
#include "sim/device_config.h"
#include "sim/device_memory.h"
#include "sim/executor.h"
#include "sim/program.h"
#include "support/hash.h"
#include "support/strings.h"

namespace gevo::core {
namespace {

mut::Edit
operandReplace(std::uint64_t srcUid, std::int8_t slot, std::int64_t imm)
{
    mut::Edit e;
    e.kind = mut::EditKind::OperandReplace;
    e.srcUid = srcUid;
    e.opIndex = slot;
    e.newOperand = ir::Operand::imm(imm);
    return e;
}

mut::Edit
instrCopy(std::uint64_t srcUid, std::uint64_t dstUid, std::uint64_t newUid)
{
    mut::Edit e;
    e.kind = mut::EditKind::InstrCopy;
    e.srcUid = srcUid;
    e.dstUid = dstUid;
    e.newUid = newUid;
    return e;
}

TEST(VariantCacheKey, EqualListsShareAKey)
{
    const std::vector<mut::Edit> a = {operandReplace(3, 0, 7),
                                      instrCopy(4, 5, 99)};
    const std::vector<mut::Edit> b = {operandReplace(3, 0, 7),
                                      instrCopy(4, 5, 99)};
    EXPECT_EQ(VariantCache::keyOf(a), VariantCache::keyOf(b));
    EXPECT_EQ(VariantCache::hashKey(VariantCache::keyOf(a)),
              VariantCache::hashKey(VariantCache::keyOf(b)));
}

TEST(VariantCacheKey, ReorderedListsAreDistinct)
{
    // Edit application is order-sensitive; a reordered list is a different
    // variant and must never collide with the original.
    const mut::Edit e1 = operandReplace(3, 0, 7);
    const mut::Edit e2 = instrCopy(4, 5, 99);
    EXPECT_NE(VariantCache::keyOf({e1, e2}), VariantCache::keyOf({e2, e1}));
}

TEST(VariantCacheKey, EveryFieldIsSignificant)
{
    const auto base = VariantCache::keyOf({operandReplace(3, 0, 7)});
    EXPECT_NE(base, VariantCache::keyOf({operandReplace(4, 0, 7)}));
    EXPECT_NE(base, VariantCache::keyOf({operandReplace(3, 1, 7)}));
    EXPECT_NE(base, VariantCache::keyOf({operandReplace(3, 0, 8)}));
    // Register operand vs equal-valued immediate.
    mut::Edit reg = operandReplace(3, 0, 7);
    reg.newOperand = ir::Operand::reg(7);
    EXPECT_NE(base, VariantCache::keyOf({reg}));
    // newUid is an anchor for later edits, so it is part of the content.
    EXPECT_NE(VariantCache::keyOf({instrCopy(4, 5, 99)}),
              VariantCache::keyOf({instrCopy(4, 5, 100)}));
    // Prefix/extension.
    EXPECT_NE(base, VariantCache::keyOf({}));
    EXPECT_NE(base, VariantCache::keyOf(
                        {operandReplace(3, 0, 7), operandReplace(3, 0, 7)}));
}

TEST(VariantCache, LookupInsertAndStats)
{
    VariantCache cache;
    const auto key = VariantCache::keyOf({operandReplace(1, 0, 2)});

    FitnessResult out;
    EXPECT_FALSE(cache.lookup(key, &out));
    cache.insert(key, FitnessResult::pass(1.5));
    ASSERT_TRUE(cache.lookup(key, &out));
    EXPECT_TRUE(out.valid);
    EXPECT_DOUBLE_EQ(out.ms(), 1.5);

    // Re-insertion is a no-op (results are immutable).
    cache.insert(key, FitnessResult::pass(9.0));
    ASSERT_TRUE(cache.lookup(key, &out));
    EXPECT_DOUBLE_EQ(out.ms(), 1.5);

    EXPECT_EQ(cache.stats().entries, 1u);

    cache.clear();
    EXPECT_FALSE(cache.lookup(key, &out));
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(VariantCache, InsertedSinceListsNewKeysInInsertionOrder)
{
    // Bounded to two entries, so the third insert evicts.
    VariantCache cache(2);
    EXPECT_EQ(cache.insertions(), 0u);
    EXPECT_TRUE(cache.insert("b", FitnessResult::pass(2.0)));
    EXPECT_TRUE(cache.insert("a", FitnessResult::pass(1.0)));
    EXPECT_FALSE(cache.insert("b", FitnessResult::pass(9.0)));
    EXPECT_EQ(cache.insertions(), 2u);
    const auto all = cache.insertedSince(0);
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0].first, "b");
    EXPECT_EQ(all[0].second.ms(), 2.0);
    EXPECT_EQ(all[1].first, "a");

    // "a" is now the least recent and is evicted: what is gone is not
    // listed, and a cursor taken before clear() stays valid after it.
    EXPECT_TRUE(cache.insert("c", FitnessResult::pass(3.0)));
    const auto since = cache.insertedSince(1);
    ASSERT_EQ(since.size(), 1u);
    EXPECT_EQ(since[0].first, "c");
    EXPECT_TRUE(cache.insertedSince(3).empty());
    cache.clear();
    EXPECT_EQ(cache.insertions(), 3u);
    cache.insert("d", FitnessResult::pass(4.0));
    ASSERT_EQ(cache.insertedSince(3).size(), 1u);
}

TEST(VariantCache, ConcurrentInsertLookup)
{
    VariantCache cache;
    constexpr int kThreads = 4;
    constexpr int kKeys = 64;
    constexpr int kRounds = 50;
    // Plain threads, so the test stays concurrent on a 1-core host.
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache] {
            for (int k = 0; k < kKeys; ++k) {
                const auto key = VariantCache::keyOf(
                    {operandReplace(static_cast<std::uint64_t>(k), 0, 1)});
                for (int r = 0; r < kRounds; ++r) {
                    cache.insert(key,
                                 FitnessResult::pass(static_cast<double>(k)));
                    FitnessResult out;
                    ASSERT_TRUE(cache.lookup(key, &out));
                    ASSERT_DOUBLE_EQ(out.ms(), static_cast<double>(k));
                }
            }
        });
    }
    for (auto& t : threads)
        t.join();
    EXPECT_EQ(cache.stats().entries, static_cast<std::uint64_t>(kKeys));
}

// ---- program-content keys (cache level 2) ----

TEST(ProgramContentKey, LocMetadataIsInsignificant)
{
    // Identical code, different source-location annotations: same key —
    // locs affect profiling attribution only, never scoring.
    const char* kWithLocs = R"(
kernel @k params 1 regs 8 shared 0 local 0 {
entry:
    r1 = tid @"a.cu:1"
    r2 = mul.i32 r1, 2 @"a.cu:2"
    ret
}
)";
    const char* kOtherLocs = R"(
kernel @k params 1 regs 8 shared 0 local 0 {
entry:
    r1 = tid @"b.cu:9"
    r2 = mul.i32 r1, 2
    ret
}
)";
    auto a = ir::parseModule(kWithLocs);
    auto b = ir::parseModule(kOtherLocs);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(sim::ProgramSet::decodeModule(a.module).contentKey(),
              sim::ProgramSet::decodeModule(b.module).contentKey());
}

TEST(ProgramContentKey, CodeChangesAreSignificant)
{
    const char* kA = R"(
kernel @k params 1 regs 8 shared 0 local 0 {
entry:
    r1 = tid
    r2 = mul.i32 r1, 2
    ret
}
)";
    const char* kB = R"(
kernel @k params 1 regs 8 shared 0 local 0 {
entry:
    r1 = tid
    r2 = mul.i32 r1, 3
    ret
}
)";
    auto a = ir::parseModule(kA);
    auto b = ir::parseModule(kB);
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_NE(sim::ProgramSet::decodeModule(a.module).contentKey(),
              sim::ProgramSet::decodeModule(b.module).contentKey());
}

/// Two kernels, with both branch forms and shared memory.
constexpr const char* kKeyedModule = R"(
kernel @a params 1 regs 8 shared 16 local 0 {
entry:
    r1 = tid
    r2 = mul.i32 r1, 2
    r3 = cmp.lt.i32 r1, r2
    brc r3, left, right
left:
    br right
right:
    br done
done:
    ret
}
kernel @b params 1 regs 8 shared 0 local 0 {
entry:
    r1 = tid
    ret
}
)";

/// Content key of kKeyedModule with \p from replaced by \p to.
std::string
keyedModuleKey(const std::string& from = "", const std::string& to = "")
{
    std::string text = kKeyedModule;
    if (!from.empty()) {
        const auto at = text.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        text.replace(at, from.size(), to);
    }
    auto parsed = ir::parseModule(text);
    EXPECT_TRUE(parsed.ok) << parsed.error;
    EXPECT_TRUE(ir::verifyModule(parsed.module).ok()) << to;
    return sim::ProgramSet::decodeModule(parsed.module).contentKey();
}

TEST(ProgramContentKey, IsOneDigestPerProgram)
{
    auto parsed = ir::parseModule(kKeyedModule);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const auto set = sim::ProgramSet::decodeModule(parsed.module);
    ASSERT_EQ(set.size(), 2u);
    const std::string key = set.contentKey();
    ASSERT_EQ(key.size(), 2 * sizeof(Digest128));
    for (std::size_t i = 0; i < set.size(); ++i) {
        const auto& digest = set.at(i).keyFragment;
        EXPECT_EQ(key.substr(i * digest.size(), digest.size()),
                  std::string(reinterpret_cast<const char*>(digest.data()),
                              digest.size()));
    }
    EXPECT_NE(set.at(0).keyFragment, set.at(1).keyFragment);
}

TEST(ProgramContentKey, BranchTargetsAndShapeAreSignificant)
{
    // Operands and locs are covered above; the digest must also see the
    // resolved branch targets and the kernel's shape fields.
    const std::string base = keyedModuleKey();
    EXPECT_NE(keyedModuleKey("left:\n    br right", "left:\n    br done"),
              base)
        << "branch target";
    EXPECT_NE(keyedModuleKey("shared 16", "shared 32"), base)
        << "sharedBytes";
}

// ---- determinism regression: the cache must be trajectory-neutral ----

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

SearchResult
runToySearch(const ir::Module& mod, bool useCache, std::uint32_t threads)
{
    ToyFitness fitness;
    EvolutionParams params;
    params.populationSize = 14;
    params.generations = 12;
    params.elitism = 2;
    params.seed = 21;
    params.useCache = useCache;
    params.threads = threads;
    return EvolutionEngine(mod, fitness, params).run();
}

/// A search's whole trajectory as text, every value exact (%a): the
/// best individual, then each generation's log. It leaves out only the
/// request accounting (evaluations, cache hits and misses), which the
/// cache changes by design.
std::string
trajectoryOf(const SearchResult& r)
{
    std::string out = strformat("best %a %s\n", r.best.fitness.ms(),
                                mut::serializeEdits(r.best.edits).c_str());
    for (const auto& log : r.history) {
        out += strformat("gen %u best %a mean %a valid %zu qhits %zu "
                         "crash %zu timeout %zu protocol %zu front %zu "
                         "islands",
                         log.generation, log.bestMs, log.meanMs,
                         log.validCount, log.quarantineHits,
                         log.workerCrashes, log.workerTimeouts,
                         log.protocolErrors, log.paretoFrontSize);
        for (const double ms : log.islandBestMs)
            out += strformat(" %a", ms);
        for (const auto& rt : log.islandRates)
            out += strformat(" rates %a %a %a %a %a %a", rt.wDelete,
                             rt.wCopy, rt.wMove, rt.wReplace, rt.wSwap,
                             rt.wOperand);
        out += " edits " + mut::serializeEdits(log.bestEdits) + "\n";
    }
    return out;
}

void
expectSameTrajectory(const SearchResult& a, const SearchResult& b)
{
    EXPECT_EQ(trajectoryOf(a), trajectoryOf(b));
}

TEST(VariantCacheDeterminism, CacheOnEqualsCacheOff)
{
    auto parsed = ir::parseModule(kToyKernel);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const auto cached = runToySearch(parsed.module, true, 1);
    const auto uncached = runToySearch(parsed.module, false, 1);
    expectSameTrajectory(cached, uncached);
    // The cached run must actually have exercised the cache.
    EXPECT_GT(cached.cacheSummary.served, 0u);
    EXPECT_GT(cached.cacheSummary.entries, 0u);
    EXPECT_LT(cached.cacheSummary.evaluated,
              uncached.cacheSummary.evaluated);
}

TEST(VariantCacheDeterminism, SingleThreadEqualsMultiThread)
{
    auto parsed = ir::parseModule(kToyKernel);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const auto one = runToySearch(parsed.module, true, 1);
    const auto four = runToySearch(parsed.module, true, 4);
    expectSameTrajectory(one, four);

    const auto oneOff = runToySearch(parsed.module, false, 1);
    const auto fourOff = runToySearch(parsed.module, false, 4);
    expectSameTrajectory(oneOff, fourOff);
}

/// A registered workload's search at its bench scale (its benchKnobs and
/// benchDefaults), with the cache on and off at \p threads.
struct CacheOnOff {
    SearchResult on;
    SearchResult off;
};

CacheOnOff
runBenchScale(const Workload& workload, std::uint32_t threads)
{
    WorkloadConfig config;
    config.defaults = workload.benchKnobs;
    const auto instance = workload.make(config);
    EvolutionParams params = workload.benchDefaults;
    params.threads = threads;
    const auto run = [&](bool useCache) {
        params.useCache = useCache;
        return EvolutionEngine(instance->module(), instance->fitness(),
                               params)
            .run();
    };
    CacheOnOff r;
    r.on = run(true);
    r.off = run(false);
    return r;
}

TEST(VariantCacheDeterminism, CacheOnEqualsCacheOffForEveryRegisteredWorkload)
{
    apps::registerBuiltinWorkloads();
    const auto& registry = WorkloadRegistry::instance();
    for (const auto& name : registry.names()) {
        SCOPED_TRACE(name);
        const auto r = runBenchScale(registry.get(name), 0);
        expectSameTrajectory(r.on, r.off);
        EXPECT_LT(r.on.cacheSummary.evaluated, r.off.cacheSummary.evaluated);
    }
}

TEST(VariantCacheSavings, CacheCutsAdeptV0SimulationsThreefold)
{
    // The searches are affordable because the cache removes repeat
    // simulations (GEVO's fitness caching). Stated as the count of
    // pipeline work it saves, the claim is a fixed property of the
    // commit, whatever the host. One evaluation thread: with more, two
    // edit lists that compile to one program can race past the
    // program-level cache and both simulate.
    apps::registerBuiltinWorkloads();
    const auto& workload = WorkloadRegistry::instance().get("adept-v0");
    const auto r = runBenchScale(workload, 1);
    expectSameTrajectory(r.on, r.off);
    // Uncached, every individual is simulated every generation.
    const auto& params = workload.benchDefaults;
    EXPECT_EQ(r.off.cacheSummary.evaluated,
              std::size_t{params.populationSize} * params.generations);
    ASSERT_GT(r.on.cacheSummary.evaluated, 0u);
    const double ratio =
        static_cast<double>(r.off.cacheSummary.evaluated) /
        static_cast<double>(r.on.cacheSummary.evaluated);
    EXPECT_GE(ratio, 3.0) << r.off.cacheSummary.evaluated
                          << " uncached simulations vs "
                          << r.on.cacheSummary.evaluated << " cached";
}

} // namespace
} // namespace gevo::core
