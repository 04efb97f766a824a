/// Island-model orchestrator: determinism across island counts and
/// thread counts, isolation without migration, and ring-migration
/// correctness.

#include "core/engine.h"

#include <gtest/gtest.h>

#include "ir/parser.h"
#include "mutation/edit.h"
#include "sim/device_config.h"
#include "sim/device_memory.h"
#include "sim/executor.h"
#include "sim/program.h"

namespace gevo::core {
namespace {

/// Same toy optimization target as test_engine.cpp: most time wasted in a
/// pointless scratch-zeroing loop that a single branch edit removes.
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

ir::Module
toyModule()
{
    auto res = ir::parseModule(kToyKernel);
    EXPECT_TRUE(res.ok) << res.error;
    return std::move(res.module);
}

SearchResult
runSearch(const ir::Module& mod, std::uint32_t islands,
          std::uint32_t threads, bool useCache = true,
          std::uint32_t migrationInterval = 3,
          std::uint32_t migrationCount = 2)
{
    ToyFitness fitness;
    EvolutionParams params;
    params.populationSize = 10;
    params.generations = 8;
    params.elitism = 2;
    params.seed = 33;
    params.threads = threads;
    params.useCache = useCache;
    params.islands = islands;
    params.migrationInterval = migrationInterval;
    params.migrationCount = migrationCount;
    return EvolutionEngine(mod, fitness, params).run();
}

void
expectSameTrajectory(const SearchResult& a, const SearchResult& b)
{
    EXPECT_EQ(mut::serializeEdits(a.best.edits),
              mut::serializeEdits(b.best.edits));
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t g = 0; g < a.history.size(); ++g) {
        EXPECT_DOUBLE_EQ(a.history[g].bestMs, b.history[g].bestMs);
        EXPECT_DOUBLE_EQ(a.history[g].meanMs, b.history[g].meanMs);
        EXPECT_EQ(a.history[g].validCount, b.history[g].validCount);
        ASSERT_EQ(a.history[g].islandBestMs.size(),
                  b.history[g].islandBestMs.size());
        for (std::size_t i = 0; i < a.history[g].islandBestMs.size(); ++i)
            EXPECT_DOUBLE_EQ(a.history[g].islandBestMs[i],
                             b.history[g].islandBestMs[i]);
        EXPECT_EQ(mut::serializeEdits(a.history[g].bestEdits),
                  mut::serializeEdits(b.history[g].bestEdits));
    }
}

TEST(Island, DeterministicAcrossRepeatsAndThreads)
{
    const auto mod = toyModule();
    for (const std::uint32_t islands : {1u, 2u, 4u}) {
        const auto one = runSearch(mod, islands, 1);
        const auto oneAgain = runSearch(mod, islands, 1);
        const auto four = runSearch(mod, islands, 4);
        expectSameTrajectory(one, oneAgain);
        expectSameTrajectory(one, four);
        ASSERT_EQ(one.history.back().islandBestMs.size(), islands);
    }
}

TEST(Island, CacheIsTrajectoryNeutralWithIslands)
{
    const auto mod = toyModule();
    const auto cached = runSearch(mod, 3, 1, true);
    const auto uncached = runSearch(mod, 3, 1, false);
    expectSameTrajectory(cached, uncached);
    EXPECT_GT(cached.cacheSummary.served, 0u);
    EXPECT_LT(cached.cacheSummary.evaluated,
              uncached.cacheSummary.evaluated);
}

TEST(Island, IsolatedIslandZeroMatchesSingleIslandRun)
{
    // With migration off, island 0 of a multi-island run must evolve
    // exactly like a 1-island search: its RNG stream is seeded with the
    // search seed directly and islands share nothing but the caches
    // (which are trajectory-neutral).
    const auto mod = toyModule();
    const auto single = runSearch(mod, 1, 1);
    const auto pair = runSearch(mod, 2, 1, true, /*interval=*/0);
    ASSERT_EQ(single.history.size(), pair.history.size());
    for (std::size_t g = 0; g < single.history.size(); ++g) {
        EXPECT_DOUBLE_EQ(single.history[g].islandBestMs[0],
                         pair.history[g].islandBestMs[0]);
    }
}

TEST(Island, RingMigrationPropagatesBest)
{
    // With migration every generation, copies of island i's current best
    // replace island (i+1)'s worst after generation g; elitism keeps them
    // alive, so the receiver's best-so-far at g+1 can never be worse than
    // the sender's best-so-far at g.
    const auto mod = toyModule();
    const std::uint32_t islands = 3;
    const auto result =
        runSearch(mod, islands, 1, true, /*interval=*/1, /*count=*/2);
    for (std::size_t g = 0; g + 1 < result.history.size(); ++g) {
        const auto& now = result.history[g].islandBestMs;
        const auto& next = result.history[g + 1].islandBestMs;
        for (std::uint32_t i = 0; i < islands; ++i)
            EXPECT_LE(next[(i + 1) % islands], now[i])
                << "gen " << g << " island " << i;
    }
}

TEST(Island, FirstMigrationWaitsAFullInterval)
{
    // "Migration every N generations" means the first transfer happens
    // after generation N — never after generation 0's seed population
    // (Topology guards gen 0 explicitly). With the interval equal to
    // the run length, the only migration fires after the final
    // generation's history entry, so the recorded history must be
    // identical to a fully isolated run; any earlier firing would couple
    // the islands and show up as a divergence.
    const auto mod = toyModule();
    const auto lastGenOnly =
        runSearch(mod, 2, 1, true, /*interval=*/8, /*count=*/2);
    const auto isolated =
        runSearch(mod, 2, 1, true, /*interval=*/0, /*count=*/2);
    expectSameTrajectory(lastGenOnly, isolated);
}

TEST(Island, MigrationChangesTheSearch)
{
    // Sanity: migration is actually happening — the coupled run diverges
    // from the isolated one.
    const auto mod = toyModule();
    const auto coupled = runSearch(mod, 2, 1, true, 1, 2);
    const auto isolated = runSearch(mod, 2, 1, true, 0, 2);
    bool anyDiff = false;
    for (std::size_t g = 0; !anyDiff && g < coupled.history.size(); ++g)
        anyDiff = coupled.history[g].meanMs != isolated.history[g].meanMs;
    EXPECT_TRUE(anyDiff);
}

TEST(Island, FitnessAwareMigrantsOnlyReplaceWorseResidents)
{
    // Unit-level semantics of Population::receiveMigrants under
    // params.fitnessAwareMigrants: a migrant takes its slot only when
    // strictly fitter than the resident it would evict.
    const auto mod = toyModule();
    EvolutionParams params;
    params.populationSize = 4;
    params.elitism = 1;
    params.fitnessAwareMigrants = true;
    Population pop(mod, params);
    Rng rng(1);
    pop.seed(rng);
    ASSERT_EQ(pop.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        pop.members()[i].fitness = FitnessResult::pass(10.0 + i);
        pop.members()[i].evaluated = true;
    }
    pop.sortByFitness(); // residents: 10, 11, 12, 13

    // Two migrants target the two worst slots (12, 13): 11.5 beats 12,
    // 20.0 loses to 13 and must be rejected.
    Individual strong;
    strong.fitness = FitnessResult::pass(11.5);
    strong.evaluated = true;
    Individual weak;
    weak.fitness = FitnessResult::pass(20.0);
    weak.evaluated = true;
    pop.receiveMigrants({strong, weak});

    std::vector<double> ms;
    for (const auto& m : pop.members())
        ms.push_back(m.fitness.ms());
    EXPECT_EQ(ms, (std::vector<double>{10.0, 11.0, 11.5, 13.0}));

    // Default policy: unconditional replacement of the worst slots.
    params.fitnessAwareMigrants = false;
    Population blind(mod, params);
    blind.seed(rng);
    for (std::size_t i = 0; i < 4; ++i) {
        blind.members()[i].fitness = FitnessResult::pass(10.0 + i);
        blind.members()[i].evaluated = true;
    }
    blind.sortByFitness();
    blind.receiveMigrants({strong, weak});
    ms.clear();
    for (const auto& m : blind.members())
        ms.push_back(m.fitness.ms());
    EXPECT_EQ(ms, (std::vector<double>{10.0, 11.0, 11.5, 20.0}));
}

TEST(Island, FitnessAwareMigrationIsDeterministicAndNeverHurts)
{
    // Engine-level: the fitness-aware policy is deterministic across
    // thread counts, and since migrants can only displace strictly worse
    // residents, every island's best-so-far stays monotone.
    const auto mod = toyModule();
    ToyFitness fitness;
    EvolutionParams params;
    params.populationSize = 10;
    params.generations = 8;
    params.elitism = 2;
    params.seed = 33;
    params.islands = 3;
    params.migrationInterval = 2;
    params.migrationCount = 2;
    params.fitnessAwareMigrants = true;
    const auto one = EvolutionEngine(mod, fitness, params).run();
    params.threads = 4;
    const auto four = EvolutionEngine(mod, fitness, params).run();
    expectSameTrajectory(one, four);
    for (std::size_t g = 0; g + 1 < one.history.size(); ++g) {
        for (std::size_t i = 0; i < params.islands; ++i)
            EXPECT_LE(one.history[g + 1].islandBestMs[i],
                      one.history[g].islandBestMs[i]);
    }
}

TEST(Island, GlobalBestIsBestOfIslands)
{
    const auto mod = toyModule();
    const auto result = runSearch(mod, 4, 1);
    for (const auto& log : result.history) {
        double minIsland = log.islandBestMs[0];
        for (const double ms : log.islandBestMs)
            minIsland = std::min(minIsland, ms);
        EXPECT_DOUBLE_EQ(log.bestMs, minIsland);
    }
}

} // namespace
} // namespace gevo::core
