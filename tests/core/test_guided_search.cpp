/// Diagnosis-driven search end-to-end: guided sampling and self-adaptive
/// operator rates must be deterministic across thread counts, cache
/// on/off and evaluation backends, and must resume bit-identically from
/// a mid-run checkpoint — the guided heat profile is recomputed from the
/// island elite, never persisted, so a resumed run has to re-derive it.

#include "core/engine.h"

#include <gtest/gtest.h>

#include <cstdio>

#include <sys/wait.h>
#include <unistd.h>

#include "ir/parser.h"
#include "mutation/edit.h"
#include "sim/device_config.h"
#include "sim/device_memory.h"
#include "sim/executor.h"
#include "sim/program.h"

namespace gevo::core {
namespace {

/// The toy optimization target with source attribution: the pointless
/// memset loop (the hot spot a profile flags) carries its own locs, so
/// the guided sampler has a real heat gradient to exploit.
constexpr const char* kToyKernel = R"(
kernel @toy params 1 regs 24 shared 512 local 0 {
entry:
    r1 = tid @"toy.cu:3"
    r2 = mov 0 @"toy.cu:4"
    br memset
memset:
    r3 = mul.i32 r2, 4 @"toy.cu:6"
    r4 = cvt.i32.i64 r3 @"toy.cu:6"
    st.i32.shared r4, 0 @"toy.cu:7"
    r2 = add.i32 r2, 1 @"toy.cu:8"
    r5 = cmp.lt.i32 r2, 96 @"toy.cu:8"
    brc r5, memset, work
work:
    r6 = mul.i32 r1, 2 @"toy.cu:11"
    r7 = cvt.i32.i64 r1 @"toy.cu:12"
    r8 = mul.i64 r7, 4 @"toy.cu:12"
    r9 = add.i64 r0, r8 @"toy.cu:12"
    st.i32.global r9, r6 @"toy.cu:13"
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

    bool
    profileVariant(const CompiledVariant& variant,
                   ProfileSummary* out) const override
    {
        const auto* prog = variant.programs.find("toy");
        if (prog == nullptr)
            return false;
        sim::DeviceMemory mem(1 << 16);
        const auto outBuf = mem.alloc(64 * 4);
        const auto res = sim::launchKernel(
            sim::p100(), mem, *prog, {1, 64},
            {static_cast<std::uint64_t>(outBuf)}, /*profileLocs=*/true);
        if (!res.ok())
            return false;
        *out = res.stats;
        return true;
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

EvolutionParams
guidedParams()
{
    EvolutionParams params;
    params.populationSize = 10;
    params.generations = 8;
    params.elitism = 2;
    params.seed = 17;
    params.islands = 2;
    params.migrationInterval = 3;
    params.migrationCount = 2;
    params.samplerKind = SamplerKind::Guided;
    return params;
}

SearchResult
run(const ir::Module& mod, EvolutionParams params)
{
    ToyFitness fitness;
    return EvolutionEngine(mod, fitness, params).run();
}

void
expectSameTrajectory(const SearchResult& a, const SearchResult& b)
{
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t g = 0; g < a.history.size(); ++g) {
        const GenerationLog& la = a.history[g];
        const GenerationLog& lb = b.history[g];
        EXPECT_EQ(la.bestMs, lb.bestMs) << "gen " << la.generation;
        EXPECT_EQ(la.meanMs, lb.meanMs) << "gen " << la.generation;
        EXPECT_EQ(la.validCount, lb.validCount) << "gen " << la.generation;
        EXPECT_EQ(la.islandBestMs, lb.islandBestMs)
            << "gen " << la.generation;
        EXPECT_EQ(mut::serializeEdits(la.bestEdits),
                  mut::serializeEdits(lb.bestEdits))
            << "gen " << la.generation;
        ASSERT_EQ(la.islandRates.size(), lb.islandRates.size());
        for (std::size_t i = 0; i < la.islandRates.size(); ++i) {
            EXPECT_EQ(la.islandRates[i].wDelete,
                      lb.islandRates[i].wDelete);
            EXPECT_EQ(la.islandRates[i].wOperand,
                      lb.islandRates[i].wOperand);
        }
    }
    EXPECT_EQ(mut::serializeEdits(a.best.edits),
              mut::serializeEdits(b.best.edits));
    EXPECT_EQ(a.best.fitness.ms(), b.best.fitness.ms());
}

TEST(GuidedSearch, DeterministicAcrossThreadsCacheAndBackend)
{
    // Sampling happens on the engine thread only, so the guided
    // trajectory must not depend on any evaluation-side knob: the full
    // threads x cache x backend matrix lands on one trajectory.
    const auto mod = toyModule();
    auto params = guidedParams();
    const auto reference = run(mod, params);
    EXPECT_TRUE(reference.best.fitness.valid);

    for (const std::uint32_t threads : {1u, 4u}) {
        for (const bool useCache : {true, false}) {
            for (const auto backend : {EvalBackendKind::InProcess,
                                       EvalBackendKind::Isolated}) {
                SCOPED_TRACE(testing::Message()
                             << "threads=" << threads
                             << " cache=" << useCache << " backend="
                             << (backend == EvalBackendKind::Isolated
                                     ? "isolated"
                                     : "inprocess"));
                params = guidedParams();
                params.threads = threads;
                params.useCache = useCache;
                params.backend = backend;
                expectSameTrajectory(reference, run(mod, params));
            }
        }
    }
}

TEST(GuidedSearch, GuidedTrajectoryDivergesFromUniform)
{
    // The seam must actually change the draw sequence: same seed, same
    // budget, different sampler -> different search. (Both are
    // deterministic, so this is a fixed, reproducible divergence.)
    const auto mod = toyModule();
    auto params = guidedParams();
    const auto guided = run(mod, params);
    params.samplerKind = SamplerKind::Uniform;
    const auto uniform = run(mod, params);

    bool diverged =
        mut::serializeEdits(guided.best.edits) !=
        mut::serializeEdits(uniform.best.edits);
    for (std::size_t g = 0;
         !diverged && g < guided.history.size(); ++g) {
        diverged = guided.history[g].meanMs != uniform.history[g].meanMs;
    }
    EXPECT_TRUE(diverged);
}

TEST(GuidedSearch, AdaptiveRatesAreDeterministicAndLogged)
{
    const auto mod = toyModule();
    auto params = guidedParams();
    params.adaptRates = true;
    const auto reference = run(mod, params);

    // One rate tuple per island per generation, every weight positive.
    for (const auto& log : reference.history) {
        ASSERT_EQ(log.islandRates.size(), params.islands);
        for (const auto& rates : log.islandRates) {
            EXPECT_GT(rates.wDelete, 0.0);
            EXPECT_GT(rates.wOperand, 0.0);
        }
    }

    params.threads = 4;
    params.useCache = false;
    expectSameTrajectory(reference, run(mod, params));

    // Adaptation is off by default: no audit trail.
    params = guidedParams();
    params.adaptRates = false;
    const auto plain = run(mod, params);
    for (const auto& log : plain.history)
        EXPECT_TRUE(log.islandRates.empty());
}

TEST(GuidedSearch, KillAndResumeIsBitIdentical)
{
    // The kill -9 drill from test_checkpoint.cpp, with the full
    // diagnosis-driven configuration on: guided sampling + adaptive
    // rates. The checkpoint carries the rate state but NOT the guided
    // heat profile — the resumed engine must re-derive the heat from the
    // island elites and still land on the uninterrupted history.
    const auto mod = toyModule();
    ToyFitness fitness;
    auto params = guidedParams();
    params.adaptRates = true;
    const auto reference = run(mod, params);

    const std::string path =
        ::testing::TempDir() + "gevo_guided_resume.gevockpt";
    std::remove(path.c_str());
    params.checkpointPath = path;
    params.checkpointInterval = 1;

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        EvolutionEngine child(mod, fitness, params);
        child.run([](const GenerationLog& log, const SearchResult&) {
            if (log.generation == 5)
                std::_Exit(0);
        });
        std::_Exit(1); // Should have died mid-run.
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    params.resume = true;
    const auto resumed = EvolutionEngine(mod, fitness, params).run();
    expectSameTrajectory(reference, resumed);
    std::remove(path.c_str());
}

TEST(GuidedSearch, FindsTheMemsetEscapeAtToyScale)
{
    // Not a statistical claim (see bench/discovery_quality for the
    // head-to-head) — just: the guided configuration still finds the
    // toy kernel's known win at this budget.
    const auto mod = toyModule();
    auto params = guidedParams();
    params.generations = 10;
    const auto result = run(mod, params);
    EXPECT_TRUE(result.best.fitness.valid);
    EXPECT_GT(result.speedup(), 1.5);
}

} // namespace
} // namespace gevo::core
