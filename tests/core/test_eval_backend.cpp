/// Evaluation-backend seam: in-process vs isolated trajectory equality,
/// and crash/hang/garbage fault handling — a variant that takes its
/// worker down must be penalized and quarantined while the search runs
/// to completion.

#include "core/eval_backend.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <regex>
#include <sys/wait.h>
#include <unistd.h>

#include "apps/registry.h"
#include "core/engine.h"
#include "core/population.h"
#include "core/workload.h"
#include "ir/parser.h"
#include "mutation/edit.h"
#include "sim/device_config.h"
#include "sim/device_memory.h"
#include "sim/executor.h"
#include "sim/program.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace gevo::core {
namespace {

/// Same toy optimization target as test_engine.cpp: a pointless
/// scratch-zeroing loop dominates the runtime.
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

EvolutionParams
smallParams()
{
    EvolutionParams params;
    params.populationSize = 10;
    params.generations = 5;
    params.elitism = 2;
    params.seed = 7;
    params.threads = 2;
    return params;
}

/// Scoped GEVO_FAULT_INJECT setting (the backend re-reads it at
/// construction, i.e. inside EvolutionEngine::run).
class ScopedFaultInject {
  public:
    explicit ScopedFaultInject(const char* spec)
    {
        ::setenv("GEVO_FAULT_INJECT", spec, 1);
    }
    ~ScopedFaultInject() { ::unsetenv("GEVO_FAULT_INJECT"); }
};

/// The deterministic trajectory fields of two runs must agree exactly;
/// cacheHits/cacheMisses are deliberately not compared (they can wobble
/// under concurrency and are not part of the trajectory).
void
expectSameTrajectory(const SearchResult& a, const SearchResult& b)
{
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t g = 0; g < a.history.size(); ++g) {
        const GenerationLog& la = a.history[g];
        const GenerationLog& lb = b.history[g];
        EXPECT_EQ(la.generation, lb.generation);
        EXPECT_EQ(la.bestMs, lb.bestMs) << "gen " << la.generation;
        EXPECT_EQ(la.meanMs, lb.meanMs) << "gen " << la.generation;
        EXPECT_EQ(la.validCount, lb.validCount) << "gen " << la.generation;
        EXPECT_EQ(la.evaluations, lb.evaluations)
            << "gen " << la.generation;
        EXPECT_EQ(la.islandBestMs, lb.islandBestMs)
            << "gen " << la.generation;
        EXPECT_EQ(mut::serializeEdits(la.bestEdits),
                  mut::serializeEdits(lb.bestEdits))
            << "gen " << la.generation;
    }
    EXPECT_EQ(mut::serializeEdits(a.best.edits),
              mut::serializeEdits(b.best.edits));
    EXPECT_EQ(a.best.fitness.ms(), b.best.fitness.ms());
}

std::size_t
totalFailures(const SearchResult& r)
{
    std::size_t n = 0;
    for (const auto& log : r.history)
        n += log.workerCrashes + log.workerTimeouts + log.protocolErrors;
    return n;
}

TEST(EvalBackend, FailureNames)
{
    EXPECT_EQ(evalFailureName(EvalFailure::WorkerCrash), "crash");
    EXPECT_EQ(evalFailureName(EvalFailure::WorkerTimeout), "timeout");
    EXPECT_EQ(evalFailureName(EvalFailure::ProtocolError), "protocol");
}

TEST(EvalBackend, IsolatedMatchesInProcessTrajectory)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    for (const bool useCache : {true, false}) {
        auto params = smallParams();
        params.useCache = useCache;
        params.backend = EvalBackendKind::InProcess;
        const auto inProcess =
            EvolutionEngine(mod, fitness, params).run();
        params.backend = EvalBackendKind::Isolated;
        const auto isolated =
            EvolutionEngine(mod, fitness, params).run();
        expectSameTrajectory(inProcess, isolated);
        EXPECT_EQ(isolated.evalFailures, 0u);
        EXPECT_EQ(isolated.quarantined, 0u);
    }
}

/// adept-v0 launches its blocks speculatively on helper threads. The
/// isolated backend's workers are forked after the parent has used the
/// helpers, which did not survive the fork: the children must run their
/// launches serially (never wait on a helper) and still reproduce the
/// in-process trajectory exactly.
TEST(EvalBackend, IsolatedMatchesInProcessAfterHelpersRan)
{
    apps::registerBuiltinWorkloads();
    WorkloadConfig config;
    config.defaults = {{"pairs", "4"}};
    const auto instance =
        WorkloadRegistry::instance().get("adept-v0").make(config);
    auto params = smallParams();
    params.populationSize = 8;
    params.generations = 3;
    params.seed = 3;

    const sim::SpeculationCounts before = sim::speculationCounts();
    params.backend = EvalBackendKind::InProcess;
    const auto inProcess =
        EvolutionEngine(instance->module(), instance->fitness(), params)
            .run();
    if (HelperPool::available() > 0) {
        EXPECT_GT(sim::speculationCounts().launches, before.launches);
    }
    params.backend = EvalBackendKind::Isolated;
    const auto isolated =
        EvolutionEngine(instance->module(), instance->fitness(), params)
            .run();
    expectSameTrajectory(inProcess, isolated);
    EXPECT_EQ(isolated.evalFailures, 0u);

    // A forked child sees no helpers and launches serially.
    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
        const sim::SpeculationCounts start = sim::speculationCounts();
        const auto result = evaluateVariant(instance->module(), {},
                                            instance->fitness());
        const bool serial = HelperPool::available() == 0 &&
                            sim::speculationCounts().launches ==
                                start.launches;
        ::_exit(result.valid && serial ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

/// The per-generation cache accounting is not part of the trajectory, but
/// a resumed search is checked against it: at one thread the isolated
/// backend's forked evaluators must hit and miss the program cache
/// exactly where the in-process evaluator does.
void
expectSameCacheAccounting(const ir::Module& mod,
                          const FitnessFunction& fitness,
                          EvolutionParams params)
{
    params.threads = 1;
    params.backend = EvalBackendKind::InProcess;
    const auto inProcess = EvolutionEngine(mod, fitness, params).run();
    params.backend = EvalBackendKind::Isolated;
    const auto isolated = EvolutionEngine(mod, fitness, params).run();
    expectSameTrajectory(inProcess, isolated);
    for (std::size_t g = 0; g < inProcess.history.size(); ++g) {
        EXPECT_EQ(inProcess.history[g].cacheHits,
                  isolated.history[g].cacheHits)
            << "seed " << params.seed << " gen " << g + 1;
        EXPECT_EQ(inProcess.history[g].cacheMisses,
                  isolated.history[g].cacheMisses)
            << "seed " << params.seed << " gen " << g + 1;
    }
}

TEST(EvalBackend, IsolatedMatchesInProcessCacheAccountingAtOneThread)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    auto params = smallParams();
    params.generations = 10;
    expectSameCacheAccounting(mod, fitness, params);

    apps::registerBuiltinWorkloads();
    WorkloadConfig config;
    config.defaults = {{"elems", "2048"}, {"inputs", "1"},
                       {"data-seed", "7"}};
    const auto instance =
        WorkloadRegistry::instance().get("reduce").make(config);
    for (const std::uint64_t seed : {3, 5}) {
        params.populationSize = 16;
        params.generations = 30;
        params.seed = seed;
        expectSameCacheAccounting(instance->module(), instance->fitness(),
                                  params);
    }

    // A bounded cache evicts by recency: hits and misses must still
    // land where they land in process.
    params.seed = 3;
    params.cacheMaxEntries = 32;
    expectSameCacheAccounting(instance->module(), instance->fitness(),
                              params);
}

/// The parent replays each session's hits as well as its inserts, in
/// batch order, so at one worker a bounded program cache holds what the
/// in-process backend's holds, in the same recency order: the saved
/// cache files are byte-identical.
TEST(EvalBackend, IsolatedParentCacheMatchesInProcessWhenBounded)
{
    apps::registerBuiltinWorkloads();
    WorkloadConfig config;
    config.defaults = {{"elems", "2048"}, {"inputs", "1"},
                       {"data-seed", "7"}};
    const auto instance =
        WorkloadRegistry::instance().get("reduce").make(config);
    auto params = smallParams();
    params.threads = 1;
    params.populationSize = 16;
    params.generations = 30;
    params.seed = 3;
    params.cacheMaxEntries = 32;
    std::string saved[2];
    for (int i = 0; i < 2; ++i) {
        params.backend =
            i == 0 ? EvalBackendKind::InProcess : EvalBackendKind::Isolated;
        params.cachePath = ::testing::TempDir() + "gevo_bounded_" +
                           std::to_string(::getpid()) + ".gevocache";
        std::remove(params.cachePath.c_str());
        EvolutionEngine(instance->module(), instance->fitness(), params).run();
        std::ifstream in(params.cachePath, std::ios::binary);
        saved[i].assign(std::istreambuf_iterator<char>(in), {});
        std::remove(params.cachePath.c_str());
    }
    EXPECT_FALSE(saved[0].empty());
    EXPECT_TRUE(saved[0] == saved[1]) << "the saved program caches differ";
}

/// Long-lived sessions learn what the parent's program cache gained
/// after they were forked: a batch whose programs the caller already
/// simulated in-process is served from the sessions' caches, at one
/// worker and at two.
TEST(EvalBackend, PersistentSessionsAreSyncedWithTheParentsCache)
{
    apps::registerBuiltinWorkloads();
    WorkloadConfig config;
    config.defaults = {{"elems", "2048"}, {"inputs", "1"},
                       {"data-seed", "7"}};
    const auto instance =
        WorkloadRegistry::instance().get("reduce").make(config);
    const ir::Module& mod = instance->module();
    auto params = smallParams();
    params.populationSize = 24;
    Population pop(mod, params);
    Rng rng(params.seed);
    pop.seed(rng);
    std::vector<const std::vector<mut::Edit>*> first;
    std::vector<const std::vector<mut::Edit>*> second;
    for (std::size_t i = 0; i < pop.size(); ++i)
        (i < pop.size() / 2 ? first : second).push_back(&pop.members()[i].edits);

    for (const std::uint32_t threads : {1u, 2u}) {
        params.threads = threads;
        params.backend = EvalBackendKind::Isolated;
        const auto isolated = makeBackend(mod, instance->fitness(), params);
        params.backend = EvalBackendKind::InProcess;
        const auto inProcess = makeBackend(mod, instance->fitness(), params);
        VariantCache cache;
        std::vector<EvalOutcome> outcomes;
        isolated->evaluateBatch(first, &cache, &outcomes);

        std::vector<EvalOutcome> local;
        inProcess->evaluateBatch(second, &cache, &local);
        std::size_t simulated = 0;
        for (const auto& o : local)
            simulated += o.simulated ? 1 : 0;
        ASSERT_GT(simulated, 0u) << "the second batch must bring new programs";

        isolated->evaluateBatch(second, &cache, &outcomes);
        ASSERT_EQ(outcomes.size(), second.size());
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            EXPECT_EQ(outcomes[i].failure, EvalFailure::None);
            EXPECT_FALSE(outcomes[i].simulated)
                << threads << " workers, task " << i;
            EXPECT_EQ(outcomes[i].result.objectives, local[i].result.objectives);
        }
    }
}

/// The isolated backend's summary line, read from stderr: how many
/// sessions a search forked.
std::size_t
sessionsForked(const ir::Module& mod, const FitnessFunction& fitness,
               const EvolutionParams& params)
{
    const LogLevel level = support::logThreshold();
    support::setLogThreshold(LogLevel::Info);
    ::testing::internal::CaptureStderr();
    EvolutionEngine(mod, fitness, params).run();
    const std::string err = ::testing::internal::GetCapturedStderr();
    support::setLogThreshold(level);
    std::smatch m;
    if (!std::regex_search(err, m,
                           std::regex("isolated backend: .* ([0-9]+) "
                                      "sessions forked"))) {
        ADD_FAILURE() << "no summary line in:\n" << err;
        return 0;
    }
    return std::stoul(m[1]);
}

/// Sessions live for the whole search: a fault-free search forks one per
/// worker, and each session a fault takes down is re-forked once.
TEST(EvalBackend, SessionsAreForkedOncePerSearch)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    auto params = smallParams();
    params.backend = EvalBackendKind::Isolated;
    ASSERT_EQ(params.threads, 2u);
    EXPECT_EQ(sessionsForked(mod, fitness, params), 2u);

    // The crash fires on both strikes, so it takes two sessions down.
    ScopedFaultInject fault("crash@4");
    EXPECT_EQ(sessionsForked(mod, fitness, params), 4u);
}

TEST(EvalBackend, CrashIsPenalizedQuarantinedAndSearchCompletes)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    ScopedFaultInject fault("crash@4");
    auto params = smallParams();
    params.backend = EvalBackendKind::Isolated;
    const auto result = EvolutionEngine(mod, fitness, params).run();

    ASSERT_EQ(result.history.size(), params.generations);
    EXPECT_EQ(totalFailures(result), 1u);
    EXPECT_EQ(result.evalFailures, 1u);
    EXPECT_EQ(result.quarantined, 1u);
    std::size_t crashes = 0;
    for (const auto& log : result.history)
        crashes += log.workerCrashes;
    EXPECT_EQ(crashes, 1u);
}

TEST(EvalBackend, HangIsKilledByTheWatchdog)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    ScopedFaultInject fault("hang@3");
    auto params = smallParams();
    params.backend = EvalBackendKind::Isolated;
    // Generous enough that a legitimate toy evaluation never trips it
    // even on a loaded CI machine — only the injected infinite hang can.
    params.evalTimeoutMs = 5000;
    const auto result = EvolutionEngine(mod, fitness, params).run();

    ASSERT_EQ(result.history.size(), params.generations);
    std::size_t timeouts = 0;
    for (const auto& log : result.history)
        timeouts += log.workerTimeouts;
    EXPECT_EQ(timeouts, 1u);
    EXPECT_EQ(result.quarantined, 1u);
}

/// Every session the isolated backend forks is reaped before the search
/// returns: one killed past its deadline, one that crashed, and the
/// healthy ones when the backend is destroyed.
TEST(EvalBackend, NoSessionOutlivesTheSearch)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    for (const char* spec : {"hang@3", "crash@4"}) {
        ScopedFaultInject fault(spec);
        auto params = smallParams();
        params.backend = EvalBackendKind::Isolated;
        // Only process lifetimes are checked here, so a short deadline
        // is safe even if a legitimate evaluation were to trip it.
        params.evalTimeoutMs = 1000;
        const auto result = EvolutionEngine(mod, fitness, params).run();
        ASSERT_EQ(result.history.size(), params.generations) << spec;
        int status = 0;
        errno = 0;
        EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1) << spec;
        EXPECT_EQ(errno, ECHILD) << spec;
    }
}

TEST(EvalBackend, GarbageResponseIsAProtocolError)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    ScopedFaultInject fault("garbage@2");
    auto params = smallParams();
    params.backend = EvalBackendKind::Isolated;
    const auto result = EvolutionEngine(mod, fitness, params).run();

    ASSERT_EQ(result.history.size(), params.generations);
    std::size_t protocol = 0;
    for (const auto& log : result.history)
        protocol += log.protocolErrors;
    EXPECT_EQ(protocol, 1u);
    EXPECT_EQ(result.quarantined, 1u);
}

TEST(EvalBackend, QuarantineServesRecurringGenotypesWithoutRedispatch)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    // Every dispatched evaluation crashes its worker. On the reference
    // path every member (elites included) is re-screened each
    // generation, so gen 2 onward must serve the carried-over genotypes
    // from the quarantine set instead of burning a fresh worker on them.
    ScopedFaultInject fault("crash@0+");
    auto params = smallParams();
    params.useCache = false;
    params.backend = EvalBackendKind::Isolated;
    const auto result = EvolutionEngine(mod, fitness, params).run();

    ASSERT_EQ(result.history.size(), params.generations);
    EXPECT_GT(result.evalFailures, 0u);
    EXPECT_GT(result.quarantined, 0u);
    std::size_t quarantineHits = 0;
    for (const auto& log : result.history)
        quarantineHits += log.quarantineHits;
    EXPECT_GT(quarantineHits, 0u);
    // Nothing ever evaluated successfully, so the best is the baseline.
    EXPECT_TRUE(result.best.edits.empty());
    EXPECT_EQ(result.speedup(), 1.0);
}

TEST(EvalBackend, FaultScheduleIsThreadCountIndependent)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    SearchResult results[2];
    for (int i = 0; i < 2; ++i) {
        ScopedFaultInject fault("crash@6,garbage@11");
        auto params = smallParams();
        params.backend = EvalBackendKind::Isolated;
        params.threads = i == 0 ? 1 : 4;
        results[i] = EvolutionEngine(mod, fitness, params).run();
    }
    expectSameTrajectory(results[0], results[1]);
    EXPECT_EQ(totalFailures(results[0]), totalFailures(results[1]));
    EXPECT_EQ(results[0].quarantined, results[1].quarantined);
}

TEST(EvalBackendDeath, MalformedFaultSpecIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto mod = toyModule();
    ToyFitness fitness;
    ScopedFaultInject fault("crash@notanumber");
    auto params = smallParams();
    params.backend = EvalBackendKind::Isolated;
    EXPECT_DEATH(EvolutionEngine(mod, fitness, params).run(),
                 "GEVO_FAULT_INJECT");
}

} // namespace
} // namespace gevo::core
