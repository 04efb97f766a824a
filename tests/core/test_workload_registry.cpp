/// Workload registry: lookup semantics, knob precedence, strict
/// `--workloads` list resolution, and a round-trip that evolves every
/// registered workload for two tiny generations — plus a determinism
/// matrix (threads 1/4, cache on/off, two islands) over the three
/// non-paper workload families.

#include "core/workload.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>

#include "apps/registry.h"
#include "core/engine.h"
#include "mutation/edit.h"

namespace gevo::core {
namespace {

/// Tiny build scale for every registered workload: the smallest grid the
/// SIMCoV block size allows, a couple of alignment pairs, and scaled-down
/// stencil/reduce/bfs instances.
const std::map<std::string, std::string> kTinyKnobs = {
    {"pairs", "2"},  {"grid", "16"},   {"steps", "2"}, {"elems", "1024"},
    {"inputs", "1"}, {"nodes", "128"}, {"degree", "4"},
};

class WorkloadRegistryTest : public ::testing::Test {
  protected:
    void SetUp() override { apps::registerBuiltinWorkloads(); }
};

TEST_F(WorkloadRegistryTest, BuiltinsAreRegisteredOnce)
{
    auto& registry = WorkloadRegistry::instance();
    // Registration is idempotent even when called again.
    apps::registerBuiltinWorkloads();
    const auto names = registry.names();
    // The CI island smoke enumerates this set via --list-workloads and
    // asserts at least five entries; keep the floor in lockstep.
    ASSERT_GE(names.size(), 5u);
    ASSERT_EQ(names.size(), 6u);
    EXPECT_EQ(names[0], "adept-v0");
    EXPECT_EQ(names[1], "adept-v1");
    EXPECT_EQ(names[2], "simcov");
    EXPECT_EQ(names[3], "stencil");
    EXPECT_EQ(names[4], "reduce");
    EXPECT_EQ(names[5], "bfs");
    EXPECT_NE(registry.find("simcov"), nullptr);
    EXPECT_EQ(registry.find("nope"), nullptr);
}

TEST_F(WorkloadRegistryTest, UnknownWorkloadIsFatal)
{
    EXPECT_EXIT(WorkloadRegistry::instance().get("nope"),
                ::testing::ExitedWithCode(1), "unknown workload 'nope'");
}

TEST_F(WorkloadRegistryTest, DuplicateRegistrationIsFatal)
{
    EXPECT_EXIT(
        {
            Workload w;
            w.name = "simcov";
            w.make = [](const WorkloadConfig&) {
                return std::unique_ptr<WorkloadInstance>();
            };
            WorkloadRegistry::instance().add(std::move(w));
        },
        ::testing::ExitedWithCode(1), "registered twice");
}

TEST_F(WorkloadRegistryTest, ResolveListAcceptsKnownNamesAndTrims)
{
    const auto names = WorkloadRegistry::instance().resolveList(
        "adept-v0, simcov ,bfs");
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "adept-v0");
    EXPECT_EQ(names[1], "simcov");
    EXPECT_EQ(names[2], "bfs");
}

/// Regression for the silent-skip class of bug: a bench asked to cover a
/// workload list must die loudly — with the registered set printed — on
/// a typo, a stray comma, or an empty list, never run a subset.
TEST_F(WorkloadRegistryTest, ResolveListRejectsUnknownEmptyAndTrailing)
{
    auto& registry = WorkloadRegistry::instance();
    EXPECT_EXIT(registry.resolveList("adept-v0,typo"),
                ::testing::ExitedWithCode(1),
                "unknown workload 'typo' \\(registered: adept-v0, "
                "adept-v1, simcov, stencil, reduce, bfs\\)");
    EXPECT_EXIT(registry.resolveList("adept-v0,"),
                ::testing::ExitedWithCode(1), "empty workload name");
    EXPECT_EXIT(registry.resolveList(""), ::testing::ExitedWithCode(1),
                "empty workload name");
    EXPECT_EXIT(registry.resolveList("adept-v0,,simcov"),
                ::testing::ExitedWithCode(1), "empty workload name");
}

TEST_F(WorkloadRegistryTest, KnobPrecedenceIsFlagThenDefaultThenFallback)
{
    WorkloadConfig config;
    EXPECT_EQ(config.knobInt("pairs", 9), 9);
    config.defaults["pairs"] = "5";
    EXPECT_EQ(config.knobInt("pairs", 9), 5);

    std::vector<std::string> storage = {"prog", "--pairs=3"};
    std::vector<char*> argv;
    for (auto& s : storage)
        argv.push_back(s.data());
    const Flags flags(static_cast<int>(argv.size()), argv.data());
    config.flags = &flags;
    EXPECT_EQ(config.knobInt("pairs", 9), 3);
}

/// Every registered workload must build at tiny scale and survive a
/// 2-generation search through the shared engine — the registry is only
/// useful if its entries are uniformly drivable. Also checks the
/// golden-edit ceiling and its held-out validation for each.
TEST_F(WorkloadRegistryTest, EveryWorkloadEvolvesTwoTinyGenerations)
{
    auto& registry = WorkloadRegistry::instance();
    ASSERT_GE(registry.size(), 5u);
    for (const auto& name : registry.names()) {
        const auto& workload = registry.get(name);
        WorkloadConfig config;
        config.defaults = kTinyKnobs;
        const auto instance = workload.make(config);
        ASSERT_NE(instance, nullptr) << name;
        EXPECT_GT(instance->module().numFunctions(), 0u) << name;

        EvolutionParams params = workload.searchDefaults;
        params.populationSize = 6;
        params.generations = 2;
        params.elitism = 1;
        params.seed = 19;
        EvolutionEngine engine(instance->module(), instance->fitness(),
                               params);
        const auto result = engine.run();
        EXPECT_GT(result.baselineMs, 0.0) << name;
        EXPECT_TRUE(result.best.fitness.valid) << name;
        ASSERT_EQ(result.history.size(), 2u) << name;
        EXPECT_GT(result.history.back().evaluations, 0u) << name;

        // The golden-edit ceiling (when present) must compile, pass and
        // beat the baseline — it is the paper's known-good configuration.
        const auto golden = instance->goldenEdits();
        if (!golden.empty()) {
            const auto ceiling = evaluateVariant(instance->module(), golden,
                                                 instance->fitness());
            EXPECT_TRUE(ceiling.valid) << name << ": "
                                       << ceiling.failReason;
            EXPECT_LT(ceiling.ms(), result.baselineMs) << name;
            // The new families' planted edits are dominated-guard folds
            // and duplicate-chain reroutes: correct at every scale, so
            // they must also survive held-out validation. (SIMCoV's
            // golden set deliberately fails it — the Sec VI-D segfault.)
            if (name == "stencil" || name == "reduce" || name == "bfs") {
                EXPECT_EQ(instance->validateBest(golden), "") << name;
            }
            // ADEPT has no held-out scale: it reports no check at all
            // rather than a pass.
            if (name == "adept-v0" || name == "adept-v1") {
                EXPECT_FALSE(instance->validateBest(golden).has_value())
                    << name;
            }
        }
    }
}

/// The app contract's observable outputs at default knobs, recorded
/// before the per-app fitness classes were folded into one template:
/// the fitness name (the cache, checkpoint and farm scopes key on it),
/// the unedited module's objective vector bit for bit, and the profiled
/// warp-instruction count (for ADEPT-V1 that is the forward plus reverse
/// launch, so this also guards how the two launches are merged).
TEST_F(WorkloadRegistryTest, ContractOutputsArePinnedAtDefaultKnobs)
{
    struct Pin {
        const char* workload;
        const char* name;
        const char* objectives;
        std::uint64_t warpInstrs;
    };
    const Pin pins[] = {
        {"adept-v0", "adept(7 pairs, P100)",
         "[0x1.6d4c70c573cep+4 0x1.8fcp+10 0x1.cfp+9]", 575940},
        {"adept-v1", "adept(7 pairs, P100)",
         "[0x1.3820458204582p+1 0x1.87p+11 0x1.854p+12]", 239776},
        {"simcov", "simcov(32x32, P100)",
         "[0x1.0ca2203df140dp+2 0x1.01f9p+16 0x1.936p+12]", 636420},
        {"stencil", "stencil(32x32, 4 steps, P100)",
         "[0x1.d01859f554dc5p-4 0x1.26p+11 0x1.fp+7]", 11976},
        {"reduce", "reduce(8192 elems x 2 inputs, P100)",
         "[0x1.c31c13f73d974p-4 0x1.144p+11 0x1.04p+7]", 12740},
        {"bfs", "bfs(256 nodes, degree 8, P100)",
         "[0x1.44caeea954b5p-3 0x1.16ep+12 0x1.ap+6]", 5886},
    };
    auto& registry = WorkloadRegistry::instance();
    ASSERT_EQ(registry.size(), std::size(pins));
    for (const auto& pin : pins) {
        const auto instance = registry.get(pin.workload).make({});
        const auto& fitness = instance->fitness();
        EXPECT_EQ(fitness.name(), pin.name) << pin.workload;

        const auto cv = compileVariant(instance->module(), {});
        ASSERT_TRUE(cv.ok) << pin.workload;
        const auto baseline = fitness.evaluate(cv);
        ASSERT_TRUE(baseline.valid) << pin.workload;
        std::string objectives = "[";
        for (const double v : baseline.objectives) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%s%a",
                          objectives.size() > 1 ? " " : "", v);
            objectives += buf;
        }
        objectives += "]";
        EXPECT_EQ(objectives, pin.objectives) << pin.workload;

        ProfileSummary profile;
        ASSERT_TRUE(fitness.profileVariant(cv, &profile)) << pin.workload;
        EXPECT_EQ(profile.warpInstrs, pin.warpInstrs) << pin.workload;
    }
}

/// The acceptance bar for every new workload family: a 2-generation
/// two-island search lands on the identical best edit list no matter the
/// evaluation thread count or cache mode. (ADEPT and SIMCoV have the
/// same property asserted at larger scale in core/test_island and
/// sim/test_trace_interp.)
TEST_F(WorkloadRegistryTest, NewFamiliesSearchDeterministically)
{
    auto& registry = WorkloadRegistry::instance();
    for (const auto& name : {"stencil", "reduce", "bfs"}) {
        const auto& workload = registry.get(name);
        WorkloadConfig config;
        config.defaults = kTinyKnobs;
        const auto instance = workload.make(config);

        std::optional<std::string> reference;
        for (const std::uint32_t threads : {1u, 4u}) {
            for (const bool useCache : {true, false}) {
                EvolutionParams params = workload.searchDefaults;
                params.populationSize = 6;
                params.generations = 2;
                params.elitism = 1;
                params.seed = 23;
                params.islands = 2;
                params.migrationInterval = 1;
                params.migrationCount = 1;
                params.threads = threads;
                params.useCache = useCache;
                EvolutionEngine engine(instance->module(),
                                       instance->fitness(), params);
                const auto result = engine.run();
                const auto key = mut::serializeEdits(result.best.edits);
                if (!reference)
                    reference = key;
                EXPECT_EQ(key, *reference)
                    << name << " threads=" << threads
                    << " cache=" << useCache;
            }
        }
    }
}

} // namespace
} // namespace gevo::core
