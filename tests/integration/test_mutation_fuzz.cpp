/// Mutation robustness fuzzing: the evolutionary search throws thousands
/// of random patches at the real application kernels. Whatever the patch,
/// the system must never crash — every variant either verifies and runs
/// to a deterministic result/fault, or is cleanly rejected.
///
/// This is the paper's implicit contract (Sec V-A finds 1394-edit
/// individuals that still run) exercised end to end.
///
/// The same corpora are the oracle for fast-forwarding launches that can
/// only time out (sim::fastForwardMode()): with it on and off, every
/// mutant's driver output must agree in fault text and every aggregate
/// counter, under both interpreters.

#include <gtest/gtest.h>

#include "apps/adept/driver.h"
#include "apps/simcov/driver.h"
#include "core/fitness.h"
#include "mutation/edit.h"
#include "mutation/patch.h"
#include "mutation/sampler.h"
#include "sim/executor.h"
#include "support/rng.h"

#include "../sim/sim_test_util.h"

namespace gevo {
namespace {

using ModeGuard = sim::testutil::InterpModeGuard;

/// Fast-forward jumps seen by expectFastForwardAgrees, and how many
/// corpus tests finished: the corpora must hold both kinds of repeat.
struct CorpusJumps {
    std::uint64_t exact = 0;
    std::uint64_t drift = 0;
    std::size_t testsDone = 0;
};
CorpusJumps gCorpus;

const std::uint64_t kAdeptSeeds[] = {11u, 22u, 33u, 44u, 55u};
const std::uint64_t kAdeptV0Seeds[] = {3u, 13u};
const std::uint64_t kSimcovSeeds[] = {7u, 17u, 27u};

/// Checked once every corpus test has run (a filtered run skips it).
class CorpusCoverage : public ::testing::Environment {
  public:
    void
    TearDown() override
    {
        // Every seed, plus the pinned adept-v0 mutant.
        if (gCorpus.testsDone != std::size(kAdeptSeeds) +
                                     std::size(kAdeptV0Seeds) +
                                     std::size(kSimcovSeeds) + 1)
            return;
        EXPECT_GT(gCorpus.exact, 0u) << "no exact repeat in the corpora";
        EXPECT_GT(gCorpus.drift, 0u)
            << "no drifting-register repeat in the corpora";
    }
};
[[maybe_unused]] ::testing::Environment* const gCoverage =
    ::testing::AddGlobalTestEnvironment(new CorpusCoverage);

/// Run \p edits' variant through \p driver with fast-forward on and
/// off, under both interpreters: the fault text and every aggregate
/// counter must agree bit for bit.
template <class Driver>
void
expectFastForwardAgrees(const Driver& driver, const ir::Module& base,
                        const std::vector<mut::Edit>& edits)
{
    const auto cv = core::compileVariant(base, edits);
    if (!cv.ok)
        return;
    for (const auto mode : {sim::InterpMode::Trace, sim::InterpMode::Reference}) {
        ModeGuard g(mode);
        const auto before = sim::fastForwardCounts();
        const auto on = driver.run(cv.programs, sim::p100());
        const auto after = sim::fastForwardCounts();
        gCorpus.exact += after.exactJumps - before.exactJumps;
        gCorpus.drift += after.driftJumps - before.driftJumps;
        sim::testutil::FastForwardGuard ff(false);
        const auto off = driver.run(cv.programs, sim::p100());
        const std::string what = mut::serializeEdits(edits);
        EXPECT_EQ(on.fault.kind, off.fault.kind) << what;
        EXPECT_EQ(on.fault.detail, off.fault.detail) << what;
        EXPECT_EQ(on.totalMs, off.totalMs) << what;
        sim::testutil::expectStatsEqual(on.aggregate, off.aggregate);
    }
}

/// Evaluate the same variant under both interpreters, and (given
/// \p speculative, the same fitness over a driver that launches blocks
/// speculatively) with speculative launches too, and require identical
/// validity, bit-identical fitness, and identical failure text — random
/// mutants are the adversarial corpus for the trace interpreter's fast
/// paths and for speculation's conflict detection.
void
expectModesAgree(const ir::Module& base,
                 const std::vector<mut::Edit>& edits,
                 const core::FitnessFunction& fitness,
                 const core::FitnessFunction* speculative = nullptr)
{
    core::FitnessResult want;
    {
        ModeGuard g(sim::InterpMode::Trace);
        want = core::evaluateVariant(base, edits, fitness);
    }
    for (const auto mode : {sim::InterpMode::Trace, sim::InterpMode::Reference}) {
        for (const auto* f : {&fitness, speculative}) {
            if (f == nullptr ||
                (mode == sim::InterpMode::Trace && f == &fitness))
                continue;
            ModeGuard g(mode);
            const auto got = core::evaluateVariant(base, edits, *f);
            const char* how = f == &fitness ? "serial" : "speculative";
            EXPECT_EQ(want.valid, got.valid)
                << how << " " << mut::serializeEdits(edits);
            if (want.valid && got.valid)
                EXPECT_EQ(want.ms(), got.ms())
                    << how << " " << mut::serializeEdits(edits);
            else
                EXPECT_EQ(want.failReason, got.failReason)
                    << how << " " << mut::serializeEdits(edits);
        }
    }
}

/// Random patches of 1-6 stacked edits on \p module.
std::vector<mut::Edit>
randomPatch(const ir::Module& module, Rng& rng)
{
    std::vector<mut::Edit> edits;
    const int n = 1 + static_cast<int>(rng.below(6));
    for (int i = 0; i < n; ++i) {
        const auto patched = mut::applyPatch(module, edits);
        const auto e = mut::sampleEdit(patched, rng);
        if (e)
            edits.push_back(*e);
    }
    return edits;
}

class AdeptFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdeptFuzz, RandomPatchesNeverCrashAndStayDeterministic)
{
    adept::SequenceSetConfig cfg;
    cfg.numPairs = 3;
    cfg.minLen = 24;
    cfg.maxLen = 48;
    cfg.seed = 5;
    const auto pairs = adept::generatePairs(cfg);
    const auto built = adept::buildAdeptV1(adept::ScoringParams{}, 64);
    const adept::AdeptDriver driver(pairs, adept::ScoringParams{}, 1, 64);
    adept::AdeptFitness fitness(driver, sim::p100());
    adept::AdeptDriver specDriver(pairs, adept::ScoringParams{}, 1, 64);
    specDriver.setBlockThreads(static_cast<std::uint32_t>(pairs.size()));
    adept::AdeptFitness specFitness(specDriver, sim::p100());

    Rng rng(GetParam());
    int valid = 0;
    for (int trial = 0; trial < 25; ++trial) {
        const auto edits = randomPatch(built.module, rng);
        const auto a = core::evaluateVariant(built.module, edits, fitness);
        const auto b = core::evaluateVariant(built.module, edits, fitness);
        EXPECT_EQ(a.valid, b.valid);
        if (a.valid) {
            EXPECT_DOUBLE_EQ(a.ms(), b.ms());
            ++valid;
        } else {
            EXPECT_FALSE(a.failReason.empty());
        }
        expectModesAgree(built.module, edits, fitness, &specFitness);
        expectFastForwardAgrees(driver, built.module, edits);
    }
    ++gCorpus.testsDone;
    // Mutational robustness (paper Sec VIII cites 20-40% neutral edits):
    // a healthy fraction of random patches must still pass everything.
    EXPECT_GT(valid, 2) << "suspiciously fragile under seed "
                        << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdeptFuzz, ::testing::ValuesIn(kAdeptSeeds));

/// ADEPT-V0 mutants (the search benchmark's workload) at
/// setBlockThreads(1) and setBlockThreads(gridDim), both interpreters.
class AdeptV0SpeculationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

/// adept-v0 over 4 pairs (data seed 7), serial and speculative.
struct AdeptV0Setup {
    AdeptV0Setup()
        : pairs(makePairs()),
          built(adept::buildAdeptV0(adept::ScoringParams{}, 64)),
          driver(pairs, adept::ScoringParams{}, 0, 64),
          fitness(driver, sim::p100()),
          specDriver(makeSpecDriver(pairs)),
          specFitness(specDriver, sim::p100())
    {
    }

    static adept::AdeptDriver
    makeSpecDriver(const std::vector<adept::SequencePair>& pairs)
    {
        adept::AdeptDriver d(pairs, adept::ScoringParams{}, 0, 64);
        d.setBlockThreads(static_cast<std::uint32_t>(pairs.size()));
        return d;
    }

    static std::vector<adept::SequencePair>
    makePairs()
    {
        adept::SequenceSetConfig cfg;
        cfg.numPairs = 4;
        cfg.seed = 7;
        auto pairs = adept::generatePairs(cfg);
        adept::appendBoundaryProbePairs(&pairs, cfg.maxLen, cfg.seed);
        return pairs;
    }

    /// Every oracle of this file over \p edits.
    void
    check(const std::vector<mut::Edit>& edits) const
    {
        expectModesAgree(built.module, edits, fitness, &specFitness);
        expectFastForwardAgrees(driver, built.module, edits);
    }

    std::vector<adept::SequencePair> pairs;
    adept::AdeptModule built;
    adept::AdeptDriver driver;
    adept::AdeptFitness fitness;
    adept::AdeptDriver specDriver;
    adept::AdeptFitness specFitness;
};

TEST_P(AdeptV0SpeculationFuzz, SpeculativeLaunchesMatchSerial)
{
    const AdeptV0Setup v0;
    Rng rng(GetParam());
    for (int trial = 0; trial < 12; ++trial)
        v0.check(randomPatch(v0.built.module, rng));
    ++gCorpus.testsDone;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdeptV0SpeculationFuzz,
                         ::testing::ValuesIn(kAdeptV0Seeds));

/// A timing-out mutant from an adept-v0 search (pop 12 x 50, 4 pairs,
/// search seed 3, data seed 7) whose block state repeats except for dead
/// drifting registers. Random 1-6 edit patches rarely build one, so the
/// corpus pins it.
constexpr const char* kDriftingV0Mutant = R"(oprepl 65 0 1 r 48 0
delete 72 0 -1 n 0 0
oprepl 65 0 1 r 48 0
oprepl 76 0 0 r 0 0
oprepl 65 0 1 r 48 0
delete 72 0 -1 n 0 0
delete 72 0 -1 n 0 0
delete 72 0 -1 n 0 0
move 64 1 -1 n 0 0
oprepl 65 0 1 r 48 0
oprepl 45 0 0 r 39 0
delete 72 0 -1 n 0 0
oprepl 76 0 0 r 0 0
copy 70 59 -1 n 0 17421142973284012611
move 66 46 -1 n 0 0
)";

TEST(AdeptV0PinnedMutant, DriftingRepeatMatchesEveryMode)
{
    const AdeptV0Setup v0;
    std::vector<mut::Edit> edits;
    ASSERT_TRUE(mut::deserializeEdits(kDriftingV0Mutant, &edits));
    v0.check(edits);
    ++gCorpus.testsDone;
}

class SimcovFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimcovFuzz, RandomPatchesNeverCrash)
{
    simcov::SimcovConfig cfg;
    cfg.gridW = 16;
    cfg.steps = 6;
    const auto built = simcov::buildSimcov(cfg);
    const simcov::SimcovDriver driver(cfg);
    simcov::SimcovFitness fitness(driver, sim::p100());

    Rng rng(GetParam());
    for (int trial = 0; trial < 12; ++trial) {
        std::vector<mut::Edit> edits;
        const int n = 1 + static_cast<int>(rng.below(4));
        for (int i = 0; i < n; ++i) {
            const auto patched = mut::applyPatch(built.module, edits);
            const auto e = mut::sampleEdit(patched, rng);
            if (e)
                edits.push_back(*e);
        }
        const auto r = core::evaluateVariant(built.module, edits, fitness);
        if (!r.valid) {
            EXPECT_FALSE(r.failReason.empty());
        }
        expectModesAgree(built.module, edits, fitness);
        expectFastForwardAgrees(driver, built.module, edits);
    }
    ++gCorpus.testsDone;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimcovFuzz, ::testing::ValuesIn(kSimcovSeeds));

TEST(OversubscribeModel, TimingScalesWithBatchWhileFunctionStaysFixed)
{
    // The saturated-regime wave model: more logical blocks means
    // proportionally more simulated time, identical results.
    adept::SequenceSetConfig cfg;
    cfg.numPairs = 4;
    cfg.seed = 3;
    const auto pairs = adept::generatePairs(cfg);
    const auto built = adept::buildAdeptV0(adept::ScoringParams{}, 64);
    adept::AdeptDriver driver(pairs, adept::ScoringParams{}, 0, 64);

    driver.setOversubscribe(64);
    const auto small = driver.run(built.module, sim::p100());
    driver.setOversubscribe(256);
    const auto big = driver.run(built.module, sim::p100());
    ASSERT_TRUE(small.ok());
    ASSERT_TRUE(big.ok());
    for (std::size_t i = 0; i < small.results.size(); ++i)
        EXPECT_TRUE(small.results[i] == big.results[i]);
    EXPECT_NEAR(big.totalMs / small.totalMs, 4.0, 0.5);
}

} // namespace
} // namespace gevo
