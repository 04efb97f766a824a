#include "apps/adept/golden_edits.h"

#include <gtest/gtest.h>

#include "apps/adept/driver.h"
#include "core/fitness.h"

namespace gevo::adept {
namespace {

struct Fixture {
    Fixture()
        : pairs(makePairs()), v0(buildAdeptV0(ScoringParams{}, 64)),
          v1(buildAdeptV1(ScoringParams{}, 64)),
          driver0(pairs, ScoringParams{}, 0, 64),
          driver1(pairs, ScoringParams{}, 1, 64)
    {
    }

    static std::vector<SequencePair>
    makePairs()
    {
        SequenceSetConfig cfg;
        cfg.numPairs = 6;
        cfg.minLen = 40;
        cfg.maxLen = 64;
        cfg.seed = 7;
        auto p = generatePairs(cfg);
        appendBoundaryProbePairs(&p, 64, 7);
        return p;
    }

    std::vector<SequencePair> pairs;
    AdeptModule v0;
    AdeptModule v1;
    AdeptDriver driver0;
    AdeptDriver driver1;
};

core::FitnessResult
evalV1(const Fixture& fx, const std::vector<mut::Edit>& edits,
       const sim::DeviceConfig& dev = sim::p100())
{
    AdeptFitness fitness(fx.driver1, dev);
    return core::evaluateVariant(fx.v1.module, edits, fitness);
}

TEST(GoldenEdits, V0MemsetRemovalGivesPaperScaleSpeedup)
{
    Fixture fx;
    AdeptFitness fitness(fx.driver0, sim::p100());
    const auto base = core::evaluateVariant(fx.v0.module, {}, fitness);
    const auto gevo = core::evaluateVariant(
        fx.v0.module, editsOf(v0GoldenEdits(fx.v0)), fitness);
    ASSERT_TRUE(base.valid);
    ASSERT_TRUE(gevo.valid) << gevo.failReason;
    // Paper Sec VI-C: ">30x"; ours lands in the mid-20s..30s.
    EXPECT_GT(base.ms() / gevo.ms(), 15.0);
}

TEST(GoldenEdits, ClusterMembersFailIndividually)
{
    Fixture fx;
    const auto cluster = v1EpistaticCluster(fx.v1);
    // Order: e6, e8, e10, e5.
    EXPECT_TRUE(evalV1(fx, {cluster[0].edit}).valid) << "e6 alone";
    EXPECT_FALSE(evalV1(fx, {cluster[1].edit}).valid) << "e8 alone";
    EXPECT_FALSE(evalV1(fx, {cluster[2].edit}).valid) << "e10 alone";
    EXPECT_FALSE(evalV1(fx, {cluster[3].edit}).valid) << "e5 alone";
}

TEST(GoldenEdits, ClusterSubsetsMatchPaperStructure)
{
    Fixture fx;
    const auto cluster = v1EpistaticCluster(fx.v1);
    const auto base = evalV1(fx, {});
    ASSERT_TRUE(base.valid);

    auto pick = [&](std::initializer_list<int> idx) {
        std::vector<mut::Edit> edits;
        for (int i : idx)
            edits.push_back(cluster[i].edit);
        return edits;
    };
    const auto e6 = evalV1(fx, pick({0}));
    const auto e68 = evalV1(fx, pick({0, 1}));
    const auto e6810 = evalV1(fx, pick({0, 1, 2}));
    const auto all4 = evalV1(fx, pick({0, 1, 2, 3}));
    ASSERT_TRUE(e6.valid);
    ASSERT_TRUE(e68.valid);
    ASSERT_TRUE(e6810.valid);
    ASSERT_TRUE(all4.valid);
    // Paper Fig 7 ordering: {6} < {6,8} < {6,8,10} < {5,6,8,10}.
    EXPECT_LT(std::abs(base.ms() - e6.ms()) / base.ms(), 0.02); // "<1%"
    EXPECT_LT(e68.ms(), e6.ms());
    EXPECT_LT(e6810.ms(), e68.ms());
    EXPECT_LT(all4.ms(), e6810.ms());
    EXPECT_GT(base.ms() / all4.ms(), 1.05);
}

TEST(GoldenEdits, FullSetReachesPaperBallparkOnP100)
{
    Fixture fx;
    const auto base = evalV1(fx, {});
    const auto all = evalV1(fx, editsOf(v1AllGoldenEdits(fx.v1)));
    ASSERT_TRUE(all.valid) << all.failReason;
    // Paper Fig 4: 1.28x on the P100.
    EXPECT_GT(base.ms() / all.ms(), 1.20);
    EXPECT_LT(base.ms() / all.ms(), 1.40);
}

TEST(GoldenEdits, BallotRemovalHelpsVoltaNotPascal)
{
    Fixture fx;
    const auto indep = v1IndependentEdits(fx.v1);
    ASSERT_EQ(indep[0].name, "ballot");
    const std::vector<mut::Edit> ballotOnly = {indep[0].edit};

    const auto p100Base = evalV1(fx, {}, sim::p100());
    const auto p100Ballot = evalV1(fx, ballotOnly, sim::p100());
    const auto v100Base = evalV1(fx, {}, sim::v100());
    const auto v100Ballot = evalV1(fx, ballotOnly, sim::v100());
    ASSERT_TRUE(p100Ballot.valid);
    ASSERT_TRUE(v100Ballot.valid);
    const double pascalGain = p100Base.ms() / p100Ballot.ms();
    const double voltaGain = v100Base.ms() / v100Ballot.ms();
    // Paper Sec VI-B: ~4% on the V100, nothing on the P100.
    EXPECT_GT(voltaGain, 1.02);
    EXPECT_LT(pascalGain, 1.01);
}

TEST(GoldenEdits, PortabilityTrapRunsOnPascalFaultsOnVolta)
{
    Fixture fx;
    const std::vector<mut::Edit> trap = {
        v1PortabilityTrapEdit(fx.v1).edit};
    const auto pascal = evalV1(fx, trap, sim::p100());
    EXPECT_TRUE(pascal.valid) << pascal.failReason;
    const auto volta = evalV1(fx, trap, sim::v100());
    EXPECT_FALSE(volta.valid);
    EXPECT_NE(volta.failReason.find("illegal-warp-sync"),
              std::string::npos)
        << volta.failReason;
}

TEST(GoldenEdits, CrossDeviceGeneralityOfV0Optimization)
{
    // Paper Sec IV "Generality": the P100-evolved V0 optimization keeps
    // ~99% of its gain on the other GPUs.
    Fixture fx;
    AdeptFitness p100Fit(fx.driver0, sim::p100());
    const auto edits = editsOf(v0GoldenEdits(fx.v0));
    for (const auto& dev : sim::allDevices()) {
        AdeptFitness fit(fx.driver0, dev);
        const auto base = core::evaluateVariant(fx.v0.module, {}, fit);
        const auto opt = core::evaluateVariant(fx.v0.module, edits, fit);
        ASSERT_TRUE(opt.valid) << dev.name;
        EXPECT_GT(base.ms() / opt.ms(), 10.0) << dev.name;
    }
}

} // namespace
} // namespace gevo::adept
