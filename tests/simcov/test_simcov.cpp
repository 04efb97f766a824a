#include <gtest/gtest.h>

#include "apps/simcov/cpu_model.h"
#include "apps/simcov/driver.h"
#include "apps/simcov/golden_edits.h"
#include "core/fitness.h"
#include "ir/verifier.h"
#include "mutation/patch.h"
#include "opt/passes.h"
#include "sim/device_config.h"

namespace gevo::simcov {
namespace {

SimcovConfig
smallConfig()
{
    SimcovConfig cfg;
    cfg.gridW = 32;
    cfg.steps = 20;
    return cfg;
}

TEST(SimcovCpu, DeterministicAcrossRuns)
{
    const auto cfg = smallConfig();
    const auto a = runCpuModel(cfg);
    const auto b = runCpuModel(cfg);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t s = 0; s < a.size(); ++s) {
        EXPECT_EQ(a[s].totalVirions, b[s].totalVirions);
        EXPECT_EQ(a[s].tcells, b[s].tcells);
    }
}

TEST(SimcovCpu, InfectionSpreadsAndKillsCells)
{
    auto cfg = smallConfig();
    cfg.steps = 30;
    const auto series = runCpuModel(cfg);
    // The infection must take hold: virions grow from the seeded site,
    // cells die, T cells eventually arrive.
    EXPECT_GT(series.back().totalVirions, 0.0f);
    EXPECT_GT(series.back().dead, 0);
    EXPECT_GT(series.back().tcells, 0);
    EXPECT_GT(series.back().totalChemokine, 0.0f);
}

TEST(SimcovCpu, DifferentSeedsDiverge)
{
    auto cfg = smallConfig();
    auto cfg2 = cfg;
    cfg2.seed = cfg.seed + 1;
    const auto a = runCpuModel(cfg);
    const auto b = runCpuModel(cfg2);
    bool anyDiff = false;
    for (std::size_t s = 0; s < a.size() && !anyDiff; ++s)
        anyDiff = a[s].tcells != b[s].tcells ||
                  a[s].infected != b[s].infected;
    EXPECT_TRUE(anyDiff);
}

TEST(SimcovKernels, ModuleVerifiesAndHasEightKernels)
{
    const auto built = buildSimcov(smallConfig());
    const auto res = ir::verifyModule(built.module);
    EXPECT_TRUE(res.ok()) << res.message();
    EXPECT_EQ(built.module.numFunctions(), 8u);
}

TEST(SimcovKernels, GpuMatchesCpuExactly)
{
    const auto cfg = smallConfig();
    const auto built = buildSimcov(cfg);
    const SimcovDriver driver(cfg);
    for (const auto& dev : sim::allDevices()) {
        const auto out = driver.run(built.module, dev);
        ASSERT_TRUE(out.ok()) << dev.name << ": " << out.fault.detail;
        ASSERT_EQ(out.series.size(), driver.expected().size());
        for (std::size_t s = 0; s < out.series.size(); ++s) {
            EXPECT_EQ(out.series[s].totalVirions,
                      driver.expected()[s].totalVirions)
                << dev.name << " step " << s;
            EXPECT_EQ(out.series[s].totalChemokine,
                      driver.expected()[s].totalChemokine);
            EXPECT_EQ(out.series[s].tcells, driver.expected()[s].tcells);
            EXPECT_EQ(out.series[s].infected,
                      driver.expected()[s].infected);
            EXPECT_EQ(out.series[s].dead, driver.expected()[s].dead);
        }
    }
}

TEST(SimcovKernels, PaddedVariantMatchesBaselineExactly)
{
    const auto cfg = smallConfig();
    const auto padded = buildSimcov(cfg, true);
    const SimcovDriver driver(cfg, true);
    const auto out = driver.run(padded.module, sim::p100());
    ASSERT_TRUE(out.ok()) << out.fault.detail;
    for (std::size_t s = 0; s < out.series.size(); ++s) {
        EXPECT_EQ(out.series[s].totalVirions,
                  driver.expected()[s].totalVirions)
            << "step " << s;
        EXPECT_EQ(out.series[s].tcells, driver.expected()[s].tcells);
    }
}

TEST(SimcovKernels, PaddedVariantIsFaster)
{
    const auto cfg = smallConfig();
    const auto base = buildSimcov(cfg);
    const auto padded = buildSimcov(cfg, true);
    const SimcovDriver bd(cfg);
    const SimcovDriver pd(cfg, true);
    const auto ob = bd.run(base.module, sim::p100());
    const auto op = pd.run(padded.module, sim::p100());
    ASSERT_TRUE(ob.ok());
    ASSERT_TRUE(op.ok());
    // Paper Sec VI-D: padding buys ~14%.
    EXPECT_GT(ob.totalMs / op.totalMs, 1.08);
    EXPECT_LT(ob.totalMs / op.totalMs, 1.35);
}

TEST(SimcovGolden, BoundaryRemovalPassesAndSpeedsUpSmallGrid)
{
    const auto cfg = smallConfig();
    const auto built = buildSimcov(cfg);
    const SimcovDriver driver(cfg);
    SimcovFitness fitness(driver, sim::p100());
    const auto base = core::evaluateVariant(built.module, {}, fitness);
    ASSERT_TRUE(base.valid) << base.failReason;
    const auto bnd = core::evaluateVariant(
        built.module, editsOf(boundaryCheckEdits(built)), fitness);
    ASSERT_TRUE(bnd.valid) << bnd.failReason;
    // Paper Sec VI-D: ~20% improvement from boundary-check removal.
    EXPECT_GT(base.ms() / bnd.ms(), 1.12);
    EXPECT_LT(base.ms() / bnd.ms(), 1.40);
}

TEST(SimcovGolden, AllGoldenEditsReachPaperBallpark)
{
    const auto cfg = smallConfig();
    const auto built = buildSimcov(cfg);
    const SimcovDriver driver(cfg);
    SimcovFitness fitness(driver, sim::p100());
    const auto base = core::evaluateVariant(built.module, {}, fitness);
    const auto all = core::evaluateVariant(
        built.module, editsOf(allGoldenEdits(built)), fitness);
    ASSERT_TRUE(all.valid) << all.failReason;
    // Paper Fig 5: 1.29x on the P100.
    EXPECT_GT(base.ms() / all.ms(), 1.15);
    EXPECT_LT(base.ms() / all.ms(), 1.45);
}

TEST(SimcovGolden, BoundaryRemovalFaultsOnLargeTightGrid)
{
    // Paper Sec VI-D / Fig 10(b): the same variant that passes the small
    // fitness grid segfaults on the held-out large grid.
    SimcovConfig big;
    big.gridW = 96;
    big.steps = 2;
    const auto built = buildSimcov(big);
    const SimcovDriver driver(big, false, /*tightArena=*/true);

    const auto baseline = driver.run(built.module, sim::p100());
    ASSERT_TRUE(baseline.ok()) << baseline.fault.detail;

    auto variant = mut::applyPatch(built.module,
                                   editsOf(boundaryCheckEdits(built)));
    opt::runCleanupPipeline(variant);
    const auto out = driver.run(variant, sim::p100());
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.fault.kind, sim::FaultKind::MemOobGlobal);
}

TEST(SimcovGolden, PaddedVariantSurvivesLargeTightGrid)
{
    // Fig 10(c): zero-padding keeps the check-free stencil in bounds.
    SimcovConfig big;
    big.gridW = 96;
    big.steps = 2;
    const auto padded = buildSimcov(big, true);
    const SimcovDriver driver(big, true, /*tightArena=*/true);
    const auto out = driver.run(padded.module, sim::p100());
    EXPECT_TRUE(out.ok()) << out.fault.detail;
}

TEST(SimcovSeries, ToleranceComparatorBehaves)
{
    TimeSeries ref(4);
    for (std::size_t i = 0; i < ref.size(); ++i) {
        ref[i].totalVirions = 100.0f + static_cast<float>(i);
        ref[i].tcells = 10;
    }
    TimeSeries same = ref;
    EXPECT_TRUE(compareSeries(ref, same, {}).empty());

    TimeSeries close = ref;
    for (auto& s : close)
        s.totalVirions *= 1.01f; // within 2% mean
    EXPECT_TRUE(compareSeries(ref, close, {}).empty());

    TimeSeries off = ref;
    for (auto& s : off)
        s.totalVirions *= 1.2f;
    EXPECT_FALSE(compareSeries(ref, off, {}).empty());

    TimeSeries shortSeries(2);
    EXPECT_FALSE(compareSeries(ref, shortSeries, {}).empty());
}

TEST(SimcovFitnessTest, BreakingEditIsRejected)
{
    const auto cfg = smallConfig();
    const auto built = buildSimcov(cfg);
    const SimcovDriver driver(cfg);
    SimcovFitness fitness(driver, sim::p100());
    // Kill virion production: the epidemic never grows -> series way off.
    mut::Edit e;
    e.kind = mut::EditKind::InstrDelete;
    bool found = false;
    for (const auto& bb :
         built.module.findFunction("sc_vdiff")->blocks) {
        for (const auto& in : bb.instrs) {
            if (in.op == ir::Opcode::Store &&
                in.space == ir::MemSpace::Global && !found) {
                e.srcUid = in.uid;
                found = true;
            }
        }
    }
    ASSERT_TRUE(found);
    const auto res = evaluateVariant(built.module, {e}, fitness);
    EXPECT_FALSE(res.valid);
}

} // namespace
} // namespace gevo::simcov
