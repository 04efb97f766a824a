/// Reduction workload: CPU reference properties, kernel-vs-reference
/// differential (exact integer sums), golden-edit expectations, and
/// trace-vs-refpath interpreter agreement (the shfl/ballot path).

#include <gtest/gtest.h>

#include "apps/reduce/driver.h"
#include "apps/reduce/kernels.h"
#include "apps/registry.h"
#include "core/fitness.h"
#include "core/workload.h"
#include "ir/verifier.h"
#include "sim/device_config.h"

#include "../sim/sim_test_util.h"

namespace gevo::reduce {
namespace {

ReduceConfig
smallConfig()
{
    ReduceConfig cfg;
    cfg.elems = 1024;
    cfg.inputs = 2;
    return cfg;
}

TEST(ReduceCpu, PartialsSumToTotalAndDatasetsDiffer)
{
    const auto cfg = smallConfig();
    const auto in0 = makeInput(cfg, 0);
    const auto in1 = makeInput(cfg, 1);
    EXPECT_NE(in0, in1);

    const auto partials = cpuPartials(cfg, in0);
    ASSERT_EQ(partials.size(),
              static_cast<std::size_t>(cfg.numBlocks()));
    std::uint32_t sum = 0;
    for (const auto p : partials)
        sum += p;
    EXPECT_EQ(sum, cpuTotal(in0));
    EXPECT_GT(cpuTotal(in0), 0u);
}

TEST(ReduceKernels, ModuleVerifies)
{
    const auto built = buildReduce(smallConfig());
    const auto res = ir::verifyModule(built.module);
    EXPECT_TRUE(res.ok()) << res.message();
    EXPECT_EQ(built.module.numFunctions(), 2u);
}

TEST(ReduceKernels, GpuMatchesCpuExactly)
{
    const auto cfg = smallConfig();
    const auto built = buildReduce(cfg);
    const ReduceDriver driver(cfg);
    const auto out = driver.run(built.module, sim::p100());
    ASSERT_TRUE(out.ok()) << out.fault.detail;
    ASSERT_EQ(out.totals.size(), static_cast<std::size_t>(cfg.inputs));
    for (std::size_t d = 0; d < out.totals.size(); ++d) {
        EXPECT_EQ(out.partials[d], driver.expectedPartials()[d])
            << "dataset " << d;
        EXPECT_EQ(out.totals[d], driver.expectedTotals()[d])
            << "dataset " << d;
    }
}

TEST(ReduceGolden, AllEditsPassAndSpeedUp)
{
    const auto cfg = smallConfig();
    const auto built = buildReduce(cfg);
    const ReduceDriver driver(cfg);
    const ReduceFitness fitness(driver, sim::p100());

    const auto baseline =
        core::evaluateVariant(built.module, {}, fitness);
    ASSERT_TRUE(baseline.valid) << baseline.failReason;

    const auto golden = core::evaluateVariant(
        built.module, editsOf(allGoldenEdits(built)), fitness);
    ASSERT_TRUE(golden.valid) << golden.failReason;
    EXPECT_LT(golden.ms(), baseline.ms());

    for (const auto& named : allGoldenEdits(built)) {
        const auto one =
            core::evaluateVariant(built.module, {named.edit}, fitness);
        EXPECT_TRUE(one.valid) << named.name << ": " << one.failReason;
        EXPECT_LE(one.ms(), baseline.ms()) << named.name;
    }
}

/// The planted guards are removable; the reduction's data flow is not. A
/// mutant that reroutes the second element load to the wrong base array
/// (the output pointer, register r1) still runs fault-free but sums the
/// wrong values — the exact-sum check must reject it.
TEST(ReduceGolden, WrongRerouteIsInvalid)
{
    const auto cfg = smallConfig();
    const auto built = buildReduce(cfg);
    const ReduceDriver driver(cfg);
    const ReduceFitness fitness(driver, sim::p100());

    mut::Edit e;
    e.kind = mut::EditKind::OperandReplace;
    e.srcUid = built.uidOf("rdp.second.load");
    e.opIndex = 0;
    e.newOperand = ir::Operand::reg(1);
    const auto r = core::evaluateVariant(built.module, {e}, fitness);
    EXPECT_FALSE(r.valid);
}

/// Held-out validation must compare outputs, not only look for a fault.
/// At the default knobs this operand reroute is exact on the two 8192-
/// element fitness datasets but sums the wrong values at 16384 elements
/// without faulting; a check that only watches for faults passes it.
TEST(ReduceHeldOut, WrongTotalAtHeldOutScaleIsRejected)
{
    apps::registerBuiltinWorkloads();
    const auto instance =
        core::WorkloadRegistry::instance().get("reduce").make({});
    mut::Edit e;
    e.kind = mut::EditKind::OperandReplace;
    e.srcUid = 93;
    e.opIndex = 0;
    e.newOperand = ir::Operand::reg(36);
    ASSERT_EQ(e.toString(), "oprepl(#93.0 <- r36)");

    const auto fit =
        core::evaluateVariant(instance->module(), {e}, instance->fitness());
    ASSERT_TRUE(fit.valid) << fit.failReason;
    const auto diag = instance->validateBest({e}).value_or("");
    EXPECT_NE(diag, "");
    EXPECT_NE(diag.find("got total"), std::string::npos) << diag;
}

TEST(ReduceSim, TraceAndReferenceInterpretersAgree)
{
    const auto cfg = smallConfig();
    const auto built = buildReduce(cfg);
    const ReduceDriver driver(cfg);
    ReduceRunOutput trace;
    ReduceRunOutput ref;
    {
        sim::testutil::InterpModeGuard g(sim::InterpMode::Trace);
        trace = driver.run(built.module, sim::p100(), true);
    }
    {
        sim::testutil::InterpModeGuard g(sim::InterpMode::Reference);
        ref = driver.run(built.module, sim::p100(), true);
    }
    ASSERT_TRUE(trace.ok());
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(trace.totalMs, ref.totalMs);
    EXPECT_EQ(trace.totals, ref.totals);
    EXPECT_EQ(trace.partials, ref.partials);
    sim::testutil::expectStatsEqual(trace.aggregate, ref.aggregate);
}

TEST(ReduceSim, DensePackingPreservesProfiledCounters)
{
    // The tree reduction halves the active mask every level — the
    // densest sparse-mask workload in the suite. Profiled counters must
    // be identical with packing on and off.
    const auto cfg = smallConfig();
    const auto built = buildReduce(cfg);
    const ReduceDriver driver(cfg);
    sim::testutil::InterpModeGuard m(sim::InterpMode::Trace);
    ReduceRunOutput dense;
    ReduceRunOutput legacy;
    {
        sim::testutil::DenseLaneGuard g(true);
        dense = driver.run(built.module, sim::p100(), true);
    }
    {
        sim::testutil::DenseLaneGuard g(false);
        legacy = driver.run(built.module, sim::p100(), true);
    }
    ASSERT_TRUE(dense.ok());
    ASSERT_TRUE(legacy.ok());
    EXPECT_EQ(dense.totalMs, legacy.totalMs);
    EXPECT_EQ(dense.totals, legacy.totals);
    EXPECT_EQ(dense.partials, legacy.partials);
    sim::testutil::expectStatsEqual(dense.aggregate, legacy.aggregate);
}

} // namespace
} // namespace gevo::reduce
