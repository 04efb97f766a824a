/// Exact fast-forward of non-terminating blocks (sim::fastForwardMode()):
/// with it on, a launch must leave exactly what it leaves with it off —
/// the same fault kind and text, every LaunchStats field (per-loc profile
/// included) and every byte of the arena — under both interpreters, with
/// dense lanes on and off, serial and speculative, profiled or not. The
/// process counters then show that it fired on the periodic loops, and
/// only there.

#include <gtest/gtest.h>

#include <utility>

#include "sim_test_util.h"

namespace gevo::sim {
namespace {

using testutil::compile;
using testutil::expectStatsEqual;

/// Lanes diverge on parity every iteration and reconverge before the
/// exit test, which never holds: odd lanes load from global, even lanes
/// store a toggling value to shared. The state repeats every two
/// iterations.
constexpr const char* kExactKernel = R"(
kernel @ffexact params 1 regs 16 shared 256 local 0 {
entry:
    r1 = tid @"ff.cu:1"
    r2 = and r1, 1 @"ff.cu:2"
    r3 = cvt.i32.i64 r1
    r4 = mul.i64 r3, 4
    br loop
loop:
    brc r2, odd, even @"ff.cu:3"
odd:
    r5 = ld.i32.global r0 @"ff.cu:4"
    br join
even:
    st.i32.shared r4, r6 @"ff.cu:5"
    br join
join:
    r6 = xor r6, 1 @"ff.cu:6"
    r7 = cmp.lt.i32 r1, 0 @"ff.cu:7"
    brc r7, out, loop @"ff.cu:8"
out:
    ret
}
)";

/// Divergent lanes that never reconverge: the loop has no exit, so the
/// branch reconverges only at kernel exit and the odd lanes spin alone
/// while their counter r6 only feeds itself (the even lanes' store of it
/// never runs).
constexpr const char* kStrandedKernel = R"(
kernel @ffstrand params 1 regs 16 shared 256 local 0 {
entry:
    r1 = tid
    r2 = and r1, 1
    r3 = cvt.i32.i64 r1
    r4 = mul.i64 r3, 4
    br loop
loop:
    brc r2, odd, even
odd:
    r5 = ld.i32.global r0
    br join
even:
    st.i32.shared r4, r6
    br join
join:
    r6 = add.i32 r6, 1
    br loop
}
)";

/// Two warps exchange values through shared memory across barriers:
/// each lane reads its mirror lane's value and flips a bit, so the state
/// repeats every two iterations.
constexpr const char* kBarrierKernel = R"(
kernel @ffbar params 1 regs 16 shared 256 local 0 {
entry:
    r1 = tid
    r2 = cvt.i32.i64 r1
    r3 = mul.i64 r2, 4
    r4 = xor r1, 63
    r5 = cvt.i32.i64 r4
    r6 = mul.i64 r5, 4
    r7 = mov r1
    br loop
loop:
    st.i32.shared r3, r7 @"ff.cu:10"
    bar.sync @"ff.cu:11"
    r8 = ld.i32.shared r6 @"ff.cu:12"
    r7 = xor r8, 1 @"ff.cu:13"
    bar.sync @"ff.cu:14"
    br loop @"ff.cu:15"
}
)";

/// Stores the same value to global memory every iteration.
constexpr const char* kSameStoreKernel = R"(
kernel @ffsame params 1 regs 16 shared 0 local 0 {
entry:
    r1 = tid
    r2 = cvt.i32.i64 r1
    r3 = mul.i64 r2, 4
    r4 = add.i64 r0, r3
    r5 = mul.i32 r1, 3
    br loop
loop:
    st.i32.global r4, r5 @"ff.cu:20"
    r6 = ld.i32.global r4 @"ff.cu:21"
    br loop @"ff.cu:22"
}
)";

/// The dead counter of Faults.InfiniteLoopTimesOut: r1 only feeds
/// itself.
constexpr const char* kDeadCounterKernel = R"(
kernel @spin params 1 regs 8 shared 0 local 0 {
entry:
    br spin
spin:
    r1 = add.i32 r1, 1 @"ff.cu:30"
    br spin @"ff.cu:31"
}
)";

/// A counter that code after the loop stores, behind an exit test that
/// never holds and does not read it: inside the loop the counter only
/// feeds itself.
constexpr const char* kDeadUntilExitKernel = R"(
kernel @ffexit params 1 regs 8 shared 0 local 0 {
entry:
    r3 = tid
    br loop
loop:
    r1 = add.i32 r1, 1 @"ff.cu:40"
    r2 = cmp.lt.i32 r3, 0 @"ff.cu:41"
    brc r2, out, loop @"ff.cu:42"
out:
    st.i32.global r0, r1
    ret
}
)";

/// Loops r1 times (a kernel argument); the exit compare reads the
/// counter, so the state never repeats.
constexpr const char* kLoopKernel = R"(
kernel @count params 2 regs 16 shared 0 local 0 {
entry:
    r2 = mov 0
    br loop
loop:
    r2 = add.i32 r2, 1 @"ff.cu:50"
    r3 = cmp.lt.i32 r2, r1 @"ff.cu:51"
    brc r3, loop, out @"ff.cu:52"
out:
    r4 = bid
    r5 = cvt.i32.i64 r4
    r6 = mul.i64 r5, 4
    r7 = add.i64 r0, r6
    st.i32.global r7, r2
    ret
}
)";

/// Stores a growing counter to global memory: never repeats.
constexpr const char* kGrowingStoreKernel = R"(
kernel @ffgrow params 1 regs 16 shared 0 local 0 {
entry:
    r1 = tid
    r2 = cvt.i32.i64 r1
    r3 = mul.i64 r2, 4
    r4 = add.i64 r0, r3
    br loop
loop:
    r5 = add.i32 r5, 1 @"ff.cu:60"
    st.i32.global r4, r5 @"ff.cu:61"
    br loop @"ff.cu:62"
}
)";

/// Bumps a global counter with an atomic whose old value is dead: the
/// registers repeat up to that dead value, and only global memory tells
/// the iterations apart.
constexpr const char* kAtomicCounterKernel = R"(
kernel @ffatom params 1 regs 8 shared 0 local 0 {
entry:
    br loop
loop:
    r1 = atom.add.i32.global r0, 1 @"ff.cu:70"
    br loop @"ff.cu:71"
}
)";

/// Outcome of one launch on a fresh arena.
struct Outcome {
    LaunchResult result;
    std::vector<std::uint8_t> arena;
};

/// Launch \p prog on a fresh 64 KiB arena holding one 4 KiB allocation
/// (arguments: its base, then \p extraArgs).
Outcome
launchOnce(const Program& prog, LaunchDims dims, const DeviceConfig& dev,
           bool profile, const std::vector<std::uint64_t>& extraArgs)
{
    DeviceMemory mem(1 << 16);
    const auto base = mem.alloc(4096);
    std::vector<std::uint64_t> args = {static_cast<std::uint64_t>(base)};
    args.insert(args.end(), extraArgs.begin(), extraArgs.end());
    Outcome out;
    out.result = launchKernel(dev, mem, prog, dims, args, profile);
    out.arena.assign(mem.raw(), mem.raw() + mem.capacity());
    return out;
}

FastForwardCounts
delta(const FastForwardCounts& before)
{
    const FastForwardCounts now = fastForwardCounts();
    FastForwardCounts d;
    d.armedBlocks = now.armedBlocks - before.armedBlocks;
    d.exactJumps = now.exactJumps - before.exactJumps;
    d.driftJumps = now.driftJumps - before.driftJumps;
    return d;
}

/// What fast-forward should do in a launch whose block 0 times out.
enum class Expect { Exact, Drift, None };

DeviceConfig
smallBudget()
{
    DeviceConfig dev = p100();
    dev.maxInstrPerThread = 20000; // soft cap 312
    return dev;
}

/// Run \p text with fast-forward off and on under every interpreter,
/// dense-lane, speculation and profiling setting; require identical
/// outcomes and a Timeout in block 0, and that fast-forward armed the
/// one block that may run the full budget and jumped as \p expect says.
void
expectTimeoutMatches(const char* text, LaunchDims dims, Expect expect,
                     const DeviceConfig& dev = smallBudget(),
                     const std::vector<std::uint64_t>& extraArgs = {})
{
    const Program prog = compile(text);
    const std::uint32_t grid = dims.gridDim;
    for (const InterpMode mode : {InterpMode::Trace, InterpMode::Reference}) {
        testutil::InterpModeGuard interp(mode);
        for (const bool dense : {true, false}) {
            testutil::DenseLaneGuard lanes(dense);
            for (const std::uint32_t threads : {1u, grid}) {
                dims.blockThreads = threads;
                for (const bool profile : {false, true}) {
                    const std::string where = testing::PrintToString(
                        std::make_tuple(static_cast<int>(mode), dense,
                                        threads, profile));
                    Outcome off;
                    {
                        testutil::FastForwardGuard ff(false);
                        const FastForwardCounts before = fastForwardCounts();
                        off = launchOnce(prog, dims, dev, profile, extraArgs);
                        const FastForwardCounts d = delta(before);
                        EXPECT_EQ(d.armedBlocks, 0u) << where;
                    }
                    testutil::FastForwardGuard ff(true);
                    const FastForwardCounts before = fastForwardCounts();
                    const Outcome on =
                        launchOnce(prog, dims, dev, profile, extraArgs);
                    const FastForwardCounts d = delta(before);

                    EXPECT_EQ(off.result.fault.kind, FaultKind::Timeout)
                        << where;
                    EXPECT_NE(off.result.fault.detail.find("block 0"),
                              std::string::npos)
                        << off.result.fault.detail;
                    EXPECT_EQ(off.result.fault.kind, on.result.fault.kind)
                        << where;
                    EXPECT_EQ(off.result.fault.detail,
                              on.result.fault.detail)
                        << where;
                    expectStatsEqual(off.result.stats, on.result.stats);
                    EXPECT_TRUE(off.arena == on.arena)
                        << "arenas differ " << where;

                    EXPECT_EQ(d.armedBlocks, 1u) << where;
                    EXPECT_EQ(d.exactJumps, expect == Expect::Exact ? 1u : 0u)
                        << where;
                    EXPECT_EQ(d.driftJumps, expect == Expect::Drift ? 1u : 0u)
                        << where;
                }
            }
        }
    }
}

TEST(FastForward, BarrierFreeDivergentLoopRepeatsExactly)
{
    expectTimeoutMatches(kExactKernel, {3, 32}, Expect::Exact);
}

TEST(FastForward, StrandedDivergentLanesDrift)
{
    expectTimeoutMatches(kStrandedKernel, {3, 32}, Expect::Drift);
}

TEST(FastForward, BarrierLoopOverTwoWarpsRepeatsExactly)
{
    expectTimeoutMatches(kBarrierKernel, {3, 64}, Expect::Exact);
}

TEST(FastForward, SameValueGlobalStoreRepeatsExactly)
{
    expectTimeoutMatches(kSameStoreKernel, {3, 32}, Expect::Exact);
}

TEST(FastForward, DeadCounterDrifts)
{
    expectTimeoutMatches(kDeadCounterKernel, {3, 32}, Expect::Drift);
}

TEST(FastForward, CounterReadOnlyAfterTheLoopDrifts)
{
    expectTimeoutMatches(kDeadUntilExitKernel, {3, 32}, Expect::Drift);
}

TEST(FastForward, CounterReadByTheExitCompareNeverFires)
{
    expectTimeoutMatches(kLoopKernel, {3, 32}, Expect::None, smallBudget(),
                         {1u << 30});
}

TEST(FastForward, GrowingGlobalStoreNeverFires)
{
    expectTimeoutMatches(kGrowingStoreKernel, {3, 32}, Expect::None);
}

TEST(FastForward, GlobalAtomicCounterNeverFires)
{
    expectTimeoutMatches(kAtomicCounterKernel, {3, 32}, Expect::None);
}

TEST(FastForward, PartialLastWarpRepeatsExactly)
{
    // 40 threads: the second warp has 8 live lanes.
    expectTimeoutMatches(kExactKernel, {2, 40}, Expect::Exact);
}

TEST(FastForward, BlockPastTheSoftCapThatFinishesIsUntouched)
{
    // 2000 iterations (6000 warp instructions) per block: past the soft
    // cap, so each block arms, but every block finishes.
    const DeviceConfig dev = smallBudget();
    const Program prog = compile(kLoopKernel);
    for (const InterpMode mode : {InterpMode::Trace, InterpMode::Reference}) {
        testutil::InterpModeGuard interp(mode);
        for (const std::uint32_t threads : {1u, 4u}) {
            const LaunchDims dims{4, 32, 1, threads};
            Outcome off;
            {
                testutil::FastForwardGuard ff(false);
                off = launchOnce(prog, dims, dev, true, {2000});
            }
            testutil::FastForwardGuard ff(true);
            const FastForwardCounts before = fastForwardCounts();
            const Outcome on = launchOnce(prog, dims, dev, true, {2000});
            const FastForwardCounts d = delta(before);
            ASSERT_TRUE(off.result.ok()) << off.result.fault.detail;
            ASSERT_TRUE(on.result.ok()) << on.result.fault.detail;
            expectStatsEqual(off.result.stats, on.result.stats);
            EXPECT_TRUE(off.arena == on.arena);
            EXPECT_GE(d.armedBlocks, 1u);
            EXPECT_EQ(d.exactJumps + d.driftJumps, 0u);
        }
    }
}

TEST(FastForward, DefaultBudgetMatchesRunningItOut)
{
    // The real 4M budget, where k is in the hundreds of thousands: an
    // exact repeat across barriers on the trace path, a drifting counter
    // on the reference path (running the budget out is the slow part).
    const std::pair<InterpMode, const char*> cases[] = {
        {InterpMode::Trace, kBarrierKernel},
        {InterpMode::Reference, kDeadCounterKernel},
    };
    for (const auto& [mode, text] : cases) {
        testutil::InterpModeGuard interp(mode);
        const Program prog = compile(text);
        const LaunchDims dims{1, 64};
        Outcome off;
        {
            testutil::FastForwardGuard ff(false);
            off = launchOnce(prog, dims, p100(), true, {});
        }
        testutil::FastForwardGuard ff(true);
        const FastForwardCounts before = fastForwardCounts();
        const Outcome on = launchOnce(prog, dims, p100(), true, {});
        const FastForwardCounts d = delta(before);
        EXPECT_EQ(on.result.fault.kind, FaultKind::Timeout);
        EXPECT_EQ(off.result.fault.detail, on.result.fault.detail);
        expectStatsEqual(off.result.stats, on.result.stats);
        EXPECT_TRUE(off.arena == on.arena);
        EXPECT_EQ(d.exactJumps + d.driftJumps, 1u);
        EXPECT_GT(on.result.stats.warpInstrs, p100().maxInstrPerThread);
    }
}

} // namespace
} // namespace gevo::sim
