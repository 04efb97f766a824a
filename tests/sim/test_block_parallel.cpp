/// Speculative block-parallel launches (LaunchDims::blockThreads): for any
/// program, a launch with blockThreads > 1 must leave exactly what the
/// serial launch leaves — the same fault text, every LaunchStats field,
/// and every byte of the arena. Blocks that communicate (read-after-write
/// across blocks, atomics) must fall back to serial execution from the
/// first conflicting block; blocks that only write the same bytes, or
/// different bytes of one sector, must still commit.

#include <gtest/gtest.h>

#include "apps/adept/driver.h"
#include "apps/adept/kernels.h"
#include "apps/adept/sequences.h"
#include "sim_test_util.h"
#include "support/thread_pool.h"

namespace gevo::sim {
namespace {

using testutil::compile;
using testutil::expectStatsEqual;

/// Each thread writes f(global tid) to its own slot; blocks also diverge
/// on lane parity and loop a little so the divergence/latency counters
/// are non-trivial.
constexpr const char* kDisjointKernel = R"(
kernel @par params 1 regs 24 shared 256 local 0 {
entry:
    r1 = tid
    r2 = bid
    r3 = ntid
    r4 = mul.i32 r2, r3
    r5 = add.i32 r4, r1
    r6 = and r1, 1
    brc r6, odd, even
odd:
    r7 = mul.i32 r5, 3
    br store
even:
    r7 = mul.i32 r5, 5
    br store
store:
    r8 = mov 0
    br loop
loop:
    r9 = mul.i32 r8, 4
    r10 = cvt.i32.i64 r9
    st.i32.shared r10, 0
    r8 = add.i32 r8, 1
    r11 = cmp.lt.i32 r8, 8
    brc r11, loop, out
out:
    r12 = cvt.i32.i64 r5
    r13 = mul.i64 r12, 4
    r14 = add.i64 r0, r13
    st.i32.global r14, r7
    ret
}
)";

/// Every block stores to its own slot; blocks at index >= 5 then store to
/// an unmapped address (the fault block is data-dependent on bid, like
/// the Sec VI-D held-out segfault), so the faulting block's partial
/// writes must land too.
constexpr const char* kFaultyKernel = R"(
kernel @faulty params 1 regs 16 shared 0 local 0 {
entry:
    r1 = bid
    r6 = tid
    r7 = cvt.i32.i64 r6
    r10 = cvt.i32.i64 r1
    r11 = mul.i64 r10, 32
    r12 = add.i64 r7, r11
    r8 = mul.i64 r12, 4
    r9 = add.i64 r0, r8
    st.i32.global r9, r6
    r2 = cmp.lt.i32 r1, 5
    brc r2, good, bad
bad:
    r3 = mov 1
    r4 = cvt.i32.i64 r3
    r5 = mul.i64 r4, 1073741824
    st.i32.global r5, 7
    ret
good:
    ret
}
)";

/// Read-after-write across blocks: block b reads block b-1's slot and
/// stores it plus one, so the serial result is out[b] = b + 1.
constexpr const char* kChainKernel = R"(
kernel @chain params 1 regs 16 shared 0 local 0 {
entry:
    r1 = bid
    r2 = mov 0
    r3 = cmp.eq.i32 r1, 0
    brc r3, store, prev
prev:
    r4 = sub.i32 r1, 1
    r5 = cvt.i32.i64 r4
    r6 = mul.i64 r5, 4
    r7 = add.i64 r0, r6
    r2 = ld.i32.global r7
    br store
store:
    r8 = add.i32 r2, 1
    r9 = cvt.i32.i64 r1
    r10 = mul.i64 r9, 4
    r11 = add.i64 r0, r10
    st.i32.global r11, r8
    ret
}
)";

/// Write-after-write: every block stores its index to out[0] (the last
/// block must win, as in block order) and to its own slot after it.
constexpr const char* kSameBytesKernel = R"(
kernel @same params 1 regs 16 shared 0 local 0 {
entry:
    r1 = bid
    st.i32.global r0, r1
    r2 = add.i32 r1, 1
    r3 = cvt.i32.i64 r2
    r4 = mul.i64 r3, 4
    r5 = add.i64 r0, r4
    st.i32.global r5, r1
    ret
}
)";

/// Each block stores one byte at out + bid: sixteen blocks share one
/// 32-byte sector without sharing a byte.
constexpr const char* kByteKernel = R"(
kernel @bytes params 1 regs 8 shared 0 local 0 {
entry:
    r1 = bid
    r2 = cvt.i32.i64 r1
    r3 = add.i64 r0, r2
    r4 = add.i32 r1, 100
    st.u8.global r3, r4
    ret
}
)";

/// Cross-block atomics: every thread bumps one counter and records the
/// old value in its own slot, so the slots spell out the serial order.
constexpr const char* kAtomicKernel = R"(
kernel @atomics params 2 regs 16 shared 0 local 0 {
entry:
    r2 = atom.add.i32.global r0, 1
    r3 = bid
    r4 = ntid
    r5 = mul.i32 r3, r4
    r6 = tid
    r7 = add.i32 r5, r6
    r8 = cvt.i32.i64 r7
    r9 = mul.i64 r8, 4
    r10 = add.i64 r1, r9
    st.i32.global r10, r2
    ret
}
)";

/// Loops r1 times (r1 is a kernel argument) and stores the count: with a
/// small enough budget, a timeout in every block.
constexpr const char* kLoopKernel = R"(
kernel @spin params 2 regs 16 shared 0 local 0 {
entry:
    r2 = mov 0
    br loop
loop:
    r2 = add.i32 r2, 1
    r3 = cmp.lt.i32 r2, r1
    brc r3, loop, out
out:
    r4 = bid
    r5 = cvt.i32.i64 r4
    r6 = mul.i64 r5, 4
    r7 = add.i64 r0, r6
    st.i32.global r7, r2
    ret
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

SpeculationCounts
delta(const SpeculationCounts& before)
{
    const SpeculationCounts now = speculationCounts();
    SpeculationCounts d;
    d.launches = now.launches - before.launches;
    d.committedBlocks = now.committedBlocks - before.committedBlocks;
    d.conflictFallbacks = now.conflictFallbacks - before.conflictFallbacks;
    d.abandonFallbacks = now.abandonFallbacks - before.abandonFallbacks;
    return d;
}

/// Run \p prog serially and with blockThreads = \p threads under both
/// interpreters, require identical outcomes, and return the speculation
/// counts of the speculative launches.
SpeculationCounts
expectMatchesSerial(const char* text, LaunchDims dims, std::uint32_t threads,
                    const DeviceConfig& dev = p100(), bool profile = false,
                    const std::vector<std::uint64_t>& extraArgs = {})
{
    const Program prog = compile(text);
    SpeculationCounts total;
    for (const InterpMode mode : {InterpMode::Trace, InterpMode::Reference}) {
        testutil::InterpModeGuard guard(mode);
        dims.blockThreads = 1;
        const Outcome serial = launchOnce(prog, dims, dev, profile, extraArgs);
        dims.blockThreads = threads;
        const SpeculationCounts before = speculationCounts();
        const Outcome spec = launchOnce(prog, dims, dev, profile, extraArgs);
        const SpeculationCounts d = delta(before);
        total.launches += d.launches;
        total.committedBlocks += d.committedBlocks;
        total.conflictFallbacks += d.conflictFallbacks;
        total.abandonFallbacks += d.abandonFallbacks;

        EXPECT_EQ(serial.result.fault.kind, spec.result.fault.kind);
        EXPECT_EQ(serial.result.fault.detail, spec.result.fault.detail);
        expectStatsEqual(serial.result.stats, spec.result.stats);
        EXPECT_TRUE(serial.arena == spec.arena) << "arenas differ";
    }
    return total;
}

/// Speculation only happens where helper threads exist (a multi-core
/// host, outside a forked child); elsewhere every launch is serial and
/// only the equality checks apply.
bool
speculates()
{
    return HelperPool::available() > 0;
}

TEST(BlockParallel, DisjointBlocksCommitWithoutFallback)
{
    for (const bool profile : {false, true}) {
        for (const std::uint32_t threads : {2u, 3u, 8u, 64u}) {
            const auto c = expectMatchesSerial(kDisjointKernel,
                                               {16, 64, 4, 1}, threads,
                                               p100(), profile);
            if (speculates()) {
                EXPECT_EQ(c.launches, 2u);
                EXPECT_EQ(c.committedBlocks, 2u * 16);
                EXPECT_EQ(c.conflictFallbacks, 0u);
                EXPECT_EQ(c.abandonFallbacks, 0u);
            }
        }
    }
}

TEST(BlockParallel, FunctionalResultsAreCorrect)
{
    const auto prog = compile(kDisjointKernel);
    DeviceMemory mem(1 << 20);
    const auto out = mem.alloc(4ll * 8 * 32);
    const auto res = launchKernel(p100(), mem, prog, {8, 32, 1, 4},
                                  {static_cast<std::uint64_t>(out)});
    ASSERT_TRUE(res.ok()) << res.fault.detail;
    for (std::int32_t i = 0; i < 8 * 32; ++i) {
        const std::int32_t want = (i % 2) ? i * 3 : i * 5;
        EXPECT_EQ(mem.read<std::int32_t>(out + 4ll * i), want);
    }
}

TEST(BlockParallel, CrossBlockReadAfterWriteFallsBackAtTheReader)
{
    for (const bool profile : {false, true}) {
        const auto c = expectMatchesSerial(kChainKernel, {8, 32, 1, 8}, 8,
                                           p100(), profile);
        if (speculates()) {
            // Block 0 commits; block 1 read block 0's slot before block
            // 0's write was visible, so the rest runs serially.
            EXPECT_EQ(c.committedBlocks, 2u);
            EXPECT_EQ(c.conflictFallbacks, 2u);
        }
    }
    const auto prog = compile(kChainKernel);
    DeviceMemory mem(1 << 16);
    const auto out = mem.alloc(64);
    ASSERT_TRUE(launchKernel(p100(), mem, prog, {8, 32, 1, 8},
                             {static_cast<std::uint64_t>(out)})
                    .ok());
    for (int b = 0; b < 8; ++b)
        EXPECT_EQ(mem.read<std::int32_t>(out + 4 * b), b + 1);
}

TEST(BlockParallel, WritesToTheSameBytesResolveInBlockOrder)
{
    const auto c = expectMatchesSerial(kSameBytesKernel, {12, 32, 1, 12}, 12);
    if (speculates()) {
        EXPECT_EQ(c.committedBlocks, 2u * 12);
        EXPECT_EQ(c.conflictFallbacks + c.abandonFallbacks, 0u);
    }
    const auto prog = compile(kSameBytesKernel);
    DeviceMemory mem(1 << 16);
    const auto out = mem.alloc(64);
    ASSERT_TRUE(launchKernel(p100(), mem, prog, {12, 32, 1, 12},
                             {static_cast<std::uint64_t>(out)})
                    .ok());
    EXPECT_EQ(mem.read<std::int32_t>(out), 11);
}

TEST(BlockParallel, DifferentBytesOfOneSectorCommit)
{
    const auto c = expectMatchesSerial(kByteKernel, {16, 32, 1, 16}, 16);
    if (speculates()) {
        EXPECT_EQ(c.committedBlocks, 2u * 16);
        EXPECT_EQ(c.conflictFallbacks + c.abandonFallbacks, 0u);
    }
}

TEST(BlockParallel, CrossBlockAtomicsFallBack)
{
    const auto c = expectMatchesSerial(kAtomicKernel, {6, 64, 1, 6}, 6,
                                       p100(), true, {2048});
    if (speculates()) {
        EXPECT_EQ(c.committedBlocks, 2u);
        EXPECT_EQ(c.conflictFallbacks, 2u);
    }
}

TEST(BlockParallel, FaultAfterACleanPrefixIsReportedDirectly)
{
    const auto c = expectMatchesSerial(kFaultyKernel, {12, 32, 1, 12}, 12);
    if (speculates()) {
        // Blocks 0..4 and the faulting block 5 commit; no fallback.
        EXPECT_EQ(c.committedBlocks, 2u * 6);
        EXPECT_EQ(c.conflictFallbacks + c.abandonFallbacks, 0u);
    }
    const auto prog = compile(kFaultyKernel);
    const Outcome spec = launchOnce(prog, {12, 32, 1, 12}, p100(), false, {});
    EXPECT_EQ(spec.result.fault.kind, FaultKind::MemOobGlobal);
    EXPECT_NE(spec.result.fault.detail.find("block 5"), std::string::npos)
        << spec.result.fault.detail;
}

TEST(BlockParallel, TimeoutInBlockZero)
{
    DeviceConfig dev = p100();
    dev.maxInstrPerThread = 20000;
    // Every block would loop far past the budget.
    const auto c = expectMatchesSerial(kLoopKernel, {6, 32, 1, 6}, 6, dev,
                                       false, {1u << 30});
    if (speculates()) {
        EXPECT_EQ(c.launches, 2u);
        EXPECT_EQ(c.committedBlocks, 2u);
        EXPECT_EQ(c.conflictFallbacks + c.abandonFallbacks, 0u);
    }
    const auto prog = compile(kLoopKernel);
    const Outcome spec = launchOnce(prog, {6, 32, 1, 6}, dev, false,
                                    {1u << 30});
    EXPECT_EQ(spec.result.fault.kind, FaultKind::Timeout);
    EXPECT_NE(spec.result.fault.detail.find("block 0"), std::string::npos)
        << spec.result.fault.detail;
}

TEST(BlockParallel, BlockPastTheSoftCapIsAbandonedAndRerunSerially)
{
    // Each block needs ~3/4 of the budget: far past the soft cap, which a
    // block that is not the commit frontier may not exceed. Block 1
    // reaches the cap long before block 0 finishes, unless its thread
    // starts it late, so over a few launches at least one abandons.
    DeviceConfig dev = p100();
    dev.maxInstrPerThread = 400000;
    std::uint64_t abandons = 0;
    for (int attempt = 0; attempt < 3 && abandons == 0; ++attempt) {
        const auto c = expectMatchesSerial(kLoopKernel, {4, 32, 1, 4}, 4,
                                           dev, false, {100000});
        abandons += c.abandonFallbacks;
        EXPECT_EQ(c.conflictFallbacks, 0u);
    }
    if (speculates()) {
        EXPECT_GT(abandons, 0u);
    }
}

TEST(BlockParallel, SingleBlockAndSurplusThreads)
{
    // gridDim = 1: nothing to run beside the caller, so no speculation.
    auto c = expectMatchesSerial(kDisjointKernel, {1, 64, 1, 8}, 8);
    EXPECT_EQ(c.launches, 0u);
    // More threads than blocks.
    c = expectMatchesSerial(kDisjointKernel, {2, 32, 1, 16}, 16);
    if (speculates()) {
        EXPECT_EQ(c.committedBlocks, 2u * 2);
    }
}

/// ADEPT's unmodified kernels: one pair per block, and neighbouring
/// blocks' 4-byte outputs share 32-byte sectors. Byte-exact tracking
/// must commit every block.
TEST(BlockParallel, AdeptKernelsCommitWithoutFallback)
{
    adept::SequenceSetConfig cfg;
    cfg.numPairs = 4;
    cfg.seed = 7;
    auto pairs = adept::generatePairs(cfg);
    adept::appendBoundaryProbePairs(&pairs, cfg.maxLen, cfg.seed);
    const auto n = static_cast<std::uint32_t>(pairs.size());
    for (const int version : {0, 1}) {
        const auto built = version == 0
                               ? adept::buildAdeptV0(adept::ScoringParams{}, 64)
                               : adept::buildAdeptV1(adept::ScoringParams{}, 64);
        adept::AdeptDriver driver(pairs, adept::ScoringParams{}, version, 64);
        const auto serial = driver.run(built.module, p100());
        driver.setBlockThreads(n);
        const SpeculationCounts before = speculationCounts();
        const auto spec = driver.run(built.module, p100());
        const SpeculationCounts c = delta(before);
        ASSERT_TRUE(serial.ok()) << serial.fault.detail;
        ASSERT_TRUE(spec.ok()) << spec.fault.detail;
        EXPECT_EQ(serial.totalMs, spec.totalMs);
        expectStatsEqual(serial.fwdStats, spec.fwdStats);
        expectStatsEqual(serial.revStats, spec.revStats);
        ASSERT_EQ(serial.results.size(), spec.results.size());
        for (std::size_t i = 0; i < serial.results.size(); ++i)
            EXPECT_TRUE(serial.results[i] == spec.results[i]) << i;
        if (speculates()) {
            const std::uint64_t launches = version == 0 ? 1 : 2;
            EXPECT_EQ(c.launches, launches);
            EXPECT_EQ(c.committedBlocks, launches * n);
            EXPECT_EQ(c.conflictFallbacks + c.abandonFallbacks, 0u);
        }
    }
}

} // namespace
} // namespace gevo::sim
