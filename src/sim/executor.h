/// \file
/// SIMT functional + timing execution of decoded kernels.
///
/// Functional model: warps of 32 lanes execute in lock-step under an active
/// mask with an immediate-post-dominator reconvergence stack (the classic
/// GPGPU-Sim discipline). Warps within a block run round-robin between
/// barriers in warp-index order; lanes apply side effects in lane order —
/// the simulator is fully deterministic, which stands in for the paper's
/// fixed-seed validation methodology.
///
/// Timing model (DESIGN.md §6): per-warp in-order issue with a register
/// scoreboard (load-use stalls, fillable by independent instructions —
/// which mechanistically reproduces the paper's Sec VI-E curiosity),
/// shared-memory bank conflicts, global-memory 32B-sector coalescing,
/// divergence both-paths costs, barrier costs, and an occupancy-based wave
/// model that turns per-block cycles into kernel time.

#ifndef GEVO_SIM_EXECUTOR_H
#define GEVO_SIM_EXECUTOR_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/device_config.h"
#include "sim/device_memory.h"
#include "sim/program.h"

namespace gevo::sim {

/// Reasons a launch can fail. A faulting variant is an invalid individual
/// in the evolutionary search (paper Sec III-E: individuals that fail any
/// test case are excluded).
enum class FaultKind : std::uint8_t {
    None,
    MemOobGlobal,      ///< Unmapped global access (the Sec VI-D segfault).
    MemOobShared,      ///< Shared access outside the static allocation.
    MemOobLocal,       ///< Local scratch access out of range.
    BarrierDivergence, ///< bar.sync under a partial warp mask.
    IllegalWarpSync,   ///< Volta-only: shfl/ballot mask names inactive lanes.
    Timeout,           ///< Per-warp instruction budget exceeded.
    InvalidProgram,    ///< Structural verification failed upstream.
};

/// Human-readable fault-kind name.
std::string_view faultKindName(FaultKind kind);

/// Fault descriptor.
struct Fault {
    FaultKind kind = FaultKind::None;
    std::string detail;

    bool ok() const { return kind == FaultKind::None; }
};

/// Aggregate timing/profiling output of one launch.
struct LaunchStats {
    double ms = 0.0;            ///< Simulated kernel time.
    std::uint64_t cycles = 0;   ///< Simulated kernel cycles (wave model).
    std::uint64_t warpInstrs = 0;  ///< Warp-instruction issues.
    std::uint64_t laneInstrs = 0;  ///< Per-lane executed instructions.
    std::uint64_t issueCycles = 0; ///< Sum of issue slots over all warps.
    std::uint64_t divergences = 0; ///< Divergent-branch events.
    std::uint64_t barriers = 0;    ///< Barrier releases.
    std::uint64_t sharedConflictWays = 0; ///< Extra bank-conflict ways.
    std::uint64_t globalSectors = 0;      ///< 32B sectors transferred.
    std::uint64_t occupancyBlocks = 0;    ///< Resident blocks per SM.
    /// Warp-instruction issues per interned source location, indexed by
    /// loc id (slot 0 aggregates instructions without a location). Sized
    /// Program::maxLoc + 1 when profiling is requested, empty otherwise —
    /// a flat array so the interpreter's issue path is a single indexed
    /// increment, not a hash-map probe. This is the nvprof stand-in behind
    /// the "31% boundary instructions" analysis.
    std::vector<std::uint64_t> locIssues;

    /// Fold another launch's counters into this aggregate (drivers sum
    /// their per-launch stats with this; `ms`, `cycles` and
    /// `occupancyBlocks` are per-launch quantities and deliberately not
    /// accumulated).
    void
    accumulate(const LaunchStats& s)
    {
        warpInstrs += s.warpInstrs;
        laneInstrs += s.laneInstrs;
        issueCycles += s.issueCycles;
        divergences += s.divergences;
        barriers += s.barriers;
        sharedConflictWays += s.sharedConflictWays;
        globalSectors += s.globalSectors;
        if (locIssues.size() < s.locIssues.size())
            locIssues.resize(s.locIssues.size(), 0);
        for (std::size_t loc = 0; loc < s.locIssues.size(); ++loc)
            locIssues[loc] += s.locIssues[loc];
    }
};

/// Result of a launch.
struct LaunchResult {
    Fault fault;
    LaunchStats stats;

    bool ok() const { return fault.ok(); }
};

/// Launch configuration.
struct LaunchDims {
    std::uint32_t gridDim = 1;  ///< Blocks (functionally executed).
    std::uint32_t blockDim = 1; ///< Threads per block (<= 1024).
    /// Timing-model grid multiplier: the wave model prices the launch as
    /// if `gridDim * oversubscribe` statistically-identical blocks were
    /// submitted. Drivers use this to evaluate a small functional sample
    /// (e.g. tens of alignment pairs) in the saturated-device regime of
    /// the paper's production batches (30,000 pairs), where SM issue
    /// throughput — not per-warp latency — bounds kernel time.
    std::uint32_t oversubscribe = 1;
    /// Hint: how many host threads (the caller plus idle helpers) may run
    /// this launch's blocks speculatively; 0/1 = serial. Results never
    /// depend on it. Every block runs against a private view of
    /// pre-launch memory and records which bytes it wrote and which it
    /// read before writing them; blocks then commit in block order, and
    /// the first block that read a byte an earlier block wrote (or that
    /// was abandoned at the speculation instruction cap) re-runs
    /// serially, with every later block, on the committed prefix. So any
    /// program, cross-block atomics and stray stores included, gets the
    /// serial launch's fault text, LaunchStats and memory bit for bit.
    /// Worth setting for kernels whose blocks mostly touch their own
    /// bytes (ADEPT: one alignment pair per block).
    std::uint32_t blockThreads = 1;
};

/// Interpreter selection. `Trace` is the production path: pre-decoded
/// spans executed in a tight loop with warp-uniform scalarization.
/// `Reference` is the original per-instruction interpreter, kept alive as
/// the differential-testing oracle — both paths must produce bit-identical
/// LaunchStats, memory contents and faults.
enum class InterpMode : std::uint8_t {
    Trace,
    Reference,
};

/// The active interpreter. Resolved once from the `GEVO_SIM_REFPATH`
/// environment variable (set and not "0" selects Reference) unless
/// overridden by setInterpreterMode().
InterpMode interpreterMode();

/// Override the interpreter (tests and differential harnesses). Takes
/// effect for launches that start after the call; per-launch the mode is
/// sampled once, so in-flight launches are unaffected.
void setInterpreterMode(InterpMode mode);

/// Dense active-lane packing in the trace interpreter: when a span's
/// (constant) active mask is not full, gather the active lane indices
/// once and run every per-lane loop over just those slots — divergent
/// regions stop paying 32-wide cost for 3-wide masks. Bit-identical to
/// the 32-slot loops (inactive-lane register values, stats, timing and
/// fault order are untouched). Resolved once from GEVO_SIM_DENSE
/// (default on; "0" disables) unless overridden by setDenseLaneMode();
/// sampled once per launch like the interpreter mode.
bool denseLaneMode();
void setDenseLaneMode(bool on);

/// Process-wide outcome counts of speculative launches (see
/// LaunchDims::blockThreads), for tests and diagnostics. A launch is
/// counted when it ran blocks speculatively; it then either committed
/// every block it needed, or fell back to serial execution at one block
/// because that block read bytes an earlier block wrote (a conflict) or
/// was abandoned at the speculation instruction cap.
struct SpeculationCounts {
    std::uint64_t launches = 0;
    std::uint64_t committedBlocks = 0;
    std::uint64_t conflictFallbacks = 0;
    std::uint64_t abandonFallbacks = 0;
};
SpeculationCounts speculationCounts();

/// Exact fast-forward of blocks that can only time out. Once some warp
/// of a block that may use the full instruction budget (every block of a
/// serial launch; the commit frontier of a speculative one) passes the
/// soft cap (1/64 of the budget), the block checks its functional state
/// at backedges and barrier releases. When that state repeats (or
/// repeats but for registers that only feed themselves), the block is
/// periodic and can only end in the Timeout fault, so it adds k periods'
/// worth of every counter at once and runs the remainder normally: the
/// same Fault, LaunchStats and memory as running the budget out. On by
/// default; setFastForwardMode(false) turns it off, as the oracle for
/// tests. Sampled once per launch.
bool fastForwardMode();
void setFastForwardMode(bool on);

/// Process-wide fast-forward outcome counts, for tests and diagnostics.
struct FastForwardCounts {
    std::uint64_t armedBlocks = 0; ///< Blocks armed at the soft cap.
    std::uint64_t exactJumps = 0;  ///< Jumps on an exact state repeat.
    /// Jumps on a repeat that differed only in dead drifting registers.
    std::uint64_t driftJumps = 0;
};
FastForwardCounts fastForwardCounts();

/// Execute \p prog on \p dev over \p mem.
///
/// \p args are the kernel parameters preloaded into r0..r(numParams-1).
/// \p profileLocs enables per-source-location issue counting.
LaunchResult launchKernel(const DeviceConfig& dev, DeviceMemory& mem,
                          const Program& prog, LaunchDims dims,
                          const std::vector<std::uint64_t>& args,
                          bool profileLocs = false);

} // namespace gevo::sim

#endif // GEVO_SIM_EXECUTOR_H
