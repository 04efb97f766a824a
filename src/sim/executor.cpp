#include "sim/executor.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <mutex>
#include <utility>

#include "ir/eval.h"
#include "sim/lane_kernels.h"
#include "support/strings.h"
#include "support/thread_pool.h"

namespace gevo::sim {

std::string_view
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::None: return "none";
      case FaultKind::MemOobGlobal: return "global-oob";
      case FaultKind::MemOobShared: return "shared-oob";
      case FaultKind::MemOobLocal: return "local-oob";
      case FaultKind::BarrierDivergence: return "barrier-divergence";
      case FaultKind::IllegalWarpSync: return "illegal-warp-sync";
      case FaultKind::Timeout: return "timeout";
      case FaultKind::InvalidProgram: return "invalid-program";
    }
    return "?";
}

namespace {

/// Resolved interpreter mode: -1 until first query, then the InterpMode
/// value. setInterpreterMode() stores directly; otherwise the
/// GEVO_SIM_REFPATH environment variable decides on first use.
std::atomic<int> gInterpMode{-1};

} // namespace

InterpMode
interpreterMode()
{
    int mode = gInterpMode.load(std::memory_order_relaxed);
    if (mode < 0) {
        const char* env = std::getenv("GEVO_SIM_REFPATH");
        const bool ref = env != nullptr && env[0] != '\0' &&
                         !(env[0] == '0' && env[1] == '\0');
        mode = static_cast<int>(ref ? InterpMode::Reference
                                    : InterpMode::Trace);
        gInterpMode.store(mode, std::memory_order_relaxed);
    }
    return static_cast<InterpMode>(mode);
}

void
setInterpreterMode(InterpMode mode)
{
    gInterpMode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

namespace {

/// Dense-lane packing: -1 until first query, then 0/1. GEVO_SIM_DENSE=0
/// disables; the default is on.
std::atomic<int> gDenseMode{-1};

} // namespace

bool
denseLaneMode()
{
    int mode = gDenseMode.load(std::memory_order_relaxed);
    if (mode < 0) {
        const char* env = std::getenv("GEVO_SIM_DENSE");
        const bool off = env != nullptr && env[0] == '0' && env[1] == '\0';
        mode = off ? 0 : 1;
        gDenseMode.store(mode, std::memory_order_relaxed);
    }
    return mode != 0;
}

void
setDenseLaneMode(bool on)
{
    gDenseMode.store(on ? 1 : 0, std::memory_order_relaxed);
}

namespace {

std::atomic<bool> gFastForward{true};

/// Outcome counts behind fastForwardCounts().
std::atomic<std::uint64_t> gFfArmed{0};
std::atomic<std::uint64_t> gFfExact{0};
std::atomic<std::uint64_t> gFfDrift{0};

} // namespace

bool
fastForwardMode()
{
    return gFastForward.load(std::memory_order_relaxed);
}

void
setFastForwardMode(bool on)
{
    gFastForward.store(on, std::memory_order_relaxed);
}

FastForwardCounts
fastForwardCounts()
{
    FastForwardCounts c;
    c.armedBlocks = gFfArmed.load();
    c.exactJumps = gFfExact.load();
    c.driftJumps = gFfDrift.load();
    return c;
}

namespace {

constexpr std::uint32_t kFullMask = 0xffffffffu;

using ir::MemSpace;
using ir::MemWidth;
using ir::Opcode;
using ir::Operand;

/// One SIMT reconvergence-stack entry.
struct StackEntry {
    std::int32_t pc;
    std::int32_t reconvPc;
    std::uint32_t mask;

    bool operator==(const StackEntry&) const = default;
};

/// Outcome of running a warp until it can no longer proceed.
enum class WarpStop : std::uint8_t {
    Done,
    AtBarrier,
    Faulted,
};

/// Active lanes of a span's (constant) mask, gathered once per span in
/// ascending lane order. Per-lane loops iterate these slots instead of
/// testing all 32 mask bits — the dense-lane fast path for sparse
/// divergent regions. nullptr (legacy mode, or a full mask) means "loop
/// over all 32 lanes with a mask test". Ascending order keeps every
/// order-sensitive site (atomic resolution, ballot/shfl last-active-lane
/// mask reads) identical to the 32-slot loops.
struct ActiveSet {
    int n = 0;
    std::uint8_t lanes[kWarpSize];

    void
    gather(std::uint32_t mask)
    {
        n = 0;
        while (mask != 0) {
            lanes[n++] = static_cast<std::uint8_t>(std::countr_zero(mask));
            mask &= mask - 1;
        }
    }
};

struct WarpState {
    std::uint32_t aliveMask = 0;
    std::vector<StackEntry> stack;
    bool done = false;
    bool atBarrier = false;
    std::uint64_t cycle = 0;
    std::uint64_t issueCycles = 0;
    std::uint64_t issuedInstrs = 0;
    /// Register-major: lane l of register r is regs[r*32 + l], so the 32
    /// lanes of one register are contiguous (see row()).
    std::vector<std::uint64_t> regs;
    std::vector<std::uint64_t> ready; ///< per-register ready cycle.
    /// Warp-uniform register tracking (trace path only). Bit r of
    /// uniBits set means every one of the 32 lanes holds uniVal[r] in
    /// register r — its row of `regs` may then be stale and is
    /// materialized (all 32 lanes rewritten) before the bit is cleared.
    /// Uniformity is defined over all 32 lanes, not just live ones,
    /// because shuffles read source values from inactive lanes too.
    std::vector<std::uint64_t> uniBits;
    std::vector<std::uint64_t> uniVal;
    int index = 0;

    /// The 32 lanes of register \p r.
    std::uint64_t*
    row(std::size_t r)
    {
        return regs.data() + r * kWarpSize;
    }
    const std::uint64_t*
    row(std::size_t r) const
    {
        return regs.data() + r * kWarpSize;
    }
};

/// Everything the blocks of one launch share, read-only while they run.
struct LaunchSetup {
    const DeviceConfig& dev;
    DeviceMemory& mem;
    const Program& prog;
    LaunchDims dims;
    const std::vector<std::uint64_t>& args;
    bool profileLocs;
    bool trace; ///< Sampled once per launch, so every block agrees.
    bool dense;
    bool fastForward;
};

/// What one speculatively run block did, kept until the commit pass.
/// Global-memory sets are per-byte bitmaps over 64-byte words.
struct SpecBlock {
    bool ran = false;
    /// Passed the speculation instruction cap while not allowed the full
    /// budget; its counters and writes are meaningless.
    bool abandoned = false;
    Fault fault;
    LaunchStats stats;
    std::uint64_t issue = 0;
    std::uint64_t lat = 0;
    /// Bytes read before the block wrote them itself: (word, bits).
    std::vector<std::pair<std::uint32_t, std::uint64_t>> reads;
    /// Bytes written: (word, bits), with the word's 64 final bytes in
    /// `data` at the same index.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> writes;
    std::vector<std::uint8_t> data;
};

/// One thread's private view of global memory in a speculative launch:
/// a copy of the pre-launch mapped extent, plus per-byte bitmaps of what
/// the current block wrote and what it read before writing. Words that
/// gain their first bit are listed, so harvesting a block and restoring
/// the view costs what the block touched, not the extent.
struct SpecView {
    std::vector<std::uint8_t> bytes; ///< Padded to whole words.
    std::vector<std::uint64_t> written;
    std::vector<std::uint64_t> readFirst;
    std::vector<std::uint32_t> writtenWords;
    std::vector<std::uint32_t> readWords;

    void
    reset(const DeviceMemory& mem)
    {
        const auto end = static_cast<std::size_t>(mem.mappedEnd());
        const std::size_t words = (end + 63) / 64;
        bytes.assign(words * 64, 0);
        std::memcpy(bytes.data(), mem.raw(), end);
        written.assign(words, 0);
        readFirst.assign(words, 0);
        writtenWords.clear();
        readWords.clear();
    }

    /// Call \p fn(word, bits) for the bytes [addr, addr + size), size <= 8
    /// and inside the mapped extent, so at most two words.
    template <typename Fn>
    static void
    forWords(std::int64_t addr, std::int64_t size, Fn fn)
    {
        const auto a = static_cast<std::uint64_t>(addr);
        const auto offset = static_cast<unsigned>(a & 63);
        const std::uint64_t ones = (std::uint64_t{1} << size) - 1;
        fn(static_cast<std::uint32_t>(a >> 6), ones << offset);
        if (offset + size > 64)
            fn(static_cast<std::uint32_t>((a >> 6) + 1),
               ones >> (64 - offset));
    }

    void
    noteRead(std::int64_t addr, std::int64_t size)
    {
        forWords(addr, size, [this](std::uint32_t w, std::uint64_t bits) {
            const std::uint64_t fresh = bits & ~written[w] & ~readFirst[w];
            if (fresh == 0)
                return;
            if (readFirst[w] == 0)
                readWords.push_back(w);
            readFirst[w] |= fresh;
        });
    }

    void
    noteWrite(std::int64_t addr, std::int64_t size)
    {
        forWords(addr, size, [this](std::uint32_t w, std::uint64_t bits) {
            if (written[w] == 0)
                writtenWords.push_back(w);
            written[w] |= bits;
        });
    }

    /// Move the block's sets and written bytes into \p out and restore
    /// the view to \p mem, which holds pre-launch memory until the
    /// commit pass.
    void
    harvest(const DeviceMemory& mem, SpecBlock* out)
    {
        const auto end = static_cast<std::size_t>(mem.mappedEnd());
        for (const std::uint32_t w : readWords) {
            out->reads.emplace_back(w, readFirst[w]);
            readFirst[w] = 0;
        }
        for (const std::uint32_t w : writtenWords) {
            out->writes.emplace_back(w, written[w]);
            written[w] = 0;
            const std::size_t at = static_cast<std::size_t>(w) * 64;
            out->data.insert(out->data.end(), bytes.begin() + at,
                             bytes.begin() + at + 64);
            std::memcpy(bytes.data() + at, mem.raw() + at,
                        std::min<std::size_t>(64, end - at));
        }
        readWords.clear();
        writtenWords.clear();
    }
};

/// Fast-forward state of one armed block (see fastForwardMode()): a Brent
/// cycle search over the block's functional state at checkpoints, plus
/// the logs that make the comparison cheap. Empty until a block arms, so
/// launches that never pass the soft cap allocate nothing.
struct FastForward {
    /// A spot where a comparison found a difference. The next
    /// comparisons test the last few such spots first, so a loop that
    /// never repeats pays O(1) per checkpoint even when its state
    /// alternates between a few shapes (warps taking turns, an inner
    /// counter that wraps).
    enum class Seg : std::uint8_t { None, Running, Warp, Shared, Local,
                                    Global, Reg };
    struct Spot {
        Seg seg = Seg::None;
        std::size_t idx = 0; ///< Reg: the [warp][reg][lane] index.
        std::uint32_t warp = 0; ///< Reg only.
        std::uint32_t reg = 0;  ///< Reg only.
    };
    static constexpr std::size_t kHotSpots = 4;

    struct WarpCtrl {
        std::uint32_t aliveMask = 0;
        bool done = false;
        bool atBarrier = false;
        std::vector<StackEntry> stack;
        std::uint64_t issued = 0;
    };

    /// The search looks at every kStride-th checkpoint. The state there
    /// still determines the state kStride checkpoints on, so it is the
    /// same cycle search, at a sixteenth of the cost on loops that never
    /// repeat.
    static constexpr std::uint32_t kStride = 16;

    bool snapped = false;
    std::uint32_t countdown = 1; ///< Checkpoints until the next look.
    std::uint64_t steps = 0; ///< Looks since the snapshot.
    std::uint64_t power = 1; ///< Brent: re-snapshot after this many.
    Spot hot[kHotSpots];
    std::size_t nextHot = 0; ///< Ring slot the next new spot replaces.

    // ---- the snapshot ----
    /// Warp running at the checkpoint; the warp count at a barrier
    /// release.
    std::size_t running = 0;
    std::vector<WarpCtrl> warps;
    /// [warp][reg][lane], the live register-major layout per warp;
    /// uniform registers materialized.
    std::vector<std::uint64_t> regs;
    std::vector<std::uint8_t> shared;
    std::vector<std::uint8_t> local;
    LaunchStats stats; ///< Counters at the snapshot.

    // ---- undo log of global memory: 64-byte lines first written since
    // the snapshot, with their bytes as they were at the snapshot ----
    std::size_t mappedEnd = 0;
    std::vector<std::uint64_t> lineBits;
    std::vector<std::uint32_t> lines;
    std::vector<std::uint8_t> lineData;

    // ---- span boundaries executed since the snapshot ----
    std::vector<std::uint8_t> spanSeen;
    std::vector<std::int32_t> spans;

    /// Registers that differ at the last comparison, and the first
    /// differing [warp][reg][lane] index of each.
    std::vector<std::uint8_t> drift;
    std::vector<std::size_t> driftAt;

    void
    reset(std::size_t end, std::size_t codeSize, std::size_t numRegs)
    {
        snapped = false;
        countdown = 1;
        steps = 0;
        power = 1;
        std::fill(std::begin(hot), std::end(hot), Spot{});
        mappedEnd = end;
        lineBits.assign(((end + 63) / 64 + 63) / 64, 0);
        spanSeen.assign(codeSize, 0);
        lines.clear();
        lineData.clear();
        spans.clear();
        drift.resize(numRegs);
        driftAt.resize(numRegs);
    }

    /// Forget the writes and spans of the last period.
    void
    clearLogs()
    {
        for (const std::uint32_t line : lines)
            lineBits[line >> 6] = 0;
        lines.clear();
        lineData.clear();
        for (const std::int32_t pc : spans)
            spanSeen[static_cast<std::size_t>(pc)] = 0;
        spans.clear();
    }

    bool
    lineLogged(std::uint64_t line) const
    {
        return ((lineBits[line >> 6] >> (line & 63)) & 1u) != 0;
    }

    /// Before a global store to [addr, addr + size) of \p base: log the
    /// lines (at most two) it is the first to touch since the snapshot.
    void
    noteStore(const std::uint8_t* base, std::int64_t addr, std::int64_t size)
    {
        const auto first = static_cast<std::uint64_t>(addr) >> 6;
        const auto last = static_cast<std::uint64_t>(addr + size - 1) >> 6;
        if (!lineLogged(first) || !lineLogged(last)) [[unlikely]]
            logLines(base, first, last);
    }

    [[gnu::noinline]] void
    logLines(const std::uint8_t* base, std::uint64_t first,
             std::uint64_t last)
    {
        for (auto line = first; line <= last; ++line) {
            if (lineLogged(line))
                continue;
            lineBits[line >> 6] |= std::uint64_t{1} << (line & 63);
            lines.push_back(static_cast<std::uint32_t>(line));
            const std::size_t at = line * 64;
            const std::size_t off = lineData.size();
            lineData.resize(off + 64);
            std::memcpy(lineData.data() + off, base + at,
                        std::min<std::size_t>(64, mappedEnd - at));
        }
    }

    /// Index of the first logged line whose bytes in \p base differ from
    /// the snapshot's, or lines.size().
    std::size_t
    firstChangedLine(const std::uint8_t* base) const
    {
        for (std::size_t i = 0; i < lines.size(); ++i) {
            if (lineChanged(base, i))
                return i;
        }
        return lines.size();
    }

    bool
    lineChanged(const std::uint8_t* base, std::size_t i) const
    {
        const std::size_t at = static_cast<std::size_t>(lines[i]) * 64;
        return std::memcmp(lineData.data() + i * 64, base + at,
                           std::min<std::size_t>(64, mappedEnd - at)) != 0;
    }

    /// Record that the span ending at boundary \p pc ran.
    void
    noteSpan(std::int32_t pc)
    {
        if (spanSeen[static_cast<std::size_t>(pc)] == 0) [[unlikely]]
            addSpan(pc);
    }

    [[gnu::noinline]] void
    addSpan(std::int32_t pc)
    {
        spanSeen[static_cast<std::size_t>(pc)] = 1;
        spans.push_back(pc);
    }

    /// A register in `drift` that an instruction of some recorded span
    /// reads without being an ALU/Cmp op that writes `drift`, or -1 when
    /// there is none: then the drifting registers only ever feed
    /// themselves, and the rest of the state is periodic without them.
    std::int32_t
    driftEscapes(const Program& prog) const
    {
        for (const std::int32_t end : spans) {
            std::int32_t pc = end;
            while (pc > 0 &&
                   prog.code[static_cast<std::size_t>(pc - 1)].spanEnd == end)
                --pc;
            for (; pc <= end; ++pc) {
                const DecodedInstr& in = prog.code[static_cast<std::size_t>(pc)];
                const bool feedsDrift =
                    (in.kind == ir::OpKind::Alu ||
                     in.kind == ir::OpKind::Cmp) &&
                    in.dest >= 0 && drift[static_cast<std::size_t>(in.dest)];
                for (int i = 0; i < in.numSrcRegs; ++i) {
                    const std::int32_t r = in.srcRegs[i];
                    if (drift[static_cast<std::size_t>(r)] && !feedsDrift)
                        return r;
                }
            }
        }
        return -1;
    }
};

/// Per-thread reusable launch scratch: the shared/local arenas and warp
/// contexts (register files, scoreboards, reconvergence stacks) survive
/// across launchKernel calls, so a workload issuing many tiny launches —
/// bfs runs one kernel per BFS level — stops paying allocation cost per
/// launch. Safe because BlockRunner::resetBlock re-initializes every
/// per-block observable before use: arenas are refilled, scoreboards and
/// masks reset, and registers are either zero-filled (reference path) or
/// covered by the uniform bits until materialized (trace path), so stale
/// bytes from a previous launch are never read. One runner exists per
/// thread at a time (the helpers of a speculative launch each have their
/// own thread_local copy).
struct ExecScratch {
    std::vector<std::uint8_t> shared;
    std::vector<std::uint8_t> local;
    std::vector<WarpState> warps;
    SpecView view;
};

ExecScratch&
execScratch()
{
    thread_local ExecScratch scratch;
    return scratch;
}

/// State the participants of one speculative launch share. Blocks are
/// claimed in index order.
struct SpecLaunch {
    explicit SpecLaunch(std::uint32_t grid)
        : gridDim(grid), stopAt(grid), finished(grid, 0), blocks(grid)
    {
    }

    /// True when block \p b may run to the full instruction budget: it is
    /// the commit frontier (every lower block has finished) and no lower
    /// block faulted or was abandoned, so the launch needs its result.
    bool
    mayRunFull(std::uint32_t b) const
    {
        return b == frontier.load() && b < stopAt.load();
    }

    /// Record that block \p b finished; \p stops when it faulted or was
    /// abandoned, which makes every later block useless.
    void
    finish(std::uint32_t b, bool stops)
    {
        if (stops) {
            std::uint32_t cur = stopAt.load();
            while (b < cur && !stopAt.compare_exchange_weak(cur, b))
                ;
        }
        std::lock_guard<std::mutex> lock(mutex);
        finished[b] = 1;
        std::uint32_t f = frontier.load();
        while (f < gridDim && finished[f])
            ++f;
        frontier.store(f);
    }

    const std::uint32_t gridDim;
    std::atomic<std::uint32_t> next{0};
    /// Lowest block that faulted or was abandoned; gridDim while none.
    std::atomic<std::uint32_t> stopAt;
    /// Lowest block not yet finished.
    std::atomic<std::uint32_t> frontier{0};
    std::mutex mutex; ///< Guards finished.
    std::vector<char> finished;
    std::vector<SpecBlock> blocks;
};

/// Reusable execution context: binds the thread's scratch state once per
/// launch and replays it for every block. Blocks of one launch are
/// identical in shape (same program, same blockDim), so per-block
/// construction only needs to reset state — re-allocating register files
/// and reconvergence stacks per block (and, before the scratch reuse,
/// per launch) dominated launch cost for small kernels.
///
/// kSpec selects the speculative instantiation: global memory is the
/// thread's SpecView with every access tracked, and the instruction
/// budget starts at a soft cap. The serial instantiation compiles to the
/// plain loads, stores and budget checks.
template <bool kSpec>
class BlockRunner {
  public:
    BlockRunner(const LaunchSetup& setup, LaunchStats* stats,
                SpecView* view = nullptr, SpecLaunch* launch = nullptr)
        : dev_(setup.dev), mem_(setup.mem), prog_(setup.prog),
          dims_(setup.dims), args_(setup.args), stats_(stats),
          profileLocs_(setup.profileLocs), trace_(setup.trace),
          dense_(setup.dense), fastForward_(setup.fastForward),
          shared_(execScratch().shared),
          local_(execScratch().local), warps_(execScratch().warps),
          view_(view), launch_(launch)
    {
        const Program& prog = setup.prog;
        shared_.resize(prog.sharedBytes);
        local_.resize(static_cast<std::size_t>(prog.localBytes) *
                      dims_.blockDim);
        const std::uint32_t numWarps =
            (dims_.blockDim + kWarpSize - 1) / kWarpSize;
        warps_.resize(numWarps);
        for (std::uint32_t w = 0; w < numWarps; ++w) {
            WarpState& warp = warps_[w];
            warp.index = static_cast<int>(w);
            warp.regs.resize(
                static_cast<std::size_t>(kWarpSize) * prog.numRegs);
            warp.ready.resize(prog.numRegs);
            warp.uniBits.resize((prog.numRegs + 63) / 64);
            warp.uniVal.resize(prog.numRegs);
            warp.stack.reserve(8);
        }
    }

    /// Speculative runs: where the next block's counters go.
    void prepare(LaunchStats* stats) { stats_ = stats; }

    /// The last block passed the soft cap without becoming the frontier.
    bool abandoned() const { return abandoned_; }

    /// Reset all mutable per-block state for \p blockIdx.
    void
    resetBlock(std::uint32_t blockIdx)
    {
        blockIdx_ = blockIdx;
        fault_ = Fault{};
        abandoned_ = false;
        budget_ = dev_.maxInstrPerThread / kSoftCapDivisor;
        ffArmed_ = false;
        std::fill(shared_.begin(), shared_.end(), 0);
        std::fill(local_.begin(), local_.end(), 0);
        for (auto& warp : warps_) {
            const auto w = static_cast<std::uint32_t>(warp.index);
            const std::uint32_t lanes =
                std::min<std::uint32_t>(kWarpSize,
                                        dims_.blockDim - w * kWarpSize);
            warp.aliveMask = lanes == kWarpSize ? kFullMask
                                                : ((1u << lanes) - 1);
            warp.stack.clear();
            warp.stack.push_back({0, kExitPc, warp.aliveMask});
            warp.done = false;
            warp.atBarrier = false;
            warp.cycle = 0;
            warp.issueCycles = 0;
            warp.issuedInstrs = 0;
            std::fill(warp.ready.begin(), warp.ready.end(), 0);
            if (trace_) {
                // Every register starts uniform (zero, or the broadcast
                // kernel argument), so the register rows need not be
                // touched at all: a uniform register is materialized
                // before its first per-lane use.
                std::fill(warp.uniBits.begin(), warp.uniBits.end(),
                          ~std::uint64_t{0});
                std::fill(warp.uniVal.begin(), warp.uniVal.end(), 0);
                for (std::uint32_t p = 0;
                     p < prog_.numParams && p < args_.size(); ++p)
                    warp.uniVal[p] = args_[p];
                continue;
            }
            std::fill(warp.regs.begin(), warp.regs.end(), 0);
            for (std::uint32_t p = 0;
                 p < prog_.numParams && p < args_.size(); ++p)
                std::fill_n(warp.row(p), kWarpSize, args_[p]);
        }
    }

    /// Run one block to completion. Returns the fault (None on success)
    /// and per-block timing via issueSum/latMax.
    Fault
    runBlock(std::uint32_t blockIdx, std::uint64_t* issueSum,
             std::uint64_t* latMax)
    {
        resetBlock(blockIdx);
        while (true) {
            bool allDone = true;
            for (auto& warp : warps_) {
                if (warp.done || warp.atBarrier)
                    continue;
                const WarpStop stop =
                    trace_ ? runWarpTrace(warp) : runWarpRef(warp);
                if (stop == WarpStop::Faulted)
                    return fault_;
                allDone = false;
            }
            // Every warp is now done or waiting at a barrier.
            bool anyWaiting = false;
            for (auto& warp : warps_)
                anyWaiting = anyWaiting || warp.atBarrier;
            if (!anyWaiting) {
                if (allDone || warpsAllDone())
                    break;
                continue;
            }
            releaseBarrier();
            if (ffArmed_ && --ff_.countdown == 0) [[unlikely]]
                ffCheckpoint(warps_.size());
        }
        std::uint64_t issue = 0;
        std::uint64_t lat = 0;
        for (const auto& warp : warps_) {
            issue += warp.issueCycles;
            lat = std::max(lat, warp.cycle);
        }
        *issueSum = issue;
        *latMax = lat;
        return fault_;
    }

  private:
    /// Every block starts under this fraction of the instruction budget.
    /// A non-frontier speculative block is abandoned there: without a
    /// cap, a mutant that times out in block 0 would have every helper
    /// burn the full budget on blocks the launch never needs; each helper
    /// still spends up to the cap. Any other block goes on to the full
    /// budget there and arms fast-forward. At 1/64 (62.5k instructions
    /// per warp on the default budget) an unmodified ADEPT block (at most
    /// ~41k per warp) fits with room to spare, so valid variants never
    /// arm, and on the adept-v0 search the speculative work thrown away
    /// fell from 10.6% of the committed work at 1/16 to 3.2%.
    static constexpr std::uint64_t kSoftCapDivisor = 64;

    /// Per-warp instruction budget of the running block.
    [[gnu::always_inline]] std::uint64_t budget() const { return budget_; }

    /// Past the soft cap: a block that may use the full budget (any
    /// serial block; the commit frontier of a speculative launch) goes on
    /// to it and arms fast-forward. Out of line: the issue loops call it
    /// at most twice per block.
    [[gnu::noinline]] bool
    extendBudget(const WarpState& warp)
    {
        if (budget_ == dev_.maxInstrPerThread)
            return false;
        if constexpr (kSpec) {
            if (!launch_->mayRunFull(blockIdx_))
                return false;
        }
        budget_ = dev_.maxInstrPerThread;
        if (fastForward_)
            ffArm();
        return warp.issuedInstrs <= budget_;
    }

    /// Stop a block past its budget: a Timeout fault, or for a
    /// speculative block still under the soft cap, abandonment.
    WarpStop
    budgetFault()
    {
        if constexpr (kSpec) {
            if (budget_ < dev_.maxInstrPerThread) {
                abandoned_ = true;
                return WarpStop::Faulted;
            }
        }
        return plainFault(FaultKind::Timeout, "instruction budget exceeded");
    }

    bool
    warpsAllDone() const
    {
        for (const auto& warp : warps_) {
            if (!warp.done)
                return false;
        }
        return true;
    }

    void
    releaseBarrier()
    {
        std::uint64_t t = 0;
        for (const auto& warp : warps_)
            t = std::max(t, warp.cycle);
        t += dev_.barrierBase +
             static_cast<std::uint64_t>(dev_.barrierPerWarp) * warps_.size();
        for (auto& warp : warps_) {
            if (!warp.done) {
                warp.cycle = t;
                warp.atBarrier = false;
            }
        }
        ++stats_->barriers;
    }

    // ---- fault helpers ----

    WarpStop
    memFault(FaultKind kind, std::int64_t addr)
    {
        fault_.kind = kind;
        fault_.detail = strformat(
            "%s at address %lld (kernel %s, block %u)",
            std::string(faultKindName(kind)).c_str(),
            static_cast<long long>(addr), prog_.name.c_str(), blockIdx_);
        return WarpStop::Faulted;
    }

    WarpStop
    plainFault(FaultKind kind, const std::string& what)
    {
        fault_.kind = kind;
        fault_.detail = strformat("%s: %s (kernel %s, block %u)",
                                  std::string(faultKindName(kind)).c_str(),
                                  what.c_str(), prog_.name.c_str(),
                                  blockIdx_);
        return WarpStop::Faulted;
    }

    // ---- functional memory ----

    bool
    loadValue(MemSpace space, MemWidth width, std::int64_t addr,
              std::uint32_t thread, std::uint64_t* out, FaultKind* fk)
    {
        const std::int64_t size = ir::memWidthBytes(width);
        const std::uint8_t* base = nullptr;
        switch (space) {
          case MemSpace::Global:
            if (!mem_.mapped(addr, size)) {
                *fk = FaultKind::MemOobGlobal;
                return false;
            }
            if constexpr (kSpec) {
                view_->noteRead(addr, size);
                base = view_->bytes.data();
            } else {
                base = mem_.raw();
            }
            break;
          case MemSpace::Shared:
            if (addr < 0 ||
                addr + size > static_cast<std::int64_t>(shared_.size())) {
                *fk = FaultKind::MemOobShared;
                return false;
            }
            base = shared_.data();
            break;
          case MemSpace::Local:
            if (addr < 0 ||
                addr + size > static_cast<std::int64_t>(prog_.localBytes)) {
                *fk = FaultKind::MemOobLocal;
                return false;
            }
            base = local_.data() +
                   static_cast<std::size_t>(thread) * prog_.localBytes;
            break;
          default:
            *fk = FaultKind::InvalidProgram;
            return false;
        }
        std::uint64_t raw = 0;
        std::memcpy(&raw, base + addr, static_cast<std::size_t>(size));
        switch (width) {
          case MemWidth::I8:
            raw = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(static_cast<std::int8_t>(raw)));
            break;
          case MemWidth::I16:
            raw = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(static_cast<std::int16_t>(raw)));
            break;
          case MemWidth::I32:
            raw = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(static_cast<std::int32_t>(raw)));
            break;
          default:
            break; // U8/U16/U32/F32/I64: zero-extended raw bits.
        }
        *out = raw;
        return true;
    }

    bool
    storeValue(MemSpace space, MemWidth width, std::int64_t addr,
               std::uint32_t thread, std::uint64_t value, FaultKind* fk)
    {
        const std::int64_t size = ir::memWidthBytes(width);
        std::uint8_t* base = nullptr;
        switch (space) {
          case MemSpace::Global:
            if (!mem_.mapped(addr, size)) {
                *fk = FaultKind::MemOobGlobal;
                return false;
            }
            if constexpr (kSpec) {
                view_->noteWrite(addr, size);
                base = view_->bytes.data();
            } else {
                base = mem_.raw();
            }
            if (ffArmed_) [[unlikely]]
                ff_.noteStore(base, addr, size);
            break;
          case MemSpace::Shared:
            if (addr < 0 ||
                addr + size > static_cast<std::int64_t>(shared_.size())) {
                *fk = FaultKind::MemOobShared;
                return false;
            }
            base = shared_.data();
            break;
          case MemSpace::Local:
            if (addr < 0 ||
                addr + size > static_cast<std::int64_t>(prog_.localBytes)) {
                *fk = FaultKind::MemOobLocal;
                return false;
            }
            base = local_.data() +
                   static_cast<std::size_t>(thread) * prog_.localBytes;
            break;
          default:
            *fk = FaultKind::InvalidProgram;
            return false;
        }
        std::memcpy(base + addr, &value, static_cast<std::size_t>(size));
        return true;
    }

    // ---- timing helpers ----

    /// Shared-memory conflict ways: max accesses per 4B bank among the
    /// active lanes; identical addresses broadcast on loads but serialize
    /// on stores.
    [[gnu::always_inline]] std::uint32_t
    sharedConflictWays(const std::int64_t* addrs, std::uint32_t mask,
                       bool isStore)
    {
        std::uint32_t perBank[32] = {};
        std::int64_t firstAddr[32];
        bool seen[32] = {};
        std::uint32_t ways = 1;
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(mask & (1u << lane)))
                continue;
            const std::int64_t a = addrs[lane];
            const auto bank = static_cast<std::uint32_t>((a >> 2) & 31);
            if (!seen[bank]) {
                seen[bank] = true;
                firstAddr[bank] = a;
                perBank[bank] = 1;
            } else if (isStore || firstAddr[bank] != a) {
                // Loads of the same address broadcast (1 way);
                // anything else serializes.
                ++perBank[bank];
            }
            ways = std::max(ways, perBank[bank]);
        }
        return ways;
    }

    /// Global coalescing: distinct 32B sectors touched by active lanes
    /// (sort the <=32 sector ids, count runs — the duplicate scan used to
    /// be quadratic in the active-lane count).
    [[gnu::always_inline]] std::uint32_t
    globalSectors(const std::int64_t* addrs, std::uint32_t mask)
    {
        std::int64_t sectors[kWarpSize];
        int n = 0;
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (mask & (1u << lane))
                sectors[n++] = addrs[lane] >> 5;
        }
        std::sort(sectors, sectors + n);
        int distinct = 0;
        for (int i = 0; i < n; ++i) {
            if (i == 0 || sectors[i] != sectors[i - 1])
                ++distinct;
        }
        return static_cast<std::uint32_t>(std::max(1, distinct));
    }

    /// Issue slots and result latency of one memory instruction, shared
    /// verbatim by the reference and trace interpreters (including the
    /// bank-conflict / sector-coalescing stats side effects).
    [[gnu::always_inline]] void
    memTiming(const DecodedInstr& in, const std::int64_t* addrs,
              std::uint32_t mask, std::uint64_t* slots, std::uint64_t* lat)
    {
        *slots = 1;
        *lat = dev_.aluLat;
        if (in.space == MemSpace::Shared) {
            const bool isStore = in.op == Opcode::Store;
            std::uint32_t ways =
                in.op == Opcode::AtomicRMW
                    ? std::popcount(mask)
                    : sharedConflictWays(addrs, mask, isStore);
            if (isStore)
                ways = std::min(ways, dev_.storeWaysCap);
            stats_->sharedConflictWays += ways - 1;
            *slots = static_cast<std::uint64_t>(dev_.sharedIssue) * ways;
            *lat = dev_.sharedLat;
            if (isStore) {
                // Store-completion skew: the store retires with its last
                // participating sub-warp transaction, so a lone store from
                // a high lane pays almost a full warp's scheduling slots
                // while a full-warp store amortizes them (this models the
                // effect behind paper edit 5, Sec VI-A).
                const int hi = 31 - std::countl_zero(mask);
                *slots += static_cast<std::uint64_t>(
                    dev_.storeLaneSkew * (hi + 1) /
                    std::popcount(mask));
            }
        } else if (in.space == MemSpace::Global) {
            const std::uint32_t sectors = globalSectors(addrs, mask);
            stats_->globalSectors += sectors;
            if (in.op == Opcode::AtomicRMW) {
                *slots = static_cast<std::uint64_t>(dev_.atomicIssue) *
                         std::popcount(mask);
                *lat = dev_.atomicLat;
            } else {
                *slots = static_cast<std::uint64_t>(dev_.globalSectorIssue) *
                         sectors;
                *lat = dev_.globalLat;
            }
        } else { // Local
            *slots = dev_.sharedIssue;
            *lat = dev_.sharedLat;
        }
    }

    /// Stall until source registers are ready, then consume issue slots.
    /// The stall set is the decode-time srcRegs list — identical to
    /// re-testing Operand::kind per slot, without the per-step branches.
    [[gnu::always_inline]] void
    issue(WarpState& warp, const DecodedInstr& in, std::uint64_t slots)
    {
        for (int i = 0; i < in.numSrcRegs; ++i)
            warp.cycle = std::max(
                warp.cycle,
                warp.ready[static_cast<std::size_t>(in.srcRegs[i])]);
        warp.cycle += slots;
        warp.issueCycles += slots;
        ++warp.issuedInstrs;
        ++stats_->warpInstrs;
        // locIssues is preallocated to maxLoc + 1 slots when profiling, so
        // this is a plain indexed increment (slot 0 catches no-loc code).
        if (profileLocs_)
            ++stats_->locIssues[in.loc];
    }

    [[gnu::always_inline]] void
    setReady(WarpState& warp, std::int32_t dest, std::uint64_t lat)
    {
        if (dest >= 0)
            warp.ready[static_cast<std::size_t>(dest)] = warp.cycle + lat;
    }

    // ---- warp-uniform register tracking (trace path) ----

    [[gnu::always_inline]] static bool
    uniTest(const WarpState& warp, std::size_t r)
    {
        return (warp.uniBits[r >> 6] >> (r & 63)) & 1u;
    }

    [[gnu::always_inline]] static void
    uniSet(WarpState& warp, std::size_t r)
    {
        warp.uniBits[r >> 6] |= std::uint64_t{1} << (r & 63);
    }

    [[gnu::always_inline]] static void
    uniClear(WarpState& warp, std::size_t r)
    {
        warp.uniBits[r >> 6] &= ~(std::uint64_t{1} << (r & 63));
    }

    /// Resolved read view of one operand: either the register's row
    /// (lane l at base[l]) or a scalar (immediate / uniform value).
    struct SrcView {
        const std::uint64_t* base = nullptr;
        std::uint64_t scalar = 0;

        /// The view as a lane-kernel source: the row, or the scalar read
        /// with stride 0. Valid while this view lives.
        LaneSrc
        lanes() const
        {
            return base != nullptr ? LaneSrc{base, 1} : LaneSrc{&scalar, 0};
        }
    };

    [[gnu::always_inline]] SrcView
    viewOf(const WarpState& warp, const Operand& op) const
    {
        if (!op.isReg())
            return {nullptr, static_cast<std::uint64_t>(op.value)};
        const auto r = static_cast<std::size_t>(op.value);
        if (uniTest(warp, r))
            return {nullptr, warp.uniVal[r]};
        return {warp.row(r), 0};
    }

    /// Rewrite all 32 lanes of a uniform register from uniVal and drop
    /// the uniform bit — called before any per-lane write of that
    /// register so lanes outside the active mask keep the right value.
    [[gnu::always_inline]] void
    materializeReg(WarpState& warp, std::int32_t dest)
    {
        const auto r = static_cast<std::size_t>(dest);
        if (!uniTest(warp, r))
            return;
        std::fill_n(warp.row(r), kWarpSize, warp.uniVal[r]);
        uniClear(warp, r);
    }

    /// Commit a warp-invariant result \p v to \p dest under \p mask,
    /// preserving the uniformity invariant. The common cases (value
    /// unchanged, or a full-warp overwrite) touch no lane storage at all.
    void
    writeScalarResult(WarpState& warp, std::int32_t dest,
                      std::uint32_t mask, std::uint64_t v)
    {
        const auto r = static_cast<std::size_t>(dest);
        if (uniTest(warp, r)) {
            const std::uint64_t w = warp.uniVal[r];
            if (w == v)
                return;
            if (mask == kFullMask) {
                warp.uniVal[r] = v;
                return;
            }
            std::uint64_t* p = warp.row(r);
            for (int lane = 0; lane < kWarpSize; ++lane)
                p[lane] = (mask >> lane) & 1u ? v : w;
            uniClear(warp, r);
            return;
        }
        if (mask == kFullMask) {
            warp.uniVal[r] = v;
            uniSet(warp, r);
            return;
        }
        std::uint64_t* p = warp.row(r);
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if ((mask >> lane) & 1u)
                p[lane] = v;
        }
    }

    // ---- the interpreters ----

    /// Pop dead/reconverged stack entries and retire implicit exits.
    /// Returns false when the warp is done (stack empty or no lanes
    /// alive) — shared bookkeeping of both interpreters, so the
    /// retirement rules can never diverge between them.
    [[gnu::always_inline]] static bool
    resolveStack(WarpState& warp)
    {
        while (!warp.stack.empty()) {
            StackEntry& top = warp.stack.back();
            if ((top.mask & warp.aliveMask) == 0) {
                warp.stack.pop_back();
                continue;
            }
            if (top.pc == kExitPc) {
                // Implicit exit: retire these lanes.
                warp.aliveMask &= ~top.mask;
                warp.stack.pop_back();
                continue;
            }
            if (top.pc == top.reconvPc) {
                warp.stack.pop_back();
                continue;
            }
            break;
        }
        if (warp.stack.empty() || warp.aliveMask == 0) {
            warp.done = true;
            return false;
        }
        return true;
    }

    WarpStop runWarpRef(WarpState& warp);
    WarpStop stepRef(WarpState& warp);
    WarpStop runWarpTrace(WarpState& warp);
    [[gnu::always_inline]] void condBranchTrace(WarpState& warp,
                                                const DecodedInstr& in,
                                                std::uint32_t mask,
                                                const ActiveSet* act);
    // Templated on the packing mode so the full-width instantiation keeps
    // the original straight masked loops (no per-lane indirection) while
    // the dense one iterates the gathered slots; \p act is only read when
    // kDense.
    template <bool kDense>
    WarpStop execInstr(WarpState& warp, const DecodedInstr& in,
                       std::uint32_t mask, const ActiveSet* act);

    // ---- fast-forward (see fastForwardMode()) ----
    //
    // A checkpoint is a backedge of the running warp or a barrier
    // release. At checkpoints an armed block runs Brent's cycle search
    // over its functional state: which warp is running; each warp's
    // reconvergence stack, alive mask, done/barrier flags and registers
    // in all 32 lanes; shared and local memory; and the global bytes
    // written since the snapshot. Cycles, ready times and issue cycles
    // are left out: nothing functional reads them, and a faulted block
    // never reports them. Once the state repeats, the block repeats the
    // same instructions forever, so it can only end when a warp passes
    // the budget; every counter is linear in the number of periods.

    /// A branch with a target at or before it.
    static bool
    isBackedge(const DecodedInstr& in, std::int32_t pc)
    {
        return in.target0 <= pc ||
               (in.op == Opcode::CondBr && in.target1 <= pc);
    }

    [[gnu::noinline]] void
    ffArm()
    {
        ++gFfArmed;
        ffArmed_ = true;
        ff_.reset(static_cast<std::size_t>(mem_.mappedEnd()),
                prog_.code.size(), prog_.numRegs);
    }

    /// Global memory as this block sees it.
    const std::uint8_t*
    globalBase() const
    {
        if constexpr (kSpec)
            return view_->bytes.data();
        else
            return mem_.raw();
    }

    /// Register \p r of \p lane in warp \p w, through the uniform value
    /// on the trace path.
    std::uint64_t
    regAt(std::size_t w, std::size_t lane, std::size_t r) const
    {
        const WarpState& warp = warps_[w];
        if (trace_ && uniTest(warp, r))
            return warp.uniVal[r];
        return warp.row(r)[lane];
    }

    /// Registers one warp holds in the [warp][reg][lane] layout.
    std::size_t
    regsPerWarp() const
    {
        return static_cast<std::size_t>(kWarpSize) * prog_.numRegs;
    }

    bool
    warpCtrlSame(std::size_t w) const
    {
        const WarpState& warp = warps_[w];
        const FastForward::WarpCtrl& s = ff_.warps[w];
        return warp.aliveMask == s.aliveMask && warp.done == s.done &&
               warp.atBarrier == s.atBarrier && warp.stack == s.stack;
    }

    [[gnu::noinline]] void
    ffCheckpoint(std::size_t running)
    {
        ff_.countdown = FastForward::kStride;
        if (ff_.snapped) {
            if (ffRepeats(running)) {
                ffJump();
                return;
            }
            if (++ff_.steps < ff_.power)
                return;
            ff_.power *= 2;
        }
        ffSnapshot(running);
    }

    void
    ffSnapshot(std::size_t running)
    {
        ff_.snapped = true;
        ff_.steps = 0;
        ff_.running = running;
        ff_.warps.resize(warps_.size());
        const std::size_t perWarp = regsPerWarp();
        ff_.regs.resize(perWarp * warps_.size());
        for (std::size_t w = 0; w < warps_.size(); ++w) {
            const WarpState& warp = warps_[w];
            FastForward::WarpCtrl& s = ff_.warps[w];
            s.aliveMask = warp.aliveMask;
            s.done = warp.done;
            s.atBarrier = warp.atBarrier;
            s.stack = warp.stack;
            s.issued = warp.issuedInstrs;
            std::uint64_t* out = ff_.regs.data() + w * perWarp;
            for (std::size_t r = 0; r < prog_.numRegs; ++r) {
                for (std::size_t lane = 0; lane < kWarpSize; ++lane)
                    *out++ = regAt(w, lane, r);
            }
        }
        ff_.shared = shared_;
        ff_.local = local_;
        ff_.stats = *stats_;
        ff_.clearLogs();
    }

    /// Does \p spot still match the snapshot?
    bool
    spotSame(FastForward::Spot spot, std::size_t running) const
    {
        const std::size_t i = spot.idx;
        switch (spot.seg) {
          case FastForward::Seg::None: return true;
          case FastForward::Seg::Running: return running == ff_.running;
          case FastForward::Seg::Warp: return warpCtrlSame(i);
          case FastForward::Seg::Shared: return shared_[i] == ff_.shared[i];
          case FastForward::Seg::Local: return local_[i] == ff_.local[i];
          case FastForward::Seg::Global:
            return i >= ff_.lines.size() ||
                   !ff_.lineChanged(globalBase(), i);
          case FastForward::Seg::Reg: {
            const WarpState& warp = warps_[spot.warp];
            const std::uint64_t v =
                trace_ && uniTest(warp, spot.reg)
                    ? warp.uniVal[spot.reg]
                    : warp.regs[i - spot.warp * regsPerWarp()];
            return v == ff_.regs[i];
          }
        }
        return true;
    }

    /// Index of the first byte where \p a and \p b differ, or a.size().
    static std::size_t
    firstDiff(const std::vector<std::uint8_t>& a,
              const std::vector<std::uint8_t>& b)
    {
        if (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0)
            return a.size();
        return static_cast<std::size_t>(
            std::mismatch(a.begin(), a.end(), b.begin()).first - a.begin());
    }

    /// True when the state at this checkpoint equals the snapshot, except
    /// perhaps for registers that only feed themselves (ff_.drift then
    /// marks them). Otherwise remembers where it differs.
    bool
    ffRepeats(std::size_t running)
    {
        using Seg = FastForward::Seg;
        for (const FastForward::Spot spot : ff_.hot) {
            if (!spotSame(spot, running))
                return false;
        }
        const auto differ = [this](Seg seg, std::size_t i) {
            ff_.hot[ff_.nextHot] = {seg, i};
            if (seg == Seg::Reg) {
                ff_.hot[ff_.nextHot].warp =
                    static_cast<std::uint32_t>(i / regsPerWarp());
                ff_.hot[ff_.nextHot].reg = static_cast<std::uint32_t>(
                    i % regsPerWarp() / kWarpSize);
            }
            ff_.nextHot = (ff_.nextHot + 1) % FastForward::kHotSpots;
            return false;
        };
        if (running != ff_.running)
            return differ(Seg::Running, 0);
        for (std::size_t w = 0; w < warps_.size(); ++w) {
            if (!warpCtrlSame(w))
                return differ(Seg::Warp, w);
        }
        if (const std::size_t i = firstDiff(shared_, ff_.shared);
            i < shared_.size())
            return differ(Seg::Shared, i);
        if (const std::size_t i = firstDiff(local_, ff_.local);
            i < local_.size())
            return differ(Seg::Local, i);
        if (const std::size_t i = ff_.firstChangedLine(globalBase());
            i < ff_.lines.size())
            return differ(Seg::Global, i);
        std::fill(ff_.drift.begin(), ff_.drift.end(), 0);
        bool drifting = false;
        std::size_t i = 0;
        for (std::size_t w = 0; w < warps_.size(); ++w) {
            for (std::size_t r = 0; r < prog_.numRegs; ++r) {
                for (std::size_t lane = 0; lane < kWarpSize; ++lane, ++i) {
                    if (regAt(w, lane, r) == ff_.regs[i])
                        continue;
                    if (!ff_.drift[r]) {
                        ff_.drift[r] = 1;
                        ff_.driftAt[r] = i;
                    }
                    drifting = true;
                }
            }
        }
        if (!drifting)
            return true;
        const std::int32_t escapes = ff_.driftEscapes(prog_);
        if (escapes >= 0)
            return differ(Seg::Reg,
                          ff_.driftAt[static_cast<std::size_t>(escapes)]);
        return true;
    }

    /// The state repeats: add k periods to every counter, with k the
    /// most periods every warp can run without passing the budget, and
    /// stop checking. The remainder then runs normally to the fault.
    void
    ffJump()
    {
        ffArmed_ = false;
        std::uint64_t k = ~std::uint64_t{0};
        for (std::size_t w = 0; w < warps_.size(); ++w) {
            const std::uint64_t issued = warps_[w].issuedInstrs;
            const std::uint64_t period = issued - ff_.warps[w].issued;
            if (period == 0)
                continue;
            k = issued > budget_
                    ? 0
                    : std::min(k, (budget_ - issued) / period);
        }
        if (k == 0 || k == ~std::uint64_t{0})
            return;
        for (std::size_t w = 0; w < warps_.size(); ++w)
            warps_[w].issuedInstrs +=
                k * (warps_[w].issuedInstrs - ff_.warps[w].issued);
        const auto advance = [k](std::uint64_t& now, std::uint64_t then) {
            now += k * (now - then);
        };
        const LaunchStats& then = ff_.stats;
        advance(stats_->warpInstrs, then.warpInstrs);
        advance(stats_->laneInstrs, then.laneInstrs);
        advance(stats_->globalSectors, then.globalSectors);
        advance(stats_->sharedConflictWays, then.sharedConflictWays);
        advance(stats_->divergences, then.divergences);
        advance(stats_->barriers, then.barriers);
        for (std::size_t loc = 0; loc < then.locIssues.size(); ++loc)
            advance(stats_->locIssues[loc], then.locIssues[loc]);
        ++(std::any_of(ff_.drift.begin(), ff_.drift.end(),
                       [](std::uint8_t d) { return d != 0; })
               ? gFfDrift
               : gFfExact);
    }

    const DeviceConfig& dev_;
    DeviceMemory& mem_;
    const Program& prog_;
    LaunchDims dims_;
    const std::vector<std::uint64_t>& args_;
    std::uint32_t blockIdx_ = 0;
    LaunchStats* stats_;
    bool profileLocs_;
    bool trace_;
    bool dense_;
    bool fastForward_;
    bool ffArmed_ = false; ///< Checkpoints and the undo log are live.

    std::vector<std::uint8_t>& shared_;
    std::vector<std::uint8_t>& local_;
    std::vector<WarpState>& warps_;
    Fault fault_;

    std::uint64_t budget_ = 0;

    // Speculative instantiation only.
    SpecView* view_;
    SpecLaunch* launch_;
    bool abandoned_ = false;

    /// Last: the issue loops never touch it unless the block is armed.
    FastForward ff_;
};

/// Reference interpreter: the original per-instruction loop. Kept alive
/// behind GEVO_SIM_REFPATH as the differential-testing oracle for the
/// trace interpreter — it re-resolves the reconvergence stack and
/// re-dispatches per instruction, with no span or uniformity machinery.
template <bool kSpec>
WarpStop
BlockRunner<kSpec>::runWarpRef(WarpState& warp)
{
    while (true) {
        const WarpStop result = stepRef(warp);
        if (result == WarpStop::Faulted || result == WarpStop::AtBarrier)
            return result;
        if (warp.done)
            return WarpStop::Done;
    }
}

/// Executes exactly one warp instruction (or resolves stack bookkeeping).
template <bool kSpec>
WarpStop
BlockRunner<kSpec>::stepRef(WarpState& warp)
{
    // Resolve reconvergence and dead entries before fetching.
    if (!resolveStack(warp))
        return WarpStop::Done;

    if (warp.issuedInstrs > budget() && !extendBudget(warp))
        return budgetFault();

    StackEntry& top = warp.stack.back();
    const std::uint32_t mask = top.mask & warp.aliveMask;
    const auto pc = static_cast<std::size_t>(top.pc);
    if (pc >= prog_.code.size())
        return plainFault(FaultKind::InvalidProgram, "pc out of range");
    const DecodedInstr& in = prog_.code[pc];

    stats_->laneInstrs += std::popcount(mask);

    // Register r of lane l, through the register-major layout.
    auto reg = [&warp](int lane, std::int64_t r) -> std::uint64_t& {
        return warp.row(static_cast<std::size_t>(r))[lane];
    };
    auto readOp = [&](const Operand& op, int lane) -> std::uint64_t {
        return op.isReg() ? reg(lane, op.value)
                          : static_cast<std::uint64_t>(op.value);
    };

    const ir::OpKind kind = ir::opInfo(in.op).kind;

    switch (kind) {
      case ir::OpKind::Alu:
      case ir::OpKind::Cmp: {
        issue(warp, in, 1);
        // Unused operand slots hold Kind::None with value 0, so reading
        // them unconditionally yields the 0 the evaluator expects — no
        // per-lane nops branching.
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(mask & (1u << lane)))
                continue;
            reg(lane, in.dest) =
                ir::evalScalar(in.op, readOp(in.ops[0], lane),
                               readOp(in.ops[1], lane),
                               readOp(in.ops[2], lane));
        }
        setReady(warp, in.dest, dev_.aluLat);
        ++top.pc;
        return WarpStop::Done; // caller loops; "Done" here means progress
      }

      case ir::OpKind::Sreg: {
        issue(warp, in, 1);
        // Lane-invariant base computed once outside the lane loop; only
        // Tid/LaneId add the per-lane term.
        std::uint64_t base = 0;
        bool addLane = false;
        switch (in.op) {
          case Opcode::Tid:
            base = static_cast<std::uint64_t>(warp.index) * kWarpSize;
            addLane = true;
            break;
          case Opcode::Bid: base = blockIdx_; break;
          case Opcode::BlockDim: base = dims_.blockDim; break;
          case Opcode::GridDim: base = dims_.gridDim; break;
          case Opcode::LaneId: addLane = true; break;
          case Opcode::WarpId:
            base = static_cast<std::uint64_t>(warp.index);
            break;
          default: break;
        }
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(mask & (1u << lane)))
                continue;
            reg(lane, in.dest) =
                base + (addLane ? static_cast<std::uint64_t>(lane) : 0);
        }
        setReady(warp, in.dest, 1);
        ++top.pc;
        return WarpStop::Done;
      }

      case ir::OpKind::Mem: {
        // Gather per-lane addresses first.
        std::int64_t addrs[kWarpSize] = {};
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (mask & (1u << lane))
                addrs[lane] =
                    static_cast<std::int64_t>(readOp(in.ops[0], lane));
        }

        std::uint64_t slots = 1;
        std::uint64_t lat = dev_.aluLat;
        memTiming(in, addrs, mask, &slots, &lat);
        issue(warp, in, slots);

        FaultKind fk = FaultKind::None;
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(mask & (1u << lane)))
                continue;
            const auto thread =
                static_cast<std::uint32_t>(warp.index) * kWarpSize +
                static_cast<std::uint32_t>(lane);
            const std::int64_t addr = addrs[lane];
            if (in.op == Opcode::Load) {
                std::uint64_t v = 0;
                if (!loadValue(in.space, in.width, addr, thread, &v, &fk))
                    return memFault(fk, addr);
                reg(lane, in.dest) = v;
            } else if (in.op == Opcode::Store) {
                const std::uint64_t v = readOp(in.ops[1], lane);
                if (!storeValue(in.space, in.width, addr, thread, v, &fk))
                    return memFault(fk, addr);
            } else { // AtomicRMW, lane order = deterministic resolution
                std::uint64_t old = 0;
                if (!loadValue(in.space,
                               in.atom == ir::AtomicOp::AddF32
                                   ? MemWidth::U32
                                   : MemWidth::I32,
                               addr, thread, &old, &fk))
                    return memFault(fk, addr);
                const std::uint64_t b = readOp(in.ops[1], lane);
                std::uint64_t next = old;
                bool doStore = true;
                switch (in.atom) {
                  case ir::AtomicOp::AddI32:
                    next = ir::evalScalar(Opcode::AddI32, old, b);
                    break;
                  case ir::AtomicOp::AddF32:
                    next = ir::evalScalar(Opcode::AddF32, old, b);
                    break;
                  case ir::AtomicOp::MaxI32:
                    next = ir::evalScalar(Opcode::MaxI32, old, b);
                    break;
                  case ir::AtomicOp::MinI32:
                    next = ir::evalScalar(Opcode::MinI32, old, b);
                    break;
                  case ir::AtomicOp::Exch:
                    next = b;
                    break;
                  case ir::AtomicOp::Cas: {
                    const std::uint64_t newv = readOp(in.ops[2], lane);
                    if (ir::asI32(old) == ir::asI32(b)) {
                        next = newv;
                    } else {
                        doStore = false;
                    }
                    break;
                  }
                  default:
                    doStore = false;
                    break;
                }
                if (doStore &&
                    !storeValue(in.space, MemWidth::I32, addr, thread, next,
                                &fk))
                    return memFault(fk, addr);
                reg(lane, in.dest) = old;
            }
        }
        if (in.op != Opcode::Store)
            setReady(warp, in.dest, lat);
        ++top.pc;
        return WarpStop::Done;
      }

      case ir::OpKind::Sync: {
        if (in.op == Opcode::Barrier) {
            if (ffArmed_) [[unlikely]]
                ff_.noteSpan(top.pc);
            if (mask != warp.aliveMask)
                return plainFault(FaultKind::BarrierDivergence,
                                  "bar.sync under divergence");
            issue(warp, in, 1 + dev_.barrierIssue);
            ++top.pc;
            warp.atBarrier = true;
            return WarpStop::AtBarrier;
        }
        if (in.op == Opcode::ActiveMask) {
            issue(warp, in, 1);
            for (int lane = 0; lane < kWarpSize; ++lane) {
                if (mask & (1u << lane))
                    reg(lane, in.dest) = mask;
            }
            setReady(warp, in.dest, 1);
            ++top.pc;
            return WarpStop::Done;
        }
        if (in.op == Opcode::Ballot) {
            issue(warp, in, dev_.ballotIssue + dev_.ballotResync);
            // Per-lane sync mask must cover only active lanes on Volta.
            std::uint32_t result = 0;
            std::uint32_t syncMask = 0;
            for (int lane = 0; lane < kWarpSize; ++lane) {
                if (!(mask & (1u << lane)))
                    continue;
                syncMask = static_cast<std::uint32_t>(
                    readOp(in.ops[0], lane));
                if (readOp(in.ops[1], lane) != 0)
                    result |= 1u << lane;
            }
            if (dev_.independentThreadScheduling() &&
                (syncMask & ~mask) != 0)
                return plainFault(FaultKind::IllegalWarpSync,
                                  "ballot mask names inactive lanes");
            result &= syncMask;
            for (int lane = 0; lane < kWarpSize; ++lane) {
                if (mask & (1u << lane))
                    reg(lane, in.dest) = result;
            }
            setReady(warp, in.dest, dev_.shflLat);
            ++top.pc;
            return WarpStop::Done;
        }
        // ShflUp / ShflIdx.
        issue(warp, in, dev_.shflIssue);
        std::uint64_t srcVals[kWarpSize];
        for (int lane = 0; lane < kWarpSize; ++lane)
            srcVals[lane] = readOp(in.ops[1], lane);
        std::uint64_t results[kWarpSize] = {};
        std::uint32_t syncMask = 0;
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(mask & (1u << lane)))
                continue;
            syncMask =
                static_cast<std::uint32_t>(readOp(in.ops[0], lane));
            const auto arg =
                static_cast<std::int64_t>(readOp(in.ops[2], lane));
            int src = lane;
            if (in.op == Opcode::ShflUp) {
                src = lane - static_cast<int>(arg);
            } else {
                src = static_cast<int>(arg);
            }
            if (src >= 0 && src < kWarpSize &&
                (syncMask & (1u << src)) != 0) {
                results[lane] = srcVals[src];
            } else {
                results[lane] = srcVals[lane];
            }
        }
        if (dev_.independentThreadScheduling() && (syncMask & ~mask) != 0)
            return plainFault(FaultKind::IllegalWarpSync,
                              "shfl mask names inactive lanes");
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (mask & (1u << lane))
                reg(lane, in.dest) = results[lane];
        }
        setReady(warp, in.dest, dev_.shflLat);
        ++top.pc;
        return WarpStop::Done;
      }

      case ir::OpKind::Ctrl: {
        if (ffArmed_) [[unlikely]]
            ff_.noteSpan(top.pc);
        if (in.op == Opcode::Ret) {
            issue(warp, in, 1);
            warp.aliveMask &= ~mask;
            warp.stack.pop_back();
            return WarpStop::Done;
        }
        if (in.op == Opcode::Br) {
            issue(warp, in, 1);
            top.pc = in.target0;
        } else {
            // CondBr.
            std::uint32_t takenMask = 0;
            for (int lane = 0; lane < kWarpSize; ++lane) {
                if ((mask & (1u << lane)) && readOp(in.ops[0], lane) != 0)
                    takenMask |= 1u << lane;
            }
            const std::uint32_t fallMask = mask & ~takenMask;
            if (in.target0 == in.target1 || fallMask == 0) {
                issue(warp, in, 1);
                top.pc = in.target0;
            } else if (takenMask == 0) {
                issue(warp, in, 1);
                top.pc = in.target1;
            } else {
                // Divergence: the reconvergence-stack management occupies
                // issue slots (both sides will each issue their path on
                // top of this).
                ++stats_->divergences;
                issue(warp, in, 1 + dev_.divergeOverhead);
                const std::int32_t reconv = in.reconvPc;
                top.pc = reconv;
                warp.stack.push_back({in.target1, reconv, fallMask});
                warp.stack.push_back({in.target0, reconv, takenMask});
            }
        }
        if (ffArmed_ && isBackedge(in, static_cast<std::int32_t>(pc)) &&
            --ff_.countdown == 0) [[unlikely]]
            ffCheckpoint(static_cast<std::size_t>(warp.index));
        return WarpStop::Done;
      }

      case ir::OpKind::Misc: {
        issue(warp, in, 1);
        ++top.pc;
        return WarpStop::Done;
      }
    }
    return plainFault(FaultKind::InvalidProgram, "unhandled opcode");
}

/// Trace interpreter: resolves the reconvergence stack once per span,
/// then executes the whole straight-line span in a tight loop before
/// handling the boundary instruction (branch/barrier) with full stack
/// bookkeeping. Mid-span PCs are never block starts, so no stack entry
/// can die or reconverge inside a span, and the active mask is constant
/// over it. Produces bit-identical results and stats to runWarpRef.
template <bool kSpec>
WarpStop
BlockRunner<kSpec>::runWarpTrace(WarpState& warp)
{
    while (true) {
        // Resolve reconvergence and dead entries (needed at span
        // boundaries only: mid-span PCs are never block starts, so no
        // entry can die or reconverge inside a span).
        if (!resolveStack(warp))
            return WarpStop::Done;

        StackEntry& top = warp.stack.back();
        const std::uint32_t mask = top.mask & warp.aliveMask;
        std::int32_t pc = top.pc;
        if (static_cast<std::size_t>(pc) >= prog_.code.size())
            return plainFault(FaultKind::InvalidProgram, "pc out of range");
        const auto popMask =
            static_cast<std::uint32_t>(std::popcount(mask));
        const std::int32_t spanEnd =
            prog_.code[static_cast<std::size_t>(pc)].spanEnd;

        // Dense-lane packing: the mask is constant over the span, so the
        // active lane list is gathered once and every per-lane loop in
        // execInstr runs over just those slots. A full mask stays on the
        // legacy all-lanes loops (no indirection on the uniform path).
        ActiveSet activeSet;
        const ActiveSet* act = nullptr;
        if (dense_ && mask != kFullMask) {
            activeSet.gather(mask);
            act = &activeSet;
        }

        // ---- straight-line span: no stack or PC bookkeeping ----
        // The packing mode is span-constant, so each span commits to one
        // execInstr instantiation up front.
        if (act != nullptr) {
            for (; pc < spanEnd; ++pc) {
                if (warp.issuedInstrs > budget() && !extendBudget(warp))
                    return budgetFault();
                const DecodedInstr& in =
                    prog_.code[static_cast<std::size_t>(pc)];
                stats_->laneInstrs += popMask;
                if (execInstr<true>(warp, in, mask, act) ==
                    WarpStop::Faulted)
                    return WarpStop::Faulted;
            }
        } else {
            for (; pc < spanEnd; ++pc) {
                if (warp.issuedInstrs > budget() && !extendBudget(warp))
                    return budgetFault();
                const DecodedInstr& in =
                    prog_.code[static_cast<std::size_t>(pc)];
                stats_->laneInstrs += popMask;
                if (execInstr<false>(warp, in, mask, nullptr) ==
                    WarpStop::Faulted)
                    return WarpStop::Faulted;
            }
        }

        // ---- boundary instruction: control flow or barrier ----
        if (warp.issuedInstrs > budget() && !extendBudget(warp))
            return budgetFault();
        const DecodedInstr& in = prog_.code[static_cast<std::size_t>(pc)];
        stats_->laneInstrs += popMask;
        if (ffArmed_) [[unlikely]]
            ff_.noteSpan(pc);

        if (in.op == Opcode::Barrier) {
            if (mask != warp.aliveMask)
                return plainFault(FaultKind::BarrierDivergence,
                                  "bar.sync under divergence");
            issue(warp, in, 1 + dev_.barrierIssue);
            top.pc = pc + 1;
            warp.atBarrier = true;
            return WarpStop::AtBarrier;
        }
        if (in.op == Opcode::Ret) {
            issue(warp, in, 1);
            warp.aliveMask &= ~mask;
            warp.stack.pop_back();
            continue;
        }
        if (in.op == Opcode::Br) {
            issue(warp, in, 1);
            top.pc = in.target0;
        } else {
            condBranchTrace(warp, in, mask, act);
        }
        if (ffArmed_ && isBackedge(in, pc) && --ff_.countdown == 0)
            [[unlikely]]
            ffCheckpoint(static_cast<std::size_t>(warp.index));
    }
}

/// The CondBr at a span boundary under the trace interpreter. A uniform
/// condition register decides the whole warp in one scalar test — the
/// dominant case for loop back-edges.
template <bool kSpec>
inline void
BlockRunner<kSpec>::condBranchTrace(WarpState& warp, const DecodedInstr& in,
                                    std::uint32_t mask, const ActiveSet* act)
{
    StackEntry& top = warp.stack.back();
    const SrcView cond = viewOf(warp, in.ops[0]);
    std::uint32_t takenMask = 0;
    if (cond.base == nullptr) {
        takenMask = cond.scalar != 0 ? mask : 0;
    } else if (act != nullptr) {
        // The boundary executes under the span's mask, so the span's
        // active set is still exact here.
        for (int k = 0; k < act->n; ++k) {
            const int lane = act->lanes[k];
            if (cond.base[lane] != 0)
                takenMask |= 1u << lane;
        }
    } else {
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (cond.base[lane] != 0)
                takenMask |= 1u << lane;
        }
        takenMask &= mask;
    }
    const std::uint32_t fallMask = mask & ~takenMask;
    if (in.target0 == in.target1 || fallMask == 0) {
        issue(warp, in, 1);
        top.pc = in.target0;
        return;
    }
    if (takenMask == 0) {
        issue(warp, in, 1);
        top.pc = in.target1;
        return;
    }
    // Divergence: the reconvergence-stack management occupies issue
    // slots (both sides will each issue their path on top of this).
    ++stats_->divergences;
    issue(warp, in, 1 + dev_.divergeOverhead);
    const std::int32_t reconv = in.reconvPc;
    top.pc = reconv;
    warp.stack.push_back({in.target1, reconv, fallMask});
    warp.stack.push_back({in.target0, reconv, takenMask});
}

/// One non-boundary instruction under the trace interpreter: ALU/Cmp with
/// warp-uniform scalarization, Sreg broadcast, memory, and the
/// non-barrier warp intrinsics. Never touches the reconvergence stack.
///
/// When \p kDense, \p act is the span's gathered active-lane list (the
/// dense-lane fast path); every per-lane loop below iterates either the
/// dense slots or all 32 lanes with a mask test, through one shared body,
/// in the same ascending lane order — so values, stats and fault order
/// are bit-identical in both modes. kDense is a template parameter so
/// the full-width instantiation compiles to the original masked loops
/// with no per-lane indirection.
template <bool kSpec>
template <bool kDense>
WarpStop
BlockRunner<kSpec>::execInstr(WarpState& warp, const DecodedInstr& in,
                       std::uint32_t mask, const ActiveSet* act)
{
    const int laneLimit = kDense ? act->n : kWarpSize;
    // One shared iteration header for every per-lane loop: slot k maps to
    // a dense lane (active by construction) or to lane k (masked test).
    const auto laneAt = [act](int k) {
        return kDense ? static_cast<int>(act->lanes[k]) : k;
    };

    switch (in.kind) {
      case ir::OpKind::Alu:
      case ir::OpKind::Cmp: {
        issue(warp, in, 1);
        // Unused operand slots hold Kind::None with value 0, so viewing
        // them unconditionally yields the scalar 0 the evaluator expects.
        const SrcView a = viewOf(warp, in.ops[0]);
        const SrcView b = viewOf(warp, in.ops[1]);
        const SrcView c = viewOf(warp, in.ops[2]);
        if (a.base == nullptr && b.base == nullptr && c.base == nullptr) {
            // All operands warp-invariant: evaluate once, broadcast.
            writeScalarResult(
                warp, in.dest, mask,
                ir::evalScalar(in.op, a.scalar, b.scalar, c.scalar));
        } else if (kDense) {
            materializeReg(warp, in.dest);
            runLaneKernel<LaneSet::Listed>(in.op, warp.row(in.dest),
                                           a.lanes(), b.lanes(), c.lanes(),
                                           act->lanes, act->n);
        } else {
            // A full mask writes every lane, so a uniform destination's
            // row need not be materialized first. A partial one (dense
            // packing off) evaluates all 32 lanes into a scratch row —
            // every kernel is total and free of side effects — and keeps
            // the active ones.
            const bool full = mask == kFullMask;
            std::uint64_t* d = warp.row(in.dest);
            std::uint64_t out[kWarpSize];
            if (full)
                uniClear(warp, static_cast<std::size_t>(in.dest));
            else
                materializeReg(warp, in.dest);
            runLaneKernel<LaneSet::All>(in.op, full ? d : out, a.lanes(),
                                        b.lanes(), c.lanes(), nullptr, 0);
            for (int lane = 0; !full && lane < kWarpSize; ++lane) {
                if (mask & (1u << lane))
                    d[lane] = out[lane];
            }
        }
        setReady(warp, in.dest, dev_.aluLat);
        return WarpStop::Done;
      }

      case ir::OpKind::Sreg: {
        issue(warp, in, 1);
        switch (in.op) {
          case Opcode::Tid:
          case Opcode::LaneId: {
            materializeReg(warp, in.dest);
            const std::uint64_t base =
                in.op == Opcode::Tid
                    ? static_cast<std::uint64_t>(warp.index) * kWarpSize
                    : 0;
            std::uint64_t* const d = warp.row(in.dest);
            for (int k = 0; k < laneLimit; ++k) {
                const int lane = laneAt(k);
                if (!kDense && !(mask & (1u << lane)))
                    continue;
                d[lane] = base + static_cast<std::uint64_t>(lane);
            }
            break;
          }
          default: { // Bid / BlockDim / GridDim / WarpId: warp-invariant.
            std::uint64_t v = 0;
            switch (in.op) {
              case Opcode::Bid: v = blockIdx_; break;
              case Opcode::BlockDim: v = dims_.blockDim; break;
              case Opcode::GridDim: v = dims_.gridDim; break;
              case Opcode::WarpId:
                v = static_cast<std::uint64_t>(warp.index);
                break;
              default: break;
            }
            writeScalarResult(warp, in.dest, mask, v);
            break;
          }
        }
        setReady(warp, in.dest, 1);
        return WarpStop::Done;
      }

      case ir::OpKind::Mem: {
        const SrcView av = viewOf(warp, in.ops[0]);
        std::int64_t addrs[kWarpSize] = {};
        if (av.base == nullptr) {
            const auto addr = static_cast<std::int64_t>(av.scalar);
            for (int k = 0; k < laneLimit; ++k) {
                const int lane = laneAt(k);
                if (!kDense && !(mask & (1u << lane)))
                    continue;
                addrs[lane] = addr;
            }
        } else {
            for (int k = 0; k < laneLimit; ++k) {
                const int lane = laneAt(k);
                if (!kDense && !(mask & (1u << lane)))
                    continue;
                addrs[lane] = static_cast<std::int64_t>(av.base[lane]);
            }
        }
        std::uint64_t slots = 1;
        std::uint64_t lat = dev_.aluLat;
        memTiming(in, addrs, mask, &slots, &lat);
        issue(warp, in, slots);

        FaultKind fk = FaultKind::None;
        if (in.op == Opcode::Load) {
            if (av.base == nullptr && in.space != MemSpace::Local) {
                // Uniform address, shared backing store: one access
                // serves the whole warp (a broadcast on real hardware).
                const auto addr = static_cast<std::int64_t>(av.scalar);
                std::uint64_t v = 0;
                if (!loadValue(in.space, in.width, addr, 0, &v, &fk))
                    return memFault(fk, addr);
                writeScalarResult(warp, in.dest, mask, v);
            } else {
                materializeReg(warp, in.dest);
                std::uint64_t* const d = warp.row(in.dest);
                for (int k = 0; k < laneLimit; ++k) {
                    const int lane = laneAt(k);
                    if (!kDense && !(mask & (1u << lane)))
                        continue;
                    const auto thread =
                        static_cast<std::uint32_t>(warp.index) *
                            kWarpSize +
                        static_cast<std::uint32_t>(lane);
                    std::uint64_t v = 0;
                    if (!loadValue(in.space, in.width, addrs[lane],
                                   thread, &v, &fk))
                        return memFault(fk, addrs[lane]);
                    d[lane] = v;
                }
            }
            setReady(warp, in.dest, lat);
            return WarpStop::Done;
        }
        if (in.op == Opcode::Store) {
            const SrcView sv = viewOf(warp, in.ops[1]);
            if (av.base == nullptr && sv.base == nullptr &&
                in.space != MemSpace::Local) {
                // Uniform address and value: the lanes' stores are
                // byte-identical, one commit suffices.
                const auto addr = static_cast<std::int64_t>(av.scalar);
                if (!storeValue(in.space, in.width, addr, 0, sv.scalar,
                                &fk))
                    return memFault(fk, addr);
                return WarpStop::Done;
            }
            for (int k = 0; k < laneLimit; ++k) {
                const int lane = laneAt(k);
                if (!kDense && !(mask & (1u << lane)))
                    continue;
                const auto thread =
                    static_cast<std::uint32_t>(warp.index) * kWarpSize +
                    static_cast<std::uint32_t>(lane);
                const std::uint64_t v = sv.base ? sv.base[lane] : sv.scalar;
                if (!storeValue(in.space, in.width, addrs[lane], thread,
                                v, &fk))
                    return memFault(fk, addrs[lane]);
            }
            return WarpStop::Done;
        }
        // AtomicRMW: lane order is the deterministic resolution order, so
        // this path stays per-lane (dense slots preserve ascending lane
        // order); operand reads still use the views.
        const SrcView bv = viewOf(warp, in.ops[1]);
        const SrcView cv = viewOf(warp, in.ops[2]);
        materializeReg(warp, in.dest);
        std::uint64_t* const d = warp.row(in.dest);
        for (int k = 0; k < laneLimit; ++k) {
            const int lane = laneAt(k);
            if (!kDense && !(mask & (1u << lane)))
                continue;
            const auto thread =
                static_cast<std::uint32_t>(warp.index) * kWarpSize +
                static_cast<std::uint32_t>(lane);
            const std::int64_t addr = addrs[lane];
            std::uint64_t old = 0;
            if (!loadValue(in.space,
                           in.atom == ir::AtomicOp::AddF32 ? MemWidth::U32
                                                           : MemWidth::I32,
                           addr, thread, &old, &fk))
                return memFault(fk, addr);
            const std::uint64_t b = bv.base ? bv.base[lane] : bv.scalar;
            std::uint64_t next = old;
            bool doStore = true;
            switch (in.atom) {
              case ir::AtomicOp::AddI32:
                next = ir::evalScalar(Opcode::AddI32, old, b);
                break;
              case ir::AtomicOp::AddF32:
                next = ir::evalScalar(Opcode::AddF32, old, b);
                break;
              case ir::AtomicOp::MaxI32:
                next = ir::evalScalar(Opcode::MaxI32, old, b);
                break;
              case ir::AtomicOp::MinI32:
                next = ir::evalScalar(Opcode::MinI32, old, b);
                break;
              case ir::AtomicOp::Exch:
                next = b;
                break;
              case ir::AtomicOp::Cas: {
                const std::uint64_t newv =
                    cv.base ? cv.base[lane] : cv.scalar;
                if (ir::asI32(old) == ir::asI32(b)) {
                    next = newv;
                } else {
                    doStore = false;
                }
                break;
              }
              default:
                doStore = false;
                break;
            }
            if (doStore &&
                !storeValue(in.space, MemWidth::I32, addr, thread, next,
                            &fk))
                return memFault(fk, addr);
            d[lane] = old;
        }
        setReady(warp, in.dest, lat);
        return WarpStop::Done;
      }

      case ir::OpKind::Sync: {
        if (in.op == Opcode::ActiveMask) {
            issue(warp, in, 1);
            writeScalarResult(warp, in.dest, mask, mask);
            setReady(warp, in.dest, 1);
            return WarpStop::Done;
        }
        if (in.op == Opcode::Ballot) {
            issue(warp, in, dev_.ballotIssue + dev_.ballotResync);
            const SrcView mv = viewOf(warp, in.ops[0]);
            const SrcView pv = viewOf(warp, in.ops[1]);
            std::uint32_t result = 0;
            std::uint32_t syncMask = 0;
            if (mv.base == nullptr && pv.base == nullptr) {
                syncMask = static_cast<std::uint32_t>(mv.scalar);
                result = pv.scalar != 0 ? mask : 0;
            } else {
                // Ascending order matters: the fault check below reads
                // the last active lane's mask value.
                for (int k = 0; k < laneLimit; ++k) {
                    const int lane = laneAt(k);
                    if (!kDense && !(mask & (1u << lane)))
                        continue;
                    syncMask = static_cast<std::uint32_t>(
                        mv.base ? mv.base[lane] : mv.scalar);
                    const std::uint64_t pred =
                        pv.base ? pv.base[lane] : pv.scalar;
                    if (pred != 0)
                        result |= 1u << lane;
                }
            }
            if (dev_.independentThreadScheduling() &&
                (syncMask & ~mask) != 0)
                return plainFault(FaultKind::IllegalWarpSync,
                                  "ballot mask names inactive lanes");
            result &= syncMask;
            writeScalarResult(warp, in.dest, mask, result);
            setReady(warp, in.dest, dev_.shflLat);
            return WarpStop::Done;
        }
        // ShflUp / ShflIdx.
        issue(warp, in, dev_.shflIssue);
        const SrcView mv = viewOf(warp, in.ops[0]);
        const SrcView vv = viewOf(warp, in.ops[1]);
        const SrcView iv = viewOf(warp, in.ops[2]);
        if (vv.base == nullptr) {
            // Uniform source value: every lane shuffles in the same
            // value whatever the source-lane indices and per-lane masks
            // resolve to. The fault check sees the last active lane's
            // mask read, exactly as the reference loop leaves it.
            std::uint32_t syncMask = 0;
            if (mv.base == nullptr) {
                syncMask = static_cast<std::uint32_t>(mv.scalar);
            } else {
                const int hi = 31 - std::countl_zero(mask);
                syncMask = static_cast<std::uint32_t>(mv.base[hi]);
            }
            if (dev_.independentThreadScheduling() &&
                (syncMask & ~mask) != 0)
                return plainFault(FaultKind::IllegalWarpSync,
                                  "shfl mask names inactive lanes");
            writeScalarResult(warp, in.dest, mask, vv.scalar);
            setReady(warp, in.dest, dev_.shflLat);
            return WarpStop::Done;
        }
        // Source values come from ALL 32 lanes of the row — inactive
        // lanes are legal shuffle sources, even under dense packing.
        const std::uint64_t* const srcVals = vv.base;
        std::uint64_t results[kWarpSize] = {};
        // Each lane's source-validity test uses that lane's own mask
        // read; the post-loop fault check then sees the last active
        // lane's value — both exactly as in the reference loop.
        std::uint32_t syncMask = 0;
        for (int k = 0; k < laneLimit; ++k) {
            const int lane = laneAt(k);
            if (!kDense && !(mask & (1u << lane)))
                continue;
            syncMask = static_cast<std::uint32_t>(
                mv.base ? mv.base[lane] : mv.scalar);
            const auto arg = static_cast<std::int64_t>(
                iv.base ? iv.base[lane] : iv.scalar);
            int src = lane;
            if (in.op == Opcode::ShflUp) {
                src = lane - static_cast<int>(arg);
            } else {
                src = static_cast<int>(arg);
            }
            if (src >= 0 && src < kWarpSize &&
                (syncMask & (1u << src)) != 0) {
                results[lane] = srcVals[src];
            } else {
                results[lane] = srcVals[lane];
            }
        }
        if (dev_.independentThreadScheduling() && (syncMask & ~mask) != 0)
            return plainFault(FaultKind::IllegalWarpSync,
                              "shfl mask names inactive lanes");
        materializeReg(warp, in.dest);
        std::uint64_t* const d = warp.row(in.dest);
        for (int k = 0; k < laneLimit; ++k) {
            const int lane = laneAt(k);
            if (!kDense && !(mask & (1u << lane)))
                continue;
            d[lane] = results[lane];
        }
        setReady(warp, in.dest, dev_.shflLat);
        return WarpStop::Done;
      }

      case ir::OpKind::Misc: {
        issue(warp, in, 1);
        return WarpStop::Done;
      }

      case ir::OpKind::Ctrl:
        break; // Boundary instructions never reach execInstr.
    }
    return plainFault(FaultKind::InvalidProgram, "unhandled opcode");
}

/// Launch-outcome counts behind speculationCounts().
std::atomic<std::uint64_t> gSpecLaunches{0};
std::atomic<std::uint64_t> gSpecCommitted{0};
std::atomic<std::uint64_t> gSpecConflicts{0};
std::atomic<std::uint64_t> gSpecAbandons{0};

/// Largest mapped extent a speculative launch copies per participating
/// thread; a launch over more memory runs serially.
constexpr std::int64_t kMaxSpecViewBytes = 4ll << 20;

/// Run blocks [from, gridDim) in order on the launch's memory, adding
/// their counters to \p result. False on a fault, which lands in
/// \p result with the counters of every block up to the faulting one.
bool
runSerial(const LaunchSetup& setup, std::uint32_t from,
          LaunchResult* result, std::uint64_t* sumIssue,
          std::uint64_t* sumLat)
{
    BlockRunner<false> runner(setup, &result->stats);
    for (std::uint32_t b = from; b < setup.dims.gridDim; ++b) {
        std::uint64_t issue = 0;
        std::uint64_t lat = 0;
        const Fault fault = runner.runBlock(b, &issue, &lat);
        if (!fault.ok()) {
            result->fault = fault;
            return false;
        }
        *sumIssue += issue;
        *sumLat += lat;
    }
    return true;
}

/// True when \p blk read a byte that a committed block wrote.
bool
conflicts(const SpecBlock& blk, const std::vector<std::uint64_t>& committed)
{
    for (const auto& [w, bits] : blk.reads) {
        if ((committed[w] & bits) != 0)
            return true;
    }
    return false;
}

/// Copy the bytes \p blk wrote into \p mem and mark them committed.
void
commitWrites(const SpecBlock& blk, DeviceMemory& mem,
             std::vector<std::uint64_t>* committed)
{
    const std::uint8_t* src = blk.data.data();
    for (auto [w, bits] : blk.writes) {
        (*committed)[w] |= bits;
        std::uint8_t* dst = mem.raw() + static_cast<std::size_t>(w) * 64;
        if (bits == ~std::uint64_t{0}) {
            std::memcpy(dst, src, 64);
        } else {
            for (; bits != 0; bits &= bits - 1) {
                const int i = std::countr_zero(bits);
                dst[i] = src[i];
            }
        }
        src += 64;
    }
}

/// The speculative launch (LaunchDims::blockThreads): the caller and up
/// to \p helpers helper threads run blocks in parallel, each against its
/// private view of pre-launch memory; then the caller validates and
/// commits them in block order. A block commits when it read no byte an
/// earlier block wrote — it then computed exactly what it computes in a
/// serial launch — and commits only the bytes it wrote, so writes to the
/// same bytes resolve in block order. At the first block that conflicts
/// or was abandoned, the committed prefix is exactly the serial memory
/// state, and runSerial() continues from that block. A committed block's
/// fault ends the launch as it ends a serial one. Same contract as
/// runSerial().
bool
runSpeculative(const LaunchSetup& setup, std::size_t helpers,
               LaunchResult* result, std::uint64_t* sumIssue,
               std::uint64_t* sumLat)
{
    const std::uint32_t grid = setup.dims.gridDim;
    SpecLaunch launch(grid);
    const std::function<void()> work = [&setup, &launch, grid] {
        std::uint32_t b = launch.next.fetch_add(1);
        if (b >= grid || b > launch.stopAt.load())
            return;
        SpecView& view = execScratch().view;
        view.reset(setup.mem);
        BlockRunner<true> runner(setup, nullptr, &view, &launch);
        // Counted on this thread's stack: neighbouring SpecBlocks share
        // cache lines, and the counters change every instruction.
        LaunchStats stats;
        // Blocks past the lowest fault or abandonment are never needed.
        for (; b < grid && b <= launch.stopAt.load();
             b = launch.next.fetch_add(1)) {
            SpecBlock& blk = launch.blocks[b];
            if (setup.profileLocs)
                stats.locIssues.assign(setup.prog.maxLoc + 1, 0);
            runner.prepare(&stats);
            blk.fault = runner.runBlock(b, &blk.issue, &blk.lat);
            blk.stats = std::exchange(stats, LaunchStats{});
            blk.abandoned = runner.abandoned();
            blk.ran = true;
            view.harvest(setup.mem, &blk);
            launch.finish(b, blk.abandoned || !blk.fault.ok());
        }
    };
    HelperPool::share(work, helpers);

    ++gSpecLaunches;
    const auto words =
        static_cast<std::size_t>((setup.mem.mappedEnd() + 63) / 64);
    std::vector<std::uint64_t> committed(words, 0);
    for (std::uint32_t b = 0; b < grid; ++b) {
        const SpecBlock& blk = launch.blocks[b];
        if (!blk.ran || blk.abandoned || conflicts(blk, committed)) {
            auto& fallbacks = blk.ran && !blk.abandoned ? gSpecConflicts
                                                        : gSpecAbandons;
            ++fallbacks;
            gSpecCommitted += b;
            return runSerial(setup, b, result, sumIssue, sumLat);
        }
        result->stats.accumulate(blk.stats);
        commitWrites(blk, setup.mem, &committed);
        if (!blk.fault.ok()) {
            gSpecCommitted += b + 1;
            result->fault = blk.fault;
            return false;
        }
        *sumIssue += blk.issue;
        *sumLat += blk.lat;
    }
    gSpecCommitted += grid;
    return true;
}

} // namespace

SpeculationCounts
speculationCounts()
{
    SpeculationCounts c;
    c.launches = gSpecLaunches.load();
    c.committedBlocks = gSpecCommitted.load();
    c.conflictFallbacks = gSpecConflicts.load();
    c.abandonFallbacks = gSpecAbandons.load();
    return c;
}

LaunchResult
launchKernel(const DeviceConfig& dev, DeviceMemory& mem, const Program& prog,
             LaunchDims dims, const std::vector<std::uint64_t>& args,
             bool profileLocs)
{
    LaunchResult result;
    if (dims.blockDim == 0 || dims.blockDim > 1024 || dims.gridDim == 0) {
        result.fault.kind = FaultKind::InvalidProgram;
        result.fault.detail = "bad launch dimensions";
        return result;
    }
    if (args.size() < prog.numParams) {
        result.fault.kind = FaultKind::InvalidProgram;
        result.fault.detail = "missing kernel arguments";
        return result;
    }

    if (profileLocs)
        result.stats.locIssues.assign(prog.maxLoc + 1, 0);

    const bool trace = interpreterMode() == InterpMode::Trace;
    const LaunchSetup setup{dev,         mem,   prog,
                            dims,        args,  profileLocs,
                            trace,       trace && denseLaneMode(),
                            fastForwardMode()};

    std::uint64_t sumIssue = 0;
    std::uint64_t sumLat = 0;
    const std::uint32_t threads =
        std::min(std::max(1u, dims.blockThreads), dims.gridDim);
    const std::size_t helpers =
        threads > 1 && mem.mappedEnd() <= kMaxSpecViewBytes
            ? std::min<std::size_t>(threads - 1, HelperPool::available())
            : 0;
    const bool ok =
        helpers > 0
            ? runSpeculative(setup, helpers, &result, &sumIssue, &sumLat)
            : runSerial(setup, 0, &result, &sumIssue, &sumLat);
    if (!ok)
        return result;
    result.stats.issueCycles = sumIssue;

    // ---- occupancy wave model ----
    const std::uint32_t warpsPerBlock =
        (dims.blockDim + 31) / 32;
    std::uint32_t resident = dev.maxBlocksPerSm;
    resident = std::min(resident,
                        std::max(1u, dev.maxWarpsPerSm / warpsPerBlock));
    if (prog.sharedBytes > 0) {
        resident = std::min(
            resident,
            std::max(1u, dev.sharedPerSmBytes / prog.sharedBytes));
    }
    const std::uint64_t effectiveGrid =
        static_cast<std::uint64_t>(dims.gridDim) *
        std::max(1u, dims.oversubscribe);
    const std::uint32_t blocksPerSm = static_cast<std::uint32_t>(
        (effectiveGrid + dev.smCount - 1) / dev.smCount);
    resident = std::max(1u, std::min(resident, blocksPerSm));
    const std::uint32_t waves = (blocksPerSm + resident - 1) / resident;

    const double avgIssue =
        static_cast<double>(sumIssue) / dims.gridDim;
    const double avgLat = static_cast<double>(sumLat) / dims.gridDim;
    const double waveCycles =
        std::max(resident * avgIssue / dev.issueWidth, avgLat);
    const double cycles = static_cast<double>(waves) * waveCycles;

    result.stats.occupancyBlocks = resident;
    result.stats.cycles = static_cast<std::uint64_t>(cycles);
    result.stats.ms = cycles / (static_cast<double>(dev.clockMhz) * 1e3);
    return result;
}

} // namespace gevo::sim
