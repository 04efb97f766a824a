/// \file
/// Decoded, execution-ready form of a verified kernel.
///
/// Blocks are flattened into one instruction array; label operands become
/// flat PCs; each block's divergent-branch reconvergence PC (the start of
/// its immediate post-dominator) is precomputed from the CFG.
///
/// Decoding also bakes everything the interpreter would otherwise derive
/// per step into the instruction itself: the opcode's behavioural class
/// (no opInfo() table probe on the hot path; the warp-uniform fast path
/// keys on Alu/Cmp, all of which evaluate through ir::evalScalar), the
/// source-register list the scoreboard stalls on, and the straight-line
/// *span* each instruction belongs to. A span is a maximal run of
/// non-boundary instructions — it ends at the first control-flow or
/// barrier instruction — so the trace interpreter can execute a whole
/// span in a tight loop and touch the reconvergence stack only at span
/// boundaries.

#ifndef GEVO_SIM_PROGRAM_H
#define GEVO_SIM_PROGRAM_H

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ir/function.h"
#include "support/hash.h"

namespace gevo::sim {

/// Flat-PC sentinel for "reconverge only at kernel exit".
constexpr std::int32_t kExitPc = -1;

/// One decoded instruction (label operands resolved to flat PCs).
struct DecodedInstr {
    ir::Opcode op = ir::Opcode::Nop;
    ir::OpKind kind = ir::OpKind::Misc; ///< Baked opInfo(op).kind.
    std::int32_t dest = -1;
    std::uint8_t nops = 0;
    /// Source-register operand classes, baked at decode so the hot path
    /// never re-tests Operand::kind: `numSrcRegs` register operands with
    /// indices `srcRegs[0..numSrcRegs)` (the scoreboard stall set).
    std::uint8_t numSrcRegs = 0;
    std::int32_t srcRegs[ir::kMaxOperands] = {0, 0, 0};
    ir::Operand ops[ir::kMaxOperands];
    ir::MemSpace space = ir::MemSpace::None;
    ir::MemWidth width = ir::MemWidth::None;
    ir::AtomicOp atom = ir::AtomicOp::None;
    std::uint32_t loc = 0;
    std::int32_t target0 = kExitPc; ///< Br target / CondBr true target (PC).
    std::int32_t target1 = kExitPc; ///< CondBr false target (PC).
    std::int32_t reconvPc = kExitPc; ///< Reconvergence PC when divergent.
    /// PC of the first span-boundary instruction (Ctrl or Barrier) at or
    /// after this one. Every block ends in a terminator, so this is always
    /// a valid PC within the same block: the trace interpreter runs
    /// [pc, spanEnd) in a tight loop, then handles code[spanEnd] with full
    /// reconvergence-stack bookkeeping.
    std::int32_t spanEnd = 0;
};

/// A decoded kernel.
struct Program {
    std::string name;
    std::uint32_t numParams = 0;
    std::uint32_t numRegs = 0;
    std::uint32_t sharedBytes = 0;
    std::uint32_t localBytes = 0;
    std::uint32_t maxLoc = 0; ///< Highest interned source-loc id in code.
    std::vector<DecodedInstr> code;
    std::vector<std::int32_t> blockStart; ///< Block index -> first PC.
    /// This program's slice of ProgramSet::contentKey(), baked at decode:
    /// the BLAKE2b-128 digest (support/hash.h) of the canonical encoding
    /// of every execution-relevant field — name, shape, and per
    /// instruction opcode, operands, memory space/width, atomic op,
    /// destination, branch targets and reconvergence PC; never the
    /// interned source loc. Per-program fragments are self-contained (no
    /// cross-program state), so the incremental compiler can assemble a
    /// variant's content key from shared base programs plus freshly
    /// decoded touched ones and land on bytes identical to a full decode.
    ///
    /// Collision bound: with N distinct kernel encodings ever produced,
    /// P(any two share a digest) <= N^2 / 2^129, below 1e-21 at N = 1e9.
    Digest128 keyFragment{};

    /// Decode a kernel. \pre verifyFunction(fn).ok().
    static Program decode(const ir::Function& fn);
};

/// Every kernel of a module decoded once, for repeated launches.
///
/// This is the reusable artifact of the two-stage compile/score pipeline:
/// the compile stage (patch + cleanup + verify + decode) produces a
/// ProgramSet, and the scoring stage launches its programs over every test
/// case without touching the IR again. Lookup is a linear scan — modules
/// hold a handful of kernels (ADEPT: 2, SIMCoV: 8).
class ProgramSet {
  public:
    ProgramSet() = default;

    /// Decode every kernel in \p module. \pre verifyModule(module).ok().
    static ProgramSet decodeModule(const ir::Module& module);

    /// Program for the kernel named \p name; nullptr when absent.
    const Program* find(std::string_view name) const;

    /// The programs' keyFragment digests concatenated in module order:
    /// 16 bytes per kernel (32 for a two-kernel module), whatever the
    /// kernels' size. It stands for the canonical encoding of every
    /// execution-relevant field of every program (names, shapes, decoded
    /// instructions, branch targets) at the collision bound stated on
    /// keyFragment. Interned source-location ids are deliberately
    /// excluded: they do not affect functional results or timing, only
    /// profiling attribution — so two variants whose cleaned kernels
    /// differ only in loc metadata score identically and share a content
    /// key. This is what lets the fitness cache collapse the (very
    /// common) mutants whose edits are dangling or optimized away.
    std::string contentKey() const;

    std::size_t size() const { return programs_.size(); }
    const Program& at(std::size_t i) const { return *programs_[i]; }

    /// Append a program (shared: no copy). Programs are immutable once
    /// decoded, so a variant's set can alias the base compiler's programs
    /// for every untouched kernel.
    void add(std::shared_ptr<const Program> prog)
    {
        programs_.push_back(std::move(prog));
    }

    /// Shared handle to program \p i, for aliasing into another set.
    const std::shared_ptr<const Program>& share(std::size_t i) const
    {
        return programs_[i];
    }

  private:
    std::vector<std::shared_ptr<const Program>> programs_;
};

} // namespace gevo::sim

#endif // GEVO_SIM_PROGRAM_H
