/// \file
/// Per-opcode lane kernels of the trace interpreter.
///
/// One kernel per ALU/Cmp opcode, generated from ir/opcodes.def, with the
/// opcode fixed at compile time: `ir::evalScalar(kOp, ...)` folds to one
/// case, so the lane loop holds no opcode switch. Each source operand is
/// read as `p[lane * stride]`: a per-lane register is one register-major
/// row (stride 1), an immediate or warp-uniform value is one word (stride
/// 0), so the loop has no per-lane branch on the operand kind either.
///
/// The kernels are inline: the dense-lane path runs a handful of lanes
/// per instruction, where an out-of-line call per instruction would cost
/// as much as the lanes themselves.

#ifndef GEVO_SIM_LANE_KERNELS_H
#define GEVO_SIM_LANE_KERNELS_H

#include <cstddef>
#include <cstdint>

#include "ir/eval.h"
#include "ir/opcode.h"

namespace gevo::sim {

/// Lanes per warp.
constexpr int kWarpSize = 32;

/// One source operand of a lane kernel: lane l reads p[l * stride].
struct LaneSrc {
    const std::uint64_t* p;
    std::size_t stride; ///< 1 for a register row, 0 for one word.

    [[gnu::always_inline]] std::uint64_t
    at(int lane) const
    {
        return p[static_cast<std::size_t>(lane) * stride];
    }
};

/// Which lanes a kernel writes.
enum class LaneSet : std::uint8_t {
    All,    ///< All 32 lanes, in order.
    Listed, ///< lanes[0..n), ascending.
};

/// dst[l] = op(a[l], b[l], c[l]) for the lanes of \p kSet.
template <ir::Opcode kOp, LaneSet kSet>
[[gnu::always_inline]] inline void
laneKernel(std::uint64_t* dst, LaneSrc a, LaneSrc b, LaneSrc c,
           const std::uint8_t* lanes, int n)
{
    if constexpr (kSet == LaneSet::Listed) {
        for (int k = 0; k < n; ++k) {
            const int l = lanes[k];
            dst[l] = ir::evalScalar(kOp, a.at(l), b.at(l), c.at(l));
        }
    } else {
        for (int l = 0; l < kWarpSize; ++l)
            dst[l] = ir::evalScalar(kOp, a.at(l), b.at(l), c.at(l));
    }
}

/// Run \p op's lane kernel. \p op must be an ALU/Cmp opcode; any other
/// opcode writes nothing.
template <LaneSet kSet>
[[gnu::always_inline]] inline void
runLaneKernel(ir::Opcode op, std::uint64_t* dst, LaneSrc a, LaneSrc b,
              LaneSrc c, const std::uint8_t* lanes, int n)
{
    switch (op) {
#define OP(name, mnemonic, nops, hasDest, kind)                              \
      case ir::Opcode::name:                                                 \
        if constexpr (ir::OpKind::kind == ir::OpKind::Alu ||                 \
                      ir::OpKind::kind == ir::OpKind::Cmp)                   \
            laneKernel<ir::Opcode::name, kSet>(dst, a, b, c, lanes, n);      \
        return;
#include "ir/opcodes.def"
#undef OP
      case ir::Opcode::Count:
        return;
    }
}

} // namespace gevo::sim

#endif // GEVO_SIM_LANE_KERNELS_H
