/// Every ALU/Cmp opcode, run as a one-instruction kernel under every
/// interpreter and lane-packing mode, against ir::evalScalar.
///
/// The opcode list comes from ir/opcodes.def through the X-macro, so a new
/// opcode is covered as soon as it is declared. Each case mixes operand
/// kinds (per-lane register, warp-uniform register, immediate), runs over
/// edge values (0, -1, INT32_MIN/MAX, INT64_MIN/MAX, NaN, +-inf, -0.0,
/// shift counts 31/32/63/64) under a full mask, three lanes and one high
/// lane, and checks that each active lane holds evalScalar's value, each
/// inactive lane keeps its old value, and LaunchStats agree across modes.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "ir/eval.h"
#include "sim_test_util.h"
#include "support/strings.h"

namespace gevo::sim {
namespace {

using testutil::DenseLaneGuard;
using testutil::InterpModeGuard;

struct OpCase {
    ir::Opcode op;
    const char* mnemonic;
    int nops;
    ir::OpKind kind;
};

constexpr OpCase kAllOps[] = {
#define OP(name, mnemonic, nops, hasDest, kind)                              \
    {ir::Opcode::name, mnemonic, nops, ir::OpKind::kind},
#include "ir/opcodes.def"
#undef OP
};

std::vector<OpCase>
laneKernelOps()
{
    std::vector<OpCase> out;
    for (const OpCase& c : kAllOps) {
        if (c.kind == ir::OpKind::Alu || c.kind == ir::OpKind::Cmp)
            out.push_back(c);
    }
    return out;
}

/// Edge operand values as raw register words.
const std::vector<std::uint64_t>&
edgeValues()
{
    static const std::vector<std::uint64_t> values = {
        0,
        1,
        ~std::uint64_t{0}, // -1
        ir::fromI32(std::numeric_limits<std::int32_t>::min()),
        ir::fromI32(std::numeric_limits<std::int32_t>::max()),
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::min()),
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()),
        0xffffffffu,
        ir::fromF32(std::numeric_limits<float>::quiet_NaN()),
        ir::fromF32(std::numeric_limits<float>::infinity()),
        ir::fromF32(-std::numeric_limits<float>::infinity()),
        ir::fromF32(-0.0f),
        ir::fromF32(1.5f),
        ir::fromF32(-2.5f),
        31,
        32,
        63,
        64,
        7,
        ir::fromI32(-7),
    };
    return values;
}

/// How an operand reaches the instruction.
enum class Src { Lane, Uniform, Imm };
/// What the destination held before the instruction.
enum class Dest { LaneSentinel, UniformSentinel, InPlace };

constexpr int kLanes = 32;
constexpr std::uint64_t kUniformSentinel = 77;
/// The per-lane inputs: A, B, C and the sentinel, 32 words each.
constexpr int kInputWords = 4 * kLanes;

std::uint64_t
sentinel(int lane)
{
    return 0xdead0000u + static_cast<std::uint64_t>(lane);
}

const char*
srcName(Src s)
{
    switch (s) {
      case Src::Lane: return "lane";
      case Src::Uniform: return "uniform";
      case Src::Imm: return "imm";
    }
    return "?";
}

/// One launch's worth of a case: the kernel and what every lane must hold.
struct Case {
    std::string text;
    std::vector<std::uint64_t> input; ///< kInputWords words.
    std::vector<std::uint64_t> uniforms; ///< Params r3..r5.
    std::vector<std::uint64_t> expectActive;
    std::vector<std::uint64_t> expectInactive;
};

/// Builds the kernel
///   entry: per-lane A/B/C/sentinel loads (r10, r12, r14, r16), the mask
///          bit of this lane from param r2, brc
///   body:  dest = op x, y, z
///   exit:  out[lane] = dest
/// Params: r0 input, r1 output, r2 mask, r3..r5 uniform operand values.
Case
makeCase(const OpCase& oc, const Src* kinds, Dest dest, int rotation)
{
    const auto& vals = edgeValues();
    const auto nv = static_cast<int>(vals.size());
    Case c;
    c.input.resize(kInputWords);
    for (int l = 0; l < kLanes; ++l) {
        // Pair index p walks every (A, B) pair of edge values over the
        // rotations; C is a third, differently strided walk.
        const int p = rotation * kLanes + l;
        c.input[l] = vals[p % nv];
        c.input[kLanes + l] = vals[(p / nv) % nv];
        c.input[2 * kLanes + l] = vals[(p * 7 + 3) % nv];
        c.input[3 * kLanes + l] = sentinel(l);
    }
    const int laneRegs[3] = {10, 12, 14};
    std::string operands;
    std::uint64_t scalar[3] = {0, 0, 0};
    for (int i = 0; i < oc.nops; ++i) {
        scalar[i] = vals[(rotation * 3 + i * 7 + 1) % nv];
        c.uniforms.push_back(scalar[i]);
        if (i > 0)
            operands += ", ";
        switch (kinds[i]) {
          case Src::Lane:
            operands += "r" + std::to_string(laneRegs[i]);
            break;
          case Src::Uniform:
            operands += "r" + std::to_string(3 + i);
            break;
          case Src::Imm:
            operands += std::to_string(static_cast<std::int64_t>(scalar[i]));
            break;
        }
    }
    c.uniforms.resize(3, 0);

    std::string destReg = "r16";
    std::string destInit = "    r16 = ld.i64.global r15\n";
    if (dest == Dest::UniformSentinel) {
        destInit = "    r16 = mov " + std::to_string(kUniformSentinel) + "\n";
    } else if (dest == Dest::InPlace) {
        destReg = kinds[0] == Src::Lane ? "r10" : "r3";
    }

    c.text = std::string(R"(
kernel @lane params 6 regs 24 shared 0 local 0 {
entry:
    r6 = laneid
    r7 = cvt.i32.i64 r6
    r8 = mul.i64 r7, 8
    r9 = add.i64 r0, r8
    r10 = ld.i64.global r9
    r11 = add.i64 r9, 256
    r12 = ld.i64.global r11
    r13 = add.i64 r9, 512
    r14 = ld.i64.global r13
    r15 = add.i64 r9, 768
)") + destInit + R"(    r17 = shr r2, r7
    r18 = and r17, 1
    brc r18, body, exit
body:
    )" + destReg + " = " + oc.mnemonic + " " + operands + R"(
    br exit
exit:
    r19 = add.i64 r1, r8
    st.i64.global r19, )" + destReg + R"(
    ret
}
)";

    for (int l = 0; l < kLanes; ++l) {
        std::uint64_t v[3] = {0, 0, 0};
        for (int i = 0; i < oc.nops; ++i)
            v[i] = kinds[i] == Src::Lane ? c.input[i * kLanes + l]
                                         : scalar[i];
        c.expectActive.push_back(ir::evalScalar(oc.op, v[0], v[1], v[2]));
        switch (dest) {
          case Dest::LaneSentinel:
            c.expectInactive.push_back(sentinel(l));
            break;
          case Dest::UniformSentinel:
            c.expectInactive.push_back(kUniformSentinel);
            break;
          case Dest::InPlace:
            c.expectInactive.push_back(v[0]);
            break;
        }
    }
    return c;
}

struct Mode {
    InterpMode interp;
    bool dense;
    const char* name;
};

constexpr Mode kModes[] = {
    {InterpMode::Trace, true, "trace/dense"},
    {InterpMode::Trace, false, "trace/masked"},
    {InterpMode::Reference, true, "ref/dense"},
    {InterpMode::Reference, false, "ref/masked"},
};

constexpr std::uint32_t kMasks[] = {
    0xffffffffu,                           // full
    (1u << 0) | (1u << 5) | (1u << 17),    // three lanes
    1u << 31,                              // one high lane
};

/// Runs \p c under every mode and mask; returns the first mismatch, or ""
/// when every lane and every LaunchStats field agree.
std::string
checkCase(const Case& c, const std::string& label)
{
    const Program prog = testutil::compile(c.text.c_str());
    for (const std::uint32_t mask : kMasks) {
        LaunchStats first;
        for (std::size_t m = 0; m < std::size(kModes); ++m) {
            const Mode& mode = kModes[m];
            InterpModeGuard interp(mode.interp);
            DenseLaneGuard dense(mode.dense);
            DeviceMemory mem(1 << 12);
            const auto in = mem.alloc(kInputWords * 8);
            const auto out = mem.alloc(kLanes * 8);
            for (int i = 0; i < kInputWords; ++i)
                mem.write<std::uint64_t>(in + i * 8, c.input[i]);
            const LaunchResult res = launchKernel(
                p100(), mem, prog, {1, kLanes},
                {static_cast<std::uint64_t>(in),
                 static_cast<std::uint64_t>(out), mask, c.uniforms[0],
                 c.uniforms[1], c.uniforms[2]});
            const std::string where =
                label + strformat(" mask %08x %s", mask, mode.name);
            if (!res.ok())
                return where + ": fault " + res.fault.detail;
            for (int l = 0; l < kLanes; ++l) {
                const bool active = ((mask >> l) & 1u) != 0;
                const std::uint64_t want =
                    active ? c.expectActive[l] : c.expectInactive[l];
                const auto got = mem.read<std::uint64_t>(out + l * 8);
                if (got != want)
                    return where + strformat(" lane %d (%s): got %016llx, "
                                             "want %016llx",
                                             l, active ? "active" : "inactive",
                                             static_cast<unsigned long long>(got),
                                             static_cast<unsigned long long>(want));
            }
            if (m == 0) {
                first = res.stats;
                continue;
            }
            const LaunchStats& s = res.stats;
            if (s.cycles != first.cycles || s.ms != first.ms ||
                s.warpInstrs != first.warpInstrs ||
                s.laneInstrs != first.laneInstrs ||
                s.issueCycles != first.issueCycles ||
                s.divergences != first.divergences ||
                s.barriers != first.barriers ||
                s.sharedConflictWays != first.sharedConflictWays ||
                s.globalSectors != first.globalSectors ||
                s.occupancyBlocks != first.occupancyBlocks ||
                s.locIssues != first.locIssues)
                return where + ": LaunchStats differ from " + kModes[0].name;
        }
    }
    return "";
}

TEST(LaneKernels, OpcodeTableHasAluAndCmpOps)
{
    const auto ops = laneKernelOps();
    EXPECT_GE(ops.size(), 50u);
    int selects = 0;
    for (const OpCase& c : ops)
        selects += c.nops == 3;
    EXPECT_GE(selects, 1) << "no three-operand op exercises operand c";
}

// Operand-kind mix: every combination of {lane, uniform, imm} over the
// op's operands, each destination kind, 20 rotations of edge values.
TEST(LaneKernels, EveryAluCmpOpcodeMatchesEvalScalarInEveryMode)
{
    constexpr int kRotations = 20;
    constexpr Src kSrcs[] = {Src::Lane, Src::Uniform, Src::Imm};
    for (const OpCase& oc : laneKernelOps()) {
        int combos = 1;
        for (int i = 0; i < oc.nops; ++i)
            combos *= 3;
        std::string err;
        for (int combo = 0; combo < combos && err.empty(); ++combo) {
            Src kinds[3] = {Src::Imm, Src::Imm, Src::Imm};
            std::string kindText;
            for (int i = 0, rest = combo; i < oc.nops; ++i, rest /= 3) {
                kinds[i] = kSrcs[rest % 3];
                kindText += std::string(i ? "," : "") + srcName(kinds[i]);
            }
            for (const Dest dest : {Dest::LaneSentinel, Dest::UniformSentinel,
                                    Dest::InPlace}) {
                if (dest == Dest::InPlace && kinds[0] == Src::Imm)
                    continue;
                for (int rot = 0; rot < kRotations && err.empty(); ++rot) {
                    const Case c = makeCase(oc, kinds, dest, rot);
                    err = checkCase(
                        c, strformat("%s (%s) dest %d rotation %d",
                                     oc.mnemonic, kindText.c_str(),
                                     static_cast<int>(dest), rot));
                }
                if (!err.empty())
                    break;
            }
        }
        EXPECT_EQ(err, "") << oc.mnemonic;
    }
}

} // namespace
} // namespace gevo::sim
