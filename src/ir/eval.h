/// \file
/// Scalar evaluation semantics for pure ALU/Cmp/Cvt opcodes.
///
/// Both the SIMT interpreter (per lane) and the constant-folding pass call
/// into these inline helpers, so "what the optimizer assumes" and "what the
/// machine does" cannot diverge — a property the differential tests assert.

#ifndef GEVO_IR_EVAL_H
#define GEVO_IR_EVAL_H

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "ir/opcode.h"

namespace gevo::ir {

/// Reinterpret the low 32 bits of a register value as float.
inline float
asF32(std::uint64_t raw)
{
    float f;
    const auto lo = static_cast<std::uint32_t>(raw);
    std::memcpy(&f, &lo, sizeof(f));
    return f;
}

/// Pack a float into a register value (upper bits zero).
inline std::uint64_t
fromF32(float f)
{
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    return bits;
}

/// Signed 32-bit view of a register value.
inline std::int32_t
asI32(std::uint64_t raw)
{
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(raw));
}

/// Sign-extend a 32-bit result into a register value.
inline std::uint64_t
fromI32(std::int32_t v)
{
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
}

/// The f32 NaN a NaN operand propagates as: its low 32 bits, quieted.
inline std::uint64_t
quietF32(std::uint64_t raw)
{
    return (raw & 0xffffffffu) | 0x00400000u;
}

/// f32 arithmetic with the NaN rule spelled out: the first NaN operand
/// wins, quieted (x86 SSE's rule for `op a, b`). Left to the compiler, a
/// commutative add or multiply of two NaNs returns whichever operand the
/// generated code happens to put first, which differs between call sites.
template <typename Fn>
[[gnu::always_inline]] inline std::uint64_t
arithF32(std::uint64_t a, std::uint64_t b, Fn fn)
{
    const float x = asF32(a);
    const float y = asF32(b);
    if (std::isnan(x))
        return quietF32(a);
    if (std::isnan(y))
        return quietF32(b);
    return fromF32(fn(x, y));
}

/// f32 min (\p kMax false) or max, spelled out as glibc's fminf/fmaxf
/// computes it with the operands swapped, which is what these opcodes
/// have always evaluated to: one quiet NaN yields the other operand, a
/// signalling NaN yields itself quieted, two NaNs yield \p b quieted,
/// and equal operands (+0 and -0 included) yield \p a.
template <bool kMax>
[[gnu::always_inline]] inline std::uint64_t
minMaxF32(std::uint64_t a, std::uint64_t b)
{
    const float x = asF32(a);
    const float y = asF32(b);
    const bool nanX = std::isnan(x);
    const bool nanY = std::isnan(y);
    if (nanX || nanY) {
        const auto quiet = [](std::uint64_t raw) {
            return (raw & 0x00400000u) != 0;
        };
        if (!nanX)
            return quiet(b) ? fromF32(x) : quietF32(b);
        if (!nanY)
            return quiet(a) ? fromF32(y) : quietF32(a);
        return quietF32(b);
    }
    return fromF32((kMax ? y > x : y < x) ? y : x);
}

/// True when an opcode is evaluable by evalScalar (pure ALU/Cmp/Cvt).
bool isScalarEvaluable(Opcode op);

/// Evaluate a pure scalar opcode on raw register values.
///
/// Division/remainder by zero produce 0 (GPU-like non-trapping semantics);
/// INT_MIN / -1 produces INT_MIN; float-to-int saturates and maps NaN to 0.
///
/// Always inlined, so a call with a constant \p op (the simulator's
/// per-opcode lane kernels) folds to that one case.
[[gnu::always_inline]] inline std::uint64_t
evalScalar(Opcode op, std::uint64_t a, std::uint64_t b = 0,
           std::uint64_t c = 0)
{
    using U = std::uint64_t;
    const auto i32 = [](std::uint64_t x) { return asI32(x); };
    const auto i64 = [](std::uint64_t x) {
        return static_cast<std::int64_t>(x);
    };

    switch (op) {
      // ---- i32 ----
      case Opcode::AddI32:
        return fromI32(static_cast<std::int32_t>(
            static_cast<std::uint32_t>(i32(a)) +
            static_cast<std::uint32_t>(i32(b))));
      case Opcode::SubI32:
        return fromI32(static_cast<std::int32_t>(
            static_cast<std::uint32_t>(i32(a)) -
            static_cast<std::uint32_t>(i32(b))));
      case Opcode::MulI32:
        return fromI32(static_cast<std::int32_t>(
            static_cast<std::uint32_t>(i32(a)) *
            static_cast<std::uint32_t>(i32(b))));
      case Opcode::DivI32: {
        const std::int32_t x = i32(a);
        const std::int32_t y = i32(b);
        if (y == 0)
            return 0;
        if (x == std::numeric_limits<std::int32_t>::min() && y == -1)
            return fromI32(x);
        return fromI32(x / y);
      }
      case Opcode::RemI32: {
        const std::int32_t x = i32(a);
        const std::int32_t y = i32(b);
        if (y == 0)
            return 0;
        if (x == std::numeric_limits<std::int32_t>::min() && y == -1)
            return 0;
        return fromI32(x % y);
      }
      case Opcode::MinI32:
        return fromI32(i32(a) < i32(b) ? i32(a) : i32(b));
      case Opcode::MaxI32:
        return fromI32(i32(a) > i32(b) ? i32(a) : i32(b));

      // ---- i64 ----
      case Opcode::AddI64: return a + b;
      case Opcode::SubI64: return a - b;
      case Opcode::MulI64: return a * b;
      case Opcode::DivI64: {
        const std::int64_t x = i64(a);
        const std::int64_t y = i64(b);
        if (y == 0)
            return 0;
        if (x == std::numeric_limits<std::int64_t>::min() && y == -1)
            return a;
        return static_cast<U>(x / y);
      }
      case Opcode::MinI64:
        return i64(a) < i64(b) ? a : b;
      case Opcode::MaxI64:
        return i64(a) > i64(b) ? a : b;

      // ---- f32 ----
      case Opcode::AddF32:
        return arithF32(a, b, [](float x, float y) { return x + y; });
      case Opcode::SubF32:
        return arithF32(a, b, [](float x, float y) { return x - y; });
      case Opcode::MulF32:
        return arithF32(a, b, [](float x, float y) { return x * y; });
      case Opcode::DivF32:
        return arithF32(a, b, [](float x, float y) { return x / y; });
      case Opcode::MinF32: return minMaxF32<false>(a, b);
      case Opcode::MaxF32: return minMaxF32<true>(a, b);

      // ---- bitwise ----
      case Opcode::And: return a & b;
      case Opcode::Or: return a | b;
      case Opcode::Xor: return a ^ b;
      case Opcode::Shl: return a << (b & 63);
      case Opcode::ShrL: return a >> (b & 63);
      case Opcode::ShrA:
        return static_cast<U>(i64(a) >> (b & 63));
      case Opcode::NotI1: return a == 0 ? 1 : 0;
      case Opcode::Mov: return a;
      case Opcode::Select: return a != 0 ? b : c;

      // ---- conversions ----
      case Opcode::CvtI32ToF32:
        return fromF32(static_cast<float>(i32(a)));
      case Opcode::CvtF32ToI32: {
        const float f = asF32(a);
        if (std::isnan(f))
            return 0;
        if (f >= 2147483647.0f)
            return fromI32(std::numeric_limits<std::int32_t>::max());
        if (f <= -2147483648.0f)
            return fromI32(std::numeric_limits<std::int32_t>::min());
        return fromI32(static_cast<std::int32_t>(f));
      }
      case Opcode::CvtI32ToI64:
        return fromI32(i32(a));
      case Opcode::CvtI64ToI32:
        return fromI32(static_cast<std::int32_t>(a));

      // ---- comparisons ----
      case Opcode::CmpEqI32: return i32(a) == i32(b) ? 1 : 0;
      case Opcode::CmpNeI32: return i32(a) != i32(b) ? 1 : 0;
      case Opcode::CmpLtI32: return i32(a) < i32(b) ? 1 : 0;
      case Opcode::CmpLeI32: return i32(a) <= i32(b) ? 1 : 0;
      case Opcode::CmpGtI32: return i32(a) > i32(b) ? 1 : 0;
      case Opcode::CmpGeI32: return i32(a) >= i32(b) ? 1 : 0;
      case Opcode::CmpEqI64: return i64(a) == i64(b) ? 1 : 0;
      case Opcode::CmpNeI64: return i64(a) != i64(b) ? 1 : 0;
      case Opcode::CmpLtI64: return i64(a) < i64(b) ? 1 : 0;
      case Opcode::CmpLeI64: return i64(a) <= i64(b) ? 1 : 0;
      case Opcode::CmpGtI64: return i64(a) > i64(b) ? 1 : 0;
      case Opcode::CmpGeI64: return i64(a) >= i64(b) ? 1 : 0;
      case Opcode::CmpEqF32: return asF32(a) == asF32(b) ? 1 : 0;
      case Opcode::CmpNeF32: return asF32(a) != asF32(b) ? 1 : 0;
      case Opcode::CmpLtF32: return asF32(a) < asF32(b) ? 1 : 0;
      case Opcode::CmpLeF32: return asF32(a) <= asF32(b) ? 1 : 0;
      case Opcode::CmpGtF32: return asF32(a) > asF32(b) ? 1 : 0;
      case Opcode::CmpGeF32: return asF32(a) >= asF32(b) ? 1 : 0;

      default:
        return 0;
    }
}

} // namespace gevo::ir

#endif // GEVO_IR_EVAL_H
