//===- vm/IntOps.h - The ISA's integer semantics ----------------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated ISA's integer arithmetic, defined once for every place
/// that evaluates it: the interpreter, the machine-code executor, and the
/// constant folders of both compiler backends. The ISA promises Java
/// `long` semantics; C++ `int64_t` promises nothing on overflow, so each
/// operation is spelled here without undefined behaviour:
///
///  * add/sub/mul/neg wrap (two's complement), computed in `uint64_t`;
///  * div/rem truncate toward zero, and `INT64_MIN / -1` wraps to
///    `INT64_MIN` with remainder 0, as AArch64 `sdiv` does. A zero
///    divisor is the caller's trap and never reaches these functions;
///  * shifts use the low six bits of the shift count; right shifts are
///    arithmetic;
///  * double -> long saturates at the int64 range and maps NaN to 0.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_VM_INT_OPS_H
#define ROPT_VM_INT_OPS_H

#include "vm/Machine.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

namespace ropt {
namespace vm {

inline int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}

inline int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}

inline int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}

inline int64_t wrapNeg(int64_t A) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(A));
}

/// \p B must be non-zero.
inline int64_t javaDiv(int64_t A, int64_t B) {
  if (B == -1 && A == std::numeric_limits<int64_t>::min())
    return A;
  return A / B;
}

/// \p B must be non-zero.
inline int64_t javaRem(int64_t A, int64_t B) {
  if (B == -1 && A == std::numeric_limits<int64_t>::min())
    return 0;
  return A % B;
}

inline int64_t shiftLeft(int64_t A, int64_t Count) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) << (Count & 63));
}

inline int64_t shiftRight(int64_t A, int64_t Count) {
  return A >> (Count & 63);
}

inline int64_t doubleToInt(double D) {
  if (std::isnan(D))
    return 0;
  if (D >= 9.2233720368547758e18)
    return std::numeric_limits<int64_t>::max();
  if (D <= -9.2233720368547758e18)
    return std::numeric_limits<int64_t>::min();
  return static_cast<int64_t>(D);
}

/// The constant folders' evaluator for a two-operand integer ALU op, with
/// exactly the executor's semantics. Division and remainder are not
/// folded (a zero divisor must keep its trap), nor is anything that is
/// not an integer ALU op: both return std::nullopt.
inline std::optional<int64_t> foldIntOp(MOpcode Op, int64_t A, int64_t B) {
  switch (Op) {
  case MOpcode::MAddI: return wrapAdd(A, B);
  case MOpcode::MSubI: return wrapSub(A, B);
  case MOpcode::MMulI: return wrapMul(A, B);
  case MOpcode::MAndI: return A & B;
  case MOpcode::MOrI: return A | B;
  case MOpcode::MXorI: return A ^ B;
  case MOpcode::MShlI: return shiftLeft(A, B);
  case MOpcode::MShrI: return shiftRight(A, B);
  default: return std::nullopt;
  }
}

} // namespace vm
} // namespace ropt

#endif // ROPT_VM_INT_OPS_H
