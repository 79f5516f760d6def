//===- vm/Machine.cpp - Compiled-code target representation ----------------===//

#include "vm/Machine.h"

#include <cassert>
#include <cstring>

using namespace ropt;
using namespace ropt::vm;

bool vm::intrinsicFromName(const std::string &Name, IntrinsicKind &Out) {
  if (Name == "sin") Out = IntrinsicKind::Sin;
  else if (Name == "cos") Out = IntrinsicKind::Cos;
  else if (Name == "tan") Out = IntrinsicKind::Tan;
  else if (Name == "exp") Out = IntrinsicKind::Exp;
  else if (Name == "log") Out = IntrinsicKind::Log;
  else if (Name == "floor") Out = IntrinsicKind::Floor;
  else if (Name == "absF") Out = IntrinsicKind::AbsF;
  else if (Name == "pow") Out = IntrinsicKind::Pow;
  else if (Name == "atan2") Out = IntrinsicKind::Atan2;
  else if (Name == "minF") Out = IntrinsicKind::MinF;
  else if (Name == "maxF") Out = IntrinsicKind::MaxF;
  else return false;
  return true;
}

uint32_t vm::intrinsicWorkCycles(IntrinsicKind Kind) {
  switch (Kind) {
  case IntrinsicKind::Sin:
  case IntrinsicKind::Cos:
    return 22;
  case IntrinsicKind::Tan:
    return 28;
  case IntrinsicKind::Exp:
  case IntrinsicKind::Log:
    return 22;
  case IntrinsicKind::Floor:
    return 4;
  case IntrinsicKind::AbsF:
  case IntrinsicKind::MinF:
  case IntrinsicKind::MaxF:
    return 2;
  case IntrinsicKind::Pow:
  case IntrinsicKind::Atan2:
    return 36;
  case IntrinsicKind::IntrinsicCount:
    break;
  }
  return 20;
}

const char *vm::mopcodeName(MOpcode Op) {
  switch (Op) {
  case MOpcode::MNop: return "nop";
  case MOpcode::MMovImmI: return "mov-imm-i";
  case MOpcode::MMovImmF: return "mov-imm-f";
  case MOpcode::MMov: return "mov";
  case MOpcode::MAddI: return "add-i";
  case MOpcode::MSubI: return "sub-i";
  case MOpcode::MMulI: return "mul-i";
  case MOpcode::MDivI: return "div-i";
  case MOpcode::MRemI: return "rem-i";
  case MOpcode::MAndI: return "and-i";
  case MOpcode::MOrI: return "or-i";
  case MOpcode::MXorI: return "xor-i";
  case MOpcode::MShlI: return "shl-i";
  case MOpcode::MShrI: return "shr-i";
  case MOpcode::MNegI: return "neg-i";
  case MOpcode::MAddF: return "add-f";
  case MOpcode::MSubF: return "sub-f";
  case MOpcode::MMulF: return "mul-f";
  case MOpcode::MDivF: return "div-f";
  case MOpcode::MNegF: return "neg-f";
  case MOpcode::MCmpF: return "cmp-f";
  case MOpcode::MSqrtF: return "sqrt-f";
  case MOpcode::MI2F: return "i2f";
  case MOpcode::MF2I: return "f2i";
  case MOpcode::MGoto: return "goto";
  case MOpcode::MIfEq: return "if-eq";
  case MOpcode::MIfNe: return "if-ne";
  case MOpcode::MIfLt: return "if-lt";
  case MOpcode::MIfLe: return "if-le";
  case MOpcode::MIfGt: return "if-gt";
  case MOpcode::MIfGe: return "if-ge";
  case MOpcode::MIfEqz: return "if-eqz";
  case MOpcode::MIfNez: return "if-nez";
  case MOpcode::MIfLtz: return "if-ltz";
  case MOpcode::MIfLez: return "if-lez";
  case MOpcode::MIfGtz: return "if-gtz";
  case MOpcode::MIfGez: return "if-gez";
  case MOpcode::MCheckNull: return "check-null";
  case MOpcode::MCheckBounds: return "check-bounds";
  case MOpcode::MCheckDiv: return "check-div";
  case MOpcode::MSafepoint: return "safepoint";
  case MOpcode::MGuardClass: return "guard-class";
  case MOpcode::MLoadSlot: return "load-slot";
  case MOpcode::MStoreSlot: return "store-slot";
  case MOpcode::MLoadStatic: return "load-static";
  case MOpcode::MStoreStatic: return "store-static";
  case MOpcode::MALoad: return "aload";
  case MOpcode::MAStore: return "astore";
  case MOpcode::MArrayLen: return "array-len";
  case MOpcode::MNewInstance: return "new-instance";
  case MOpcode::MNewArray: return "new-array";
  case MOpcode::MCallStatic: return "call-static";
  case MOpcode::MCallVirtual: return "call-virtual";
  case MOpcode::MCallNative: return "call-native";
  case MOpcode::MIntrinsic: return "intrinsic";
  case MOpcode::MRet: return "ret";
  case MOpcode::MRetVoid: return "ret-void";
  case MOpcode::MEnd: return "end";
  case MOpcode::MOpcodeCount: break;
  }
  return "invalid";
}

bool vm::isMCondBranch(MOpcode Op) {
  switch (Op) {
  case MOpcode::MIfEq:
  case MOpcode::MIfNe:
  case MOpcode::MIfLt:
  case MOpcode::MIfLe:
  case MOpcode::MIfGt:
  case MOpcode::MIfGe:
  case MOpcode::MIfEqz:
  case MOpcode::MIfNez:
  case MOpcode::MIfLtz:
  case MOpcode::MIfLez:
  case MOpcode::MIfGtz:
  case MOpcode::MIfGez:
    return true;
  default:
    return false;
  }
}

bool vm::isMBranch(MOpcode Op) {
  return Op == MOpcode::MGoto || isMCondBranch(Op);
}

ExecFunction vm::decodeMachine(const MachineFunction &Fn) {
  ExecFunction X;
  X.Method = Fn.Method;
  X.NumRegs = Fn.NumRegs;
  X.ParamCount = Fn.ParamCount;
  const uint32_t End = static_cast<uint32_t>(Fn.Code.size());
  const bool MaySpill = Fn.NumRegs > PhysRegCount;
  auto Spilled = [](MRegIdx R) { return R != MNoReg && R >= PhysRegCount; };
  X.Code.reserve(End + 1);
  for (const MInsn &I : Fn.Code) {
    assert(I.ArgCount <= MMaxArgs && "argument count past MInsn::Args");
    ExecInsn E;
    // Only the decoder places the sentinel; any other opcode past the
    // last real one is invalid code, which executes as a counted fault.
    E.Op = I.Op < MOpcode::MEnd ? I.Op : MOpcode::MOpcodeCount;
    // An MIf* compares B with C, or with 0 when C is absent, whichever
    // spelling its opcode has; the decoded opcode follows the operands.
    if (isMCondBranch(E.Op)) {
      constexpr int ToZeroForm =
          static_cast<int>(MOpcode::MIfEqz) - static_cast<int>(MOpcode::MIfEq);
      bool ZeroForm = E.Op >= MOpcode::MIfEqz;
      if (ZeroForm != (I.C == MNoReg))
        E.Op = static_cast<MOpcode>(static_cast<int>(E.Op) +
                                    (ZeroForm ? -ToZeroForm : ToZeroForm));
    }
    E.Hint = I.Hint;
    E.ArgCount = I.ArgCount;
    E.A = I.A;
    E.B = I.B;
    E.C = I.C;
    E.Target = I.Target >= 0 && static_cast<uint32_t>(I.Target) < End
                   ? static_cast<uint32_t>(I.Target)
                   : End;
    E.Idx = I.Idx;
    E.ArgBase = static_cast<uint32_t>(X.ArgPool.size());
    X.ArgPool.insert(X.ArgPool.end(), I.Args, I.Args + I.ArgCount);
    if (I.Op == MOpcode::MMovImmF)
      std::memcpy(&E.Imm, &I.ImmF, sizeof(E.Imm));
    else
      E.Imm = static_cast<uint64_t>(I.ImmI);
    if (MaySpill) {
      unsigned Touches = Spilled(I.A) + Spilled(I.B) + Spilled(I.C);
      for (unsigned N = 0; N != I.ArgCount; ++N)
        Touches += Spilled(I.Args[N]);
      E.SpillTouches = static_cast<uint8_t>(Touches);
    }
    X.Code.push_back(E);
  }
  X.Code.push_back(ExecInsn()); // the MEnd sentinel, at index End
  return X;
}
