//===- vm/Executor.cpp - Machine-code executor tier -------------------------===//
//
// Runs compiled MachineFunctions under the cycle cost model. Unlike the
// interpreter, nothing here re-checks what the compiler chose not to check:
// an unsound optimization produces genuine memory corruption, wild traps,
// or silently wrong results — exactly the failure classes Figure 1 counts.
//
//===----------------------------------------------------------------------===//

#include "vm/IntOps.h"
#include "vm/Runtime.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace ropt;
using namespace ropt::vm;

namespace {

double runIntrinsic(IntrinsicKind Kind, const Value *Args) {
  switch (Kind) {
  case IntrinsicKind::Sin: return std::sin(Args[0].asF64());
  case IntrinsicKind::Cos: return std::cos(Args[0].asF64());
  case IntrinsicKind::Tan: return std::tan(Args[0].asF64());
  case IntrinsicKind::Exp: return std::exp(Args[0].asF64());
  case IntrinsicKind::Log: return std::log(Args[0].asF64());
  case IntrinsicKind::Floor: return std::floor(Args[0].asF64());
  case IntrinsicKind::AbsF: return std::fabs(Args[0].asF64());
  case IntrinsicKind::Pow:
    return std::pow(Args[0].asF64(), Args[1].asF64());
  case IntrinsicKind::Atan2:
    return std::atan2(Args[0].asF64(), Args[1].asF64());
  case IntrinsicKind::MinF: {
    double A = Args[0].asF64(), B = Args[1].asF64();
    return A < B ? A : B;
  }
  case IntrinsicKind::MaxF: {
    double A = Args[0].asF64(), B = Args[1].asF64();
    return A > B ? A : B;
  }
  case IntrinsicKind::IntrinsicCount:
    break;
  }
  return 0.0;
}

} // namespace

Value Runtime::execMachine(const MachineFunction &Fn,
                           const std::vector<Value> &Args) {
  assert(Args.size() == Fn.ParamCount && "argument count mismatch");

  // Frames overwhelmingly fit the inline buffer, so a call costs no
  // allocation; only pathological register counts spill to the heap.
  Value StackRegs[48];
  std::vector<Value> HeapRegs;
  Value *R;
  if (Fn.NumRegs <= 48) {
    std::fill_n(StackRegs, Fn.NumRegs, Value());
    R = StackRegs;
  } else {
    HeapRegs.resize(Fn.NumRegs);
    R = HeapRegs.data(); // never resized below
  }
  for (size_t I = 0; I != Args.size(); ++I)
    R[I] = Args[I];

  // Scratch argument buffer: one allocation per frame, not per call insn.
  std::vector<Value> CallArgs;

  charge(Costs.CallCycles);

  // Extra cycles per touch of a register that did not fit the physical
  // register file: the regalloc quality dimension. A function whose frame
  // fits the register file cannot touch a spilled register at all, so the
  // whole per-instruction scan is hoisted behind one loop-invariant test.
  const bool MaySpill = Fn.NumRegs > PhysRegCount;
  auto SpillCost = [&](const MInsn &I) {
    uint32_t Touches = 0;
    if (I.A != MNoReg && I.A >= PhysRegCount)
      ++Touches;
    if (I.B != MNoReg && I.B >= PhysRegCount)
      ++Touches;
    if (I.C != MNoReg && I.C >= PhysRegCount)
      ++Touches;
    for (unsigned N = 0; N != I.ArgCount; ++N)
      if (I.Args[N] >= PhysRegCount)
        ++Touches;
    if (Touches)
      charge(static_cast<uint64_t>(Touches) * Costs.SpillTouchCycles);
  };

  auto TakeBranch = [&](const MInsn &I, size_t Pc, bool Taken) {
    charge(Costs.BranchCycles);
    bool PredictedRight;
    if (I.Hint == BranchHint::Likely)
      PredictedRight = Taken;
    else if (I.Hint == BranchHint::Unlikely)
      PredictedRight = !Taken;
    else
      PredictedRight = Predictor.predictAndUpdate(
          (static_cast<uint64_t>(Fn.Method) << 20) ^ Pc, Taken);
    if (!PredictedRight)
      charge(Costs.BranchMispredictPenalty);
    noteBranch((static_cast<uint64_t>(Fn.Method) << 20) ^ Pc, Taken);
  };

  size_t Pc = 0;
  const MInsn *Code = Fn.Code.data();
  const size_t CodeSize = Fn.Code.size();

  while (Trap == TrapKind::None) {
    if (Pc >= CodeSize) {
      // Malformed code (e.g. produced by a broken pass pipeline that
      // slipped past the IR verifier): treat as a crash.
      Trap = TrapKind::MemoryFault;
      break;
    }
    const MInsn &I = Code[Pc];
    if (!consumeInsn())
      break;
    if (MaySpill)
      SpillCost(I);

    size_t NextPc = Pc + 1;

    switch (I.Op) {
    case MOpcode::MNop:
      break;
    case MOpcode::MMovImmI:
      R[I.A] = Value::fromI64(I.ImmI);
      charge(Costs.MoveCycles);
      break;
    case MOpcode::MMovImmF:
      R[I.A] = Value::fromF64(I.ImmF);
      charge(Costs.MoveCycles);
      break;
    case MOpcode::MMov:
      R[I.A] = R[I.B];
      charge(Costs.MoveCycles);
      break;

    case MOpcode::MAddI:
      R[I.A] = Value::fromI64(wrapAdd(R[I.B].asI64(), R[I.C].asI64()));
      charge(Costs.AluCycles);
      break;
    case MOpcode::MSubI:
      R[I.A] = Value::fromI64(wrapSub(R[I.B].asI64(), R[I.C].asI64()));
      charge(Costs.AluCycles);
      break;
    case MOpcode::MMulI:
      R[I.A] = Value::fromI64(wrapMul(R[I.B].asI64(), R[I.C].asI64()));
      charge(Costs.MulCycles);
      break;
    case MOpcode::MDivI: {
      // Unchecked: the compiler must have emitted MCheckDiv if the divisor
      // can be zero. Hardware still faults on zero.
      int64_t Divisor = R[I.C].asI64();
      if (Divisor == 0) {
        Trap = TrapKind::DivByZero;
        break;
      }
      R[I.A] = Value::fromI64(javaDiv(R[I.B].asI64(), Divisor));
      charge(Costs.DivCycles);
      break;
    }
    case MOpcode::MRemI: {
      int64_t Divisor = R[I.C].asI64();
      if (Divisor == 0) {
        Trap = TrapKind::DivByZero;
        break;
      }
      R[I.A] = Value::fromI64(javaRem(R[I.B].asI64(), Divisor));
      charge(Costs.DivCycles);
      break;
    }
    case MOpcode::MAndI:
      R[I.A] = Value::fromI64(R[I.B].asI64() & R[I.C].asI64());
      charge(Costs.AluCycles);
      break;
    case MOpcode::MOrI:
      R[I.A] = Value::fromI64(R[I.B].asI64() | R[I.C].asI64());
      charge(Costs.AluCycles);
      break;
    case MOpcode::MXorI:
      R[I.A] = Value::fromI64(R[I.B].asI64() ^ R[I.C].asI64());
      charge(Costs.AluCycles);
      break;
    case MOpcode::MShlI:
      R[I.A] = Value::fromI64(shiftLeft(R[I.B].asI64(), R[I.C].asI64()));
      charge(Costs.AluCycles);
      break;
    case MOpcode::MShrI:
      R[I.A] = Value::fromI64(shiftRight(R[I.B].asI64(), R[I.C].asI64()));
      charge(Costs.AluCycles);
      break;
    case MOpcode::MNegI:
      R[I.A] = Value::fromI64(wrapNeg(R[I.B].asI64()));
      charge(Costs.AluCycles);
      break;

    case MOpcode::MAddF:
      R[I.A] = Value::fromF64(R[I.B].asF64() + R[I.C].asF64());
      charge(Costs.FAddCycles);
      break;
    case MOpcode::MSubF:
      R[I.A] = Value::fromF64(R[I.B].asF64() - R[I.C].asF64());
      charge(Costs.FAddCycles);
      break;
    case MOpcode::MMulF:
      R[I.A] = Value::fromF64(R[I.B].asF64() * R[I.C].asF64());
      charge(Costs.FMulCycles);
      break;
    case MOpcode::MDivF:
      R[I.A] = Value::fromF64(R[I.B].asF64() / R[I.C].asF64());
      charge(Costs.FDivCycles);
      break;
    case MOpcode::MNegF:
      R[I.A] = Value::fromF64(-R[I.B].asF64());
      charge(Costs.FAddCycles);
      break;
    case MOpcode::MCmpF: {
      double A = R[I.B].asF64(), B = R[I.C].asF64();
      R[I.A] = Value::fromI64((A < B) ? -1 : (A == B ? 0 : 1));
      charge(Costs.FAddCycles);
      break;
    }
    case MOpcode::MSqrtF:
      R[I.A] = Value::fromF64(std::sqrt(R[I.B].asF64()));
      charge(Costs.FSqrtCycles);
      break;
    case MOpcode::MI2F:
      R[I.A] = Value::fromF64(static_cast<double>(R[I.B].asI64()));
      charge(Costs.ConvCycles);
      break;
    case MOpcode::MF2I:
      R[I.A] = Value::fromI64(doubleToInt(R[I.B].asF64()));
      charge(Costs.ConvCycles);
      break;

    case MOpcode::MGoto:
      NextPc = static_cast<size_t>(I.Target);
      charge(Costs.BranchCycles);
      break;
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
    case MOpcode::MIfGez: {
      int64_t A = R[I.B].asI64();
      int64_t B = I.C == MNoReg ? 0 : R[I.C].asI64();
      bool Taken = false;
      switch (I.Op) {
      case MOpcode::MIfEq: case MOpcode::MIfEqz: Taken = A == B; break;
      case MOpcode::MIfNe: case MOpcode::MIfNez: Taken = A != B; break;
      case MOpcode::MIfLt: case MOpcode::MIfLtz: Taken = A < B; break;
      case MOpcode::MIfLe: case MOpcode::MIfLez: Taken = A <= B; break;
      case MOpcode::MIfGt: case MOpcode::MIfGtz: Taken = A > B; break;
      default: Taken = A >= B; break;
      }
      TakeBranch(I, Pc, Taken);
      if (Taken)
        NextPc = static_cast<size_t>(I.Target);
      break;
    }

    case MOpcode::MCheckNull:
      charge(Costs.CheckCycles);
      if (R[I.B].isNullRef())
        Trap = TrapKind::NullPointer;
      break;
    case MOpcode::MCheckBounds: {
      charge(Costs.CheckCycles);
      uint64_t Arr = R[I.B].asRef();
      ObjectHeader Header;
      chargeMemRead(Arr);
      if (!TheHeap.readHeader(Arr, Header)) {
        Trap = TrapKind::MemoryFault;
        break;
      }
      int64_t Index = R[I.C].asI64();
      if (Index < 0 || static_cast<uint64_t>(Index) >= Header.Count)
        Trap = TrapKind::OutOfBounds;
      break;
    }
    case MOpcode::MCheckDiv:
      charge(Costs.CheckCycles);
      if (R[I.B].asI64() == 0)
        Trap = TrapKind::DivByZero;
      break;
    case MOpcode::MSafepoint:
      safepoint();
      break;
    case MOpcode::MGuardClass: {
      charge(Costs.CheckCycles);
      uint64_t Obj = R[I.B].asRef();
      ObjectHeader Header;
      chargeMemRead(Obj);
      if (Obj == 0 || !TheHeap.readHeader(Obj, Header)) {
        Trap = TrapKind::MemoryFault;
        break;
      }
      if (Header.ClassOrElem != I.Idx) {
        // Speculation failed: branch to the slow path.
        charge(Costs.BranchMispredictPenalty);
        NextPc = static_cast<size_t>(I.Target);
      }
      break;
    }

    case MOpcode::MLoadSlot: {
      uint64_t Bits = 0;
      if (memLoad(Heap::slotAddr(R[I.B].asRef(), I.Idx), Bits))
        R[I.A].Raw = Bits;
      break;
    }
    case MOpcode::MStoreSlot:
      memStore(Heap::slotAddr(R[I.B].asRef(), I.Idx), R[I.A].Raw);
      break;
    case MOpcode::MLoadStatic: {
      uint64_t Bits = 0;
      if (memLoad(staticSlotAddr(I.Idx), Bits))
        R[I.A].Raw = Bits;
      break;
    }
    case MOpcode::MStoreStatic:
      memStore(staticSlotAddr(I.Idx), R[I.A].Raw);
      break;
    case MOpcode::MALoad: {
      // Unchecked by design: a wrong index after an unsound bounds-check
      // elimination reads whatever lives there.
      uint64_t Addr = Heap::elemAddr(
          R[I.B].asRef(), static_cast<uint64_t>(R[I.C].asI64()));
      uint64_t Bits = 0;
      if (memLoad(Addr, Bits))
        R[I.A].Raw = Bits;
      break;
    }
    case MOpcode::MAStore: {
      uint64_t Addr = Heap::elemAddr(
          R[I.B].asRef(), static_cast<uint64_t>(R[I.C].asI64()));
      memStore(Addr, R[I.A].Raw);
      break;
    }
    case MOpcode::MArrayLen: {
      uint64_t Arr = R[I.B].asRef();
      ObjectHeader Header;
      chargeMemRead(Arr);
      if (!TheHeap.readHeader(Arr, Header)) {
        Trap = TrapKind::MemoryFault;
        break;
      }
      R[I.A] = Value::fromI64(static_cast<int64_t>(Header.Count));
      break;
    }

    case MOpcode::MNewInstance: {
      const dex::ClassInfo &Cls = Dex.classAt(I.Idx);
      charge(Costs.AllocBaseCycles +
             Costs.AllocPerSlotCycles * Cls.InstanceSlots);
      noteAlloc(Cls.InstanceSlots);
      R[I.A] = Value::fromRef(TheHeap.allocate(
          ObjKind::Object, Cls.Id, Cls.InstanceSlots, Trap));
      break;
    }
    case MOpcode::MNewArray: {
      int64_t Len = R[I.B].asI64();
      if (Len < 0) {
        Trap = TrapKind::OutOfBounds;
        break;
      }
      charge(Costs.AllocBaseCycles +
             Costs.AllocPerSlotCycles * static_cast<uint64_t>(Len));
      noteAlloc(static_cast<uint64_t>(Len));
      R[I.A] = Value::fromRef(
          TheHeap.allocate(static_cast<ObjKind>(I.Idx), 0,
                           static_cast<uint64_t>(Len), Trap));
      break;
    }

    case MOpcode::MCallStatic:
    case MOpcode::MCallVirtual:
    case MOpcode::MCallNative: {
      CallArgs.resize(I.ArgCount);
      for (unsigned N = 0; N != I.ArgCount; ++N)
        CallArgs[N] = R[I.Args[N]];
      Value Ret;
      if (I.Op == MOpcode::MCallNative) {
        Ret = callNative(I.Idx, CallArgs);
      } else if (I.Op == MOpcode::MCallStatic) {
        Ret = invoke(I.Idx, CallArgs);
      } else {
        charge(Costs.VirtualDispatchCycles);
        uint64_t Receiver = CallArgs[0].asRef();
        ObjectHeader Header;
        chargeMemRead(Receiver);
        if (Receiver == 0 || !TheHeap.readHeader(Receiver, Header)) {
          Trap = TrapKind::MemoryFault;
          break;
        }
        dex::ClassId Cls = Header.ClassOrElem;
        // A corrupted header (e.g. after an out-of-bounds store) yields a
        // garbage class id: crash like a wild indirect jump would.
        if (Cls >= Dex.classes().size()) {
          Trap = TrapKind::MemoryFault;
          break;
        }
        const dex::Method &Declared = Dex.method(I.Idx);
        const dex::ClassInfo &ClsInfo = Dex.classAt(Cls);
        if (Declared.VTableSlot < 0 ||
            static_cast<size_t>(Declared.VTableSlot) >=
                ClsInfo.VTable.size()) {
          Trap = TrapKind::MemoryFault;
          break;
        }
        Ret = invoke(
            ClsInfo.VTable[static_cast<size_t>(Declared.VTableSlot)],
            CallArgs);
      }
      if (Trap != TrapKind::None)
        break;
      if (I.A != MNoReg)
        R[I.A] = Ret;
      break;
    }

    case MOpcode::MIntrinsic: {
      Value ArgVals[MMaxArgs];
      for (unsigned N = 0; N != I.ArgCount; ++N)
        ArgVals[N] = R[I.Args[N]];
      charge(intrinsicWorkCycles(static_cast<IntrinsicKind>(I.Idx)));
      R[I.A] = Value::fromF64(
          runIntrinsic(static_cast<IntrinsicKind>(I.Idx), ArgVals));
      break;
    }

    case MOpcode::MRet:
      charge(Costs.ReturnCycles);
      return R[I.B];
    case MOpcode::MRetVoid:
      charge(Costs.ReturnCycles);
      return Value();

    case MOpcode::MOpcodeCount:
      Trap = TrapKind::MemoryFault;
      break;
    }

    Pc = NextPc;
  }
  return Value();
}
