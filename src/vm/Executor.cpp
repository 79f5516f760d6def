//===- vm/Executor.cpp - Machine-code executor tier -------------------------===//
//
// Runs compiled MachineFunctions under the cycle cost model. Unlike the
// interpreter, nothing here re-checks what the compiler chose not to check:
// an unsound optimization produces genuine memory corruption, wild traps,
// or silently wrong results — exactly the failure classes Figure 1 counts.
//
// The loop runs the executable form CodeCache::install decoded once per
// function (vm/Machine.h, DESIGN.md §19): 32-byte instructions, spill
// touches precomputed, and an end sentinel in place of a bounds test per
// step. The frame's cycle and instruction counts live in locals and are
// flushed into the runtime's counters and the AttributeCycles profile
// before every nested invoke, every native call (natives read the cycle
// clock), every return and the exit on a trap. Every charge, cache
// access, predictor update and trap happens in the same order as in a
// plain loop over MInsns; tests/VmTests.cpp pins the results.
//
//===----------------------------------------------------------------------===//

#include "vm/IntOps.h"
#include "vm/Runtime.h"

#include <algorithm>
#include <cassert>
#include <cmath>

// The step's helpers are lambdas over the frame's cycle and instruction
// locals; one left out of line takes those locals' addresses and pins
// them to memory for the whole loop.
#if defined(__GNUC__) || defined(__clang__)
#define ROPT_INLINE __attribute__((always_inline))
#else
#define ROPT_INLINE
#endif

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

Value Runtime::execMachine(const ExecFunction &Fn,
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

  // Local copy: lets the per-instruction charges stay in registers.
  const CycleCostModel CM = Costs;
  const uint64_t InsLimit = Config.InsnBudget;
  // This frame's profile slots; null unless AttributeCycles (invoke has
  // pushed this method, and nothing resizes the profile mid-call).
  uint64_t *SelfCycles = nullptr;
  MethodFeatureCounters *Feat = nullptr;
  if (Config.AttributeCycles && !AttributionStack.empty()) {
    SelfCycles = &MethodCycles[AttributionStack.back()];
    Feat = &MethodFeatures[AttributionStack.back()];
  }

  // Cycles charged since the last flush, and the top-level call's
  // instruction count (CallInsns as of the last flush is InsFlushed).
  uint64_t Cyc = CM.CallCycles;
  uint64_t Ins = CallInsns;
  uint64_t InsFlushed = Ins;

  auto Flush = [&]() ROPT_INLINE {
    uint64_t NewIns = Ins - InsFlushed;
    CallCycles += Cyc;
    TotalCycles += Cyc;
    CallInsns = Ins;
    TotalInsns += NewIns;
    if (Feat) {
      *SelfCycles += Cyc;
      Feat->Insns += NewIns;
    }
    Cyc = 0;
    InsFlushed = Ins;
  };
  // A nested call advanced CallInsns; continue counting from there.
  auto Resync = [&]() ROPT_INLINE { Ins = InsFlushed = CallInsns; };

  auto MemRead = [&](uint64_t Addr) ROPT_INLINE {
    bool Hit = DCache.access(Addr);
    Cyc += Hit ? CM.LoadCycles : CM.LoadCycles + CM.CacheMissPenalty;
    if (Feat) {
      ++Feat->MemReads;
      if (!Hit)
        ++Feat->CacheMisses;
    }
  };
  auto Load = [&](uint64_t Addr, Value &Out) ROPT_INLINE {
    MemRead(Addr);
    uint64_t Bits = 0;
    if (Space.loadU64(Addr, Bits) == os::AccessResult::Ok)
      Out.Raw = Bits;
    else
      Trap = TrapKind::MemoryFault;
  };
  auto Store = [&](uint64_t Addr, Value V) ROPT_INLINE {
    DCache.access(Addr); // stores install the line; latency is absorbed
    if (Feat)
      ++Feat->MemWrites;
    Cyc += CM.StoreCycles;
    if (Space.storeU64(Addr, V.Raw) != os::AccessResult::Ok)
      Trap = TrapKind::MemoryFault;
    else if (Observer)
      Observer->onCellWrite(Addr);
  };

  // Returns the next pc of the conditional branch at \p Pc.
  auto CondBranch = [&](const ExecInsn &I, size_t Pc,
                        bool Taken) ROPT_INLINE {
    Cyc += CM.BranchCycles;
    uint64_t Site = (static_cast<uint64_t>(Fn.Method) << 20) ^ Pc;
    bool PredictedRight;
    if (I.Hint == BranchHint::Likely)
      PredictedRight = Taken;
    else if (I.Hint == BranchHint::Unlikely)
      PredictedRight = !Taken;
    else
      PredictedRight = Predictor.predictAndUpdate(Site, Taken);
    if (!PredictedRight)
      Cyc += CM.BranchMispredictPenalty;
    noteBranch(Site, Taken);
    return Taken ? static_cast<size_t>(I.Target) : Pc + 1;
  };

  const ExecInsn *Code = Fn.Code.data();
  const MRegIdx *ArgPool = Fn.ArgPool.data();
  size_t Pc = 0;

  while (Trap == TrapKind::None) {
    const ExecInsn &I = Code[Pc];
    if (++Ins > InsLimit) [[unlikely]] {
      // The sentinel is no instruction: running off the end faults
      // uncounted even on the step where the budget runs out.
      if (I.Op == MOpcode::MEnd) {
        --Ins;
        Trap = TrapKind::MemoryFault;
      } else {
        Trap = TrapKind::Timeout;
      }
      break;
    }
    // Extra cycles per touch of a register that did not fit the physical
    // register file: the regalloc quality dimension.
    Cyc += static_cast<uint64_t>(I.SpillTouches) * CM.SpillTouchCycles;

    size_t NextPc = Pc + 1;

    switch (I.Op) {
    case MOpcode::MNop:
      break;
    case MOpcode::MMovImmI:
    case MOpcode::MMovImmF:
      R[I.A].Raw = I.Imm;
      Cyc += CM.MoveCycles;
      break;
    case MOpcode::MMov:
      R[I.A] = R[I.B];
      Cyc += CM.MoveCycles;
      break;

    case MOpcode::MAddI:
      R[I.A] = Value::fromI64(wrapAdd(R[I.B].asI64(), R[I.C].asI64()));
      Cyc += CM.AluCycles;
      break;
    case MOpcode::MSubI:
      R[I.A] = Value::fromI64(wrapSub(R[I.B].asI64(), R[I.C].asI64()));
      Cyc += CM.AluCycles;
      break;
    case MOpcode::MMulI:
      R[I.A] = Value::fromI64(wrapMul(R[I.B].asI64(), R[I.C].asI64()));
      Cyc += CM.MulCycles;
      break;
    case MOpcode::MDivI: {
      // Unchecked: the compiler must have emitted MCheckDiv if the divisor
      // can be zero. Hardware still faults on zero, before the divide.
      int64_t Divisor = R[I.C].asI64();
      if (Divisor == 0) {
        Trap = TrapKind::DivByZero;
        break;
      }
      R[I.A] = Value::fromI64(javaDiv(R[I.B].asI64(), Divisor));
      Cyc += CM.DivCycles;
      break;
    }
    case MOpcode::MRemI: {
      int64_t Divisor = R[I.C].asI64();
      if (Divisor == 0) {
        Trap = TrapKind::DivByZero;
        break;
      }
      R[I.A] = Value::fromI64(javaRem(R[I.B].asI64(), Divisor));
      Cyc += CM.DivCycles;
      break;
    }
    case MOpcode::MAndI:
      R[I.A] = Value::fromI64(R[I.B].asI64() & R[I.C].asI64());
      Cyc += CM.AluCycles;
      break;
    case MOpcode::MOrI:
      R[I.A] = Value::fromI64(R[I.B].asI64() | R[I.C].asI64());
      Cyc += CM.AluCycles;
      break;
    case MOpcode::MXorI:
      R[I.A] = Value::fromI64(R[I.B].asI64() ^ R[I.C].asI64());
      Cyc += CM.AluCycles;
      break;
    case MOpcode::MShlI:
      R[I.A] = Value::fromI64(shiftLeft(R[I.B].asI64(), R[I.C].asI64()));
      Cyc += CM.AluCycles;
      break;
    case MOpcode::MShrI:
      R[I.A] = Value::fromI64(shiftRight(R[I.B].asI64(), R[I.C].asI64()));
      Cyc += CM.AluCycles;
      break;
    case MOpcode::MNegI:
      R[I.A] = Value::fromI64(wrapNeg(R[I.B].asI64()));
      Cyc += CM.AluCycles;
      break;

    case MOpcode::MAddF:
      R[I.A] = Value::fromF64(R[I.B].asF64() + R[I.C].asF64());
      Cyc += CM.FAddCycles;
      break;
    case MOpcode::MSubF:
      R[I.A] = Value::fromF64(R[I.B].asF64() - R[I.C].asF64());
      Cyc += CM.FAddCycles;
      break;
    case MOpcode::MMulF:
      R[I.A] = Value::fromF64(R[I.B].asF64() * R[I.C].asF64());
      Cyc += CM.FMulCycles;
      break;
    case MOpcode::MDivF:
      R[I.A] = Value::fromF64(R[I.B].asF64() / R[I.C].asF64());
      Cyc += CM.FDivCycles;
      break;
    case MOpcode::MNegF:
      R[I.A] = Value::fromF64(-R[I.B].asF64());
      Cyc += CM.FAddCycles;
      break;
    case MOpcode::MCmpF: {
      double A = R[I.B].asF64(), B = R[I.C].asF64();
      R[I.A] = Value::fromI64((A < B) ? -1 : (A == B ? 0 : 1));
      Cyc += CM.FAddCycles;
      break;
    }
    case MOpcode::MSqrtF:
      R[I.A] = Value::fromF64(std::sqrt(R[I.B].asF64()));
      Cyc += CM.FSqrtCycles;
      break;
    case MOpcode::MI2F:
      R[I.A] = Value::fromF64(static_cast<double>(R[I.B].asI64()));
      Cyc += CM.ConvCycles;
      break;
    case MOpcode::MF2I:
      R[I.A] = Value::fromI64(doubleToInt(R[I.B].asF64()));
      Cyc += CM.ConvCycles;
      break;

    case MOpcode::MGoto:
      NextPc = I.Target;
      Cyc += CM.BranchCycles;
      break;
    // The decoder spells a compare against an absent C as the z-form.
    case MOpcode::MIfEq:
      NextPc = CondBranch(I, Pc, R[I.B].asI64() == R[I.C].asI64());
      break;
    case MOpcode::MIfNe:
      NextPc = CondBranch(I, Pc, R[I.B].asI64() != R[I.C].asI64());
      break;
    case MOpcode::MIfLt:
      NextPc = CondBranch(I, Pc, R[I.B].asI64() < R[I.C].asI64());
      break;
    case MOpcode::MIfLe:
      NextPc = CondBranch(I, Pc, R[I.B].asI64() <= R[I.C].asI64());
      break;
    case MOpcode::MIfGt:
      NextPc = CondBranch(I, Pc, R[I.B].asI64() > R[I.C].asI64());
      break;
    case MOpcode::MIfGe:
      NextPc = CondBranch(I, Pc, R[I.B].asI64() >= R[I.C].asI64());
      break;
    case MOpcode::MIfEqz:
      NextPc = CondBranch(I, Pc, R[I.B].asI64() == 0);
      break;
    case MOpcode::MIfNez:
      NextPc = CondBranch(I, Pc, R[I.B].asI64() != 0);
      break;
    case MOpcode::MIfLtz:
      NextPc = CondBranch(I, Pc, R[I.B].asI64() < 0);
      break;
    case MOpcode::MIfLez:
      NextPc = CondBranch(I, Pc, R[I.B].asI64() <= 0);
      break;
    case MOpcode::MIfGtz:
      NextPc = CondBranch(I, Pc, R[I.B].asI64() > 0);
      break;
    case MOpcode::MIfGez:
      NextPc = CondBranch(I, Pc, R[I.B].asI64() >= 0);
      break;

    case MOpcode::MCheckNull:
      Cyc += CM.CheckCycles;
      if (R[I.B].isNullRef())
        Trap = TrapKind::NullPointer;
      break;
    case MOpcode::MCheckBounds: {
      Cyc += CM.CheckCycles;
      uint64_t Arr = R[I.B].asRef();
      ObjectHeader Header;
      MemRead(Arr);
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
      Cyc += CM.CheckCycles;
      if (R[I.B].asI64() == 0)
        Trap = TrapKind::DivByZero;
      break;
    case MOpcode::MSafepoint:
      Cyc += CM.SafepointCycles;
      Cyc += TheHeap.pollSafepoint(CM.GcPauseCycles);
      break;
    case MOpcode::MGuardClass: {
      Cyc += CM.CheckCycles;
      uint64_t Obj = R[I.B].asRef();
      ObjectHeader Header;
      MemRead(Obj);
      if (Obj == 0 || !TheHeap.readHeader(Obj, Header)) {
        Trap = TrapKind::MemoryFault;
        break;
      }
      if (Header.ClassOrElem != I.Idx) {
        // Speculation failed: branch to the slow path.
        Cyc += CM.BranchMispredictPenalty;
        NextPc = I.Target;
      }
      break;
    }

    case MOpcode::MLoadSlot:
      Load(Heap::slotAddr(R[I.B].asRef(), I.Idx), R[I.A]);
      break;
    case MOpcode::MStoreSlot:
      Store(Heap::slotAddr(R[I.B].asRef(), I.Idx), R[I.A]);
      break;
    case MOpcode::MLoadStatic:
      Load(staticSlotAddr(I.Idx), R[I.A]);
      break;
    case MOpcode::MStoreStatic:
      Store(staticSlotAddr(I.Idx), R[I.A]);
      break;
    case MOpcode::MALoad:
      // Unchecked by design: a wrong index after an unsound bounds-check
      // elimination reads whatever lives there.
      Load(Heap::elemAddr(R[I.B].asRef(),
                          static_cast<uint64_t>(R[I.C].asI64())),
           R[I.A]);
      break;
    case MOpcode::MAStore:
      Store(Heap::elemAddr(R[I.B].asRef(),
                           static_cast<uint64_t>(R[I.C].asI64())),
            R[I.A]);
      break;
    case MOpcode::MArrayLen: {
      uint64_t Arr = R[I.B].asRef();
      ObjectHeader Header;
      MemRead(Arr);
      if (!TheHeap.readHeader(Arr, Header)) {
        Trap = TrapKind::MemoryFault;
        break;
      }
      R[I.A] = Value::fromI64(static_cast<int64_t>(Header.Count));
      break;
    }

    case MOpcode::MNewInstance: {
      const dex::ClassInfo &Cls = Dex.classAt(I.Idx);
      Cyc += CM.AllocBaseCycles + CM.AllocPerSlotCycles * Cls.InstanceSlots;
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
      Cyc += CM.AllocBaseCycles +
             CM.AllocPerSlotCycles * static_cast<uint64_t>(Len);
      noteAlloc(static_cast<uint64_t>(Len));
      R[I.A] = Value::fromRef(
          TheHeap.allocate(static_cast<ObjKind>(I.Idx), 0,
                           static_cast<uint64_t>(Len), Trap));
      break;
    }

    case MOpcode::MCallStatic:
    case MOpcode::MCallVirtual:
    case MOpcode::MCallNative: {
      const MRegIdx *ArgRegs = ArgPool + I.ArgBase;
      CallArgs.resize(I.ArgCount);
      for (unsigned N = 0; N != I.ArgCount; ++N)
        CallArgs[N] = R[ArgRegs[N]];
      Value Ret;
      if (I.Op == MOpcode::MCallNative) {
        Flush();
        Ret = callNative(I.Idx, CallArgs);
      } else if (I.Op == MOpcode::MCallStatic) {
        Flush();
        Ret = invoke(I.Idx, CallArgs);
        Resync();
      } else {
        Cyc += CM.VirtualDispatchCycles;
        uint64_t Receiver = CallArgs[0].asRef();
        ObjectHeader Header;
        MemRead(Receiver);
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
        Flush();
        Ret = invoke(
            ClsInfo.VTable[static_cast<size_t>(Declared.VTableSlot)],
            CallArgs);
        Resync();
      }
      if (Trap != TrapKind::None)
        break;
      if (I.A != MNoReg)
        R[I.A] = Ret;
      break;
    }

    case MOpcode::MIntrinsic: {
      const MRegIdx *ArgRegs = ArgPool + I.ArgBase;
      Value ArgVals[MMaxArgs];
      for (unsigned N = 0; N != I.ArgCount; ++N)
        ArgVals[N] = R[ArgRegs[N]];
      Cyc += intrinsicWorkCycles(static_cast<IntrinsicKind>(I.Idx));
      R[I.A] = Value::fromF64(
          runIntrinsic(static_cast<IntrinsicKind>(I.Idx), ArgVals));
      break;
    }

    case MOpcode::MRet: {
      Cyc += CM.ReturnCycles;
      Value Ret = R[I.B];
      Flush();
      return Ret;
    }
    case MOpcode::MRetVoid:
      Cyc += CM.ReturnCycles;
      Flush();
      return Value();

    case MOpcode::MEnd:
      // Ran past the last instruction or branched outside the code
      // (malformed code from a broken pass pipeline that slipped past the
      // IR verifier): a crash, and not an executed instruction.
      --Ins;
      Trap = TrapKind::MemoryFault;
      break;
    case MOpcode::MOpcodeCount:
      Trap = TrapKind::MemoryFault;
      break;
    }

    Pc = NextPc;
  }
  Flush();
  return Value();
}
