//===- hgraph/Passes.cpp - The conservative Android pass set ---------------===//

#include "hgraph/Passes.h"

#include "hgraph/Build.h"
#include "vm/IntOps.h"
#include "vm/MachineUtil.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>
#include <set>

using namespace ropt;
using namespace ropt::hgraph;
using vm::MInsn;
using vm::MNoReg;
using vm::MOpcode;
using vm::MRegIdx;

namespace {

/// Tracks which registers currently hold known integer constants while
/// scanning a block front to back.
class ConstTracker {
public:
  void invalidate(MRegIdx R) { Known.erase(R); }
  void set(MRegIdx R, int64_t V) { Known[R] = V; }

  std::optional<int64_t> get(MRegIdx R) const {
    auto It = Known.find(R);
    if (It == Known.end())
      return std::nullopt;
    return It->second;
  }

  /// Processes the write side of \p I: records MMovImmI results,
  /// invalidates anything else that defines a register.
  void afterInsn(const MInsn &I) {
    if (!vm::definesA(I))
      return;
    if (I.Op == MOpcode::MMovImmI)
      set(I.A, I.ImmI);
    else
      invalidate(I.A);
  }

private:
  std::map<MRegIdx, int64_t> Known;
};

/// Evaluates a conditional terminator over constants.
bool evalCond(MOpcode Op, int64_t A, int64_t B) {
  switch (Op) {
  case MOpcode::MIfEq: return A == B;
  case MOpcode::MIfNe: return A != B;
  case MOpcode::MIfLt: return A < B;
  case MOpcode::MIfLe: return A <= B;
  case MOpcode::MIfGt: return A > B;
  default: return A >= B;
  }
}

} // namespace

bool hgraph::constantFolding(HGraph &G) {
  bool Changed = false;
  for (HBlock &B : G.Blocks) {
    ConstTracker Consts;
    for (MInsn &I : B.Insns) {
      std::optional<int64_t> CA, CB;
      if (I.B != MNoReg)
        CA = Consts.get(I.B);
      if (I.C != MNoReg)
        CB = Consts.get(I.C);
      if (CA && CB && vm::isPureOp(I.Op) && I.A != MNoReg) {
        if (auto Folded = vm::foldIntOp(I.Op, *CA, *CB)) {
          MRegIdx Dst = I.A;
          I = MInsn();
          I.Op = MOpcode::MMovImmI;
          I.A = Dst;
          I.ImmI = *Folded;
          Changed = true;
        }
      } else if (I.Op == MOpcode::MNegI && CA) {
        MRegIdx Dst = I.A;
        I = MInsn();
        I.Op = MOpcode::MMovImmI;
        I.A = Dst;
        I.ImmI = vm::wrapNeg(*CA);
        Changed = true;
      }
      Consts.afterInsn(I);
    }

    // Fold constant conditional terminators into gotos.
    Terminator &T = B.Term;
    if (T.K == Terminator::Kind::Cond) {
      std::optional<int64_t> CA = Consts.get(T.B);
      std::optional<int64_t> CB(0);
      if (T.C != MNoReg)
        CB = Consts.get(T.C);
      if (CA && CB) {
        uint32_t Dest = evalCond(T.CondOp, *CA, *CB) ? T.Taken : T.Fall;
        T = Terminator();
        T.K = Terminator::Kind::Goto;
        T.Taken = Dest;
        Changed = true;
      }
    }
  }
  if (Changed)
    G.computePreds();
  return Changed;
}

bool hgraph::instructionSimplifier(HGraph &G) {
  bool Changed = false;
  for (HBlock &B : G.Blocks) {
    ConstTracker Consts;
    for (MInsn &I : B.Insns) {
      auto RewriteMov = [&I, &Changed](MRegIdx Src) {
        MRegIdx Dst = I.A;
        I = MInsn();
        I.Op = MOpcode::MMov;
        I.A = Dst;
        I.B = Src;
        Changed = true;
      };
      auto RewriteImm = [&I, &Changed](int64_t V) {
        MRegIdx Dst = I.A;
        I = MInsn();
        I.Op = MOpcode::MMovImmI;
        I.A = Dst;
        I.ImmI = V;
        Changed = true;
      };

      std::optional<int64_t> CB, CC;
      if (I.B != MNoReg)
        CB = Consts.get(I.B);
      if (I.C != MNoReg)
        CC = Consts.get(I.C);
      switch (I.Op) {
      case MOpcode::MAddI:
        if (CC && *CC == 0)
          RewriteMov(I.B);
        else if (CB && *CB == 0)
          RewriteMov(I.C);
        break;
      case MOpcode::MSubI:
        if (CC && *CC == 0)
          RewriteMov(I.B);
        else if (I.B == I.C)
          RewriteImm(0);
        break;
      case MOpcode::MMulI:
        if (CC && *CC == 1)
          RewriteMov(I.B);
        else if (CB && *CB == 1)
          RewriteMov(I.C);
        else if ((CC && *CC == 0) || (CB && *CB == 0))
          RewriteImm(0);
        else if (CC && *CC > 1 && (*CC & (*CC - 1)) == 0) {
          // x * 2^k  ->  x << k. Needs a fresh constant register; emit the
          // shift against an immediate via a two-step rewrite: the const
          // register already exists (it held the multiplier).
          int Shift = 0;
          int64_t V = *CC;
          while ((V >>= 1) > 0)
            ++Shift;
          // Reuse the multiplier register: it still holds 2^k, but we need
          // k. Only rewrite when k == 2^k (k in {1, 2}): too narrow to be
          // useful, so instead skip unless a register holding k is at hand.
          (void)Shift;
        }
        break;
      case MOpcode::MDivI:
        if (CC && *CC == 1)
          RewriteMov(I.B);
        break;
      case MOpcode::MXorI:
        if (I.B == I.C)
          RewriteImm(0);
        else if (CC && *CC == 0)
          RewriteMov(I.B);
        break;
      case MOpcode::MAndI:
        if (I.B == I.C)
          RewriteMov(I.B);
        break;
      case MOpcode::MOrI:
        if (I.B == I.C)
          RewriteMov(I.B);
        else if (CC && *CC == 0)
          RewriteMov(I.B);
        break;
      case MOpcode::MShlI:
      case MOpcode::MShrI:
        if (CC && *CC == 0)
          RewriteMov(I.B);
        break;
      case MOpcode::MMov:
        if (I.A == I.B) {
          I = MInsn(); // nop
          Changed = true;
        }
        break;
      default:
        break;
      }
      Consts.afterInsn(I);
    }
  }
  return Changed;
}

bool hgraph::copyPropagation(HGraph &G) {
  bool Changed = false;
  for (HBlock &B : G.Blocks) {
    std::map<MRegIdx, MRegIdx> CopyOf; // dst -> original source
    auto Canonical = [&CopyOf](MRegIdx R) {
      auto It = CopyOf.find(R);
      return It == CopyOf.end() ? R : It->second;
    };
    auto InvalidateDefs = [&CopyOf](MRegIdx Def) {
      CopyOf.erase(Def);
      for (auto It = CopyOf.begin(); It != CopyOf.end();)
        It = It->second == Def ? CopyOf.erase(It) : std::next(It);
    };

    for (MInsn &I : B.Insns) {
      vm::forEachUseMut(I, [&](MRegIdx &R) {
        MRegIdx C = Canonical(R);
        if (C != R) {
          R = C;
          Changed = true;
        }
      });
      if (vm::definesA(I)) {
        InvalidateDefs(I.A);
        if (I.Op == MOpcode::MMov && I.A != I.B)
          CopyOf[I.A] = Canonical(I.B);
      }
    }

    Terminator &T = B.Term;
    if (T.K == Terminator::Kind::Cond || T.K == Terminator::Kind::Guard ||
        T.K == Terminator::Kind::Ret) {
      MRegIdx NB = Canonical(T.B);
      if (NB != T.B) {
        T.B = NB;
        Changed = true;
      }
      if (T.C != MNoReg) {
        MRegIdx NC = Canonical(T.C);
        if (NC != T.C) {
          T.C = NC;
          Changed = true;
        }
      }
    }
  }
  return Changed;
}

bool hgraph::localValueNumbering(HGraph &G) {
  bool Changed = false;
  for (HBlock &B : G.Blocks) {
    // Key: opcode + operand registers + immediates. Value: register that
    // already holds the result. Invalidated when an operand is redefined.
    struct Key {
      MOpcode Op;
      MRegIdx B, C;
      int64_t ImmI;
      uint64_t ImmFBits;
      bool operator<(const Key &O) const {
        if (Op != O.Op) return Op < O.Op;
        if (B != O.B) return B < O.B;
        if (C != O.C) return C < O.C;
        if (ImmI != O.ImmI) return ImmI < O.ImmI;
        return ImmFBits < O.ImmFBits;
      }
    };
    std::map<Key, MRegIdx> Available;

    auto InvalidateUsesOf = [&Available](MRegIdx Def) {
      for (auto It = Available.begin(); It != Available.end();) {
        bool Kill = It->first.B == Def || It->first.C == Def ||
                    It->second == Def;
        It = Kill ? Available.erase(It) : std::next(It);
      }
    };

    for (MInsn &I : B.Insns) {
      if (!vm::isPureOp(I.Op) || I.A == MNoReg) {
        if (vm::definesA(I))
          InvalidateUsesOf(I.A);
        continue;
      }
      uint64_t FBits;
      static_assert(sizeof(FBits) == sizeof(I.ImmF), "bitcast size");
      __builtin_memcpy(&FBits, &I.ImmF, sizeof(FBits));
      Key K{I.Op, I.B, I.C, I.ImmI, FBits};
      auto It = Available.find(K);
      if (It != Available.end() && It->second != I.A) {
        MRegIdx Dst = I.A, Src = It->second;
        InvalidateUsesOf(Dst);
        I = MInsn();
        I.Op = MOpcode::MMov;
        I.A = Dst;
        I.B = Src;
        Changed = true;
        continue;
      }
      MRegIdx Def = I.A;
      InvalidateUsesOf(Def);
      Available[K] = Def;
    }
  }
  return Changed;
}

bool hgraph::localDeadCodeElimination(HGraph &G) {
  bool Changed = false;
  for (HBlock &B : G.Blocks) {
    // Backward scan: a pure def is dead if the same register is redefined
    // later in the block with no read in between. Terminator reads happen
    // after any later redefinition, so they need no special casing: they
    // would erase from an (empty) set at the start of the backward walk.
    std::set<MRegIdx> PendingRedef; // redefined below, unread since

    for (size_t Pos = B.Insns.size(); Pos-- > 0;) {
      MInsn &I = B.Insns[Pos];
      bool Dead =
          vm::isPureOp(I.Op) && I.A != MNoReg && PendingRedef.count(I.A);

      if (Dead) {
        I = MInsn(); // nop
        Changed = true;
        continue;
      }
      if (vm::definesA(I)) {
        PendingRedef.insert(I.A);
      }
      vm::forEachUse(I, [&PendingRedef](MRegIdx R) {
        PendingRedef.erase(R);
      });
    }

    // Sweep nops.
    size_t Before = B.Insns.size();
    B.Insns.erase(std::remove_if(B.Insns.begin(), B.Insns.end(),
                                 [](const MInsn &I) {
                                   return I.Op == MOpcode::MNop;
                                 }),
                  B.Insns.end());
    Changed |= B.Insns.size() != Before;
  }
  return Changed;
}

bool hgraph::nullCheckElimination(HGraph &G) {
  bool Changed = false;
  for (HBlock &B : G.Blocks) {
    std::set<MRegIdx> NonNull;
    for (MInsn &I : B.Insns) {
      if (I.Op == MOpcode::MCheckNull) {
        if (NonNull.count(I.B)) {
          I = MInsn();
          Changed = true;
          continue;
        }
        NonNull.insert(I.B);
        continue;
      }
      if (vm::definesA(I)) {
        NonNull.erase(I.A);
        if (I.Op == MOpcode::MNewInstance || I.Op == MOpcode::MNewArray)
          NonNull.insert(I.A);
      }
    }
    B.Insns.erase(std::remove_if(B.Insns.begin(), B.Insns.end(),
                                 [](const MInsn &I) {
                                   return I.Op == MOpcode::MNop;
                                 }),
                  B.Insns.end());
  }
  return Changed;
}

bool hgraph::boundsCheckElimination(HGraph &G) {
  bool Changed = false;
  for (HBlock &B : G.Blocks) {
    std::set<std::pair<MRegIdx, MRegIdx>> Checked;
    for (MInsn &I : B.Insns) {
      if (I.Op == MOpcode::MCheckBounds) {
        auto Pair = std::make_pair(I.B, I.C);
        if (Checked.count(Pair)) {
          I = MInsn();
          Changed = true;
          continue;
        }
        Checked.insert(Pair);
        continue;
      }
      if (vm::definesA(I)) {
        for (auto It = Checked.begin(); It != Checked.end();)
          It = (It->first == I.A || It->second == I.A) ? Checked.erase(It)
                                                       : std::next(It);
      }
    }
    B.Insns.erase(std::remove_if(B.Insns.begin(), B.Insns.end(),
                                 [](const MInsn &I) {
                                   return I.Op == MOpcode::MNop;
                                 }),
                  B.Insns.end());
  }
  return Changed;
}

bool hgraph::loadStoreElimination(HGraph &G) {
  bool Changed = false;
  for (HBlock &B : G.Blocks) {
    // (object reg, slot) -> register holding the last stored/loaded value.
    std::map<std::pair<MRegIdx, uint32_t>, MRegIdx> SlotValue;
    // static slot -> register
    std::map<uint32_t, MRegIdx> StaticValue;

    auto InvalidateReg = [&](MRegIdx Def) {
      for (auto It = SlotValue.begin(); It != SlotValue.end();)
        It = (It->first.first == Def || It->second == Def)
                 ? SlotValue.erase(It)
                 : std::next(It);
      for (auto It = StaticValue.begin(); It != StaticValue.end();)
        It = It->second == Def ? StaticValue.erase(It) : std::next(It);
    };

    for (MInsn &I : B.Insns) {
      switch (I.Op) {
      case MOpcode::MStoreSlot:
        // Unknown aliasing between distinct object registers: clobber all
        // slot knowledge except this exact (obj, slot) pair.
        SlotValue.clear();
        SlotValue[{I.B, I.Idx}] = I.A;
        continue;
      case MOpcode::MLoadSlot: {
        auto It = SlotValue.find({I.B, I.Idx});
        if (It != SlotValue.end()) {
          MRegIdx Dst = I.A, Src = It->second;
          if (Dst != Src) {
            InvalidateReg(Dst);
            I = MInsn();
            I.Op = MOpcode::MMov;
            I.A = Dst;
            I.B = Src;
            Changed = true;
            continue;
          }
        }
        InvalidateReg(I.A);
        SlotValue[{I.B, I.Idx}] = I.A;
        continue;
      }
      case MOpcode::MStoreStatic:
        StaticValue[I.Idx] = I.A;
        continue;
      case MOpcode::MLoadStatic: {
        auto It = StaticValue.find(I.Idx);
        if (It != StaticValue.end() && It->second != I.A) {
          MRegIdx Dst = I.A, Src = It->second;
          InvalidateReg(Dst);
          I = MInsn();
          I.Op = MOpcode::MMov;
          I.A = Dst;
          I.B = Src;
          Changed = true;
          continue;
        }
        InvalidateReg(I.A);
        StaticValue[I.Idx] = I.A;
        continue;
      }
      default:
        break;
      }
      // Calls and array stores may write any memory.
      if (vm::isCallOp(I.Op) || I.Op == MOpcode::MAStore ||
          I.Op == MOpcode::MSafepoint) {
        SlotValue.clear();
        StaticValue.clear();
      }
      if (vm::definesA(I))
        InvalidateReg(I.A);
    }
  }
  return Changed;
}

bool hgraph::inlineTrivialCalls(HGraph &G, const dex::DexFile &File) {
  bool Changed = false;
  for (HBlock &B : G.Blocks) {
    std::vector<MInsn> NewInsns;
    NewInsns.reserve(B.Insns.size());
    for (const MInsn &I : B.Insns) {
      if (I.Op != MOpcode::MCallStatic) {
        NewInsns.push_back(I);
        continue;
      }
      const dex::Method &Callee = File.method(I.Idx);
      if (Callee.IsNative || Callee.Id == G.Method) {
        NewInsns.push_back(I);
        continue;
      }
      HGraph CalleeGraph = buildHGraph(File, I.Idx);
      if (CalleeGraph.Blocks.size() != 1 ||
          CalleeGraph.instructionCount() > 8) {
        NewInsns.push_back(I);
        continue;
      }
      const HBlock &Body = CalleeGraph.Blocks[0];
      bool HasCalls = false;
      for (const MInsn &CI : Body.Insns)
        if (vm::isCallOp(CI.Op))
          HasCalls = true;
      if (HasCalls) {
        NewInsns.push_back(I);
        continue;
      }

      // Remap callee registers: params -> argument registers, temps -> new.
      std::vector<MRegIdx> Map(CalleeGraph.NumRegs, MNoReg);
      for (unsigned P = 0; P != Callee.ParamCount; ++P)
        Map[P] = I.Args[P];
      for (MRegIdx R = Callee.ParamCount; R < CalleeGraph.NumRegs; ++R)
        Map[R] = G.newReg();

      // A parameter register may be written inside the callee, which would
      // clobber the caller's argument register. Give written params a
      // private copy.
      for (const MInsn &CI : Body.Insns)
        if (vm::definesA(CI) && CI.A < Callee.ParamCount) {
          MRegIdx Fresh = G.newReg();
          MInsn Copy;
          Copy.Op = MOpcode::MMov;
          Copy.A = Fresh;
          Copy.B = Map[CI.A];
          NewInsns.push_back(Copy);
          Map[CI.A] = Fresh;
        }

      for (MInsn CI : Body.Insns) {
        if (CI.Op == MOpcode::MSafepoint)
          continue; // entry poll is not needed when inlined
        if (vm::definesA(CI))
          CI.A = Map[CI.A];
        vm::forEachUseMut(CI, [&Map](MRegIdx &R) { R = Map[R]; });
        NewInsns.push_back(CI);
      }
      if (Body.Term.K == Terminator::Kind::Ret && I.A != MNoReg) {
        MInsn Mov;
        Mov.Op = MOpcode::MMov;
        Mov.A = I.A;
        Mov.B = Map[Body.Term.B];
        NewInsns.push_back(Mov);
      }
      Changed = true;
    }
    B.Insns = std::move(NewInsns);
  }
  return Changed;
}

unsigned hgraph::runAndroidPipeline(HGraph &G, const dex::DexFile &File) {
  unsigned Applied = 0;
  for (int Round = 0; Round != 3; ++Round) {
    bool Changed = false;
    Changed |= inlineTrivialCalls(G, File) && ++Applied;
    Changed |= constantFolding(G) && ++Applied;
    Changed |= instructionSimplifier(G) && ++Applied;
    Changed |= copyPropagation(G) && ++Applied;
    Changed |= localValueNumbering(G) && ++Applied;
    Changed |= nullCheckElimination(G) && ++Applied;
    Changed |= boundsCheckElimination(G) && ++Applied;
    Changed |= loadStoreElimination(G) && ++Applied;
    Changed |= localDeadCodeElimination(G) && ++Applied;
    if (!Changed)
      break;
  }
  std::string Error;
  [[maybe_unused]] bool Ok = G.verify(Error);
  assert(Ok && "android pipeline corrupted the graph");
  return Applied;
}
