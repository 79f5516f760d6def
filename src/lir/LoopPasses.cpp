//===- lir/LoopPasses.cpp - Loop restructuring passes -----------------------===//
//
// Loop-invariant code motion, rotation (while -> guarded do-while),
// unrolling and peeling of rotated self-loops, and the paper's custom
// GC-safepoint elision (Section 3.5). Unrolling + gc-elide is the
// combination the genetic search discovers for FFT where plain -O3 loses
// to the Android compiler.
//
//===----------------------------------------------------------------------===//

#include "lir/Analysis.h"
#include "lir/Passes.h"

#include "vm/MachineUtil.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace ropt;
using namespace ropt::lir;
using vm::MOpcode;

namespace {

/// Value substitution helper.
ValueId subst(const std::map<ValueId, ValueId> &Map, ValueId V) {
  auto It = Map.find(V);
  return It == Map.end() ? V : It->second;
}

void substInsn(LInsn &I, const std::map<ValueId, ValueId> &Map) {
  forEachOperand(I, [&Map](ValueId &V) { V = subst(Map, V); });
}

/// Finds the unique outside predecessor of a loop header with a Goto
/// terminator; returns ~0u when the shape does not match.
uint32_t findPreheader(const LFunction &Fn, const Loop &L) {
  uint32_t Preheader = ~0u;
  for (uint32_t Pred : Fn.Blocks[L.Header].Preds) {
    if (L.contains(Pred))
      continue;
    if (Preheader != ~0u)
      return ~0u; // multiple entries
    Preheader = Pred;
  }
  if (Preheader == ~0u)
    return ~0u;
  if (Fn.Blocks[Preheader].Term.K != LTerminator::Kind::Goto)
    return ~0u;
  return Preheader;
}

/// Replaces uses of \p Old with \p New everywhere except inside \p Skip
/// blocks and except the phi nodes of block \p SkipPhisOf.
void replaceUsesOutside(LFunction &Fn, ValueId Old, ValueId New,
                        const std::set<uint32_t> &Skip,
                        uint32_t SkipPhisOf) {
  for (uint32_t Id = 0; Id != Fn.Blocks.size(); ++Id) {
    if (Skip.count(Id))
      continue;
    LBlock &B = Fn.Blocks[Id];
    if (Id != SkipPhisOf)
      for (LPhi &P : B.Phis)
        for (ValueId &V : P.In)
          if (V == Old)
            V = New;
    for (LInsn &I : B.Insns)
      forEachOperand(I, [Old, New](ValueId &V) {
        if (V == Old)
          V = New;
      });
    if (B.Term.A == Old)
      B.Term.A = New;
    if (B.Term.B == Old)
      B.Term.B = New;
  }
}

} // namespace

// --- LICM -------------------------------------------------------------------------

bool lir::licm(LFunction &Fn, bool SpeculateDiv) {
  bool Changed = false;
  DomTree DT = DomTree::compute(Fn);
  LoopInfo LI = LoopInfo::compute(Fn, DT);
  std::vector<uint32_t> DefBlock = computeDefBlocks(Fn);

  for (const Loop &L : LI.loops()) {
    uint32_t Preheader = findPreheader(Fn, L);
    if (Preheader == ~0u)
      continue;

    // Loop side effects determine whether loads are hoistable.
    bool HasStoresOrCalls = false;
    for (uint32_t Id : L.Blocks)
      for (const LInsn &I : Fn.Blocks[Id].Insns)
        if (vm::isStoreOp(I.Op) || vm::isCallOp(I.Op))
          HasStoresOrCalls = true;

    auto IsInvariant = [&](ValueId V, const std::set<ValueId> &Hoisted) {
      if (V == NoValue)
        return true;
      if (Hoisted.count(V))
        return true;
      uint32_t Def = V < DefBlock.size() ? DefBlock[V] : ~0u;
      return Def != ~0u && !L.contains(Def);
    };

    std::set<ValueId> Hoisted;
    bool Fixpoint = false;
    while (!Fixpoint) {
      Fixpoint = true;
      for (uint32_t Id : L.Blocks) {
        LBlock &B = Fn.Blocks[Id];
        for (size_t Pos = 0; Pos < B.Insns.size(); ++Pos) {
          LInsn &I = B.Insns[Pos];
          bool Hoistable = vm::isPureOp(I.Op) ||
                           I.Op == MOpcode::MIntrinsic;
          // Loads are invariant when nothing in the loop writes memory.
          if (!HasStoresOrCalls && vm::isLoadOp(I.Op))
            Hoistable = true;
          // UNSOUND with SpeculateDiv: a hoisted division executes even
          // when the loop body would have been skipped or the divisor
          // guarded — a genuine new trap (DESIGN.md §4).
          if (SpeculateDiv &&
              (I.Op == MOpcode::MDivI || I.Op == MOpcode::MRemI))
            Hoistable = true;
          if (!Hoistable || I.Dst == NoValue)
            continue;
          bool OperandsInvariant = true;
          forEachOperand(I, [&](ValueId &V) {
            if (!IsInvariant(V, Hoisted))
              OperandsInvariant = false;
          });
          if (!OperandsInvariant)
            continue;
          Fn.Blocks[Preheader].Insns.push_back(I);
          Hoisted.insert(I.Dst);
          B.Insns.erase(B.Insns.begin() + Pos);
          --Pos;
          Changed = true;
          Fixpoint = false;
        }
      }
    }
  }
  return Changed;
}

// --- Loop rotation -----------------------------------------------------------------

bool lir::loopRotate(LFunction &Fn) {
  bool Changed = false;
  // Rotating invalidates the analyses; handle one loop per outer round.
  for (int Round = 0; Round != 8; ++Round) {
    DomTree DT = DomTree::compute(Fn);
    LoopInfo LI = LoopInfo::compute(Fn, DT);
    bool Rotated = false;

    for (const Loop &L : LI.loops()) {
      LBlock &H = Fn.Blocks[L.Header];
      // Shape: header with phis only + conditional exit test; one latch
      // ending in goto; one outside pred ending in goto.
      if (!H.Insns.empty() || H.Term.K != LTerminator::Kind::Cond)
        continue;
      if (L.Latches.size() != 1 || H.Preds.size() != 2)
        continue;
      uint32_t Latch = L.Latches[0];
      if (Fn.Blocks[Latch].Term.K != LTerminator::Kind::Goto)
        continue;
      uint32_t Preheader = findPreheader(Fn, L);
      if (Preheader == ~0u)
        continue;

      uint32_t Succ0 = H.Term.Taken, Succ1 = H.Term.Fall;
      bool TakenInLoop = L.contains(Succ0);
      uint32_t Body = TakenInLoop ? Succ0 : Succ1;
      uint32_t Exit = TakenInLoop ? Succ1 : Succ0;
      if (L.contains(Exit) || !L.contains(Body) || Body == L.Header)
        continue;
      // The body entry must be private to this loop path.
      if (Fn.Blocks[Body].Preds.size() != 1 || !Fn.Blocks[Body].Phis.empty())
        continue;
      if (Exit == Body || Exit == Preheader)
        continue;
      // The exit must be reachable only through the header: a second exit
      // edge from inside the loop would keep using the header's phis on a
      // path the rotated guard bypasses.
      if (Fn.Blocks[Exit].Preds.size() != 1)
        continue;

      size_t IdxP = H.Preds[0] == Preheader ? 0 : 1;
      size_t IdxL = 1 - IdxP;
      assert(H.Preds[IdxP] == Preheader && H.Preds[IdxL] == Latch &&
             "unexpected header predecessors");

      std::map<ValueId, ValueId> EntryMap, LatchMap;
      for (const LPhi &P : H.Phis) {
        EntryMap[P.Dst] = P.In[IdxP];
        LatchMap[P.Dst] = P.In[IdxL];
      }

      // Guard in the preheader: the header test over entry values.
      LTerminator Guard = H.Term;
      Guard.A = subst(EntryMap, Guard.A);
      if (Guard.B != NoValue)
        Guard.B = subst(EntryMap, Guard.B);
      Fn.Blocks[Preheader].Term = Guard;

      // Bottom test in the latch: the header test over next-iter values.
      LTerminator Bottom = H.Term;
      Bottom.A = subst(LatchMap, Bottom.A);
      if (Bottom.B != NoValue)
        Bottom.B = subst(LatchMap, Bottom.B);
      // Taken/Fall targets keep the same orientation but the in-loop side
      // now re-enters at Body.
      if (TakenInLoop)
        Bottom.Taken = Body;
      else
        Bottom.Fall = Body;
      Fn.Blocks[Latch].Term = Bottom;

      // Move phis into the body entry (now the rotated loop header).
      LBlock &BB = Fn.Blocks[Body];
      BB.Preds = {Preheader, Latch};
      for (LPhi P : H.Phis) {
        LPhi NewP;
        NewP.Dst = P.Dst; // keep ids: in-loop uses stay valid
        NewP.In = {P.In[IdxP], P.In[IdxL]};
        BB.Phis.push_back(std::move(NewP));
      }

      // Exit block surgery: the H edge becomes edges from Preheader (guard
      // false) and Latch (bottom test false).
      LBlock &EB = Fn.Blocks[Exit];
      bool ExitWasSinglePred =
          EB.Preds.size() == 1 && EB.Preds[0] == L.Header;
      size_t IdxE = ~size_t(0);
      for (size_t N = 0; N != EB.Preds.size(); ++N)
        if (EB.Preds[N] == L.Header)
          IdxE = N;
      assert(IdxE != ~size_t(0) && "exit lost its header edge");
      EB.Preds[IdxE] = Preheader;
      EB.Preds.push_back(Latch);
      for (LPhi &P : EB.Phis) {
        ValueId FromH = P.In[IdxE];
        P.In[IdxE] = subst(EntryMap, FromH);
        P.In.push_back(subst(LatchMap, FromH));
      }

      // Direct uses of the old header phis outside the loop (only possible
      // when the exit had the header as its single predecessor).
      if (ExitWasSinglePred) {
        std::set<uint32_t> LoopBlocks = L.Blocks;
        for (const LPhi &P : H.Phis) {
          LPhi ExitPhi;
          ExitPhi.Dst = Fn.newValue();
          ExitPhi.In = {EntryMap[P.Dst], LatchMap[P.Dst]};
          // Replace uses of P.Dst outside the loop with the exit phi; the
          // phi we just moved into Body keeps the in-loop uses.
          replaceUsesOutside(Fn, P.Dst, ExitPhi.Dst, LoopBlocks, Exit);
          // The exit block's own phis were already fixed above; its body
          // and terminator must use the exit phi too.
          for (LInsn &I : EB.Insns)
            forEachOperand(I, [&](ValueId &V) {
              if (V == P.Dst)
                V = ExitPhi.Dst;
            });
          if (EB.Term.A == P.Dst)
            EB.Term.A = ExitPhi.Dst;
          if (EB.Term.B == P.Dst)
            EB.Term.B = ExitPhi.Dst;
          EB.Phis.push_back(std::move(ExitPhi));
        }
      }

      // The old header is gone.
      H.Phis.clear();
      H.Preds.clear();
      H.Term = LTerminator();
      H.Term.K = LTerminator::Kind::RetVoid;

      Changed = true;
      Rotated = true;
      break; // analyses are stale
    }
    if (!Rotated)
      break;
  }
  if (Changed)
    simplifyCfg(Fn);
  return Changed;
}

// --- Self-loop replication (shared by unroll and peel) --------------------------------

namespace {

/// A rotated self-loop: block B with a conditional terminator where one
/// successor is B itself.
struct SelfLoop {
  uint32_t Block;
  uint32_t Exit;
  bool TakenIsSelf;
  size_t SelfPredSlot;    ///< Index of B in B.Preds.
  size_t OutsidePredSlot; ///< Index of the entry pred in B.Preds.
};

bool matchSelfLoop(const LFunction &Fn, uint32_t Id, SelfLoop &Out) {
  const LBlock &B = Fn.Blocks[Id];
  if (B.Term.K != LTerminator::Kind::Cond)
    return false;
  bool TakenIsSelf = B.Term.Taken == Id;
  bool FallIsSelf = B.Term.Fall == Id;
  if (TakenIsSelf == FallIsSelf)
    return false; // not a self-loop (or a degenerate both-self)
  if (B.Preds.size() != 2)
    return false;
  size_t SelfSlot = B.Preds[0] == Id ? 0 : (B.Preds[1] == Id ? 1 : ~0u);
  if (SelfSlot == ~0u)
    return false;
  Out.Block = Id;
  Out.Exit = TakenIsSelf ? B.Term.Fall : B.Term.Taken;
  Out.TakenIsSelf = TakenIsSelf;
  Out.SelfPredSlot = SelfSlot;
  Out.OutsidePredSlot = 1 - SelfSlot;
  if (Out.Exit == Id)
    return false;
  // Replication reads each phi input of B and the exit phis' input for
  // B's edge. A phi that an unsound pass left short of inputs has no
  // such input: leave the loop alone for the verifier to reject.
  for (const LPhi &P : B.Phis)
    if (P.In.size() < 2)
      return false;
  const LBlock &EB = Fn.Blocks[Out.Exit];
  for (size_t N = 0; N != EB.Preds.size(); ++N)
    if (EB.Preds[N] == Id)
      for (const LPhi &P : EB.Phis)
        if (P.In.size() <= N)
          return false;
  return true;
}

/// Clones the body of self-loop block \p B applying \p Map to operands and
/// registering fresh destinations in \p Map. Returns the new block id. The
/// terminator is cloned with substituted operands; successors are left for
/// the caller to set.
uint32_t cloneBody(LFunction &Fn, uint32_t B,
                   std::map<ValueId, ValueId> &Map) {
  uint32_t NewId = static_cast<uint32_t>(Fn.Blocks.size());
  Fn.Blocks.emplace_back();
  // Note: Fn.Blocks may have reallocated; index afresh.
  for (const LInsn &Orig : Fn.Blocks[B].Insns) {
    LInsn Clone = Orig;
    substInsn(Clone, Map);
    if (Clone.Dst != NoValue) {
      ValueId Fresh = Fn.newValue();
      Map[Orig.Dst] = Fresh;
      Clone.Dst = Fresh;
    }
    Fn.Blocks[NewId].Insns.push_back(std::move(Clone));
  }
  LTerminator Term = Fn.Blocks[B].Term;
  Term.A = subst(Map, Term.A);
  if (Term.B != NoValue)
    Term.B = subst(Map, Term.B);
  Fn.Blocks[NewId].Term = Term;
  return NewId;
}

/// Values defined in block \p B (phis + instructions).
std::vector<ValueId> blockDefs(const LFunction &Fn, uint32_t B) {
  std::vector<ValueId> Defs;
  for (const LPhi &P : Fn.Blocks[B].Phis)
    Defs.push_back(P.Dst);
  for (const LInsn &I : Fn.Blocks[B].Insns)
    if (I.Dst != NoValue)
      Defs.push_back(I.Dst);
  return Defs;
}

} // namespace

bool lir::loopUnroll(LFunction &Fn, int Factor, bool AssumeDivisible) {
  if (Factor < 2)
    return false;
  bool Changed = false;

  // The aggressive mode "helpfully" rotates first so more loops qualify —
  // and then miscompiles them (see below).
  if (AssumeDivisible)
    loopRotate(Fn);

  size_t OriginalBlocks = Fn.Blocks.size();
  for (uint32_t Id = 0; Id != OriginalBlocks; ++Id) {
    SelfLoop SL;
    if (!matchSelfLoop(Fn, Id, SL))
      continue;
    uint32_t B = SL.Block, E = SL.Exit;
    bool ExitWasSinglePred = Fn.Blocks[E].Preds.size() == 1;

    // Per-replica substitution maps; replica 1 is the original block.
    // Map_j sends original values to replica-j values.
    std::map<ValueId, ValueId> PrevMap; // identity for replica 1
    std::vector<std::map<ValueId, ValueId>> Maps; // for replicas 2..k
    std::vector<uint32_t> Clones;

    for (int J = 2; J <= Factor; ++J) {
      // Seed: each phi value continues from the previous replica's image
      // of its latch input.
      std::map<ValueId, ValueId> Map;
      for (const LPhi &P : Fn.Blocks[B].Phis)
        Map[P.Dst] = subst(PrevMap, P.In[SL.SelfPredSlot]);
      uint32_t Clone = cloneBody(Fn, B, Map);
      Clones.push_back(Clone);
      Maps.push_back(Map);
      PrevMap = Map;
    }

    // Chain: B -> C2 -> C3 -> ... -> Ck -> B, exits to E everywhere.
    auto SetSuccs = [&](uint32_t Block, uint32_t Continue) {
      LTerminator &T = Fn.Blocks[Block].Term;
      if (SL.TakenIsSelf) {
        T.Taken = Continue;
        T.Fall = E;
      } else {
        T.Fall = Continue;
        T.Taken = E;
      }
    };
    SetSuccs(B, Clones.front());
    for (size_t N = 0; N != Clones.size(); ++N)
      SetSuccs(Clones[N], N + 1 < Clones.size() ? Clones[N + 1] : B);

    // Locate B's pred slot in the exit block before any edges are
    // rewritten; both branches below key off it.
    LBlock &EB = Fn.Blocks[E];
    size_t IdxE = ~size_t(0);
    for (size_t N = 0; N != EB.Preds.size(); ++N)
      if (EB.Preds[N] == B)
        IdxE = N;
    assert(IdxE != ~size_t(0) && "exit lost its loop edge");

    if (AssumeDivisible) {
      // UNSOUND (DESIGN.md §4): only the final replica keeps its exit
      // test. When the trip count is not a multiple of the factor, the
      // overshoot iterations run with out-of-range state — genuine
      // memory corruption or wild traps, like a real remainder bug.
      auto DropExit = [&](uint32_t Block, uint32_t Continue) {
        LTerminator &T = Fn.Blocks[Block].Term;
        T = LTerminator();
        T.K = LTerminator::Kind::Goto;
        T.Taken = Continue;
      };
      DropExit(B, Clones.front());
      for (size_t N = 0; N + 1 < Clones.size(); ++N)
        DropExit(Clones[N], Clones[N + 1]);
      // The exit edge now leaves from the last replica only: retarget
      // B's old pred slot in place (keeping Preds and phi inputs
      // aligned) instead of erasing and re-adding slots.
      EB.Preds[IdxE] = Clones.back();
      for (LPhi &P : EB.Phis)
        P.In[IdxE] = subst(Maps.back(), P.In[IdxE]);
    } else {
      // Every replica keeps its exit test: one new pred slot per clone.
      for (size_t N = 0; N != Clones.size(); ++N) {
        EB.Preds.push_back(Clones[N]);
        for (LPhi &P : EB.Phis)
          P.In.push_back(subst(Maps[N], P.In[IdxE]));
      }
    }

    // Clone pred lists: linear chain.
    Fn.Blocks[Clones[0]].Preds = {B};
    for (size_t N = 1; N != Clones.size(); ++N)
      Fn.Blocks[Clones[N]].Preds = {Clones[N - 1]};

    // B's self edge now comes from the last clone; remap the phi inputs
    // through the final map.
    uint32_t LastClone = Clones.back();
    Fn.Blocks[B].Preds[SL.SelfPredSlot] = LastClone;
    for (LPhi &P : Fn.Blocks[B].Phis)
      P.In[SL.SelfPredSlot] =
          subst(Maps.back(), P.In[SL.SelfPredSlot]);

    // Values defined in B and used beyond the loop need merge phis in E
    // (only possible when E's one pred was B).
    if (ExitWasSinglePred) {
      std::set<uint32_t> Skip{B};
      for (uint32_t C : Clones)
        Skip.insert(C);
      for (ValueId V : blockDefs(Fn, B)) {
        LPhi ExitPhi;
        ExitPhi.Dst = Fn.newValue();
        if (AssumeDivisible) {
          // Only the last replica reaches E: one input.
          ExitPhi.In.push_back(subst(Maps.back(), V));
        } else {
          ExitPhi.In.push_back(V); // from B
          for (const auto &Map : Maps)
            ExitPhi.In.push_back(subst(Map, V));
        }
        replaceUsesOutside(Fn, V, ExitPhi.Dst, Skip, E);
        EB.Phis.push_back(std::move(ExitPhi));
      }
      // Dead exit phis are cheap; dce cleans them.
    }
    Changed = true;
  }
  return Changed;
}

bool lir::loopPeel(LFunction &Fn, int Count) {
  if (Count < 1)
    return false;
  bool Changed = false;

  size_t OriginalBlocks = Fn.Blocks.size();
  for (uint32_t Id = 0; Id != OriginalBlocks; ++Id) {
    SelfLoop SL;
    if (!matchSelfLoop(Fn, Id, SL))
      continue;
    uint32_t B = SL.Block, E = SL.Exit;
    uint32_t EntryPred = Fn.Blocks[B].Preds[SL.OutsidePredSlot];
    // The peeled chain hangs off a goto edge.
    if (Fn.Blocks[EntryPred].Term.K != LTerminator::Kind::Goto)
      continue;
    bool ExitWasSinglePred = Fn.Blocks[E].Preds.size() == 1;

    // Map_1: phi values take their entry inputs.
    std::map<ValueId, ValueId> Map;
    for (const LPhi &P : Fn.Blocks[B].Phis)
      Map[P.Dst] = P.In[SL.OutsidePredSlot];

    std::vector<uint32_t> Peels;
    std::vector<std::map<ValueId, ValueId>> Maps;
    for (int J = 0; J != Count; ++J) {
      if (J != 0) {
        std::map<ValueId, ValueId> Next;
        for (const LPhi &P : Fn.Blocks[B].Phis)
          Next[P.Dst] = subst(Map, P.In[SL.SelfPredSlot]);
        Map = Next;
      }
      uint32_t Clone = cloneBody(Fn, B, Map);
      Peels.push_back(Clone);
      Maps.push_back(Map);
    }

    // Wire: EntryPred -> P1 -> P2 ... -> Pc -> B; exits to E.
    Fn.Blocks[EntryPred].Term.Taken = Peels.front();
    Fn.Blocks[Peels[0]].Preds = {EntryPred};
    for (size_t N = 0; N != Peels.size(); ++N) {
      LTerminator &T = Fn.Blocks[Peels[N]].Term;
      uint32_t Continue = N + 1 < Peels.size() ? Peels[N + 1] : B;
      if (SL.TakenIsSelf) {
        T.Taken = Continue;
        T.Fall = E;
      } else {
        T.Fall = Continue;
        T.Taken = E;
      }
      if (N + 1 < Peels.size())
        Fn.Blocks[Peels[N + 1]].Preds = {Peels[N]};
    }

    // B's entry edge now comes from the last peel, carrying its values.
    Fn.Blocks[B].Preds[SL.OutsidePredSlot] = Peels.back();
    for (LPhi &P : Fn.Blocks[B].Phis)
      P.In[SL.OutsidePredSlot] =
          subst(Maps.back(), P.In[SL.SelfPredSlot]);

    // Exit gains one pred per peel iteration.
    LBlock &EB = Fn.Blocks[E];
    size_t IdxE = ~size_t(0);
    for (size_t N = 0; N != EB.Preds.size(); ++N)
      if (EB.Preds[N] == B)
        IdxE = N;
    assert(IdxE != ~size_t(0) && "exit lost its loop edge");
    for (size_t N = 0; N != Peels.size(); ++N) {
      EB.Preds.push_back(Peels[N]);
      for (LPhi &P : EB.Phis)
        P.In.push_back(subst(Maps[N], P.In[IdxE]));
    }

    if (ExitWasSinglePred) {
      std::set<uint32_t> Skip{B};
      for (uint32_t C : Peels)
        Skip.insert(C);
      for (ValueId V : blockDefs(Fn, B)) {
        LPhi ExitPhi;
        ExitPhi.Dst = Fn.newValue();
        ExitPhi.In.push_back(V);
        for (const auto &M : Maps)
          ExitPhi.In.push_back(subst(M, V));
        replaceUsesOutside(Fn, V, ExitPhi.Dst, Skip, E);
        EB.Phis.push_back(std::move(ExitPhi));
      }
    }
    Changed = true;
  }
  return Changed;
}

// --- GC-safepoint elision ----------------------------------------------------------------

bool lir::gcElide(LFunction &Fn, bool StripLoops) {
  bool Changed = false;
  DomTree DT = DomTree::compute(Fn);
  LoopInfo LI = LoopInfo::compute(Fn, DT);

  std::set<uint32_t> Headers;
  std::set<uint32_t> InLoop;
  for (const Loop &L : LI.loops()) {
    Headers.insert(L.Header);
    InLoop.insert(L.Blocks.begin(), L.Blocks.end());
  }

  for (uint32_t Id = 0; Id != Fn.Blocks.size(); ++Id) {
    LBlock &B = Fn.Blocks[Id];
    bool KeepOne = !InLoop.count(Id) || (Headers.count(Id) && !StripLoops);
    bool KeptFirst = false;
    for (LInsn &I : B.Insns) {
      if (I.Op != MOpcode::MSafepoint)
        continue;
      if (KeepOne && !KeptFirst) {
        KeptFirst = true;
        continue;
      }
      I = LInsn(); // nop
      Changed = true;
    }
    B.Insns.erase(std::remove_if(B.Insns.begin(), B.Insns.end(),
                                 [](const LInsn &I) {
                                   return I.Op == MOpcode::MNop;
                                 }),
                  B.Insns.end());
  }
  return Changed;
}
