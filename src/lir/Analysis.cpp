//===- lir/Analysis.cpp - Dominators and loop analysis ---------------------===//

#include "lir/Analysis.h"

#include <algorithm>
#include <cassert>

using namespace ropt;
using namespace ropt::lir;
using vm::MOpcode;

DomTree DomTree::compute(const LFunction &Fn) {
  DomTree DT;
  size_t N = Fn.Blocks.size();
  DT.IDom.assign(N, 0);
  DT.Reachable.assign(N, false);

  std::vector<uint32_t> Rpo = Fn.reversePostOrder();
  std::vector<uint32_t> RpoIndex(N, ~0u);
  for (uint32_t Pos = 0; Pos != Rpo.size(); ++Pos) {
    RpoIndex[Rpo[Pos]] = Pos;
    DT.Reachable[Rpo[Pos]] = true;
  }

  // Cooper-Harvey-Kennedy iteration.
  std::vector<uint32_t> Idom(N, ~0u);
  Idom[0] = 0;
  auto Intersect = [&](uint32_t A, uint32_t B) {
    while (A != B) {
      while (RpoIndex[A] > RpoIndex[B])
        A = Idom[A];
      while (RpoIndex[B] > RpoIndex[A])
        B = Idom[B];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t Block : Rpo) {
      if (Block == 0)
        continue;
      uint32_t NewIdom = ~0u;
      for (uint32_t Pred : Fn.Blocks[Block].Preds) {
        if (!DT.Reachable[Pred] || Idom[Pred] == ~0u)
          continue;
        NewIdom = NewIdom == ~0u ? Pred : Intersect(Pred, NewIdom);
      }
      assert(NewIdom != ~0u && "reachable block with no processed pred");
      if (Idom[Block] != NewIdom) {
        Idom[Block] = NewIdom;
        Changed = true;
      }
    }
  }

  for (size_t Block = 0; Block != N; ++Block)
    DT.IDom[Block] = DT.Reachable[Block] ? Idom[Block] : 0;

  // Children + preorder intervals for O(1) dominance queries.
  DT.Children.assign(N, {});
  for (uint32_t Block : Rpo)
    if (Block != 0)
      DT.Children[DT.IDom[Block]].push_back(Block);

  DT.DfsNumber.assign(N, 0);
  DT.DfsLast.assign(N, 0);
  uint32_t Counter = 0;
  std::vector<std::pair<uint32_t, size_t>> Stack{{0u, size_t(0)}};
  DT.DfsNumber[0] = Counter++;
  while (!Stack.empty()) {
    auto &[Block, NextChild] = Stack.back();
    if (NextChild < DT.Children[Block].size()) {
      uint32_t Child = DT.Children[Block][NextChild++];
      DT.DfsNumber[Child] = Counter++;
      Stack.emplace_back(Child, 0);
      continue;
    }
    DT.DfsLast[Block] = Counter - 1;
    Stack.pop_back();
  }
  return DT;
}

bool DomTree::dominates(uint32_t A, uint32_t B) const {
  if (!Reachable[A] || !Reachable[B])
    return false;
  return DfsNumber[A] <= DfsNumber[B] && DfsNumber[B] <= DfsLast[A];
}

std::vector<uint32_t> DomTree::preorder() const {
  std::vector<uint32_t> Order;
  Order.reserve(IDom.size());
  std::vector<uint32_t> Stack{0};
  while (!Stack.empty()) {
    uint32_t Block = Stack.back();
    Stack.pop_back();
    Order.push_back(Block);
    // Push in reverse so children come out in natural order.
    const std::vector<uint32_t> &Kids = Children[Block];
    for (size_t N = Kids.size(); N-- > 0;)
      Stack.push_back(Kids[N]);
  }
  return Order;
}

std::vector<std::set<uint32_t>>
DomTree::dominanceFrontiers(const LFunction &Fn) const {
  std::vector<std::set<uint32_t>> DF(Fn.Blocks.size());
  for (uint32_t Block = 0; Block != Fn.Blocks.size(); ++Block) {
    if (!Reachable[Block] || Fn.Blocks[Block].Preds.size() < 2)
      continue;
    for (uint32_t Pred : Fn.Blocks[Block].Preds) {
      if (!Reachable[Pred])
        continue;
      uint32_t Runner = Pred;
      while (Runner != IDom[Block]) {
        DF[Runner].insert(Block);
        Runner = IDom[Runner];
      }
    }
  }
  return DF;
}

LoopInfo LoopInfo::compute(const LFunction &Fn, const DomTree &DT) {
  LoopInfo LI;
  std::map<uint32_t, Loop> ByHeader;
  for (uint32_t Block = 0; Block != Fn.Blocks.size(); ++Block) {
    if (!DT.isReachable(Block))
      continue;
    for (uint32_t Succ : Fn.Blocks[Block].Term.successors()) {
      if (!DT.dominates(Succ, Block))
        continue;
      // Back edge Block -> Succ.
      Loop &L = ByHeader[Succ];
      L.Header = Succ;
      L.Latches.push_back(Block);
      // Flood backwards from the latch to collect the body.
      L.Blocks.insert(Succ);
      std::vector<uint32_t> Work{Block};
      while (!Work.empty()) {
        uint32_t Cur = Work.back();
        Work.pop_back();
        if (!L.Blocks.insert(Cur).second)
          continue;
        for (uint32_t Pred : Fn.Blocks[Cur].Preds)
          if (DT.isReachable(Pred))
            Work.push_back(Pred);
      }
    }
  }
  for (auto &KV : ByHeader) {
    Loop &L = KV.second;
    std::set<uint32_t> Exits;
    for (uint32_t Block : L.Blocks)
      for (uint32_t Succ : Fn.Blocks[Block].Term.successors())
        if (!L.contains(Succ))
          Exits.insert(Succ);
    L.Exits.assign(Exits.begin(), Exits.end());
    LI.Loops.push_back(std::move(L));
  }
  return LI;
}

std::vector<uint32_t> lir::computeDefBlocks(const LFunction &Fn) {
  std::vector<uint32_t> DefBlock(Fn.NumValues, ~0u);
  for (uint32_t P = 0; P != Fn.ParamCount; ++P)
    DefBlock[P] = 0;
  for (uint32_t Id = 0; Id != Fn.Blocks.size(); ++Id) {
    for (const LPhi &P : Fn.Blocks[Id].Phis)
      DefBlock[P.Dst] = Id;
    for (const LInsn &I : Fn.Blocks[Id].Insns)
      if (I.Dst != NoValue)
        DefBlock[I.Dst] = Id;
  }
  return DefBlock;
}

std::vector<uint32_t> lir::countUses(const LFunction &Fn) {
  std::vector<uint32_t> Uses(Fn.NumValues, 0);
  auto Count = [&Uses](ValueId V) {
    if (V != NoValue)
      ++Uses[V];
  };
  for (const LBlock &B : Fn.Blocks) {
    for (const LPhi &P : B.Phis)
      for (ValueId V : P.In)
        Count(V);
    for (const LInsn &I : B.Insns)
      forEachOperand(I, Count);
    Count(B.Term.A);
    Count(B.Term.B);
  }
  return Uses;
}
