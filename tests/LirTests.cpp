//===- tests/LirTests.cpp - lir/ unit and differential tests -----------------===//

#include "hgraph/Build.h"
#include "lir/Analysis.h"
#include "lir/Backend.h"
#include "lir/Codegen.h"
#include "lir/FromHGraph.h"
#include "lir/Passes.h"
#include "support/Random.h"
#include "tests/TestPrograms.h"
#include "vm/MachineUtil.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <tuple>

using namespace ropt;
using namespace ropt::dex;
using namespace ropt::lir;
using namespace ropt::testprogs;
using vm::MOpcode;

namespace {

LFunction buildLir(const DexFile &File, const std::string &Name) {
  MethodId Id = File.findMethod(Name);
  EXPECT_NE(Id, InvalidId);
  return fromHGraph(hgraph::buildHGraph(File, Id));
}

size_t countLOps(const LFunction &Fn, MOpcode Op) {
  size_t Count = 0;
  for (const LBlock &B : Fn.Blocks)
    for (const LInsn &I : B.Insns)
      Count += (I.Op == Op);
  return Count;
}

size_t countPhis(const LFunction &Fn) {
  size_t Count = 0;
  for (const LBlock &B : Fn.Blocks)
    Count += B.Phis.size();
  return Count;
}

/// Runs `Name` interpreted and through the given pipeline; expects equal
/// results, valid IR, and no traps.
void expectPipelineParity(const DexFile &File, const std::string &Name,
                          std::vector<vm::Value> Args,
                          std::vector<PassInstance> Pipeline,
                          uint64_t *CompiledCycles = nullptr) {
  MethodId Id = File.findMethod(Name);
  ASSERT_NE(Id, InvalidId);

  Harness Interp(File);
  Interp.RT->setMode(vm::ExecMode::InterpretOnly);
  vm::CallResult RI = Interp.RT->call(Id, Args);
  ASSERT_EQ(RI.Trap, vm::TrapKind::None);

  CompileOptions Options;
  Options.Pipeline = std::move(Pipeline);
  Harness Compiled(File);
  std::vector<MethodId> All;
  for (const auto &M : File.methods())
    if (!M.IsNative)
      All.push_back(M.Id);
  CompileStatus Status =
      compileAllLlvm(File, All, Options, Compiled.RT->codeCache());
  ASSERT_EQ(Status, CompileStatus::Ok);
  vm::CallResult RC = Compiled.RT->call(Id, Args);
  ASSERT_EQ(RC.Trap, vm::TrapKind::None) << Name;
  EXPECT_EQ(RI.Ret.Raw, RC.Ret.Raw) << Name;
  if (CompiledCycles)
    *CompiledCycles = RC.Cycles;
}

PassInstance mk(PassId Id, int IntParam = 0, bool Aggressive = false) {
  PassInstance P;
  P.Id = Id;
  P.IntParam = IntParam;
  P.Aggressive = Aggressive;
  return P;
}

} // namespace

// --- Analysis ------------------------------------------------------------------

TEST(Analysis, DomTreeOfLoop) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "sumTo");
  DomTree DT = DomTree::compute(Fn);

  // Entry dominates everything reachable.
  for (uint32_t Id : Fn.reversePostOrder())
    EXPECT_TRUE(DT.dominates(0, Id));
  EXPECT_EQ(DT.idom(0), 0u);
}

TEST(Analysis, LoopDetection) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "sumTo");
  DomTree DT = DomTree::compute(Fn);
  LoopInfo LI = LoopInfo::compute(Fn, DT);

  ASSERT_EQ(LI.loops().size(), 1u);
  const Loop &L = LI.loops()[0];
  EXPECT_GE(L.Blocks.size(), 2u);
  EXPECT_EQ(L.Latches.size(), 1u);
  EXPECT_FALSE(L.Exits.empty());
}

TEST(Analysis, NestedLoops) {
  DexBuilder B;
  defineMatrixSum(B);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "matSum");
  DomTree DT = DomTree::compute(Fn);
  LoopInfo LI = LoopInfo::compute(Fn, DT);
  // i-loop, j-loop, k-loop.
  EXPECT_EQ(LI.loops().size(), 3u);
}

// --- SSA construction --------------------------------------------------------------

TEST(FromHGraph, ProducesValidSsa) {
  DexBuilder B;
  defineSumTo(B);
  defineDotProduct(B);
  defineMatrixSum(B);
  definePolyShapes(B);
  DexFile File = B.build();

  for (const char *Name : {"sumTo", "dot", "matSum", "polyLoop"}) {
    LFunction Fn = buildLir(File, Name);
    std::string Error;
    EXPECT_TRUE(Fn.verify(Error)) << Name << ": " << Error;
    EXPECT_GT(countPhis(Fn), 0u) << Name; // loops need phis
  }
}

TEST(FromHGraph, LoopVariablesBecomePhis) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "sumTo");
  // sum and i merge at the loop header: at least 2 phis somewhere.
  EXPECT_GE(countPhis(Fn), 2u);
}

TEST(FromHGraph, ConservativeBoundariesDuplicateSafepoints) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  MethodId Id = File.findMethod("sumTo");
  hgraph::HGraph G = hgraph::buildHGraph(File, Id);

  TranslateOptions Loose;
  Loose.ConservativeBoundaries = false;
  LFunction Tight = fromHGraph(G, Loose);
  LFunction Fat = fromHGraph(G);
  EXPECT_EQ(countLOps(Fat, MOpcode::MSafepoint),
            2 * countLOps(Tight, MOpcode::MSafepoint));
}

TEST(FromHGraph, RoundTripSemantics) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  // No passes at all (-O0): translate + codegen must still be correct.
  expectPipelineParity(File, "sumTo", {vm::Value::fromI64(137)}, {});
}

// --- Scalar pass unit tests --------------------------------------------------------

TEST(LirPasses, ConstPropFoldsBranches) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "cp", 0, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx A = F.immI(10), Bv = F.immI(3), C = F.newReg();
  auto Big = F.newLabel();
  F.ifGt(A, Bv, Big);
  F.constI(C, 111);
  F.ret(C);
  F.bind(Big);
  F.constI(C, 222);
  F.ret(C);
  B.endBody(F);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "cp");

  EXPECT_TRUE(constProp(Fn));
  // The comparison is decided at compile time: one side is unreachable.
  size_t CondCount = 0;
  for (const LBlock &Blk : Fn.Blocks)
    CondCount += Blk.Term.K == LTerminator::Kind::Cond;
  EXPECT_EQ(CondCount, 0u);

  std::string Error;
  EXPECT_TRUE(Fn.verify(Error)) << Error;
  Harness H(File);
  H.RT->codeCache().install(lir::emitMachine(Fn));
  EXPECT_EQ(H.run("cp").Ret.asI64(), 222);
}

TEST(LirPasses, InstCombineStrengthReduction) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "sr", 1, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Eight = F.immI(8), R = F.newReg();
  F.mulI(R, F.param(0), Eight);
  F.ret(R);
  B.endBody(F);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "sr");

  EXPECT_TRUE(instCombine(Fn));
  EXPECT_EQ(countLOps(Fn, MOpcode::MMulI), 0u);
  EXPECT_EQ(countLOps(Fn, MOpcode::MShlI), 1u);

  std::string Error;
  ASSERT_TRUE(Fn.verify(Error)) << Error;
  Harness H(File);
  H.RT->codeCache().install(lir::emitMachine(Fn));
  EXPECT_EQ(H.run("sr", {vm::Value::fromI64(5)}).Ret.asI64(), 40);
}

TEST(LirPasses, GvnAcrossBlocks) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "g", 2, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx T1 = F.newReg(), T2 = F.newReg(), R = F.newReg();
  F.addI(T1, F.param(0), F.param(1));
  auto L = F.newLabel();
  F.ifGtz(T1, L);
  F.ret(T1);
  F.bind(L);
  F.addI(T2, F.param(0), F.param(1)); // redundant with T1 (dominating)
  F.addI(R, T2, T1);
  F.ret(R);
  B.endBody(F);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "g");

  EXPECT_TRUE(gvn(Fn));
  EXPECT_EQ(countLOps(Fn, MOpcode::MAddI), 2u); // T2 collapsed into T1

  std::string Error;
  ASSERT_TRUE(Fn.verify(Error)) << Error;
  Harness H(File);
  H.RT->codeCache().install(lir::emitMachine(Fn));
  EXPECT_EQ(
      H.run("g", {vm::Value::fromI64(2), vm::Value::fromI64(3)}).Ret.asI64(),
      10);
}

TEST(LirPasses, DceRemovesUndefSeeds) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "sumTo");
  size_t Before = Fn.instructionCount();
  dce(Fn, /*Aggressive=*/false);
  // The entry undef seeds for unused paths die, among others.
  EXPECT_LT(Fn.instructionCount(), Before);
  std::string Error;
  EXPECT_TRUE(Fn.verify(Error)) << Error;
}

TEST(LirPasses, SimplifyCfgMergesChains) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "sumTo");
  simplifyCfg(Fn);
  std::string Error;
  EXPECT_TRUE(Fn.verify(Error)) << Error;
  expectPipelineParity(File, "sumTo", {vm::Value::fromI64(55)},
                       {mk(PassId::SimplifyCfg)});
}

TEST(LirPasses, JniIntrinsicsRewritesMathCalls) {
  DexBuilder B;
  defineMathMix(B);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "mathMix");
  PassContext Ctx;
  Ctx.File = &File;
  EXPECT_TRUE(applyPass(Fn, mk(PassId::JniIntrinsics), Ctx));
  EXPECT_EQ(countLOps(Fn, MOpcode::MCallNative), 0u);
  EXPECT_EQ(countLOps(Fn, MOpcode::MIntrinsic), 3u);
}

TEST(LirPasses, JniIntrinsicsIsFasterAndEquivalent) {
  DexBuilder B;
  defineMathMix(B);
  DexFile File = B.build();
  uint64_t Plain = 0, Intrinsified = 0;
  expectPipelineParity(File, "mathMix", {vm::Value::fromF64(0.6)}, {},
                       &Plain);
  expectPipelineParity(File, "mathMix", {vm::Value::fromF64(0.6)},
                       {mk(PassId::JniIntrinsics)}, &Intrinsified);
  EXPECT_LT(Intrinsified, Plain);
}

TEST(LirPasses, GcElideRemovesDuplicatePolls) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "sumTo");
  size_t Before = countLOps(Fn, MOpcode::MSafepoint);
  EXPECT_TRUE(gcElide(Fn, /*StripLoops=*/false));
  EXPECT_LT(countLOps(Fn, MOpcode::MSafepoint), Before);
  std::string Error;
  EXPECT_TRUE(Fn.verify(Error)) << Error;
  expectPipelineParity(File, "sumTo", {vm::Value::fromI64(99)},
                       {mk(PassId::GcElide)});
}

TEST(LirPasses, BoundsCheckElimSafeModeKeepsSemantics) {
  DexBuilder B;
  defineDotProduct(B);
  DexFile File = B.build();
  expectPipelineParity(File, "dot", {vm::Value::fromI64(60)},
                       {mk(PassId::BoundsCheckElim)});
}

TEST(LirPasses, SinkMovesCodeOffTheHotPath) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "sk", 2, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx T = F.newReg();
  F.mulI(T, F.param(0), F.param(0)); // only used on the taken side
  auto L = F.newLabel();
  F.ifGtz(F.param(1), L);
  F.ret(F.param(1));
  F.bind(L);
  F.ret(T);
  B.endBody(F);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "sk");
  simplifyCfg(Fn);
  dce(Fn, false);
  EXPECT_TRUE(sinkCode(Fn));
  std::string Error;
  EXPECT_TRUE(Fn.verify(Error)) << Error;
  expectPipelineParity(File, "sk",
                       {vm::Value::fromI64(7), vm::Value::fromI64(1)},
                       {mk(PassId::SimplifyCfg), mk(PassId::Dce),
                        mk(PassId::Sink)});
}

// --- Loop passes -------------------------------------------------------------------

TEST(LoopPasses, LicmHoistsInvariants) {
  DexBuilder B;
  // loop computing sum += (a * b) each iteration: a*b is invariant.
  MethodId M = B.declareFunction(InvalidId, "li", 3, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Sum = F.newReg(), I = F.newReg(), One = F.immI(1);
  F.constI(Sum, 0);
  F.constI(I, 0);
  auto Head = F.newLabel(), Done = F.newLabel();
  F.bind(Head);
  F.ifGe(I, F.param(0), Done);
  RegIdx T = F.newReg();
  F.mulI(T, F.param(1), F.param(2));
  F.addI(Sum, Sum, T);
  F.addI(I, I, One);
  F.jump(Head);
  F.bind(Done);
  F.ret(Sum);
  B.endBody(F);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "li");

  DomTree DT = DomTree::compute(Fn);
  LoopInfo LI = LoopInfo::compute(Fn, DT);
  ASSERT_EQ(LI.loops().size(), 1u);
  const Loop &L = LI.loops()[0];

  EXPECT_TRUE(licm(Fn, /*SpeculateDiv=*/false));
  // The multiply no longer lives in the loop.
  for (uint32_t Id : L.Blocks)
    for (const LInsn &I2 : Fn.Blocks[Id].Insns)
      EXPECT_NE(I2.Op, MOpcode::MMulI);

  std::string Error;
  ASSERT_TRUE(Fn.verify(Error)) << Error;
  expectPipelineParity(File, "li",
                       {vm::Value::fromI64(10), vm::Value::fromI64(6),
                        vm::Value::fromI64(7)},
                       {mk(PassId::Licm)});
}

TEST(LoopPasses, RotateProducesBottomTest) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "sumTo");
  simplifyCfg(Fn);
  EXPECT_TRUE(loopRotate(Fn));
  std::string Error;
  ASSERT_TRUE(Fn.verify(Error)) << Error;

  // After rotation some block conditionally branches to itself.
  bool HasSelfLoop = false;
  for (uint32_t Id = 0; Id != Fn.Blocks.size(); ++Id) {
    const LTerminator &T = Fn.Blocks[Id].Term;
    if (T.K == LTerminator::Kind::Cond &&
        (T.Taken == Id || T.Fall == Id))
      HasSelfLoop = true;
  }
  EXPECT_TRUE(HasSelfLoop);
}

TEST(LoopPasses, RotateKeepsSemanticsIncludingZeroTrip) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  for (int64_t N : {0, 1, 2, 7, 100}) {
    expectPipelineParity(File, "sumTo", {vm::Value::fromI64(N)},
                         {mk(PassId::SimplifyCfg),
                          mk(PassId::LoopRotate)});
  }
}

TEST(LoopPasses, UnrollKeepsSemantics) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  for (int Factor : {2, 3, 4, 8}) {
    for (int64_t N : {0, 1, 2, 3, 5, 16, 17, 100}) {
      expectPipelineParity(File, "sumTo", {vm::Value::fromI64(N)},
                           {mk(PassId::SimplifyCfg), mk(PassId::LoopRotate),
                            mk(PassId::LoopUnroll, Factor)});
    }
  }
}

TEST(LoopPasses, UnrollPlusGcElideIsFaster) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  uint64_t Plain = 0, Optimized = 0;
  std::vector<vm::Value> Args = {vm::Value::fromI64(3000)};
  expectPipelineParity(File, "sumTo", Args, o1Pipeline(), &Plain);
  std::vector<PassInstance> Tuned = o1Pipeline();
  Tuned.push_back(mk(PassId::LoopRotate));
  Tuned.push_back(mk(PassId::LoopUnroll, 4));
  Tuned.push_back(mk(PassId::GcElide));
  Tuned.push_back(mk(PassId::Dce));
  expectPipelineParity(File, "sumTo", Args, Tuned, &Optimized);
  EXPECT_LT(Optimized, Plain);
}

TEST(LoopPasses, PeelKeepsSemantics) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  for (int Count : {1, 2, 3}) {
    for (int64_t N : {0, 1, 2, 3, 10}) {
      expectPipelineParity(File, "sumTo", {vm::Value::fromI64(N)},
                           {mk(PassId::SimplifyCfg), mk(PassId::LoopRotate),
                            mk(PassId::LoopPeel, Count)});
    }
  }
}

TEST(LoopPasses, UnrollWorksOnRealKernels) {
  DexBuilder B;
  defineDotProduct(B);
  defineMatrixSum(B);
  DexFile File = B.build();
  std::vector<PassInstance> Pipe = {
      mk(PassId::SimplifyCfg), mk(PassId::LoopRotate),
      mk(PassId::LoopUnroll, 4), mk(PassId::GcElide), mk(PassId::Dce)};
  expectPipelineParity(File, "dot", {vm::Value::fromI64(37)}, Pipe);
  expectPipelineParity(File, "matSum", {vm::Value::fromI64(9)}, Pipe);
}

// --- Inline and devirtualize ----------------------------------------------------------

TEST(InlinePass, InlinesSmallCallee) {
  DexBuilder B;
  MethodId Callee = B.declareFunction(InvalidId, "addOne", 1, true);
  {
    FunctionBuilder F = B.beginBody(Callee);
    RegIdx One = F.immI(1), R = F.newReg();
    F.addI(R, F.param(0), One);
    F.ret(R);
    B.endBody(F);
  }
  MethodId Caller = B.declareFunction(InvalidId, "callerFn", 1, true);
  {
    FunctionBuilder F = B.beginBody(Caller);
    RegIdx R = F.newReg();
    F.invokeStatic(R, Callee, {F.param(0)});
    RegIdx R2 = F.newReg();
    F.invokeStatic(R2, Callee, {R});
    F.ret(R2);
    B.endBody(F);
  }
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "callerFn");

  EXPECT_TRUE(inlineCalls(Fn, File, /*Threshold=*/50));
  EXPECT_EQ(countLOps(Fn, MOpcode::MCallStatic), 0u);
  std::string Error;
  ASSERT_TRUE(Fn.verify(Error)) << Error;

  Harness H(File);
  H.RT->codeCache().install(lir::emitMachine(Fn));
  EXPECT_EQ(H.run("callerFn", {vm::Value::fromI64(5)}).Ret.asI64(), 7);
}

TEST(InlinePass, InlineBranchyCallee) {
  DexBuilder B;
  MethodId Callee = B.declareFunction(InvalidId, "absFn", 1, true);
  {
    FunctionBuilder F = B.beginBody(Callee);
    auto Pos = F.newLabel();
    F.ifGez(F.param(0), Pos);
    RegIdx N = F.newReg();
    F.negI(N, F.param(0));
    F.ret(N);
    F.bind(Pos);
    F.ret(F.param(0));
    B.endBody(F);
  }
  MethodId Caller = B.declareFunction(InvalidId, "sumAbs", 2, true);
  {
    FunctionBuilder F = B.beginBody(Caller);
    RegIdx A = F.newReg(), Bv = F.newReg(), R = F.newReg();
    F.invokeStatic(A, Callee, {F.param(0)});
    F.invokeStatic(Bv, Callee, {F.param(1)});
    F.addI(R, A, Bv);
    F.ret(R);
    B.endBody(F);
  }
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "sumAbs");

  EXPECT_TRUE(inlineCalls(Fn, File, 50));
  std::string Error;
  ASSERT_TRUE(Fn.verify(Error)) << Error;

  Harness H(File);
  H.RT->codeCache().install(lir::emitMachine(Fn));
  EXPECT_EQ(H.run("sumAbs",
                  {vm::Value::fromI64(-4), vm::Value::fromI64(9)})
                .Ret.asI64(),
            13);
}

TEST(DevirtPass, GuardsAndDirectCalls) {
  DexBuilder B;
  definePolyShapes(B);
  DexFile File = B.build();

  // Collect a genuine interpreter type profile first.
  TypeProfile Profile;
  struct Collector : vm::ExecObserver {
    TypeProfile &P;
    explicit Collector(TypeProfile &P) : P(P) {}
    void onVirtualDispatch(MethodId M, uint32_t Pc, ClassId C) override {
      P.record(M, Pc, C);
    }
  } Collector{Profile};

  Harness H(File);
  H.RT->setMode(vm::ExecMode::InterpretOnly);
  H.RT->setObserver(&Collector);
  // Even iterations make squares, odd circles: bimodal profile.
  ASSERT_TRUE(H.run("polyLoop", {vm::Value::fromI64(20)}).ok());
  H.RT->setObserver(nullptr);
  EXPECT_GE(Profile.siteCount(), 1u);

  LFunction Fn = buildLir(File, "polyLoop");
  // 50-50 profile: a 90% threshold refuses to speculate...
  EXPECT_FALSE(devirtualize(Fn, File, Profile, 90));
  // ...a 50% threshold accepts the dominant (or tied-first) class.
  EXPECT_TRUE(devirtualize(Fn, File, Profile, 50));
  std::string Error;
  ASSERT_TRUE(Fn.verify(Error)) << Error;

  Harness H2(File);
  H2.RT->codeCache().install(lir::emitMachine(Fn));
  vm::CallResult R = H2.run("polyLoop", {vm::Value::fromI64(20)});
  ASSERT_TRUE(R.ok());

  Harness H3(File);
  H3.RT->setMode(vm::ExecMode::InterpretOnly);
  EXPECT_EQ(R.Ret.asI64(),
            H3.run("polyLoop", {vm::Value::fromI64(20)}).Ret.asI64());
}

// --- Unsound modes really break things --------------------------------------------------

TEST(UnsoundModes, FastMathChangesFpResults) {
  DexBuilder B;
  // Catastrophic-cancellation-prone sum: (big + tiny) - big != tiny.
  MethodId M = B.declareFunction(InvalidId, "fp", 0, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Big = F.immF(1e16), Tiny = F.immF(1.0), NegBig = F.immF(-1e16);
  RegIdx T = F.newReg(), R = F.newReg();
  // (tiny + big) + (-big): rounds to 0. Reassociated tiny + (big - big)
  // evaluates to exactly 1.0 — visibly different output.
  F.addF(T, Tiny, Big);
  F.addF(R, T, NegBig);
  F.ret(R);
  B.endBody(F);
  DexFile File = B.build();

  LFunction Fn = buildLir(File, "fp");
  // Safe mode refuses to touch FP.
  LFunction SafeCopy = Fn;
  EXPECT_FALSE(reassociate(SafeCopy, /*FastMath=*/false));

  EXPECT_TRUE(reassociate(Fn, /*FastMath=*/true));
  std::string Error;
  ASSERT_TRUE(Fn.verify(Error)) << Error;
  constProp(Fn); // fold the re-associated chain

  Harness H(File);
  H.RT->codeCache().install(lir::emitMachine(Fn));
  double FastMathResult = H.run("fp").Ret.asF64();
  Harness H2(File);
  H2.RT->setMode(vm::ExecMode::InterpretOnly);
  double Reference = H2.run("fp").Ret.asF64();
  // (1e16 + 1) - 1e16 == 0 under doubles; 1e16 + (1 - 1e16) == ... also?
  // Re-association here flips which rounding happens: expect a difference.
  EXPECT_NE(FastMathResult, Reference);
}

TEST(UnsoundModes, AggressiveBceCorruptsMultiplicativeIndexing) {
  DexBuilder B;
  // j starts at n-1 and doubles each iteration with wraparound *intended*
  // to stay in range only via the bounds check failing... here we build a
  // loop whose index genuinely exceeds the array when checks vanish:
  // for (j = 1; j < 64; j = j * 3) arr[j] = 7;   with arr.length = 40.
  // Valid run traps OutOfBounds at j = 81? No: 1,3,9,27,81 -> stops by
  // condition j < 64 at j=81? j=81 fails j<64, loop ends; last store j=27.
  // Use: for (j = 1; j < 40; j = j * 3) arr[j + 24] = 7; -> j+24 hits 51
  // while length is 40: the checked program traps; we compare the
  // *unchecked* one which silently corrupts neighbouring memory instead.
  MethodId M = B.declareFunction(InvalidId, "bce", 1, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Len = F.immI(40), Arr = F.newReg(), Arr2 = F.newReg();
  F.newArray(Arr, Len, Type::I64);
  F.newArray(Arr2, Len, Type::I64); // the corruption victim
  RegIdx J = F.newReg(), Three = F.immI(3), Seven = F.immI(7),
         Off = F.immI(24), Idx = F.newReg(), Limit = F.immI(40);
  F.constI(J, 1);
  auto Head = F.newLabel(), Done = F.newLabel();
  F.bind(Head);
  F.ifGe(J, Limit, Done);
  F.addI(Idx, J, Off);
  F.astore(Arr, Idx, Seven, Type::I64);
  F.mulI(J, J, Three);
  F.jump(Head);
  F.bind(Done);
  // Return a value from the victim array: corruption becomes visible.
  // The escaped store (j=27 -> idx 51) lands 424 bytes past Arr's base,
  // which is element 9 of Arr2 under the bump allocator's layout.
  RegIdx Z = F.immI(9), V = F.newReg();
  F.aload(V, Arr2, Z, Type::I64);
  F.ret(V);
  B.endBody(F);
  DexFile File = B.build();
  MethodId Id = File.findMethod("bce");

  // Reference: the checked program traps OutOfBounds (idx 51 >= 40).
  Harness HRef(File);
  HRef.RT->setMode(vm::ExecMode::InterpretOnly);
  EXPECT_EQ(HRef.run("bce", {vm::Value::fromI64(0)}).Trap,
            vm::TrapKind::OutOfBounds);

  // Aggressive BCE removes the check: the store lands in the second
  // array (silent corruption) or beyond.
  CompileOptions Options;
  Options.Pipeline = {mk(PassId::BoundsCheckElim, 0, true)};
  CompileResult Result = compileMethodLlvm(File, Id, Options);
  ASSERT_TRUE(Result.ok());
  Harness H(File);
  H.RT->codeCache().install(Result.Fn);
  vm::CallResult R = H.RT->call(Id, {vm::Value::fromI64(0)});
  // No trap where there should have been one — and the neighbouring
  // array got dirtied (its slot no longer reads 0 — wrong output).
  EXPECT_EQ(R.Trap, vm::TrapKind::None);
  EXPECT_NE(R.Ret.asI64(), 0);
}

TEST(UnsoundModes, SpeculativeDivTrapsOnGuardedDivisor) {
  DexBuilder B;
  // if (d != 0) { loop: sum += n / d } else return -1. With a zero-trip
  // guard the division is safe; speculating it above a loop whose trip
  // count is zero when d == 0 introduces a fresh trap... build directly:
  // for (i = 0; i < k; ++i) sum += n / d   called with k == 0, d == 0.
  MethodId M = B.declareFunction(InvalidId, "sd", 3, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Sum = F.newReg(), I = F.newReg(), One = F.immI(1);
  F.constI(Sum, 0);
  F.constI(I, 0);
  auto Head = F.newLabel(), Done = F.newLabel();
  F.bind(Head);
  F.ifGe(I, F.param(0), Done);
  RegIdx Q = F.newReg();
  F.divI(Q, F.param(1), F.param(2));
  F.addI(Sum, Sum, Q);
  F.addI(I, I, One);
  F.jump(Head);
  F.bind(Done);
  F.ret(Sum);
  B.endBody(F);
  DexFile File = B.build();
  MethodId Id = File.findMethod("sd");

  std::vector<vm::Value> ZeroTrip = {vm::Value::fromI64(0),
                                     vm::Value::fromI64(10),
                                     vm::Value::fromI64(0)};

  // Reference: zero-trip loop, no division, returns 0.
  Harness HRef(File);
  HRef.RT->setMode(vm::ExecMode::InterpretOnly);
  vm::CallResult RRef = HRef.RT->call(Id, ZeroTrip);
  ASSERT_TRUE(RRef.ok());
  EXPECT_EQ(RRef.Ret.asI64(), 0);

  // licm! hoists the division above the loop: traps on d == 0.
  CompileOptions Options;
  Options.Pipeline = {mk(PassId::Licm, 0, true)};
  CompileResult Result = compileMethodLlvm(File, Id, Options);
  ASSERT_TRUE(Result.ok());
  Harness H(File);
  H.RT->codeCache().install(Result.Fn);
  EXPECT_EQ(H.RT->call(Id, ZeroTrip).Trap, vm::TrapKind::DivByZero);
}

TEST(UnsoundModes, SafeLicmDoesNotSpeculate) {
  // Same program, safe licm: still correct on the zero-trip input.
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "sd", 3, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Sum = F.newReg(), I = F.newReg(), One = F.immI(1);
  F.constI(Sum, 0);
  F.constI(I, 0);
  auto Head = F.newLabel(), Done = F.newLabel();
  F.bind(Head);
  F.ifGe(I, F.param(0), Done);
  RegIdx Q = F.newReg();
  F.divI(Q, F.param(1), F.param(2));
  F.addI(Sum, Sum, Q);
  F.addI(I, I, One);
  F.jump(Head);
  F.bind(Done);
  F.ret(Sum);
  B.endBody(F);
  DexFile File = B.build();
  expectPipelineParity(File, "sd",
                       {vm::Value::fromI64(0), vm::Value::fromI64(10),
                        vm::Value::fromI64(1)},
                       {mk(PassId::Licm)});
}

// --- Presets --------------------------------------------------------------------------

TEST(Presets, AllLevelsPreserveSemantics) {
  DexBuilder B;
  defineSumTo(B);
  defineDotProduct(B);
  defineMatrixSum(B);
  DexFile File = B.build();
  for (auto &Pipe :
       {o0Pipeline(), o1Pipeline(), o2Pipeline(), o3Pipeline()}) {
    expectPipelineParity(File, "sumTo", {vm::Value::fromI64(64)}, Pipe);
    expectPipelineParity(File, "dot", {vm::Value::fromI64(33)}, Pipe);
    expectPipelineParity(File, "matSum", {vm::Value::fromI64(8)}, Pipe);
  }
}

TEST(Presets, HigherLevelsAreFasterHere) {
  DexBuilder B;
  defineMatrixSum(B);
  DexFile File = B.build();
  uint64_t C0 = 0, C2 = 0;
  expectPipelineParity(File, "matSum", {vm::Value::fromI64(16)},
                       o0Pipeline(), &C0);
  expectPipelineParity(File, "matSum", {vm::Value::fromI64(16)},
                       o2Pipeline(), &C2);
  EXPECT_LT(C2, C0);
}

TEST(Presets, SizeBudgetStopsExplosion) {
  DexBuilder B;
  defineMatrixSum(B);
  DexFile File = B.build();
  MethodId Id = File.findMethod("matSum");
  CompileOptions Options;
  Options.Pipeline = {mk(PassId::SimplifyCfg), mk(PassId::LoopRotate)};
  for (int I = 0; I != 6; ++I) {
    Options.Pipeline.push_back(mk(PassId::LoopUnroll, 64));
    Options.Pipeline.push_back(mk(PassId::LoopRotate));
  }
  // Sanity: the same pipeline with a generous budget really does explode
  // the code (so the tight budget below is a genuine stop, not a trivial
  // base-size trip).
  Options.SizeBudget = 1u << 20;
  CompileResult Grown = compileMethodLlvm(File, Id, Options);
  ASSERT_TRUE(Grown.ok());
  CompileOptions Plain;
  CompileResult Base = compileMethodLlvm(File, Id, Plain);
  ASSERT_TRUE(Base.ok());
  EXPECT_GT(Grown.Fn->Code.size(), 3 * Base.Fn->Code.size());

  Options.SizeBudget = Base.Fn->Code.size() * 2;
  CompileResult Result = compileMethodLlvm(File, Id, Options);
  EXPECT_EQ(Result.Status, CompileStatus::SizeBudget);
}

// --- Induction-range bounds-check elimination (paper §7 future work) -----------

TEST(RangeBce, RemovesChecksInCountedLoops) {
  DexBuilder B;
  defineDotProduct(B);
  DexFile File = B.build();
  LFunction Fn = buildLir(File, "dot");
  simplifyCfg(Fn);
  constProp(Fn);
  gvn(Fn);
  dce(Fn, false);
  size_t Before = countLOps(Fn, MOpcode::MCheckBounds);
  ASSERT_GT(Before, 0u);
  EXPECT_TRUE(boundsCheckElim(Fn, /*Aggressive=*/false));
  EXPECT_EQ(countLOps(Fn, MOpcode::MCheckBounds), 0u);
  std::string Error;
  ASSERT_TRUE(Fn.verify(Error)) << Error;

  // Differential, including the empty-loop boundary.
  for (int64_t N : {0, 1, 2, 17, 60}) {
    expectPipelineParity(File, "dot", {vm::Value::fromI64(N)},
                         {mk(PassId::SimplifyCfg), mk(PassId::ConstProp),
                          mk(PassId::Gvn), mk(PassId::Dce),
                          mk(PassId::BoundsCheckElim)});
  }
}

TEST(RangeBce, KeepsChecksWhenBoundExceedsLength) {
  // for (i = 0; i < n + 3; ++i) arr[i]  with arr.length == n: the range
  // analysis must NOT remove the check — the program genuinely traps.
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "over", 1, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Arr = F.newReg(), I = F.newReg(), One = F.immI(1),
         Three = F.immI(3), Bound = F.newReg(), Sum = F.newReg();
  F.newArray(Arr, F.param(0), Type::I64);
  F.addI(Bound, F.param(0), Three);
  F.constI(I, 0);
  F.constI(Sum, 0);
  auto Head = F.newLabel(), Done = F.newLabel();
  F.bind(Head);
  F.ifGe(I, Bound, Done);
  RegIdx V = F.newReg();
  F.aload(V, Arr, I, Type::I64);
  F.addI(Sum, Sum, V);
  F.addI(I, I, One);
  F.jump(Head);
  F.bind(Done);
  F.ret(Sum);
  B.endBody(F);
  DexFile File = B.build();

  LFunction Fn = buildLir(File, "over");
  simplifyCfg(Fn);
  boundsCheckElim(Fn, /*Aggressive=*/false);
  EXPECT_GT(countLOps(Fn, MOpcode::MCheckBounds), 0u);

  // And the compiled program still traps where the interpreter does.
  CompileOptions Options;
  Options.Pipeline = {mk(PassId::SimplifyCfg),
                      mk(PassId::BoundsCheckElim)};
  CompileResult Result =
      compileMethodLlvm(File, File.findMethod("over"), Options);
  ASSERT_TRUE(Result.ok());
  Harness H(File);
  H.RT->codeCache().install(Result.Fn);
  EXPECT_EQ(H.run("over", {vm::Value::fromI64(8)}).Trap,
            vm::TrapKind::OutOfBounds);
}

TEST(RangeBce, DownwardLoopsAreLeftAlone) {
  // for (i = n - 1; i >= 0; --i): negative step — not handled, must keep.
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "down", 1, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Arr = F.newReg(), I = F.newReg(), One = F.immI(1),
         Sum = F.newReg();
  F.newArray(Arr, F.param(0), Type::I64);
  F.subI(I, F.param(0), One);
  F.constI(Sum, 0);
  auto Head = F.newLabel(), Done = F.newLabel();
  F.bind(Head);
  F.ifLtz(I, Done);
  RegIdx V = F.newReg();
  F.aload(V, Arr, I, Type::I64);
  F.addI(Sum, Sum, V);
  F.subI(I, I, One);
  F.jump(Head);
  F.bind(Done);
  F.ret(Sum);
  B.endBody(F);
  DexFile File = B.build();

  LFunction Fn = buildLir(File, "down");
  simplifyCfg(Fn);
  size_t Before = countLOps(Fn, MOpcode::MCheckBounds);
  boundsCheckElim(Fn, /*Aggressive=*/false);
  EXPECT_EQ(countLOps(Fn, MOpcode::MCheckBounds), Before);
  expectPipelineParity(File, "down", {vm::Value::fromI64(9)},
                       {mk(PassId::SimplifyCfg),
                        mk(PassId::BoundsCheckElim)});
}

// --- Hand-built IR: malformed phis and GVN forwarding ------------------------

namespace {

LInsn lirImm(ValueId Dst, int64_t V) {
  LInsn I;
  I.Op = MOpcode::MMovImmI;
  I.Dst = Dst;
  I.ImmI = V;
  return I;
}

LInsn lirBinary(MOpcode Op, ValueId Dst, ValueId A, ValueId B) {
  LInsn I;
  I.Op = Op;
  I.Dst = Dst;
  I.A = A;
  I.B = B;
  return I;
}

LTerminator lirGoto(uint32_t Dest) {
  LTerminator T;
  T.K = LTerminator::Kind::Goto;
  T.Taken = Dest;
  return T;
}

LTerminator lirCond(MOpcode Op, ValueId A, ValueId B, uint32_t Taken,
                    uint32_t Fall) {
  LTerminator T;
  T.K = LTerminator::Kind::Cond;
  T.CondOp = Op;
  T.A = A;
  T.B = B;
  T.Taken = Taken;
  T.Fall = Fall;
  return T;
}

LTerminator lirRet(ValueId V) {
  LTerminator T;
  T.K = LTerminator::Kind::Ret;
  T.A = V;
  return T;
}

/// GVN as it was before the forwarding table: one replaceAllUses sweep
/// per redundant instruction. The differential reference for gvn().
bool quadraticGvn(LFunction &Fn) {
  using KeyT = std::tuple<MOpcode, ValueId, ValueId, int64_t, uint64_t,
                          uint32_t>;
  bool Changed = false;
  DomTree DT = DomTree::compute(Fn);
  std::map<KeyT, ValueId> Available;
  auto Walk = [&](auto &Self, uint32_t Block) -> void {
    std::vector<KeyT> Inserted;
    for (LInsn &I : Fn.Blocks[Block].Insns) {
      if (!vm::isPureOp(I.Op) || I.Dst == NoValue)
        continue;
      uint64_t FBits;
      std::memcpy(&FBits, &I.ImmF, sizeof(FBits));
      KeyT K{I.Op, I.A, I.B, I.ImmI, FBits, I.Idx};
      auto It = Available.find(K);
      if (It != Available.end()) {
        replaceAllUses(Fn, I.Dst, It->second);
        I = LInsn();
        Changed = true;
        continue;
      }
      Available.emplace(K, I.Dst);
      Inserted.push_back(K);
    }
    for (uint32_t Child : DT.children(Block))
      Self(Self, Child);
    for (const KeyT &K : Inserted)
      Available.erase(K);
  };
  Walk(Walk, 0);
  return Changed;
}

} // namespace

TEST(LirPasses, ConstPropLeavesAShortPhiForTheVerifier) {
  // bb3 has three preds but its phi only one input: the shape the
  // unsound jump-threading mode leaves behind. Folding bb2's constant
  // branch removes pred slot 1, which that phi does not have; the pass
  // must leave the phi alone (no erase past its end) and the verifier
  // must still reject the arity.
  LFunction Fn;
  Fn.Name = "shortphi";
  Fn.ParamCount = 1;
  Fn.ReturnsValue = true;
  Fn.NumValues = 4; // v0 param, v1 zero, v2 seven, v3 phi
  Fn.Blocks.resize(5);
  Fn.Blocks[0].Insns = {lirImm(1, 0), lirImm(2, 7)};
  Fn.Blocks[0].Term = lirCond(MOpcode::MIfNez, 0, NoValue, 1, 2);
  Fn.Blocks[1].Term = lirGoto(3);
  Fn.Blocks[2].Term = lirCond(MOpcode::MIfNez, 1, NoValue, 3, 4);
  Fn.Blocks[3].Phis = {LPhi{3, {2}}};
  Fn.Blocks[3].Term = lirRet(3);
  Fn.Blocks[4].Term = lirGoto(3);
  Fn.computePreds();
  ASSERT_EQ(Fn.Blocks[3].Preds, (std::vector<uint32_t>{1, 2, 4}));

  EXPECT_TRUE(constProp(Fn));
  EXPECT_EQ(Fn.Blocks[2].Term.K, LTerminator::Kind::Goto);
  EXPECT_EQ(Fn.Blocks[3].Preds, (std::vector<uint32_t>{1, 4}));
  EXPECT_EQ(Fn.Blocks[3].Phis[0].In, (std::vector<ValueId>{2}));
  std::string Error;
  EXPECT_FALSE(Fn.verify(Error));
  EXPECT_EQ(Error, "block 3: phi v3 has 1 inputs for 2 preds");
}

TEST(LoopPasses, ShortExitPhiLeavesTheSelfLoopAlone) {
  // bb1 is a rotated self-loop whose exit phi has no input for bb1's
  // edge. Peeling or unrolling would read that input: both must leave
  // the loop alone and the verifier must reject the phi.
  LFunction Fn;
  Fn.Name = "shortexit";
  Fn.ParamCount = 1;
  Fn.ReturnsValue = true;
  Fn.NumValues = 5; // v0 param, v1 loop phi, v2 next, v3 exit phi, v4 one
  Fn.Blocks.resize(3);
  Fn.Blocks[0].Insns = {lirImm(4, 1)};
  Fn.Blocks[0].Term = lirGoto(1);
  Fn.Blocks[1].Phis = {LPhi{1, {4, 2}}};
  Fn.Blocks[1].Insns = {lirBinary(MOpcode::MAddI, 2, 1, 4)};
  Fn.Blocks[1].Term = lirCond(MOpcode::MIfLt, 2, 0, 1, 2);
  Fn.Blocks[2].Phis = {LPhi{3, {}}};
  Fn.Blocks[2].Term = lirRet(3);
  Fn.computePreds();

  LFunction WellFormed = Fn;
  WellFormed.Blocks[2].Phis[0].In = {2};
  EXPECT_TRUE(loopPeel(WellFormed, 2)); // the shape itself is peelable

  LFunction Unrolled = Fn;
  EXPECT_FALSE(loopPeel(Fn, 2));
  EXPECT_FALSE(loopUnroll(Unrolled, 4));
  EXPECT_FALSE(loopUnroll(Unrolled, 4, /*AssumeDivisible=*/true));
  std::string Error;
  EXPECT_FALSE(Fn.verify(Error));
  EXPECT_EQ(Error, "block 2: phi v3 has 0 inputs for 1 preds");
}

TEST(LirPasses, GvnForwardsSecondOrderRedundancies) {
  // v5 = v3 * p1 is redundant with v4 = v2 * p1 only once v3 is known to
  // be v2: the second redundancy shows only through a forwarded operand.
  // Phi inputs, a dominated block's operands and terminators must all see
  // the replacements.
  LFunction Fn;
  Fn.Name = "gvn2";
  Fn.ParamCount = 2;
  Fn.ReturnsValue = true;
  Fn.NumValues = 8;
  Fn.Blocks.resize(3);
  Fn.Blocks[0].Insns = {lirBinary(MOpcode::MAddI, 2, 0, 1),
                        lirBinary(MOpcode::MAddI, 3, 0, 1),
                        lirBinary(MOpcode::MMulI, 4, 2, 1),
                        lirBinary(MOpcode::MMulI, 5, 3, 1)};
  Fn.Blocks[0].Term = lirCond(MOpcode::MIfLt, 5, 0, 1, 2);
  Fn.Blocks[1].Insns = {lirBinary(MOpcode::MSubI, 6, 5, 3)};
  Fn.Blocks[1].Term = lirGoto(2);
  Fn.Blocks[2].Phis = {LPhi{7, {5, 6}}};
  Fn.Blocks[2].Term = lirRet(7);
  Fn.computePreds();
  std::string Error;
  ASSERT_TRUE(Fn.verify(Error)) << Error;

  LFunction Reference = Fn;
  EXPECT_TRUE(gvn(Fn));
  EXPECT_TRUE(quadraticGvn(Reference));
  EXPECT_EQ(Fn.dump(), Reference.dump());

  EXPECT_EQ(countLOps(Fn, MOpcode::MAddI), 1u);
  EXPECT_EQ(countLOps(Fn, MOpcode::MMulI), 1u);
  EXPECT_EQ(Fn.Blocks[0].Term.A, 4u);
  EXPECT_EQ(Fn.Blocks[1].Insns[0].A, 4u);
  EXPECT_EQ(Fn.Blocks[1].Insns[0].B, 2u);
  EXPECT_EQ(Fn.Blocks[2].Phis[0].In, (std::vector<ValueId>{4, 6}));
  ASSERT_TRUE(Fn.verify(Error)) << Error;
}

TEST(LirPasses, GvnMatchesTheReplaceAllUsesReference) {
  // Differential: on every compilable method of three real workloads,
  // after seeded random pass prefixes, the forwarding-table GVN leaves
  // exactly the IR the one-sweep-per-replacement GVN did.
  Rng R(0x6e7);
  const auto &Registry = passRegistry();
  size_t Compared = 0, Changed = 0;
  for (const char *AppName : {"FFT", "Linpack", "Reversi Android"}) {
    workloads::Application App = workloads::buildByName(AppName);
    PassContext Ctx;
    Ctx.File = App.File.get();
    for (const dex::Method &M : App.File->methods()) {
      if (M.IsNative || M.isUncompilable())
        continue;
      for (int Trial = 0; Trial != 3; ++Trial) {
        LFunction Fn = fromHGraph(hgraph::buildHGraph(*App.File, M.Id));
        size_t Length = static_cast<size_t>(R.below(6));
        for (size_t P = 0; P != Length; ++P) {
          const PassDescriptor &D = Registry[R.below(Registry.size())];
          PassInstance Pass = mk(D.Id, D.DefaultInt,
                                 D.HasAggressive && R.chance(0.3));
          applyPass(Fn, Pass, Ctx);
          if (Fn.instructionCount() > 2000)
            break;
        }
        LFunction Reference = Fn;
        bool Fast = gvn(Fn);
        EXPECT_EQ(Fast, quadraticGvn(Reference)) << M.Name;
        EXPECT_EQ(Fn.dump(), Reference.dump()) << M.Name;
        ++Compared;
        Changed += Fast;
      }
    }
  }
  EXPECT_GT(Compared, 20u);
  EXPECT_GT(Changed, 5u);
}

// --- Prefix-resumed compilation -------------------------------------------------

namespace {

bool sameMachineCode(const vm::MachineFunction &X,
                     const vm::MachineFunction &Y) {
  if (X.NumRegs != Y.NumRegs || X.Code.size() != Y.Code.size())
    return false;
  for (size_t I = 0; I != X.Code.size(); ++I) {
    const vm::MInsn &A = X.Code[I], &B = Y.Code[I];
    if (A.Op != B.Op || A.A != B.A || A.B != B.B || A.C != B.C ||
        A.Target != B.Target || A.Idx != B.Idx || A.ImmI != B.ImmI ||
        std::memcmp(&A.ImmF, &B.ImmF, sizeof(A.ImmF)) != 0 ||
        A.Hint != B.Hint || A.ArgCount != B.ArgCount ||
        !std::equal(A.Args, A.Args + A.ArgCount, B.Args))
      return false;
  }
  return true;
}

} // namespace

TEST(PrefixResume, WarmCompilesMatchColdCompilesAndSkipSharedPrefixes) {
  DexBuilder B;
  defineMatrixSum(B);
  DexFile File = B.build();
  MethodId Id = File.findMethod("matSum");

  std::vector<PassInstance> Base = {mk(PassId::SimplifyCfg),
                                    mk(PassId::LoopRotate)};
  auto With = [&](std::vector<PassInstance> Tail) {
    std::vector<PassInstance> P = Base;
    P.insert(P.end(), Tail.begin(), Tail.end());
    return P;
  };
  std::vector<PassInstance> Explodes =
      With({mk(PassId::Gvn), mk(PassId::LoopUnroll, 64)});
  // In order: fresh, an extension, one differing from it only in the
  // aggressive flag, a sibling, a size-budget explosion, a pipeline
  // through the same explosion, one differing from the exploding pass
  // only in its parameter, one that leaves the explosion a pass early,
  // the empty pipeline, and the first pipeline again.
  std::vector<std::vector<PassInstance>> Pipelines = {
      With({mk(PassId::Dce)}),
      With({mk(PassId::Dce), mk(PassId::GcElide, 0, true)}),
      With({mk(PassId::Dce), mk(PassId::GcElide)}),
      With({mk(PassId::Licm), mk(PassId::Dce)}),
      Explodes,
      [&] {
        std::vector<PassInstance> P = Explodes;
        P.push_back(mk(PassId::Dce));
        return P;
      }(),
      With({mk(PassId::Gvn), mk(PassId::LoopUnroll, 2)}),
      With({mk(PassId::Gvn), mk(PassId::Dce)}),
      {},
      With({mk(PassId::Dce)}),
  };

  // A budget every pass before the unroll fits in and the unroll does not.
  size_t Budget = 0;
  {
    LFunction Fn = buildLir(File, "matSum");
    PassContext Ctx;
    Ctx.File = &File;
    size_t Fits = Fn.instructionCount();
    for (size_t P = 0; P + 1 != Explodes.size(); ++P) {
      applyPass(Fn, Explodes[P], Ctx);
      Fits = std::max(Fits, Fn.instructionCount());
    }
    applyPass(Fn, Explodes.back(), Ctx);
    ASSERT_GT(Fn.instructionCount(), Fits + 1);
    Budget = (Fits + Fn.instructionCount()) / 2;
  }

  MethodCompiler Warm(File, Id);
  std::vector<CompileStatus> Statuses;
  for (size_t N = 0; N != Pipelines.size(); ++N) {
    CompileOptions Options;
    Options.Pipeline = Pipelines[N];
    Options.SizeBudget = Budget;
    uint64_t AppliedBefore = Warm.passesApplied();
    CompileResult Cold = compileMethodLlvm(File, Id, Options);
    CompileResult Hot = Warm.compile(Options);
    ASSERT_EQ(Hot.Status, Cold.Status) << "pipeline " << N;
    EXPECT_EQ(Hot.Error, Cold.Error) << "pipeline " << N;
    if (Cold.ok()) {
      EXPECT_TRUE(sameMachineCode(*Hot.Fn, *Cold.Fn)) << "pipeline " << N;
    }
    if (N == 5) { // resumes into the remembered explosion: runs nothing
      EXPECT_EQ(Warm.passesApplied(), AppliedBefore);
    }
    Statuses.push_back(Hot.Status);
  }
  EXPECT_EQ(Statuses,
            (std::vector<CompileStatus>{
                CompileStatus::Ok, CompileStatus::Ok, CompileStatus::Ok,
                CompileStatus::Ok, CompileStatus::SizeBudget,
                CompileStatus::SizeBudget, CompileStatus::Ok,
                CompileStatus::Ok, CompileStatus::Ok, CompileStatus::Ok}));
  // Pipelines 1-7 each resume at least the two-pass base.
  EXPECT_GE(Warm.passesResumed(), 2u * 7u);

  // A different size budget is a different key: the explosion above is
  // not replayed under a budget the same passes fit in.
  CompileOptions Generous;
  Generous.Pipeline = Explodes;
  Generous.SizeBudget = 1u << 20;
  CompileResult Grown = Warm.compile(Generous);
  ASSERT_TRUE(Grown.ok());
  EXPECT_TRUE(sameMachineCode(
      *Grown.Fn, *compileMethodLlvm(File, Id, Generous).Fn));
}
