//===- tests/VmTests.cpp - vm/ unit tests ------------------------------------===//

#include "dex/Builder.h"
#include "hgraph/AndroidCompiler.h"
#include "hgraph/Build.h"
#include "hgraph/Codegen.h"
#include "lir/Backend.h"
#include "search/Genome.h"
#include "support/Random.h"
#include "vm/Heap.h"
#include "vm/IntOps.h"
#include "vm/MachineUtil.h"
#include "vm/Runtime.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <ostream>

using namespace ropt;
using namespace ropt::dex;
using namespace ropt::vm;

namespace {

/// A dex file plus a booted runtime over a fresh simulated process.
struct VmEnv {
  DexFile File;
  os::AddressSpace Space;
  NativeRegistry Natives;
  std::unique_ptr<Runtime> RT;

  explicit VmEnv(DexFile F, RuntimeConfig Config = RuntimeConfig())
      : File(std::move(F)), Natives(NativeRegistry::standardLibrary()) {
    Runtime::mapStandardLayout(Space, File, Config);
    RT = std::make_unique<Runtime>(Space, File, Natives, Config);
  }

  CallResult run(const std::string &Name,
                 std::vector<Value> Args = {}) {
    MethodId Id = File.findMethod(Name);
    EXPECT_NE(Id, InvalidId) << Name;
    return RT->call(Id, Args);
  }
};

/// sumTo(n): straightforward counting loop.
void defineSumTo(DexBuilder &B) {
  MethodId M = B.declareFunction(InvalidId, "sumTo", 1, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Sum = F.newReg(), I = F.newReg(), One = F.immI(1);
  F.constI(Sum, 0);
  F.constI(I, 0);
  auto Head = F.newLabel(), Exit = F.newLabel();
  F.bind(Head);
  F.ifGe(I, F.param(0), Exit);
  F.addI(Sum, Sum, I);
  F.addI(I, I, One);
  F.jump(Head);
  F.bind(Exit);
  F.ret(Sum);
  B.endBody(F);
}

} // namespace

// --- Heap --------------------------------------------------------------------

TEST(Heap, AllocateAndHeader) {
  os::AddressSpace Space;
  Space.mapRegion(Layout::HeapBase, 1 << 20, os::ProtRead | os::ProtWrite,
                  os::MappingKind::Heap, "heap");
  Heap H(Space, 1 << 20, 1 << 19);
  H.initialize();

  TrapKind Trap = TrapKind::None;
  uint64_t Obj = H.allocate(ObjKind::Object, 7, 3, Trap);
  ASSERT_NE(Obj, 0u);
  EXPECT_EQ(Trap, TrapKind::None);

  ObjectHeader Header;
  ASSERT_TRUE(H.readHeader(Obj, Header));
  EXPECT_EQ(Header.ClassOrElem, 7u);
  EXPECT_EQ(Header.Kind, uint8_t(ObjKind::Object));
  EXPECT_EQ(Header.Count, 3u);
  EXPECT_GT(H.bytesAllocated(), 0u);
}

TEST(Heap, AllocationsAreDisjointAndAligned) {
  os::AddressSpace Space;
  Space.mapRegion(Layout::HeapBase, 1 << 20, os::ProtRead | os::ProtWrite,
                  os::MappingKind::Heap, "heap");
  Heap H(Space, 1 << 20, 1 << 19);
  H.initialize();

  TrapKind Trap = TrapKind::None;
  uint64_t A = H.allocate(ObjKind::ArrayI, 0, 5, Trap);
  uint64_t B = H.allocate(ObjKind::ArrayI, 0, 5, Trap);
  EXPECT_EQ(A % 16, 0u);
  EXPECT_EQ(B % 16, 0u);
  // 5 elements -> 16 header + 40 payload -> 56, padded to 64.
  EXPECT_GE(B - A, 56u);
}

TEST(Heap, OutOfMemoryTraps) {
  os::AddressSpace Space;
  Space.mapRegion(Layout::HeapBase, 64 * 1024,
                  os::ProtRead | os::ProtWrite, os::MappingKind::Heap,
                  "heap");
  Heap H(Space, 64 * 1024, 32 * 1024);
  H.initialize();

  TrapKind Trap = TrapKind::None;
  EXPECT_EQ(H.allocate(ObjKind::ArrayI, 0, 100000, Trap), 0u);
  EXPECT_EQ(Trap, TrapKind::OutOfMemory);
}

TEST(Heap, SafepointTriggersGcAfterThreshold) {
  os::AddressSpace Space;
  Space.mapRegion(Layout::HeapBase, 1 << 20, os::ProtRead | os::ProtWrite,
                  os::MappingKind::Heap, "heap");
  Heap H(Space, 1 << 20, /*GcThreshold=*/4096);
  H.initialize();

  EXPECT_EQ(H.pollSafepoint(1000), 0u);
  TrapKind Trap = TrapKind::None;
  H.allocate(ObjKind::ArrayI, 0, 1000, Trap); // ~8KB > threshold
  EXPECT_TRUE(H.gcImminent());
  EXPECT_EQ(H.pollSafepoint(1000), 1000u);
  EXPECT_EQ(H.gcRuns(), 1u);
  EXPECT_FALSE(H.gcImminent());
  EXPECT_EQ(H.pollSafepoint(1000), 0u);
}

TEST(Heap, StateLivesInMemory) {
  os::AddressSpace Space;
  Space.mapRegion(Layout::HeapBase, 1 << 20, os::ProtRead | os::ProtWrite,
                  os::MappingKind::Heap, "heap");
  Heap A(Space, 1 << 20, 1 << 19);
  A.initialize();
  TrapKind Trap = TrapKind::None;
  A.allocate(ObjKind::Object, 1, 4, Trap);

  // A second view over the same space sees the same allocator state.
  Heap B(Space, 1 << 20, 1 << 19);
  EXPECT_EQ(B.bytesAllocated(), A.bytesAllocated());
}

// --- Interpreter: arithmetic and control flow ---------------------------------

TEST(Interpreter, ArithmeticBasics) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "calc", 2, true);
  FunctionBuilder F = B.beginBody(M);
  // ((a + b) * 3 - a) ^ 5
  RegIdx T = F.newReg(), Three = F.immI(3), Five = F.immI(5);
  F.addI(T, F.param(0), F.param(1));
  F.mulI(T, T, Three);
  F.subI(T, T, F.param(0));
  F.xorI(T, T, Five);
  F.ret(T);
  B.endBody(F);
  VmEnv Env(B.build());

  CallResult R =
      Env.run("calc", {Value::fromI64(10), Value::fromI64(4)});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Ret.asI64(), ((10 + 4) * 3 - 10) ^ 5);
}

TEST(Interpreter, LoopSum) {
  DexBuilder B;
  defineSumTo(B);
  VmEnv Env(B.build());
  CallResult R = Env.run("sumTo", {Value::fromI64(100)});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Ret.asI64(), 4950);
  EXPECT_GT(R.Cycles, 0u);
  EXPECT_GT(R.Insns, 300u);
}

TEST(Interpreter, FloatingPoint) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "fp", 1, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx X = F.newReg(), Y = F.newReg();
  F.i2f(X, F.param(0));
  RegIdx Half = F.immF(0.5);
  F.mulF(Y, X, Half);
  F.sqrtF(Y, Y);
  F.ret(Y);
  B.endBody(F);
  VmEnv Env(B.build());

  CallResult R = Env.run("fp", {Value::fromI64(8)});
  ASSERT_TRUE(R.ok());
  EXPECT_DOUBLE_EQ(R.Ret.asF64(), 2.0);
}

TEST(Interpreter, CmpFOrdering) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "cmp", 2, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx R = F.newReg();
  F.cmpF(R, F.param(0), F.param(1));
  F.ret(R);
  B.endBody(F);
  VmEnv Env(B.build());

  EXPECT_EQ(
      Env.run("cmp", {Value::fromF64(1.0), Value::fromF64(2.0)}).Ret.asI64(),
      -1);
  EXPECT_EQ(
      Env.run("cmp", {Value::fromF64(2.0), Value::fromF64(2.0)}).Ret.asI64(),
      0);
  EXPECT_EQ(
      Env.run("cmp", {Value::fromF64(3.0), Value::fromF64(2.0)}).Ret.asI64(),
      1);
  double NaN = std::nan("");
  EXPECT_EQ(
      Env.run("cmp", {Value::fromF64(NaN), Value::fromF64(2.0)}).Ret.asI64(),
      1);
}

TEST(Interpreter, Recursion) {
  DexBuilder B;
  MethodId Fib = B.declareFunction(InvalidId, "fib", 1, true);
  FunctionBuilder F = B.beginBody(Fib);
  auto BaseCase = F.newLabel();
  RegIdx Two = F.immI(2);
  F.ifLt(F.param(0), Two, BaseCase);
  RegIdx A = F.newReg(), Bv = F.newReg(), T = F.newReg(), One = F.immI(1);
  F.subI(T, F.param(0), One);
  F.invokeStatic(A, Fib, {T});
  F.subI(T, T, One);
  F.invokeStatic(Bv, Fib, {T});
  F.addI(A, A, Bv);
  F.ret(A);
  F.bind(BaseCase);
  F.ret(F.param(0));
  B.endBody(F);
  VmEnv Env(B.build());

  CallResult R = Env.run("fib", {Value::fromI64(15)});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Ret.asI64(), 610);
}

// --- Interpreter: heap objects ---------------------------------------------------

TEST(Interpreter, ArraysSumRoundTrip) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "arraySum", 1, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Arr = F.newReg(), I = F.newReg(), Sum = F.newReg(),
         One = F.immI(1);
  F.newArray(Arr, F.param(0), Type::I64);
  F.constI(I, 0);
  // fill: arr[i] = i * i
  auto FillHead = F.newLabel(), FillDone = F.newLabel();
  F.bind(FillHead);
  F.ifGe(I, F.param(0), FillDone);
  RegIdx Sq = F.newReg();
  F.mulI(Sq, I, I);
  F.astore(Arr, I, Sq, Type::I64);
  F.addI(I, I, One);
  F.jump(FillHead);
  F.bind(FillDone);
  // sum
  F.constI(Sum, 0);
  F.constI(I, 0);
  auto SumHead = F.newLabel(), SumDone = F.newLabel();
  RegIdx Len = F.newReg();
  F.arrayLen(Len, Arr);
  F.bind(SumHead);
  F.ifGe(I, Len, SumDone);
  RegIdx V = F.newReg();
  F.aload(V, Arr, I, Type::I64);
  F.addI(Sum, Sum, V);
  F.addI(I, I, One);
  F.jump(SumHead);
  F.bind(SumDone);
  F.ret(Sum);
  B.endBody(F);
  VmEnv Env(B.build());

  CallResult R = Env.run("arraySum", {Value::fromI64(10)});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Ret.asI64(), 285); // sum of squares 0..9
}

TEST(Interpreter, ObjectFieldsAndVirtualDispatch) {
  DexBuilder B;
  ClassId Shape = B.addClass("Shape");
  ClassId Square = B.addClass("Square", Shape);
  ClassId Circle = B.addClass("Circle", Shape);
  FieldId Size = B.addField(Shape, "size", Type::I64);
  MethodId Area = B.declareVirtual(Shape, "area", 1, true);
  MethodId SquareArea = B.declareVirtual(Square, "area", 1, true);
  MethodId CircleArea = B.declareVirtual(Circle, "area", 1, true);
  {
    FunctionBuilder F = B.beginBody(Area);
    RegIdx Z = F.immI(0);
    F.ret(Z);
    B.endBody(F);
  }
  {
    FunctionBuilder F = B.beginBody(SquareArea);
    RegIdx S = F.newReg();
    F.getField(S, F.param(0), Size);
    F.mulI(S, S, S);
    F.ret(S);
    B.endBody(F);
  }
  {
    FunctionBuilder F = B.beginBody(CircleArea);
    RegIdx S = F.newReg(), Three = F.immI(3);
    F.getField(S, F.param(0), Size);
    F.mulI(S, S, S);
    F.mulI(S, S, Three);
    F.ret(S);
    B.endBody(F);
  }
  MethodId Main = B.declareFunction(InvalidId, "main", 1, true);
  {
    FunctionBuilder F = B.beginBody(Main);
    RegIdx Obj = F.newReg(), R = F.newReg();
    auto UseCircle = F.newLabel(), Call = F.newLabel();
    F.ifNez(F.param(0), UseCircle);
    F.newInstance(Obj, Square);
    F.jump(Call);
    F.bind(UseCircle);
    F.newInstance(Obj, Circle);
    F.bind(Call);
    RegIdx Four = F.immI(4);
    F.putField(Obj, Size, Four);
    F.invokeVirtual(R, Area, {Obj});
    F.ret(R);
    B.endBody(F);
  }
  VmEnv Env(B.build());

  EXPECT_EQ(Env.run("main", {Value::fromI64(0)}).Ret.asI64(), 16);
  EXPECT_EQ(Env.run("main", {Value::fromI64(1)}).Ret.asI64(), 48);
}

TEST(Interpreter, StaticFields) {
  DexBuilder B;
  ClassId C = B.addClass("Counter");
  StaticFieldId Count = B.addStaticField(C, "count", Type::I64, 5);
  MethodId Bump = B.declareFunction(InvalidId, "bump", 0, true);
  FunctionBuilder F = B.beginBody(Bump);
  RegIdx V = F.newReg(), One = F.immI(1);
  F.getStatic(V, Count);
  F.addI(V, V, One);
  F.putStatic(Count, V);
  F.ret(V);
  B.endBody(F);
  VmEnv Env(B.build());

  EXPECT_EQ(Env.run("bump").Ret.asI64(), 6);
  EXPECT_EQ(Env.run("bump").Ret.asI64(), 7);
  EXPECT_EQ(Env.RT->readStatic(Count).asI64(), 7);
}

// --- Interpreter: natives -----------------------------------------------------

TEST(Interpreter, MathNative) {
  DexBuilder B;
  NativeId Sin = B.addNative("sin", 1, true);
  MethodId M = B.declareFunction(InvalidId, "sinOf", 1, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx R = F.newReg();
  F.invokeNative(R, Sin, {F.param(0)});
  F.ret(R);
  B.endBody(F);
  VmEnv Env(B.build());

  CallResult Res = Env.run("sinOf", {Value::fromF64(1.0)});
  ASSERT_TRUE(Res.ok());
  EXPECT_DOUBLE_EQ(Res.Ret.asF64(), std::sin(1.0));
}

TEST(Interpreter, IoNativesLogAndConsume) {
  DexBuilder B;
  NativeId Print = B.addNative("print", 1, false, /*DoesIO=*/true);
  NativeId Read = B.addNative("readInput", 0, true, /*DoesIO=*/true);
  MethodId M = B.declareFunction(InvalidId, "echo", 0, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx V = F.newReg();
  F.invokeNative(V, Read, {});
  F.invokeNative(NoReg, Print, {V});
  F.ret(V);
  B.endBody(F);
  VmEnv Env(B.build());

  Env.RT->inputQueue().push_back(42);
  CallResult R = Env.run("echo");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Ret.asI64(), 42);
  ASSERT_EQ(Env.RT->ioLog().size(), 2u); // tag + payload
  EXPECT_EQ(Env.RT->ioLog()[1], 42);
  // Queue exhausted -> -1.
  EXPECT_EQ(Env.run("echo").Ret.asI64(), -1);
}

TEST(Interpreter, NativeCallsAreExpensive) {
  DexBuilder B;
  NativeId Sin = B.addNative("sin", 1, true);
  MethodId WithNative = B.declareFunction(InvalidId, "withNative", 1, true);
  {
    FunctionBuilder F = B.beginBody(WithNative);
    RegIdx R = F.newReg();
    F.invokeNative(R, Sin, {F.param(0)});
    F.ret(R);
    B.endBody(F);
  }
  MethodId Plain = B.declareFunction(InvalidId, "plain", 1, true);
  {
    FunctionBuilder F = B.beginBody(Plain);
    RegIdx R = F.newReg();
    F.addF(R, F.param(0), F.param(0));
    F.ret(R);
    B.endBody(F);
  }
  VmEnv Env(B.build());
  uint64_t NativeCycles =
      Env.run("withNative", {Value::fromF64(0.5)}).Cycles;
  uint64_t PlainCycles = Env.run("plain", {Value::fromF64(0.5)}).Cycles;
  EXPECT_GT(NativeCycles, PlainCycles + 100);
}

// --- Traps ---------------------------------------------------------------------

TEST(Traps, DivByZero) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "div", 2, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx R = F.newReg();
  F.divI(R, F.param(0), F.param(1));
  F.ret(R);
  B.endBody(F);
  VmEnv Env(B.build());

  EXPECT_EQ(Env.run("div", {Value::fromI64(10), Value::fromI64(2)})
                .Ret.asI64(),
            5);
  CallResult Res = Env.run("div", {Value::fromI64(10), Value::fromI64(0)});
  EXPECT_EQ(Res.Trap, TrapKind::DivByZero);
}

TEST(Traps, OutOfBounds) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "oob", 1, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Arr = F.newReg(), Ten = F.immI(10), V = F.newReg();
  F.newArray(Arr, Ten, Type::I64);
  F.aload(V, Arr, F.param(0), Type::I64);
  F.ret(V);
  B.endBody(F);
  VmEnv Env(B.build());

  EXPECT_TRUE(Env.run("oob", {Value::fromI64(9)}).ok());
  EXPECT_EQ(Env.run("oob", {Value::fromI64(10)}).Trap,
            TrapKind::OutOfBounds);
  EXPECT_EQ(Env.run("oob", {Value::fromI64(-1)}).Trap,
            TrapKind::OutOfBounds);
}

TEST(Traps, NullPointer) {
  DexBuilder B;
  ClassId C = B.addClass("Box");
  FieldId Fd = B.addField(C, "v", Type::I64);
  MethodId M = B.declareFunction(InvalidId, "deref", 0, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Obj = F.newReg(), V = F.newReg();
  F.constNull(Obj);
  F.getField(V, Obj, Fd);
  F.ret(V);
  B.endBody(F);
  VmEnv Env(B.build());

  EXPECT_EQ(Env.run("deref").Trap, TrapKind::NullPointer);
}

TEST(Traps, StackOverflow) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "inf", 0, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx R = F.newReg();
  F.invokeStatic(R, M, {});
  F.ret(R);
  B.endBody(F);
  VmEnv Env(B.build());

  EXPECT_EQ(Env.run("inf").Trap, TrapKind::StackOverflow);
}

TEST(Traps, TimeoutOnInfiniteLoop) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "spin", 0, false);
  FunctionBuilder F = B.beginBody(M);
  auto L = F.newLabel();
  F.bind(L);
  F.jump(L);
  F.retVoid();
  B.endBody(F);
  RuntimeConfig Config;
  Config.InsnBudget = 10000;
  VmEnv Env(B.build(), Config);

  CallResult R = Env.run("spin");
  EXPECT_EQ(R.Trap, TrapKind::Timeout);
  EXPECT_LE(R.Insns, 10001u);
}

TEST(Traps, OutOfMemory) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "hog", 0, false);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Arr = F.newReg(), Big = F.immI(1 << 20);
  auto L = F.newLabel();
  F.bind(L);
  F.newArray(Arr, Big, Type::F64);
  F.jump(L);
  F.retVoid();
  B.endBody(F);
  RuntimeConfig Config;
  Config.HeapLimitBytes = 4 * 1024 * 1024;
  VmEnv Env(B.build(), Config);

  EXPECT_EQ(Env.run("hog").Trap, TrapKind::OutOfMemory);
}

// --- GC model -------------------------------------------------------------------

TEST(GcModel, LoopAllocationTriggersCollections) {
  DexBuilder B;
  MethodId M = B.declareFunction(InvalidId, "churn", 1, false);
  FunctionBuilder F = B.beginBody(M);
  RegIdx I = F.newReg(), One = F.immI(1), Arr = F.newReg(),
         Sz = F.immI(512);
  F.constI(I, 0);
  auto Head = F.newLabel(), Done = F.newLabel();
  F.bind(Head);
  F.ifGe(I, F.param(0), Done);
  F.newArray(Arr, Sz, Type::I64);
  F.addI(I, I, One);
  F.jump(Head);
  F.bind(Done);
  F.retVoid();
  B.endBody(F);

  RuntimeConfig Config;
  Config.HeapLimitBytes = 32 * 1024 * 1024;
  Config.GcThresholdBytes = 256 * 1024;
  VmEnv Env(B.build(), Config);

  // ~700 * 4KB+ allocations cross the 256KB threshold repeatedly.
  CallResult R = Env.run("churn", {Value::fromI64(700)});
  ASSERT_TRUE(R.ok());
  EXPECT_GE(Env.RT->heap().gcRuns(), 5u);
}

// --- Profiling / accounting ------------------------------------------------------

TEST(Profiling, MethodCyclesAccumulate) {
  DexBuilder B;
  defineSumTo(B);
  RuntimeConfig Config;
  Config.AttributeCycles = true;
  VmEnv Env(B.build(), Config);

  Env.run("sumTo", {Value::fromI64(500)});
  MethodId Id = Env.File.findMethod("sumTo");
  EXPECT_GT(Env.RT->methodCycles()[Id], 1000u);
  Env.RT->resetProfile();
  EXPECT_EQ(Env.RT->methodCycles()[Id], 0u);
}

TEST(Accounting, CyclesScaleWithWork) {
  DexBuilder B;
  defineSumTo(B);
  VmEnv Env(B.build());
  uint64_t Small = Env.run("sumTo", {Value::fromI64(10)}).Cycles;
  uint64_t Large = Env.run("sumTo", {Value::fromI64(1000)}).Cycles;
  EXPECT_GT(Large, Small * 20);
  EXPECT_EQ(Env.RT->totalCycles(), Small + Large);
}

TEST(Accounting, DeterministicAcrossRuns) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  auto RunOnce = [&File]() {
    os::AddressSpace Space;
    NativeRegistry Natives = NativeRegistry::standardLibrary();
    RuntimeConfig Config;
    Runtime::mapStandardLayout(Space, File, Config);
    Runtime RT(Space, File, Natives, Config);
    return RT.call(File.findMethod("sumTo"), {Value::fromI64(333)});
  };
  CallResult A = RunOnce(), B2 = RunOnce();
  EXPECT_EQ(A.Cycles, B2.Cycles);
  EXPECT_EQ(A.Insns, B2.Insns);
  EXPECT_EQ(A.Ret.asI64(), B2.Ret.asI64());
}

// --- Observer hooks -------------------------------------------------------------

namespace {

struct RecordingObserver : ExecObserver {
  std::vector<std::pair<uint32_t, ClassId>> Dispatches;
  std::vector<uint64_t> Writes;
  void onVirtualDispatch(MethodId, uint32_t Pc, ClassId Cls) override {
    Dispatches.emplace_back(Pc, Cls);
  }
  void onCellWrite(uint64_t Addr) override { Writes.push_back(Addr); }
};

} // namespace

TEST(Observer, SeesDispatchesAndWrites) {
  DexBuilder B;
  ClassId Base = B.addClass("Base");
  ClassId Derived = B.addClass("Derived", Base);
  MethodId V = B.declareVirtual(Base, "f", 1, true);
  MethodId DV = B.declareVirtual(Derived, "f", 1, true);
  for (MethodId Id : {V, DV}) {
    FunctionBuilder F = B.beginBody(Id);
    RegIdx R = F.immI(Id == V ? 1 : 2);
    F.ret(R);
    B.endBody(F);
  }
  MethodId Main = B.declareFunction(InvalidId, "main", 0, true);
  {
    FunctionBuilder F = B.beginBody(Main);
    RegIdx Obj = F.newReg(), R = F.newReg(), Arr = F.newReg(),
           Two = F.immI(2);
    F.newInstance(Obj, Derived);
    F.invokeVirtual(R, V, {Obj});
    F.newArray(Arr, Two, Type::I64);
    RegIdx Zero = F.immI(0);
    F.astore(Arr, Zero, R, Type::I64);
    F.ret(R);
    B.endBody(F);
  }
  VmEnv Env(B.build());
  RecordingObserver Obs;
  Env.RT->setObserver(&Obs);

  CallResult R = Env.run("main");
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Ret.asI64(), 2); // dispatched to Derived.f
  ASSERT_EQ(Obs.Dispatches.size(), 1u);
  EXPECT_EQ(Obs.Dispatches[0].second, Derived);
  EXPECT_FALSE(Obs.Writes.empty());
}

// --- mapStandardLayout ------------------------------------------------------------

TEST(Layout, StandardMappingsPresent) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();
  os::AddressSpace Space;
  RuntimeConfig Config;
  Runtime::mapStandardLayout(Space, File, Config);

  auto Maps = Space.procMaps();
  EXPECT_EQ(Maps.size(), 5u);
  EXPECT_TRUE(Space.isMapped(Layout::HeapBase));
  EXPECT_TRUE(Space.isMapped(Layout::RuntimeImageBase));
  EXPECT_TRUE(Space.isMapped(Layout::DataBase));
}

TEST(Layout, RuntimeImageDependsOnlyOnBootId) {
  DexBuilder B;
  defineSumTo(B);
  DexFile File = B.build();

  auto Boot = [&File](uint64_t BootId, os::AddressSpace &Space) {
    RuntimeConfig Config;
    Config.BootId = BootId;
    Runtime::mapStandardLayout(Space, File, Config);
  };
  auto ImageBytes = [&Boot](uint64_t BootId) {
    os::AddressSpace Space;
    Boot(BootId, Space);
    std::vector<uint8_t> Bytes(256);
    Space.peek(Layout::RuntimeImageBase, Bytes.data(), Bytes.size());
    return Bytes;
  };

  EXPECT_EQ(ImageBytes(1), ImageBytes(1));
  EXPECT_NE(ImageBytes(1), ImageBytes(2));

  // One image per boot, shared by every space: the same physical pages
  // for the same BootId, different ones for another boot.
  os::AddressSpace First, Second, OtherBoot;
  Boot(1, First);
  Boot(1, Second);
  Boot(2, OtherBoot);
  for (uint64_t Offset : {uint64_t(0), Layout::RuntimeImageSize - 8}) {
    uint64_t Addr = Layout::RuntimeImageBase + Offset;
    ASSERT_NE(First.physicalPage(Addr), nullptr);
    EXPECT_EQ(First.physicalPage(Addr), Second.physicalPage(Addr));
    EXPECT_NE(First.physicalPage(Addr), OtherBoot.physicalPage(Addr));
  }
  EXPECT_EQ(Runtime::imagePages(1).size() * os::PageSize,
            Layout::RuntimeImageSize);

  // The content is the boot id's word stream, in address order.
  for (uint64_t BootId : {1, 2}) {
    os::AddressSpace Space;
    Boot(BootId, Space);
    Rng Stream(0xb007ULL * 2654435761ULL + BootId);
    uint64_t Word = 0;
    for (uint64_t Offset = 0; Offset != 64; Offset += 8) {
      ASSERT_TRUE(Space.peek(Layout::RuntimeImageBase + Offset, &Word, 8));
      EXPECT_EQ(Word, Stream.next()) << "boot " << BootId << " +" << Offset;
    }
    for (uint64_t Offset = 72; Offset != Layout::RuntimeImageSize;
         Offset += 8)
      Stream.next();
    ASSERT_TRUE(Space.peek(Layout::RuntimeImageBase +
                               Layout::RuntimeImageSize - 8,
                           &Word, 8));
    EXPECT_EQ(Word, Stream.next()) << "boot " << BootId << " last word";
  }
}

// --- Linear-scan register allocation ----------------------------------------

TEST(LinearScan, MultiWordLivenessKeepsOverlappingIntervalsApart) {
  // wide(n): 80 loop-invariant constants and 80 loop-local products are
  // all live at once, so liveness spans several 64-bit words; 80 more
  // short-lived products after them can reuse registers.
  constexpr int Width = 80;
  DexBuilder B;
  {
    FunctionBuilder F =
        B.beginBody(B.declareFunction(InvalidId, "wide", 1, true));
    RegIdx Acc = F.newReg(), I = F.newReg(), One = F.immI(1);
    std::vector<RegIdx> K, P;
    for (int J = 0; J != Width; ++J)
      K.push_back(F.immI(J + 1));
    for (int J = 0; J != Width; ++J)
      P.push_back(F.newReg());
    F.constI(Acc, 0);
    F.constI(I, 0);
    auto Head = F.newLabel(), Exit = F.newLabel();
    F.bind(Head);
    F.ifGe(I, F.param(0), Exit);
    for (int J = 0; J != Width; ++J)
      F.mulI(P[J], I, K[J]);
    for (int J = Width; J-- > 0;)
      F.addI(Acc, Acc, P[J]);
    for (int J = 0; J != Width; ++J) {
      RegIdx T = F.newReg();
      F.mulI(T, I, K[J]);
      F.addI(Acc, Acc, T);
    }
    F.addI(I, I, One);
    F.jump(Head);
    F.bind(Exit);
    F.ret(Acc);
    B.endBody(F);
  }
  DexFile File = B.build();
  hgraph::HGraph G = hgraph::buildHGraph(File, File.findMethod("wide"));
  std::shared_ptr<MachineFunction> None =
      hgraph::emitMachine(G, hgraph::RegAllocKind::None);
  std::shared_ptr<MachineFunction> Scan =
      hgraph::emitMachine(G, hgraph::RegAllocKind::LinearScan);
  ASSERT_GT(None->NumRegs, 2 * 64);
  EXPECT_LT(Scan->NumRegs, None->NumRegs);

  // Same behaviour as the unallocated code (and the interpreter).
  const int64_t N = 7,
                Want = Width * (Width + 1) * (N * (N - 1) / 2); // 2 passes
  for (const std::shared_ptr<MachineFunction> &Fn : {None, Scan}) {
    VmEnv Env(File);
    Env.RT->codeCache().install(Fn);
    CallResult R = Env.run("wide", {Value::fromI64(N)});
    ASSERT_TRUE(R.ok());
    EXPECT_EQ(R.Ret.asI64(), Want);
  }
  {
    VmEnv Env(File);
    EXPECT_EQ(Env.run("wide", {Value::fromI64(N)}).Ret.asI64(), Want);
  }

  // Allocation only renames registers: recover the old -> new map.
  ASSERT_EQ(None->Code.size(), Scan->Code.size());
  size_t Len = None->Code.size();
  auto Operands = [](const MInsn &I) {
    std::vector<MRegIdx> Regs;
    if (definesA(I))
      Regs.push_back(I.A);
    forEachUse(I, [&Regs](MRegIdx R) { Regs.push_back(R); });
    return Regs;
  };
  std::vector<MRegIdx> Assign(None->NumRegs, MNoReg);
  for (MRegIdx P = 0; P != None->ParamCount; ++P)
    Assign[P] = P;
  for (size_t Pc = 0; Pc != Len; ++Pc) {
    ASSERT_EQ(None->Code[Pc].Op, Scan->Code[Pc].Op);
    std::vector<MRegIdx> Old = Operands(None->Code[Pc]),
                         New = Operands(Scan->Code[Pc]);
    ASSERT_EQ(Old.size(), New.size());
    for (size_t K = 0; K != Old.size(); ++K) {
      if (Assign[Old[K]] == MNoReg)
        Assign[Old[K]] = New[K];
      ASSERT_EQ(Assign[Old[K]], New[K]) << "r" << Old[K] << " at " << Pc;
    }
  }

  // Reference liveness on the unallocated code, one bool per register,
  // then the allocator's intervals: params from 0, plus every position a
  // register is live-in, defined or used.
  std::vector<std::vector<bool>> LiveIn(
      Len + 1, std::vector<bool>(None->NumRegs, false));
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (size_t Pc = Len; Pc-- > 0;) {
      const MInsn &I = None->Code[Pc];
      std::vector<bool> In(None->NumRegs, false);
      if (I.Op != MOpcode::MGoto && I.Op != MOpcode::MRet &&
          I.Op != MOpcode::MRetVoid)
        In = LiveIn[Pc + 1];
      if ((isMBranch(I.Op) || I.Op == MOpcode::MGuardClass) && I.Target >= 0)
        for (MRegIdx R = 0; R != None->NumRegs; ++R)
          if (LiveIn[static_cast<size_t>(I.Target)][R])
            In[R] = true;
      if (definesA(I))
        In[I.A] = false;
      forEachUse(I, [&In](MRegIdx R) { In[R] = true; });
      if (In != LiveIn[Pc]) {
        LiveIn[Pc] = In;
        Changed = true;
      }
    }
  }
  std::vector<int64_t> Start(None->NumRegs, -1), End(None->NumRegs, -1);
  auto Touch = [&](MRegIdx R, int64_t Pos) {
    if (Start[R] < 0 || Pos < Start[R])
      Start[R] = Pos;
    End[R] = std::max(End[R], Pos);
  };
  for (MRegIdx P = 0; P != None->ParamCount; ++P)
    Touch(P, 0);
  for (size_t Pc = 0; Pc != Len; ++Pc) {
    for (MRegIdx R = 0; R != None->NumRegs; ++R)
      if (LiveIn[Pc][R])
        Touch(R, static_cast<int64_t>(Pc));
    for (MRegIdx R : Operands(None->Code[Pc]))
      Touch(R, static_cast<int64_t>(Pc));
  }
  for (MRegIdx X = 0; X != None->NumRegs; ++X)
    for (MRegIdx Y = X + 1; Y < None->NumRegs; ++Y)
      if (Start[X] >= 0 && Start[Y] >= 0 && Start[X] <= End[Y] &&
          Start[Y] <= End[X])
        EXPECT_NE(Assign[X], Assign[Y])
            << "r" << X << " [" << Start[X] << "," << End[X] << "] and r"
            << Y << " [" << Start[Y] << "," << End[Y] << "]";
}

// --- Integer semantics: folder == interpreter == executor --------------------

TEST(IntSemantics, FolderInterpreterAndExecutorAgreeOnEdgeOperands) {
  // One method `name(a, b)` per integer op (neg ignores b), plus f2i(d).
  using FB = FunctionBuilder;
  const struct {
    const char *Name;
    MOpcode Op;                               ///< What the folders see.
    void (FB::*Emit)(RegIdx, RegIdx, RegIdx); ///< Null for neg.
  } Cases[] = {
      {"add", MOpcode::MAddI, &FB::addI}, {"sub", MOpcode::MSubI, &FB::subI},
      {"mul", MOpcode::MMulI, &FB::mulI}, {"div", MOpcode::MDivI, &FB::divI},
      {"rem", MOpcode::MRemI, &FB::remI}, {"and", MOpcode::MAndI, &FB::andI},
      {"or", MOpcode::MOrI, &FB::orI},    {"xor", MOpcode::MXorI, &FB::xorI},
      {"shl", MOpcode::MShlI, &FB::shlI}, {"shr", MOpcode::MShrI, &FB::shrI},
      {"neg", MOpcode::MNegI, nullptr}};
  DexBuilder B;
  for (const auto &C : Cases) {
    FB F = B.beginBody(B.declareFunction(InvalidId, C.Name, 2, true));
    RegIdx R = F.newReg();
    if (C.Emit)
      (F.*C.Emit)(R, F.param(0), F.param(1));
    else
      F.negI(R, F.param(0));
    F.ret(R);
    B.endBody(F);
  }
  {
    FB F = B.beginBody(B.declareFunction(InvalidId, "f2i", 1, true));
    RegIdx R = F.newReg();
    F.f2i(R, F.param(0));
    F.ret(R);
    B.endBody(F);
  }
  DexFile File = B.build();

  VmEnv Interp(File);
  Interp.RT->setMode(ExecMode::InterpretOnly);
  VmEnv Compiled(File);
  std::vector<MethodId> All;
  for (const auto &M : File.methods())
    All.push_back(M.Id);
  hgraph::compileAllAndroid(File, All, Compiled.RT->codeCache());
  for (MethodId Id : All)
    ASSERT_NE(Compiled.RT->codeCache().lookup(Id), nullptr);

  constexpr int64_t Min = std::numeric_limits<int64_t>::min();
  constexpr int64_t Max = std::numeric_limits<int64_t>::max();
  constexpr int64_t P31 = int64_t(1) << 31, P32 = int64_t(1) << 32;
  const std::vector<int64_t> Edges = {0,   1,    -1,  Min, Max,
                                      P31, -P31, P32, -P32};
  std::vector<std::pair<int64_t, int64_t>> Operands;
  for (int64_t X : Edges)
    for (int64_t Y : Edges)
      Operands.push_back({X, Y});
  // Seeded random pairs mixing edges with raw 64-bit draws (which also
  // exercise shift counts outside 0..63).
  Rng R(12);
  auto Draw = [&]() -> int64_t {
    return R.below(2) ? Edges[R.below(Edges.size())]
                      : static_cast<int64_t>(R.next());
  };
  for (int I = 0; I != 500; ++I)
    Operands.push_back({Draw(), Draw()});

  for (const auto &C : Cases) {
    bool IsDiv = C.Op == MOpcode::MDivI || C.Op == MOpcode::MRemI;
    for (auto [X, Y] : Operands) {
      std::vector<Value> Args = {Value::fromI64(X), Value::fromI64(Y)};
      CallResult I = Interp.run(C.Name, Args);
      CallResult E = Compiled.run(C.Name, Args);
      std::string Where = std::string(C.Name) + "(" + std::to_string(X) +
                          ", " + std::to_string(Y) + ")";
      ASSERT_EQ(I.Trap, IsDiv && Y == 0 ? TrapKind::DivByZero
                                        : TrapKind::None)
          << Where;
      ASSERT_EQ(E.Trap, I.Trap) << Where;
      if (I.Trap != TrapKind::None)
        continue;
      // The folders never fold div/rem (a zero divisor keeps its trap),
      // so those compare against the shared Java definitions instead.
      std::optional<int64_t> Folded = vm::foldIntOp(C.Op, X, Y);
      EXPECT_EQ(Folded.has_value(), !IsDiv && C.Op != MOpcode::MNegI);
      int64_t Want = C.Op == MOpcode::MNegI ? vm::wrapNeg(X)
                     : C.Op == MOpcode::MDivI ? vm::javaDiv(X, Y)
                     : C.Op == MOpcode::MRemI ? vm::javaRem(X, Y)
                                              : *Folded;
      EXPECT_EQ(I.Ret.asI64(), Want) << Where;
      EXPECT_EQ(E.Ret.asI64(), Want) << Where;
    }
  }

  // double -> long saturates and maps NaN to 0 in both tiers.
  constexpr double Inf = std::numeric_limits<double>::infinity();
  std::vector<double> Doubles = {
      0.0, -0.0, 0.5, -1.5, 2147483648.5, -4294967296.25,
      9.2233720368547758e18, -9.2233720368547758e18, Inf, -Inf,
      std::numeric_limits<double>::quiet_NaN()};
  for (int I = 0; I != 100; ++I)
    Doubles.push_back(R.uniform(-1e19, 1e19));
  for (double D : Doubles) {
    std::vector<Value> Args = {Value::fromF64(D)};
    EXPECT_EQ(Interp.run("f2i", Args).Ret.asI64(), vm::doubleToInt(D)) << D;
    EXPECT_EQ(Compiled.run("f2i", Args).Ret.asI64(), vm::doubleToInt(D))
        << D;
  }

  // The agreed semantics are Java's: wrapping, and INT64_MIN / -1 wraps.
  EXPECT_EQ(vm::wrapAdd(Max, 1), Min);
  EXPECT_EQ(vm::wrapNeg(Min), Min);
  EXPECT_EQ(vm::wrapMul(P32, P32), 0);
  EXPECT_EQ(vm::javaDiv(Min, -1), Min);
  EXPECT_EQ(vm::javaRem(Min, -1), 0);
  EXPECT_EQ(vm::shiftLeft(1, 64), 1);
  EXPECT_EQ(vm::doubleToInt(std::numeric_limits<double>::quiet_NaN()), 0);
  EXPECT_EQ(vm::doubleToInt(Inf), Max);
  EXPECT_EQ(vm::doubleToInt(-Inf), Min);
}

// --- Executor golden values --------------------------------------------------
//
// The executor's observable output pinned to values recorded from the
// straightforward MInsn loop it replaced: every CallResult field and the
// whole AttributeCycles profile (exclusive cycles and feature counters per
// method). A different charge, count, trap or attribution order changes a
// row. Each case runs twice, profiling off and on, and the two CallResults
// must agree: profiling never perturbs the cost model.

namespace {

struct GoldenRow {
  std::string Case;
  std::string Trap;
  uint64_t Ret = 0;
  uint64_t Cycles = 0;
  uint64_t Insns = 0;
  uint64_t Profile = 0; ///< FNV-1a over methodCycles() and methodFeatures().

  bool operator==(const GoldenRow &) const = default;
};

std::ostream &operator<<(std::ostream &OS, const GoldenRow &R) {
  return OS << "{\"" << R.Case << "\", \"" << R.Trap << "\", 0x" << std::hex
            << R.Ret << "ULL, " << std::dec << R.Cycles << "ULL, " << R.Insns
            << "ULL, 0x" << std::hex << R.Profile << "ULL}" << std::dec;
}

uint64_t profileHash(const Runtime &RT) {
  uint64_t H = 1469598103934665603ULL;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ULL;
  };
  for (uint64_t C : RT.methodCycles())
    Mix(C);
  for (const MethodFeatureCounters &F : RT.methodFeatures())
    for (uint64_t V : {F.Insns, F.Branches, F.Mispredicts, F.MemReads,
                       F.MemWrites, F.CacheMisses, F.Allocs, F.AllocSlots,
                       F.NativeCycles})
      Mix(V);
  return H;
}

/// One executor scenario: a program, the code to install, the calls to
/// make (the last one's CallResult is pinned; the profile covers all).
struct ExecCase {
  std::string Name;
  std::shared_ptr<const DexFile> File;
  RuntimeConfig Config;
  std::function<void(Runtime &)> Install;
  std::function<CallResult(Runtime &)> Run;
};

GoldenRow runCase(const ExecCase &C) {
  GoldenRow Row;
  CallResult Plain;
  for (bool Attribute : {false, true}) {
    RuntimeConfig Config = C.Config;
    Config.AttributeCycles = Attribute;
    os::AddressSpace Space;
    NativeRegistry Natives = NativeRegistry::standardLibrary();
    Runtime::mapStandardLayout(Space, *C.File, Config);
    Runtime RT(Space, *C.File, Natives, Config);
    C.Install(RT);
    CallResult R = C.Run(RT);
    if (!Attribute) {
      Plain = R;
      continue;
    }
    EXPECT_EQ(R.Trap, Plain.Trap) << C.Name;
    EXPECT_EQ(R.Ret.Raw, Plain.Ret.Raw) << C.Name;
    EXPECT_EQ(R.Cycles, Plain.Cycles) << C.Name;
    EXPECT_EQ(R.Insns, Plain.Insns) << C.Name;
    Row = {C.Name, trapKindName(R.Trap), R.Ret.Raw, R.Cycles, R.Insns,
           profileHash(RT)};
  }
  return Row;
}

MInsn gi(MOpcode Op, MRegIdx A = MNoReg, MRegIdx B = MNoReg,
         MRegIdx C = MNoReg) {
  MInsn I;
  I.Op = Op;
  I.A = A;
  I.B = B;
  I.C = C;
  return I;
}

MInsn gimm(MRegIdx A, int64_t V) {
  MInsn I = gi(MOpcode::MMovImmI, A);
  I.ImmI = V;
  return I;
}

MInsn gjump(MOpcode Op, int32_t Target, MRegIdx B = MNoReg,
            MRegIdx C = MNoReg) {
  MInsn I = gi(Op, MNoReg, B, C);
  I.Target = Target;
  return I;
}

/// Installs \p Code as the compiled body of \p Method (declared in the dex
/// file with a placeholder bytecode body).
void installHand(Runtime &RT, MethodId Method, uint16_t NumRegs,
                 uint16_t Params, std::vector<MInsn> Code) {
  auto Fn = std::make_shared<MachineFunction>();
  Fn->Method = Method;
  Fn->Name = "hand";
  Fn->NumRegs = NumRegs;
  Fn->ParamCount = Params;
  Fn->ReturnsValue = true;
  Fn->Code = std::move(Code);
  RT.codeCache().install(std::move(Fn));
}

void compileAllAndroidInto(Runtime &RT) {
  std::vector<MethodId> All;
  for (const auto &M : RT.dexFile().methods())
    if (!M.IsNative)
      All.push_back(M.Id);
  hgraph::compileAllAndroid(RT.dexFile(), All, RT.codeCache());
}

/// Seeded LIR genome over every method of a Scimark app: init, then two
/// sessions, all through the compiled code.
ExecCase appCase(const std::string &AppName, uint64_t Seed) {
  auto App = std::make_shared<workloads::Application>(
      workloads::buildByName(AppName));
  ExecCase C;
  C.Name = AppName + "/genome" + std::to_string(Seed);
  C.File = App->File;
  C.Config = App->RtConfig;
  C.Install = [Seed](Runtime &RT) {
    Rng R(Seed);
    search::Genome G = search::randomGenome(R, search::GenomeConfig());
    lir::CompileOptions Options;
    Options.Pipeline = G.Passes;
    Options.RegAlloc = G.RegAlloc;
    std::vector<MethodId> All;
    for (const auto &M : RT.dexFile().methods())
      if (!M.IsNative)
        All.push_back(M.Id);
    lir::compileAllLlvm(RT.dexFile(), All, Options, RT.codeCache());
  };
  C.Run = [App](Runtime &RT) {
    RT.call(App->InitEntry, App->argsFor(App->InitParam));
    RT.call(App->SessionEntry, App->argsFor(App->DefaultParam));
    return RT.call(App->SessionEntry, App->argsFor(App->DefaultParam + 1));
  };
  return C;
}

/// Static and virtual calls: main(k) allocates a Square or Circle, sets
/// its size through a static helper and dispatches area() virtually.
std::shared_ptr<const DexFile> callsProgram() {
  DexBuilder B;
  ClassId Shape = B.addClass("Shape");
  ClassId Square = B.addClass("Square", Shape);
  ClassId Circle = B.addClass("Circle", Shape);
  FieldId Size = B.addField(Shape, "size", Type::I64);
  MethodId Area = B.declareVirtual(Shape, "area", 1, true);
  MethodId SquareArea = B.declareVirtual(Square, "area", 1, true);
  MethodId CircleArea = B.declareVirtual(Circle, "area", 1, true);
  MethodId Scale = B.declareFunction(InvalidId, "scale", 2, true);
  {
    FunctionBuilder F = B.beginBody(Area);
    F.ret(F.immI(0));
    B.endBody(F);
  }
  {
    FunctionBuilder F = B.beginBody(SquareArea);
    RegIdx S = F.newReg();
    F.getField(S, F.param(0), Size);
    F.mulI(S, S, S);
    F.ret(S);
    B.endBody(F);
  }
  {
    FunctionBuilder F = B.beginBody(CircleArea);
    RegIdx S = F.newReg(), Three = F.immI(3);
    F.getField(S, F.param(0), Size);
    F.mulI(S, S, S);
    F.mulI(S, S, Three);
    F.ret(S);
    B.endBody(F);
  }
  {
    FunctionBuilder F = B.beginBody(Scale);
    RegIdx S = F.newReg();
    F.mulI(S, F.param(0), F.param(1));
    F.ret(S);
    B.endBody(F);
  }
  MethodId Main = B.declareFunction(InvalidId, "main", 1, true);
  {
    FunctionBuilder F = B.beginBody(Main);
    RegIdx Obj = F.newReg(), R = F.newReg(), Acc = F.newReg(),
           I = F.newReg(), One = F.immI(1), Ten = F.immI(10);
    auto UseCircle = F.newLabel(), Call = F.newLabel();
    F.ifNez(F.param(0), UseCircle);
    F.newInstance(Obj, Square);
    F.jump(Call);
    F.bind(UseCircle);
    F.newInstance(Obj, Circle);
    F.bind(Call);
    F.constI(Acc, 0);
    F.constI(I, 0);
    auto Head = F.newLabel(), Exit = F.newLabel();
    F.bind(Head);
    F.ifGe(I, Ten, Exit);
    RegIdx Sz = F.newReg();
    F.invokeStatic(Sz, Scale, {I, F.param(0)});
    F.putField(Obj, Size, Sz);
    F.invokeVirtual(R, Area, {Obj});
    F.addI(Acc, Acc, R);
    F.addI(I, I, One);
    F.jump(Head);
    F.bind(Exit);
    F.ret(Acc);
    B.endBody(F);
  }
  return std::make_shared<const DexFile>(B.build());
}

/// clock(n): ~2.5M cycles of loop work, then currentTimeMillis(), whose
/// result is the runtime's lifetime cycle count at the call.
std::shared_ptr<const DexFile> clockProgram() {
  DexBuilder B;
  NativeId Now = B.addNative("currentTimeMillis", 0, true);
  MethodId M = B.declareFunction(InvalidId, "clock", 1, true);
  FunctionBuilder F = B.beginBody(M);
  RegIdx Sum = F.newReg(), I = F.newReg(), One = F.immI(1),
         T = F.newReg();
  F.constI(Sum, 0);
  F.constI(I, 0);
  auto Head = F.newLabel(), Exit = F.newLabel();
  F.bind(Head);
  F.ifGe(I, F.param(0), Exit);
  F.mulI(T, I, I);
  F.addI(Sum, Sum, T);
  F.addI(I, I, One);
  F.jump(Head);
  F.bind(Exit);
  F.invokeNative(T, Now, {});
  F.mulI(T, T, F.immI(1000000));
  F.addI(Sum, Sum, T);
  F.ret(Sum);
  B.endBody(F);
  return std::make_shared<const DexFile>(B.build());
}

/// A dex file declaring stub(a, b) and add2(a, b) — add2 with a real body,
/// stub's body replaced by hand-written machine code in each case.
std::shared_ptr<const DexFile> stubProgram() {
  DexBuilder B;
  for (const char *Name : {"stub", "add2"}) {
    FunctionBuilder F =
        B.beginBody(B.declareFunction(InvalidId, Name, 2, true));
    RegIdx S = F.newReg();
    F.addI(S, F.param(0), F.param(1));
    F.ret(S);
    B.endBody(F);
  }
  return std::make_shared<const DexFile>(B.build());
}

ExecCase handCase(const std::string &Name, uint16_t NumRegs,
                  std::vector<MInsn> Code, std::vector<Value> Args,
                  uint64_t Budget = RuntimeConfig().InsnBudget) {
  ExecCase C;
  C.Name = Name;
  C.File = stubProgram();
  C.Config.InsnBudget = Budget;
  C.Install = [Code, NumRegs](Runtime &RT) {
    compileAllAndroidInto(RT);
    installHand(RT, RT.dexFile().findMethod("stub"), NumRegs, 2, Code);
  };
  C.Run = [Args](Runtime &RT) {
    return RT.call(RT.dexFile().findMethod("stub"), Args);
  };
  return C;
}

std::vector<ExecCase> goldenCases() {
  std::vector<ExecCase> Cases;
  for (const char *App : {"FFT", "SOR", "Sparse matmult"})
    for (uint64_t Seed : {11, 12, 13})
      Cases.push_back(appCase(App, Seed));

  // A RegAllocKind::None frame: >128 virtual registers, most spilled.
  {
    DexBuilder B;
    FunctionBuilder F =
        B.beginBody(B.declareFunction(InvalidId, "wide", 1, true));
    RegIdx Acc = F.newReg(), I = F.newReg(), One = F.immI(1);
    std::vector<RegIdx> K;
    for (int J = 0; J != 40; ++J)
      K.push_back(F.immI(J + 1));
    F.constI(Acc, 0);
    F.constI(I, 0);
    auto Head = F.newLabel(), Exit = F.newLabel();
    F.bind(Head);
    F.ifGe(I, F.param(0), Exit);
    for (int J = 0; J != 40; ++J) {
      RegIdx T = F.newReg();
      F.mulI(T, I, K[J]);
      F.addI(Acc, Acc, T);
    }
    F.addI(I, I, One);
    F.jump(Head);
    F.bind(Exit);
    F.ret(Acc);
    B.endBody(F);
    ExecCase C;
    C.Name = "spilled-none";
    C.File = std::make_shared<const DexFile>(B.build());
    C.Install = [](Runtime &RT) {
      MethodId Wide = RT.dexFile().findMethod("wide");
      RT.codeCache().install(hgraph::emitMachine(
          hgraph::buildHGraph(RT.dexFile(), Wide),
          hgraph::RegAllocKind::None));
    };
    C.Run = [](Runtime &RT) {
      return RT.call(RT.dexFile().findMethod("wide"), {Value::fromI64(9)});
    };
    Cases.push_back(C);
  }
  // Call arguments and results in spilled registers.
  {
    std::vector<MInsn> Code = {gimm(30, 5), gimm(31, 7)};
    MInsn Call = gi(MOpcode::MCallStatic, 32);
    Call.Idx = stubProgram()->findMethod("add2");
    Call.ArgCount = 2;
    Call.Args[0] = 30;
    Call.Args[1] = 31;
    Code.push_back(Call);
    Code.push_back(gi(MOpcode::MAddI, 33, 32, 0));
    Code.push_back(gi(MOpcode::MRet, MNoReg, 33));
    Cases.push_back(handCase("spilled-call", 40, Code,
                             {Value::fromI64(1), Value::fromI64(2)}));
  }

  for (int64_t K : {0, 1}) {
    ExecCase C;
    C.Name = "calls/main" + std::to_string(K);
    C.File = callsProgram();
    C.Install = compileAllAndroidInto;
    C.Run = [K](Runtime &RT) {
      return RT.call(RT.dexFile().findMethod("main"), {Value::fromI64(K)});
    };
    Cases.push_back(C);
  }
  // The budget runs out in main and in each nested frame.
  for (uint64_t Budget : {40, 41, 42, 43, 44, 45, 46, 47, 200}) {
    ExecCase C;
    C.Name = "calls/budget" + std::to_string(Budget);
    C.File = callsProgram();
    C.Config.InsnBudget = Budget;
    C.Install = compileAllAndroidInto;
    C.Run = [](Runtime &RT) {
      return RT.call(RT.dexFile().findMethod("main"), {Value::fromI64(1)});
    };
    Cases.push_back(C);
  }

  {
    ExecCase C;
    C.Name = "native-now";
    C.File = clockProgram();
    C.Install = compileAllAndroidInto;
    C.Run = [](Runtime &RT) {
      MethodId Clock = RT.dexFile().findMethod("clock");
      RT.call(Clock, {Value::fromI64(1000)});
      return RT.call(Clock, {Value::fromI64(300000)});
    };
    Cases.push_back(C);
  }

  // sumTo(20) takes exactly 106 instructions compiled: a budget of 106
  // completes, 105 times out on the last instruction.
  for (uint64_t Budget : {105, 106}) {
    DexBuilder B;
    defineSumTo(B);
    ExecCase C;
    C.Name = "sumTo/budget" + std::to_string(Budget);
    C.File = std::make_shared<const DexFile>(B.build());
    C.Config.InsnBudget = Budget;
    C.Install = compileAllAndroidInto;
    C.Run = [](Runtime &RT) {
      return RT.call(RT.dexFile().findMethod("sumTo"),
                     {Value::fromI64(20)});
    };
    Cases.push_back(C);
  }

  // Unchecked division by zero traps without charging the divide.
  Cases.push_back(handCase(
      "div0", 3,
      {gimm(2, 9), gi(MOpcode::MDivI, 2, 0, 1), gi(MOpcode::MRet, MNoReg, 2)},
      {Value::fromI64(7), Value::fromI64(0)}));
  Cases.push_back(handCase(
      "rem0", 3,
      {gi(MOpcode::MRemI, 2, 0, 1), gi(MOpcode::MRet, MNoReg, 2)},
      {Value::fromI64(7), Value::fromI64(0)}));
  Cases.push_back(handCase(
      "div-ok", 3,
      {gi(MOpcode::MDivI, 2, 0, 1), gi(MOpcode::MRet, MNoReg, 2)},
      {Value::fromI64(7), Value::fromI64(2)}));

  // Branches out of range, forward and backward, and a taken guard.
  Cases.push_back(handCase(
      "goto-out", 3, {gimm(2, 1), gjump(MOpcode::MGoto, 100)},
      {Value::fromI64(0), Value::fromI64(0)}));
  Cases.push_back(handCase(
      "if-out", 3,
      {gimm(2, 1), gjump(MOpcode::MIfLt, -3, 0, 1),
       gi(MOpcode::MRet, MNoReg, 2)},
      {Value::fromI64(1), Value::fromI64(2)}));
  Cases.push_back(handCase(
      "goto-end", 3, {gimm(2, 1), gjump(MOpcode::MGoto, 2)},
      {Value::fromI64(0), Value::fromI64(0)}));

  // Falling off the end faults without counting an instruction, also
  // when the budget runs out on that very step.
  std::vector<MInsn> NoRet = {gimm(2, 3), gi(MOpcode::MAddI, 2, 2, 0),
                              gi(MOpcode::MMulI, 2, 2, 1)};
  for (uint64_t Budget : {2, 3, 4})
    Cases.push_back(handCase("fall-off/budget" + std::to_string(Budget), 3,
                             NoRet, {Value::fromI64(4), Value::fromI64(5)},
                             Budget));
  Cases.push_back(handCase("fall-off", 3, NoRet,
                           {Value::fromI64(4), Value::fromI64(5)}));
  return Cases;
}

} // namespace

TEST(ExecutorGolden, MatchesRecordedResultsAndProfiles) {
  // Recorded from the MInsn-loop executor; see the section comment.
  const std::vector<GoldenRow> Want = {
      {"FFT/genome11", "none", 0x21708ULL, 1397874ULL, 319291ULL,
       0xa6e98daf45a2e3d4ULL},
      {"FFT/genome12", "none", 0x21708ULL, 2484212ULL, 405521ULL,
       0x82c888de1627c263ULL},
      {"FFT/genome13", "none", 0x21708ULL, 1601273ULL, 397830ULL,
       0xcbdc9e9b2a9fc00bULL},
      {"SOR/genome11", "none", 0x81731ULL, 732157ULL, 50984ULL,
       0x369637de9beb4e5bULL},
      {"SOR/genome12", "none", 0x81731ULL, 669168ULL, 107059ULL,
       0xa38430b8ed74206bULL},
      {"SOR/genome13", "none", 0x81731ULL, 316568ULL, 102781ULL,
       0x7deba125f4bf0e31ULL},
      {"Sparse matmult/genome11", "none", 0x6e901ULL, 3231869ULL, 187572ULL,
       0x4e3ad02e74307fa5ULL},
      {"Sparse matmult/genome12", "none", 0x6e901ULL, 3175587ULL, 528553ULL,
       0xa63100b82fc37c85ULL},
      {"Sparse matmult/genome13", "none", 0x6e901ULL, 2061457ULL, 524943ULL,
       0x9fc784fc3cb5876bULL},
      {"spilled-none", "none", 0x7350ULL, 3401ULL, 802ULL,
       0x5279e7bb6e6e2839ULL},
      {"spilled-call", "none", 0xdULL, 37ULL, 8ULL, 0xb11452445402c124ULL},
      {"calls/main0", "none", 0x0ULL, 481ULL, 160ULL, 0xfe3354aa00ed33b5ULL},
      {"calls/main1", "none", 0x357ULL, 533ULL, 179ULL, 0xe2ef495214b12d05ULL},
      {"calls/budget40", "timeout", 0x0ULL, 148ULL, 41ULL,
       0x8adf1b5313681a7cULL},
      {"calls/budget41", "timeout", 0x0ULL, 149ULL, 42ULL,
       0x6136292e2012fc60ULL},
      {"calls/budget42", "timeout", 0x0ULL, 150ULL, 43ULL,
       0x63fe3318fc22e327ULL},
      {"calls/budget43", "timeout", 0x0ULL, 153ULL, 44ULL,
       0xa8d2619a4043e81ULL},
      {"calls/budget44", "timeout", 0x0ULL, 154ULL, 45ULL,
       0x6c7d4f9b8aff7c25ULL},
      {"calls/budget45", "timeout", 0x0ULL, 155ULL, 46ULL,
       0xd85db604a4327d75ULL},
      {"calls/budget46", "timeout", 0x0ULL, 156ULL, 47ULL,
       0x20a9d4fb4cac034aULL},
      {"calls/budget47", "timeout", 0x0ULL, 173ULL, 48ULL,
       0x3701b060b90b3be1ULL},
      {"calls/budget200", "none", 0x357ULL, 533ULL, 179ULL,
       0xe2ef495214b12d05ULL},
      {"native-now", "none", 0x1ff96950f38810ULL, 3000242ULL, 1800010ULL,
       0x6e53b9927f303fefULL},
      {"sumTo/budget105", "timeout", 0x0ULL, 165ULL, 106ULL,
       0x208f2d48099c3f42ULL},
      {"sumTo/budget106", "none", 0xbeULL, 167ULL, 106ULL,
       0x4c5ab2578711a8ecULL},
      {"div0", "div-by-zero", 0x0ULL, 6ULL, 2ULL, 0x5ddf0b346d324267ULL},
      {"rem0", "div-by-zero", 0x0ULL, 5ULL, 1ULL, 0x700cd4f5a20535cfULL},
      {"div-ok", "none", 0x3ULL, 19ULL, 2ULL, 0x15cb1dec27947362ULL},
      {"goto-out", "memory-fault", 0x0ULL, 7ULL, 2ULL, 0x7bb24f5244fac996ULL},
      {"if-out", "memory-fault", 0x0ULL, 20ULL, 2ULL, 0x52f4a6719c38d43ULL},
      {"goto-end", "memory-fault", 0x0ULL, 7ULL, 2ULL, 0x7bb24f5244fac996ULL},
      {"fall-off/budget2", "timeout", 0x0ULL, 7ULL, 3ULL,
       0x4bb14173385f4effULL},
      {"fall-off/budget3", "memory-fault", 0x0ULL, 10ULL, 3ULL,
       0x1693089c1aaba042ULL},
      {"fall-off/budget4", "memory-fault", 0x0ULL, 10ULL, 3ULL,
       0x1693089c1aaba042ULL},
      {"fall-off", "memory-fault", 0x0ULL, 10ULL, 3ULL, 0x1693089c1aaba042ULL},
  };
  std::vector<ExecCase> Cases = goldenCases();
  std::vector<GoldenRow> Got;
  for (const ExecCase &C : Cases)
    Got.push_back(runCase(C));
  for (size_t I = 0; I != Got.size(); ++I) {
    if (I < Want.size()) {
      EXPECT_EQ(Got[I], Want[I]);
    } else {
      ADD_FAILURE() << "unpinned row " << Got[I];
    }
  }
  EXPECT_EQ(Got.size(), Want.size());
}
