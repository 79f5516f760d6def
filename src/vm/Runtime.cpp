//===- vm/Runtime.cpp - Mixed-mode execution engine (shared plumbing) ------===//

#include "vm/Runtime.h"

#include "support/Metrics.h"
#include "support/Random.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>

using namespace ropt;
using namespace ropt::vm;

Runtime::Runtime(os::AddressSpace &Space, const dex::DexFile &Dex,
                 const NativeRegistry &Natives, RuntimeConfig Config)
    : Space(Space), Dex(Dex), Natives(Natives), Config(Config),
      TheHeap(Space, Config.HeapLimitBytes, Config.GcThresholdBytes) {
  ResolvedNatives.reserve(Dex.natives().size());
  for (const dex::NativeDecl &Decl : Dex.natives()) {
    const NativeImpl *Impl = Natives.lookup(Decl.Name);
    assert(Impl && "native declared in dex file but not registered");
    ResolvedNatives.push_back(Impl);
  }
  MethodCycles.assign(Dex.methods().size() + Dex.natives().size(), 0);
  MethodFeatures.assign(Dex.methods().size() + Dex.natives().size(),
                        MethodFeatureCounters());
}

void Runtime::mapStandardLayout(os::AddressSpace &Space,
                                const dex::DexFile &Dex,
                                const RuntimeConfig &Config) {
  using os::MappingKind;
  using os::ProtExec;
  using os::ProtRead;
  using os::ProtWrite;

  Space.mapRegion(Layout::CodeBase, Layout::CodeSize, ProtRead | ProtExec,
                  MappingKind::FileMapped, "app.oat");
  Space.mapRegion(Layout::DataBase, Layout::DataSize, ProtRead | ProtWrite,
                  MappingKind::Data, "statics");
  Space.mapRegion(Layout::HeapBase, Config.HeapLimitBytes,
                  ProtRead | ProtWrite, MappingKind::Heap, "dalvik-heap");
  Space.mapShared(Layout::RuntimeImageBase, imagePages(Config.BootId),
                  ProtRead, MappingKind::RuntimeImage, "boot.art");
  Space.mapRegion(Layout::StackBase, Layout::StackSize,
                  ProtRead | ProtWrite, MappingKind::Stack, "stack");

  // Static field initial values.
  for (size_t I = 0; I != Dex.staticFields().size(); ++I) {
    uint64_t Bits =
        static_cast<uint64_t>(Dex.staticFields()[I].InitialValue);
    [[maybe_unused]] bool Ok =
        Space.poke(Layout::DataBase + 8 * I, &Bits, sizeof(Bits));
    assert(Ok && "static field outside data segment");
  }

  // Heap control block.
  Heap H(Space, Config.HeapLimitBytes, Config.GcThresholdBytes);
  H.initialize();
}

std::span<const os::PhysPageRef> Runtime::imagePages(uint64_t BootId) {
  // Function-local, so no image is built before the first process boots.
  static std::mutex Lock;
  static std::map<uint64_t, std::vector<os::PhysPageRef>> Images;
  std::lock_guard<std::mutex> Guard(Lock);
  std::vector<os::PhysPageRef> &Pages = Images[BootId];
  if (Pages.empty()) {
    // One word stream across the whole image, page after page.
    Rng ImageRng(0xb007ULL * 2654435761ULL + BootId);
    Pages.resize(Layout::RuntimeImageSize / os::PageSize);
    for (os::PhysPageRef &Page : Pages) {
      Page = std::make_shared<os::PhysicalPage>();
      for (uint64_t Offset = 0; Offset < os::PageSize; Offset += 8) {
        uint64_t Word = ImageRng.next();
        std::memcpy(Page->Data.data() + Offset, &Word, sizeof(Word));
      }
    }
  }
  return Pages;
}

void Runtime::noteBranchSlow(uint64_t Site, bool Taken) {
  MethodFeatureCounters &F = MethodFeatures[AttributionStack.back()];
  ++F.Branches;
  if (!FeaturePredictor.predictAndUpdate(Site, Taken))
    ++F.Mispredicts;
}

void Runtime::noteAllocSlow(uint64_t Slots) {
  MethodFeatureCounters &F = MethodFeatures[AttributionStack.back()];
  ++F.Allocs;
  F.AllocSlots += Slots;
}

Value Runtime::callNative(dex::NativeId Id,
                          const std::vector<Value> &Args) {
  const NativeImpl *Impl = ResolvedNatives.at(Id);
  // The JNI transition is the caller's cost; the native body's work is
  // attributed to the native itself (profile slots after the method table)
  // so the code-breakdown's JNI category sees it.
  charge(Costs.NativeCallCycles);
  if (Config.AttributeCycles && !AttributionStack.empty()) {
    // Feature attribution goes to the nearest managed caller beneath the
    // native wrapper (the wrapper itself sits outside every compilable
    // region, so the region's JNI share would otherwise be invisible).
    dex::MethodId Caller = AttributionStack.size() >= 2
                               ? AttributionStack[AttributionStack.size() - 2]
                               : AttributionStack.back();
    MethodFeatures[Caller].NativeCycles +=
        Costs.NativeCallCycles + Impl->WorkCycles;
  }
  if (Config.AttributeCycles)
    AttributionStack.push_back(
        static_cast<dex::MethodId>(Dex.methods().size() + Id));
  charge(Impl->WorkCycles);
  if (Config.AttributeCycles)
    AttributionStack.pop_back();
  Env.IoLog = &IoLog;
  Env.InputQueue = &Inputs;
  // A coarse monotone clock: cycles at 1 GHz, rounded to milliseconds.
  Env.NowMillis = TotalCycles / 1000000;
  return Impl->Fn(Env, Args);
}

Value Runtime::invoke(dex::MethodId MethodId,
                      const std::vector<Value> &Args) {
  if (Trap != TrapKind::None)
    return Value();
  if (Depth >= Config.MaxCallDepth) {
    Trap = TrapKind::StackOverflow;
    return Value();
  }

  const dex::Method &M = Dex.method(MethodId);
  assert(Args.size() == M.ParamCount && "argument count mismatch");

  ++Depth;
  if (Config.AttributeCycles)
    AttributionStack.push_back(MethodId);

  bool FiredHook = false;
  if (MethodId == HookTarget && !RegionActive) {
    RegionActive = true;
    FiredHook = true;
    if (Hook.OnEnter)
      Hook.OnEnter(Args);
  }

  Value Ret;
  const ExecFunction *Fn = nullptr;
  if (!M.IsNative && Mode == ExecMode::Mixed) {
    // The session-shared cache wins: it is the immutable compiled binary
    // under evaluation; the runtime-owned cache serves online installs.
    if (SharedCode)
      Fn = SharedCode->lookupExec(MethodId);
    if (!Fn)
      Fn = Cache.lookupExec(MethodId);
  }
  if (M.IsNative)
    Ret = callNative(M.Native, Args);
  else if (Fn)
    Ret = execMachine(*Fn, Args);
  else
    Ret = interpret(M, Args);

  if (FiredHook) {
    if (Hook.OnExit)
      Hook.OnExit();
    RegionActive = false;
  }

  if (Config.AttributeCycles)
    AttributionStack.pop_back();
  --Depth;
  return Ret;
}

CallResult Runtime::call(dex::MethodId Method,
                         const std::vector<Value> &Args) {
  assert(Depth == 0 && "call() is not reentrant");
  Trap = TrapKind::None;
  CallCycles = 0;
  CallInsns = 0;

  Value Ret = invoke(Method, Args);

  CallResult Result;
  Result.Trap = Trap;
  Result.Ret = Ret;
  Result.Cycles = CallCycles;
  Result.Insns = CallInsns;
  Trap = TrapKind::None;

  // Flushed per top-level call, not per instruction, so the interpreter's
  // hot loop stays untouched.
  ROPT_METRIC_INC("vm.calls");
  ROPT_METRIC_ADD("vm.insns", Result.Insns);
  ROPT_METRIC_ADD("vm.cycles", Result.Cycles);
  if (Result.Trap != TrapKind::None)
    ROPT_METRIC_INC("vm.traps");
  return Result;
}

void Runtime::resetProfile() {
  MethodCycles.assign(Dex.methods().size() + Dex.natives().size(), 0);
  MethodFeatures.assign(Dex.methods().size() + Dex.natives().size(),
                        MethodFeatureCounters());
  FeaturePredictor.reset();
}

Value Runtime::readStatic(dex::StaticFieldId Id) {
  uint64_t Bits = 0;
  [[maybe_unused]] bool Ok =
      Space.peek(staticSlotAddr(Id), &Bits, sizeof(Bits));
  assert(Ok && "static slot unmapped");
  Value V;
  V.Raw = Bits;
  return V;
}
