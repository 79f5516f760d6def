//===- bench/micro_replay.cpp - google-benchmark replay/compiler micros ------===//
//
// Wall-clock microbenchmarks of one replay (the GA's inner loop), the LLVM
// backend compilation, and the two execution tiers — the costs that
// determine how long an offline search session takes.
//
//===----------------------------------------------------------------------===//

#include "core/IterativeCompiler.h"
#include "hgraph/AndroidCompiler.h"
#include "lir/Backend.h"
#include "replay/Replayer.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

using namespace ropt;

namespace {

/// Shared setup: one app captured and ready to replay.
struct ReplayFixture {
  workloads::Application App;
  core::PipelineConfig Config;
  profiler::HotRegion Region;
  core::IterativeCompiler::CapturedRegion Captured;
  vm::NativeRegistry Natives;
  vm::CodeCache Android;

  explicit ReplayFixture(const char *Name)
      : App(workloads::buildByName(Name)),
        Natives(vm::NativeRegistry::standardLibrary()) {
    core::IterativeCompiler Pipeline(Config);
    auto P = Pipeline.profileApp(App);
    Region = *P.Region;
    Captured = *Pipeline.captureRegion(*P.Instance, Region);
    hgraph::compileAllAndroid(*App.File, Region.Methods, Android);
  }

  /// Kernel shape: long-running numeric region, small capture. Replay
  /// cost is dominated by executing the region, so sessions buy little.
  static ReplayFixture &kernel() {
    static ReplayFixture F("FFT");
    return F;
  }

  /// Interactive shape (the paper's subject): hundreds of captured heap
  /// pages behind a short event-handler region. The fresh path re-restores
  /// every page per replay; a session delta-resets the few dirtied ones.
  static ReplayFixture &interactive() {
    static ReplayFixture F("4inaRow");
    return F;
  }
};

/// Replay throughput counters: replays and simulated (executor)
/// instructions per wall-clock second.
void setReplayCounters(benchmark::State &State, uint64_t Insns) {
  State.SetItemsProcessed(State.iterations());
  State.counters["replays_per_sec"] = benchmark::Counter(
      static_cast<double>(State.iterations()), benchmark::Counter::kIsRate);
  State.counters["insns_per_sec"] = benchmark::Counter(
      static_cast<double>(Insns), benchmark::Counter::kIsRate);
}

void runFresh(benchmark::State &State, ReplayFixture &F) {
  replay::Replayer Rep(*F.App.File, F.Natives, F.App.RtConfig, 3);
  uint64_t Insns = 0;
  for (auto _ : State) {
    auto R = Rep.replay(F.Captured.Cap, replay::ReplayCode::Compiled,
                        &F.Android);
    benchmark::DoNotOptimize(R.Result.Cycles);
    Insns += R.Result.Insns;
  }
  setReplayCounters(State, Insns);
}

void runSession(benchmark::State &State, ReplayFixture &F) {
  replay::Replayer Rep(*F.App.File, F.Natives, F.App.RtConfig, 3);
  Rep.setSessionMode(true);
  uint64_t Insns = 0;
  for (auto _ : State) {
    auto R = Rep.replay(F.Captured.Cap, replay::ReplayCode::Compiled,
                        &F.Android);
    benchmark::DoNotOptimize(R.Result.Cycles);
    Insns += R.Result.Insns;
  }
  setReplayCounters(State, Insns);
  State.counters["pages_per_reset"] = benchmark::Counter(
      Rep.sessionStats().pagesPerReset());
}

void BM_CompiledReplay(benchmark::State &State) {
  runFresh(State, ReplayFixture::kernel());
}
BENCHMARK(BM_CompiledReplay);

/// Kernel region under a session: execution dominates, so the win is the
/// loader amortization only (~1.3-1.6x). Kept honest next to the
/// interactive pair below.
void BM_KernelSessionReplay(benchmark::State &State) {
  runSession(State, ReplayFixture::kernel());
}
BENCHMARK(BM_KernelSessionReplay);

/// Fresh-rebuild baseline on the interactive fixture: every replay
/// re-forks the boot template and re-restores all captured pages.
void BM_FreshReplay(benchmark::State &State) {
  runFresh(State, ReplayFixture::interactive());
}
BENCHMARK(BM_FreshReplay);

/// The fork-server path: one restored space per capture, dirty-page delta
/// reset between replays. The CI gate compares this against
/// BM_FreshReplay (fresh rebuild per replay, same fixture) — sessions
/// must be at least 2x (5x locally).
void BM_SessionReplay(benchmark::State &State) {
  runSession(State, ReplayFixture::interactive());
}
BENCHMARK(BM_SessionReplay);

/// Same-binary batching as the evaluation engine drives it: a burst of
/// replays of one binary against one live session, amortizing the single
/// loader run across the whole measurement block.
void BM_BatchedSessionReplay(benchmark::State &State) {
  ReplayFixture &F = ReplayFixture::interactive();
  replay::Replayer Rep(*F.App.File, F.Natives, F.App.RtConfig, 3);
  Rep.setSessionMode(true);
  const int Block = 10; // The paper's replays-per-evaluation budget.
  for (auto _ : State) {
    uint64_t Sum = 0;
    for (int I = 0; I != Block; ++I)
      Sum += Rep.replay(F.Captured.Cap, replay::ReplayCode::Compiled,
                        &F.Android)
                 .Result.Cycles;
    benchmark::DoNotOptimize(Sum);
  }
  State.SetItemsProcessed(State.iterations() * Block);
  State.counters["replays_per_sec"] = benchmark::Counter(
      static_cast<double>(State.iterations() * Block),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchedSessionReplay);

void BM_InterpretedReplay(benchmark::State &State) {
  ReplayFixture &F = ReplayFixture::kernel();
  replay::Replayer Rep(*F.App.File, F.Natives, F.App.RtConfig, 3);
  for (auto _ : State) {
    auto R =
        Rep.replay(F.Captured.Cap, replay::ReplayCode::Interpreter, nullptr);
    benchmark::DoNotOptimize(R.Result.Cycles);
  }
}
BENCHMARK(BM_InterpretedReplay);

void BM_LlvmBackendCompile(benchmark::State &State) {
  ReplayFixture &F = ReplayFixture::kernel();
  lir::CompileOptions Options;
  Options.Pipeline = lir::o3Pipeline();
  for (auto _ : State) {
    vm::CodeCache Code;
    lir::CompileStatus Status = lir::compileAllLlvm(
        *F.App.File, F.Region.Methods, Options, Code, &F.Captured.Profile);
    benchmark::DoNotOptimize(Status);
  }
}
BENCHMARK(BM_LlvmBackendCompile);

void BM_AndroidCompile(benchmark::State &State) {
  ReplayFixture &F = ReplayFixture::kernel();
  for (auto _ : State) {
    vm::CodeCache Code;
    hgraph::compileAllAndroid(*F.App.File, F.Region.Methods, Code);
    benchmark::DoNotOptimize(Code.size());
  }
}
BENCHMARK(BM_AndroidCompile);

void BM_VerifiedReplay(benchmark::State &State) {
  ReplayFixture &F = ReplayFixture::kernel();
  replay::Replayer Rep(*F.App.File, F.Natives, F.App.RtConfig, 3);
  for (auto _ : State) {
    support::Result<replay::ReplayResult> R =
        Rep.verifiedReplay(F.Captured.Cap, F.Android, F.Captured.Map);
    benchmark::DoNotOptimize(R.ok());
  }
}
BENCHMARK(BM_VerifiedReplay);

} // namespace

BENCHMARK_MAIN();
