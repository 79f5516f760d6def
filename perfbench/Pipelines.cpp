//===- perfbench/Pipelines.cpp - What each workload runs ------------------===//

#include "perfbench/Pipelines.h"

#include "capture/CaptureManager.h"
#include "support/Format.h"
#include "support/Statistics.h"

#include <algorithm>

using namespace ropt;
using namespace perfbench;

namespace {

std::string digestOf(const std::string &App, const search::Scored &Best,
                     const search::EngineCounters &C,
                     const search::EngineCacheStats &Cache, double Speedup) {
  return format("%s|%s|best=%.17g|ok=%d ce=%d rc=%d rt=%d wo=%d|gh=%llu "
                "bh=%llu miss=%llu|speedup=%.17g",
                App.c_str(), Best.G.name().c_str(), Best.E.MedianCycles,
                C.Ok, C.CompileError, C.RuntimeCrash, C.RuntimeTimeout,
                C.WrongOutput, static_cast<unsigned long long>(Cache.GenomeHits),
                static_cast<unsigned long long>(Cache.BinaryHits),
                static_cast<unsigned long long>(Cache.Misses), Speedup);
}

/// The paper configuration is the only one the traced run mirrors; the
/// options it does not replicate must be off.
bool mirrorable(const core::PipelineConfig &Config) {
  return !Config.Search.AnalysisGuided && Config.Search.WarmStart.empty() &&
         Config.ForceRegionRoot == dex::InvalidId &&
         Config.Capture.CapturesPerRegion == 1 && !Config.Provenance;
}

} // namespace

AppResult perfbench::optimizeApp(const workloads::Application &App,
                                 const core::PipelineConfig &Config) {
  core::IterativeCompiler Pipeline(Config);
  core::OptimizationReport R = Pipeline.optimize(App);
  AppResult Out;
  Out.Name = App.Name;
  Out.Succeeded = R.Succeeded;
  Out.FailureReason = R.FailureReason;
  if (!R.Succeeded)
    return Out;
  Out.Speedup = R.speedupGaOverAndroid();
  Out.Digest =
      digestOf(App.Name, R.Best, R.Counters, R.CacheStats, Out.Speedup);
  Out.Cap = R.Cap;
  Out.Region = R.Region;
  Out.Best = R.Best.G;
  Out.BestHash = R.Best.E.BinaryHash;
  return Out;
}

AppResult perfbench::tracedOptimizeApp(const workloads::Application &App,
                                       const core::PipelineConfig &Config,
                                       Probe &P, AppShares &Shares) {
  // The phases of IterativeCompiler::optimize(), in its order, each
  // through its public call. The digest comparison with optimizeApp()
  // is what proves this mirror faithful.
  AppResult Out;
  Out.Name = App.Name;
  Shares.Name = App.Name;
  if (!mirrorable(Config)) {
    Out.FailureReason = "configuration not mirrored by the traced run";
    return Out;
  }
  double Compile0 = P.totalMs("lir.compile");
  double Replay0 = P.totalMs("replay.measure") + P.totalMs("replay.extend");
  core::IterativeCompiler Pipeline(Config);

  Clock::time_point T0 = Clock::now();
  core::IterativeCompiler::ProfiledApp Profiled;
  {
    ScopedSpan S(&P, "profiler");
    Profiled = Pipeline.profileApp(App);
  }
  {
    ScopedSpan S(&P, "analysis");
    analysis::analyzeApp(*App.File, Profiled.Profile, Profiled.RA);
  }
  Shares.ProfileMs = msBetween(T0, Clock::now());
  if (!Profiled.Region) {
    Out.FailureReason = "no replayable hot region";
    return Out;
  }
  Out.Region = *Profiled.Region;

  // IterativeCompiler::captureRegion, split at the capture/replay seam.
  Clock::time_point C0 = Clock::now();
  std::vector<core::CapturedRegion> Captures(1);
  core::CapturedRegion &Taken = Captures.front();
  {
    ScopedSpan S(&P, "capture");
    core::AppInstance &Instance = *Profiled.Instance;
    capture::CaptureManager CM(Instance.kernel(), Instance.process(),
                               Instance.runtime(),
                               Config.Capture.KernelCosts);
    CM.armCapture(Out.Region.Root);
    bool Trapped = false;
    for (int Attempt = 0; Attempt != 32 && !CM.captureReady() && !Trapped;
         ++Attempt)
      Trapped = !Instance.runSession(App.DefaultParam + 100 + Attempt).ok();
    Taken.Postponements = CM.postponedCount();
    support::Result<capture::Capture> Cap = CM.takeCapture();
    if (Trapped || !Cap) {
      Out.FailureReason = "capture failed";
      return Out;
    }
    Taken.Cap = std::move(Cap).value();
    CM.spoolToStorage(Taken.Cap, App.Name);
  }
  {
    ScopedSpan S(&P, "replay.interp");
    vm::NativeRegistry Natives = vm::NativeRegistry::standardLibrary();
    replay::Replayer Rep(*App.File, Natives, App.RtConfig,
                         Config.Seed ^ 0x1e91a);
    support::Result<replay::InterpretedReplayResult> IR =
        Rep.interpretedReplay(Taken.Cap);
    if (!IR) {
      Out.FailureReason = "capture failed";
      return Out;
    }
    Taken.Map = std::move(IR.value().Map);
    Taken.Profile = std::move(IR.value().Profile);
  }
  Shares.CaptureMs = msBetween(C0, Clock::now());
  Out.Cap = Taken.Cap;

  std::optional<core::RegionEvaluator> Baselines;
  search::Evaluation Android, O3;
  {
    ScopedSpan S(&P, "core.baselines");
    Baselines.emplace(App, Out.Region, Captures, Config);
    Android = Baselines->evaluateAndroid();
    O3 = Baselines->evaluatePipeline(lir::o3Pipeline());
  }
  if (!Android.ok()) {
    Out.FailureReason = "android baseline replay failed";
    return Out;
  }

  Decomposer Decompose(App, Out.Region, Captures, Config, P);
  search::EngineOptions EngineOpts;
  EngineOpts.Jobs = Config.Search.Jobs;
  EngineOpts.Memoize = Config.Search.Memoize;
  EngineOpts.Racing = Config.Search.Racing;
  EngineOpts.MinReplays = Config.Search.MinReplaysPerEvaluation;
  EngineOpts.MaxReplays = Config.Search.MaxReplaysPerEvaluation;
  EngineOpts.RacingAlpha = Config.Search.GA.SignificanceAlpha;
  std::optional<search::Scored> Best;
  search::EngineCounters Counters;
  search::EngineCacheStats Cache;
  {
    ScopedSpan S(&P, "search.ga");
    search::EvaluationEngine Engine(
        [&]() -> std::unique_ptr<search::EvalBackend> {
          return std::make_unique<TimingBackend>(
              std::make_unique<core::RegionEvaluator>(App, Out.Region,
                                                      Captures, Config),
              P, Decompose);
        },
        EngineOpts, Config.Seed);
    TimingEvaluator Timed(Engine, P);
    search::GeneticSearch GA(Config.Search.GA, Config.Seed ^ 0x6a5e, Timed);
    Best = GA.run(Android.MedianCycles,
                  O3.ok() ? O3.MedianCycles : Android.MedianCycles);
    Counters = Engine.counters();
    Counters += Baselines->counters();
    Cache = Engine.cacheStats();
    search::ReplayBackendStats RB = Engine.replayBackendStats();
    RB += Baselines->replayStats();
    P.add("replay.sessions_created", static_cast<double>(RB.SessionsCreated));
    P.add("replay.session_replays", static_cast<double>(RB.SessionReplays));
    P.add("replay.delta_resets", static_cast<double>(RB.DeltaResets));
    P.add("replay.pages_reverted", static_cast<double>(RB.PagesReverted));
    P.add("replay.full_rebuilds", static_cast<double>(RB.FullRebuilds));
    P.add("search.genome_hits", static_cast<double>(Cache.GenomeHits));
    P.add("search.binary_hits", static_cast<double>(Cache.BinaryHits));
    P.add("search.misses", static_cast<double>(Cache.Misses));
    P.add("search.answers", static_cast<double>(Engine.counters().total()));
    P.add("search.invalid", static_cast<double>(Engine.counters().total() -
                                                Engine.counters().Ok));
    P.add("search.samples_spent",
          static_cast<double>(Engine.racingStats().ReplaysSpent));
  }
  {
    // Benchmark overhead, not a program layer: runPass takes it out of
    // the traced pass's wall time.
    ScopedSpan S(&P, "bench.decompose");
    Out.Unreproduced = Decompose.reproduceAll(
        static_cast<size_t>(std::max(0, Config.Search.Jobs)));
  }
  Shares.CompileMs = P.totalMs("lir.compile") - Compile0;
  Shares.ReplayMs =
      P.totalMs("replay.measure") + P.totalMs("replay.extend") - Replay0;
  if (!Best) {
    Out.FailureReason = "search produced no valid binary";
    return Out;
  }

  // Phase 5: install + whole-program measurement, as optimize() does it.
  std::vector<double> WholeAndroid, WholeGa;
  {
    ScopedSpan S(&P, "core.install");
    Clock::time_point I0 = Clock::now();
    std::optional<vm::CodeCache> BestCode =
        Baselines->compileRegion(Best->G);
    if (!BestCode) {
      Out.FailureReason = "winning genome stopped compiling";
      return Out;
    }
    lir::CompileOptions O3Options;
    O3Options.Pipeline = lir::o3Pipeline();
    vm::CodeCache O3Code;
    lir::compileAllLlvm(*App.File, Out.Region.Methods, O3Options, O3Code,
                        &Captures.front().Profile);
    Rng NoiseRng(Config.Seed ^ 0x0911e);
    auto MeasureVariant =
        [&](const vm::CodeCache *Override) -> std::vector<double> {
      std::optional<core::AppInstance> Fresh;
      {
        ScopedSpan Boot(&P, "core.boot");
        Fresh.emplace(App, Config.Seed + 7);
      }
      if (Override)
        Fresh->overrideRegionCode(Out.Region.Methods, *Override);
      uint64_t Block = Fresh->runSessionBlock(
          Config.Measure.FinalSessionBlock, App.DefaultParam);
      if (Block == 0)
        return {};
      std::vector<double> Samples;
      for (int I = 0; I != Config.Measure.FinalMeasurementRuns; ++I)
        Samples.push_back(Config.Measure.Noise.online(
            NoiseRng, static_cast<double>(Block)));
      return Samples;
    };
    WholeAndroid = MeasureVariant(nullptr);
    MeasureVariant(&O3Code);
    WholeGa = MeasureVariant(&*BestCode);
    Shares.InstallMs = msBetween(I0, Clock::now());
  }
  Out.Succeeded = !WholeAndroid.empty() && !WholeGa.empty();
  if (!Out.Succeeded) {
    Out.FailureReason = "final measurement failed";
    return Out;
  }
  Out.Speedup = mean(WholeAndroid) / mean(WholeGa);
  Out.Digest = digestOf(App.Name, *Best, Counters, Cache, Out.Speedup);
  Out.Best = Best->G;
  Out.BestHash = Best->E.BinaryHash;
  return Out;
}

fleet::FleetOptions perfbench::fleetOptions(uint64_t Seed, int Jobs,
                                            bool Reduced) {
  fleet::FleetOptions FO = fleet::FleetOptions::paperDefaults();
  FO.Devices = Reduced ? 48 : 1000;
  FO.Rounds = Reduced ? 2 : 3;
  FO.ProfileClasses = Reduced ? 6 : 24;
  FO.Jobs = Jobs;
  FO.Seed = Seed;
  return FO;
}

core::PipelineConfig perfbench::fleetPipeline(uint64_t Seed, int Jobs) {
  // fleet_scale's install-base budget: each device runs a sliver of
  // search per step and the population supplies the volume.
  core::PipelineConfig C = core::PipelineConfig::paperDefaults();
  C.Seed = Seed;
  C.Search.Jobs = Jobs;
  C.Search.GA.Generations = 1;
  C.Search.GA.PopulationSize = 4;
  C.Search.GA.HillClimbRounds = 0;
  C.Search.MaxReplaysPerEvaluation = 3;
  return C;
}

std::string perfbench::checkWinner(const workloads::Application &App,
                                   const core::PipelineConfig &Config,
                                   const profiler::HotRegion &Region,
                                   const capture::Capture &Cap,
                                   const search::Genome &G,
                                   uint64_t ExpectHash) {
  vm::NativeRegistry Natives = vm::NativeRegistry::standardLibrary();
  replay::Replayer Rep(*App.File, Natives, App.RtConfig, Config.Seed);
  support::Result<replay::InterpretedReplayResult> IR =
      Rep.interpretedReplay(Cap);
  if (!IR)
    return "interpreted replay of the winner's capture failed";
  core::RegionEvaluator Ev(App, Region, Cap, IR.value().Map,
                           IR.value().Profile, Config);
  search::CompiledBinary B = Ev.compileGenome(G);
  if (!B.Ok)
    return "winner " + G.name() + " does not compile";
  if (ExpectHash != 0 && B.BinaryHash != ExpectHash)
    return "winner " + G.name() + " recompiles to a different binary";
  const auto &Code = *static_cast<const vm::CodeCache *>(B.Artifact.get());

  // Held-out sessions: seeded parameters outside the window the search
  // profiled, captured and measured on ([Default, Default + 131]).
  constexpr int Sessions = 6;
  core::AppInstance Candidate(App, Config.Seed + 7);
  Candidate.overrideRegionCode(Region.Methods, Code);
  core::AppInstance Reference(App, Config.Seed + 7, false,
                              core::AppInstance::BootCode::InterpretOnly);
  Rng Params(Config.Seed ^ 0x4e1d);
  for (int I = 0; I != Sessions; ++I) {
    int64_t Param = Params.range(App.MinParam, App.MaxParam);
    for (int Retry = 0; Retry != 16 && Param >= App.DefaultParam &&
                        Param <= App.DefaultParam + 131;
         ++Retry)
      Param = Params.range(App.MinParam, App.MaxParam);
    vm::CallResult C = Candidate.runSession(Param);
    vm::CallResult R = Reference.runSession(Param);
    if (C.ok() != R.ok())
      return format("winner %s: session %lld %s where the interpreter %s",
                    G.name().c_str(), static_cast<long long>(Param),
                    C.ok() ? "ran" : "trapped", R.ok() ? "ran" : "trapped");
    if (R.ok() && C.Ret.Raw != R.Ret.Raw)
      return format("winner %s: session %lld returned %llu, interpreter "
                    "%llu",
                    G.name().c_str(), static_cast<long long>(Param),
                    static_cast<unsigned long long>(C.Ret.Raw),
                    static_cast<unsigned long long>(R.Ret.Raw));
  }
  return "";
}

std::string perfbench::checkGenome(const workloads::Application &App,
                                   const core::PipelineConfig &Config,
                                   const search::Genome &G) {
  core::IterativeCompiler Pipeline(Config);
  core::IterativeCompiler::ProfiledApp Profiled = Pipeline.profileApp(App);
  if (!Profiled.Region)
    return "no replayable hot region to check against";
  std::optional<core::CapturedRegion> C =
      Pipeline.captureRegion(*Profiled.Instance, *Profiled.Region);
  if (!C)
    return "capture for the reference check failed";
  return checkWinner(App, Config, *Profiled.Region, C->Cap, G, 0);
}
