//===- core/IterativeCompiler.cpp - The replay-based main loop --------------===//

#include "core/IterativeCompiler.h"

#include "hgraph/AndroidCompiler.h"
#include "support/Metrics.h"
#include "support/Statistics.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace ropt;
using namespace ropt::core;

PipelineConfig PipelineConfig::paperDefaults() {
  // The member initializers are the Section 4 values already; the named
  // constructor exists so call sites say which configuration they mean.
  return PipelineConfig{};
}

search::GaConfig core::scaledGaConfig(const search::GaConfig &Base,
                                      double Scale) {
  if (Scale >= 1.0)
    return Base;
  search::GaConfig Out = Base;
  double Axis = std::sqrt(std::max(Scale, 0.0));
  Out.Generations = std::max(
      2, static_cast<int>(std::lround(Base.Generations * Axis)));
  Out.PopulationSize = std::max(
      8, static_cast<int>(std::lround(Base.PopulationSize * Axis)));
  Out.TournamentSize = std::min(Out.TournamentSize, Out.PopulationSize);
  Out.EliteCount = std::min(Out.EliteCount, Out.PopulationSize - 1);
  Out.HillClimbRounds = std::min(Out.HillClimbRounds, Out.Generations);
  return Out;
}

// --- RegionEvaluator ----------------------------------------------------------

RegionEvaluator::RegionEvaluator(const workloads::Application &App,
                                 const profiler::HotRegion &Region,
                                 const capture::Capture &Cap,
                                 const replay::VerificationMap &Map,
                                 const lir::TypeProfile &Profile,
                                 const PipelineConfig &Config)
    : App(App), Region(Region), Profile(Profile),
      Compiler(*App.File, Region.Methods), Config(Config),
      Natives(vm::NativeRegistry::standardLibrary()),
      Rep(*App.File, Natives, App.RtConfig, Config.Seed ^ 0xa51f),
      NoiseRng(Config.Seed ^ 0x90153) {
  Caps.push_back(CaptureRef{&Cap, &Map});
  Rep.setSessionMode(Config.Search.SessionBackends);
}

RegionEvaluator::RegionEvaluator(
    const workloads::Application &App, const profiler::HotRegion &Region,
    const std::vector<CapturedRegion> &Captures,
    const PipelineConfig &Config)
    : App(App), Region(Region), Compiler(*App.File, Region.Methods),
      Config(Config), Natives(vm::NativeRegistry::standardLibrary()),
      Rep(*App.File, Natives, App.RtConfig, Config.Seed ^ 0xa51f),
      NoiseRng(Config.Seed ^ 0x90153) {
  assert(!Captures.empty() && "need at least one capture");
  for (const CapturedRegion &C : Captures) {
    Caps.push_back(CaptureRef{&C.Cap, &C.Map});
    Profile.merge(C.Profile);
  }
  Rep.setSessionMode(Config.Search.SessionBackends);
}

search::ReplayBackendStats RegionEvaluator::replayStats() const {
  const replay::SessionStats &S = Rep.sessionStats();
  search::ReplayBackendStats R;
  R.SessionsCreated = S.SessionsCreated;
  R.SessionReplays = S.SessionReplays;
  R.FreshReplays = S.FreshReplays;
  R.DeltaResets = S.DeltaResets;
  R.PagesReverted = S.PagesReverted;
  R.FullRebuilds = S.FullRebuilds;
  return R;
}

namespace {

/// Content hash over every compiled function (identical-binary detection).
uint64_t hashCodeCache(const vm::CodeCache &Code) {
  uint64_t H = 1469598103934665603ULL;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ULL;
  };
  for (const auto &KV : Code.functions()) {
    Mix(KV.first);
    const vm::MachineFunction &Fn = *KV.second;
    Mix(Fn.NumRegs);
    for (const vm::MInsn &I : Fn.Code) {
      Mix(static_cast<uint64_t>(I.Op));
      Mix((uint64_t(I.A) << 32) | (uint64_t(I.B) << 16) | I.C);
      Mix(static_cast<uint64_t>(I.Target) | (uint64_t(I.Idx) << 32));
      Mix(static_cast<uint64_t>(I.ImmI));
      uint64_t FBits;
      static_assert(sizeof(FBits) == sizeof(I.ImmF), "bitcast");
      __builtin_memcpy(&FBits, &I.ImmF, sizeof(FBits));
      Mix(FBits);
      Mix(static_cast<uint64_t>(I.Hint) + 2);
      for (unsigned A = 0; A != I.ArgCount; ++A)
        Mix(I.Args[A]);
    }
  }
  return H;
}

} // namespace

bool RegionEvaluator::verifyCache(const vm::CodeCache &Code,
                                  search::Evaluation &E) {
  E.CodeSize = Code.totalSizeBytes();
  E.BinaryHash = hashCodeCache(Code);

  // One verified replay per capture classifies the binary — wrong on any
  // input means wrong. Replays are cycle-exact, so measurement replays
  // become noise draws around the measured cycle count (documented
  // substitution).
  double Cycles = 0.0;
  for (const CaptureRef &C : Caps) {
    support::Result<replay::ReplayResult> R =
        Rep.verifiedReplay(*C.Cap, Code, *C.Map);
    if (!R) {
      E.Kind = search::evalKindForError(R.error().Code);
      E.Error = R.error().Code;
      Stats.count(E.Kind);
      return false;
    }
    Cycles += static_cast<double>(R.value().Result.Cycles);
  }

  E.Kind = search::EvalKind::Ok;
  E.BaseCycles = Cycles;
  Stats.count(E.Kind);
  return true;
}

search::Evaluation RegionEvaluator::evaluateCache(const vm::CodeCache &Code,
                                                  Rng &Noise) {
  search::Evaluation E;
  if (!verifyCache(Code, E))
    return E;
  E.Samples = Config.Measure.Noise.offlineSamples(
      Noise, E.BaseCycles,
      static_cast<size_t>(Config.Search.MaxReplaysPerEvaluation));
  E.SamplesSpent = static_cast<int>(E.Samples.size());
  E.Samples = removeOutliersMAD(E.Samples);
  E.MedianCycles = median(E.Samples);
  return E;
}

std::optional<vm::CodeCache>
RegionEvaluator::compileRegion(const search::Genome &G) {
  ROPT_TRACE_SPAN("compile.region");
  lir::CompileOptions Options;
  Options.Pipeline = G.Passes;
  Options.RegAlloc = G.RegAlloc;
  Options.SizeBudget = Config.Search.CompileSizeBudget;
  vm::CodeCache Code;
  lir::CompileStatus Status = Compiler.compile(Options, Code, &Profile);
  if (Status != lir::CompileStatus::Ok)
    return std::nullopt;
  return Code;
}

search::CompiledBinary
RegionEvaluator::compileGenome(const search::Genome &G) {
  search::CompiledBinary B;
  std::optional<vm::CodeCache> Code = compileRegion(G);
  if (!Code)
    return B;
  B.Ok = true;
  B.BinaryHash = hashCodeCache(*Code);
  B.CodeSize = Code->totalSizeBytes();
  B.Artifact = std::make_shared<const vm::CodeCache>(std::move(*Code));
  return B;
}

search::Evaluation
RegionEvaluator::measureBinary(const search::CompiledBinary &B,
                               uint64_t NoiseSeed, size_t SampleCount) {
  assert(B.Ok && B.Artifact && "measuring a failed compile");
  const vm::CodeCache &Code =
      *static_cast<const vm::CodeCache *>(B.Artifact.get());
  search::Evaluation E;
  if (!verifyCache(Code, E))
    return E;
  // Raw samples, indexed draws: the engine owns outlier removal and may
  // extend the block later without re-verifying.
  E.Samples = Config.Measure.Noise.offlineSampleRange(NoiseSeed,
                                                      E.BaseCycles,
                                                      /*Begin=*/0,
                                                      SampleCount);
  E.SamplesSpent = static_cast<int>(E.Samples.size());
  E.MedianCycles = median(removeOutliersMAD(E.Samples));
  return E;
}

std::vector<double>
RegionEvaluator::extendSamples(const search::Evaluation &E,
                               uint64_t NoiseSeed, size_t Begin,
                               size_t Count) {
  return Config.Measure.Noise.offlineSampleRange(NoiseSeed, E.BaseCycles,
                                                 Begin, Count);
}

search::Evaluation RegionEvaluator::evaluate(const search::Genome &G) {
  std::optional<vm::CodeCache> Code = compileRegion(G);
  if (!Code) {
    search::Evaluation E;
    E.Kind = search::EvalKind::CompileError;
    E.Error = support::ErrorCode::CompileFailed;
    Stats.count(E.Kind);
    return E;
  }
  return evaluateCache(*Code, NoiseRng);
}

search::Evaluation RegionEvaluator::evaluatePipeline(
    const std::vector<lir::PassInstance> &Pipeline,
    hgraph::RegAllocKind RegAlloc) {
  search::Genome G;
  G.Passes = Pipeline;
  G.RegAlloc = RegAlloc;
  return evaluate(G);
}

search::Evaluation RegionEvaluator::evaluateAndroid() {
  vm::CodeCache Code;
  hgraph::compileAllAndroid(*App.File, Region.Methods, Code);
  return evaluateCache(Code, NoiseRng);
}

// --- OptimizationReport -----------------------------------------------------------

double OptimizationReport::speedupGaOverAndroid() const {
  if (WholeGa.empty() || WholeAndroid.empty())
    return 0.0;
  return mean(WholeAndroid) / mean(WholeGa);
}

double OptimizationReport::speedupO3OverAndroid() const {
  if (WholeO3.empty() || WholeAndroid.empty())
    return 0.0;
  return mean(WholeAndroid) / mean(WholeO3);
}

double OptimizationReport::speedupGaOverO3() const {
  if (WholeGa.empty() || WholeO3.empty())
    return 0.0;
  return mean(WholeO3) / mean(WholeGa);
}

// --- IterativeCompiler ----------------------------------------------------------

IterativeCompiler::ProfiledApp
IterativeCompiler::profileApp(const workloads::Application &App) {
  ROPT_TRACE_SPAN("pipeline.profile");
  ProfiledApp Out{
      std::make_unique<AppInstance>(App, Config.Seed,
                                    /*AttributeCycles=*/true),
      profiler::ReplayabilityAnalysis::analyze(*App.File),
      {},
      std::nullopt,
      {}};
  for (int I = 0; I != Config.Capture.ProfileSessions; ++I) {
    vm::CallResult R = Out.Instance->runSession(App.DefaultParam + I);
    assert(R.ok() && "profiling session trapped");
    (void)R;
  }
  Out.Profile = profiler::MethodProfile::fromRuntime(Out.Instance->runtime());
  Out.Region = profiler::detectHotRegion(*App.File, Out.Profile, Out.RA);
  Out.Breakdown = profiler::computeBreakdown(
      *App.File, Out.Profile, Out.RA,
      Out.Region ? &*Out.Region : nullptr);
  return Out;
}

std::optional<IterativeCompiler::CapturedRegion>
IterativeCompiler::captureRegion(AppInstance &Instance,
                                 const profiler::HotRegion &Region,
                                 int SessionOffset) {
  ROPT_TRACE_SPAN("pipeline.capture");
  capture::CaptureManager CM(Instance.kernel(), Instance.process(),
                             Instance.runtime(),
                             Config.Capture.KernelCosts);
  CM.armCapture(Region.Root);
  // Captures are postponed while GC is imminent; a handful of sessions is
  // always enough opportunity (Section 3.2: "plenty of opportunities").
  const workloads::Application &App = Instance.app();
  for (int Attempt = 0; Attempt != 32 && !CM.captureReady(); ++Attempt) {
    vm::CallResult R =
        Instance.runSession(App.DefaultParam + 100 + SessionOffset + Attempt);
    if (!R.ok())
      return std::nullopt;
  }

  CapturedRegion Out;
  Out.Postponements = CM.postponedCount();
  support::Result<capture::Capture> Taken = CM.takeCapture();
  if (!Taken)
    return std::nullopt;
  Out.Cap = std::move(Taken).value();
  CM.spoolToStorage(Out.Cap, App.Name);

  vm::NativeRegistry Natives = vm::NativeRegistry::standardLibrary();
  replay::Replayer Rep(*App.File, Natives, App.RtConfig,
                       Config.Seed ^ 0x1e91a);
  support::Result<replay::InterpretedReplayResult> IR =
      Rep.interpretedReplay(Out.Cap);
  if (!IR)
    return std::nullopt;
  Out.Map = std::move(IR.value().Map);
  Out.Profile = std::move(IR.value().Profile);
  return Out;
}

std::vector<IterativeCompiler::CapturedRegion>
IterativeCompiler::captureRegionMulti(AppInstance &Instance,
                                      const profiler::HotRegion &Region,
                                      int Count) {
  std::vector<CapturedRegion> Out;
  for (int I = 0; I != Count; ++I) {
    std::optional<CapturedRegion> C =
        captureRegion(Instance, Region, I * 37);
    if (!C)
      break;
    Out.push_back(std::move(*C));
  }
  return Out;
}

OptimizationReport
IterativeCompiler::optimize(const workloads::Application &App) {
  ROPT_TRACE_SPAN("pipeline.optimize");
  ROPT_METRIC_INC("pipeline.runs");
  OptimizationReport Report;
  Report.AppName = App.Name;

  // --- Phases 1-2: online profile + hot region (Section 3.1). ----------
  ProfiledApp Profiled = profileApp(App);
  Report.Breakdown = Profiled.Breakdown;

  // The observability loop's decision data: candidate regions, features,
  // labels, slack, budget shares. Pure function of the profile, so it is
  // identical at any --jobs and costs microseconds — always computed.
  Report.Analysis =
      analysis::analyzeApp(*App.File, Profiled.Profile, Profiled.RA);

  if (Config.ForceRegionRoot != dex::InvalidId) {
    // Multi-region harnesses point the pipeline at a specific candidate.
    profiler::HotRegion Forced;
    Forced.Root = Config.ForceRegionRoot;
    Forced.Methods =
        profiler::compilableRegion(*App.File, Profiled.RA,
                                   Config.ForceRegionRoot);
    for (dex::MethodId Id : Forced.Methods)
      if (Id < Profiled.Profile.ExclusiveCycles.size())
        Forced.EstimatedCycles += Profiled.Profile.ExclusiveCycles[Id];
    if (Forced.Methods.empty() || Forced.EstimatedCycles == 0) {
      Report.FailureReason = "forced region root has no profiled closure";
      ROPT_METRIC_INC("pipeline.failures");
      return Report;
    }
    Report.Region = std::move(Forced);
  } else if (Profiled.Region) {
    Report.Region = *Profiled.Region;
  } else {
    Report.FailureReason = "no replayable hot region";
    ROPT_METRIC_INC("pipeline.failures");
    return Report;
  }

  // --- Phase 3: transparent capture + interpreted replay (3.2-3.4). ----
  std::vector<CapturedRegion> Captures = captureRegionMulti(
      *Profiled.Instance, Report.Region,
      std::max(1, Config.Capture.CapturesPerRegion));
  if (Captures.empty()) {
    Report.FailureReason = "capture failed";
    ROPT_METRIC_INC("pipeline.failures");
    return Report;
  }
  Report.Cap = Captures.front().Cap;
  Report.CapturePostponements = Captures.front().Postponements;

  // --- Phase 4: the GA over the transformation space (3.6-3.7). --------
  // Baselines and the final install run on a serial evaluator; the GA's
  // batches run through the engine, which owns one RegionEvaluator per
  // worker and memoizes duplicate genomes/binaries.
  RegionEvaluator Baselines(App, Report.Region, Captures, Config);
  search::EngineOptions EngineOpts;
  EngineOpts.Jobs = Config.Search.Jobs;
  EngineOpts.Memoize = Config.Search.Memoize;
  EngineOpts.Racing = Config.Search.Racing;
  EngineOpts.MinReplays = Config.Search.MinReplaysPerEvaluation;
  EngineOpts.MaxReplays = Config.Search.MaxReplaysPerEvaluation;
  EngineOpts.RacingAlpha = Config.Search.GA.SignificanceAlpha;
  search::EvaluationEngine Engine(
      [&App, &Report, &Captures, this]() {
        return std::make_unique<RegionEvaluator>(App, Report.Region,
                                                 Captures, Config);
      },
      EngineOpts, Config.Seed);

  std::optional<search::Scored> Best;
  {
    ROPT_TRACE_SPAN("pipeline.search");
    search::Evaluation Android = Baselines.evaluateAndroid();
    search::Evaluation O3 = Baselines.evaluatePipeline(lir::o3Pipeline());
    if (!Android.ok()) {
      Report.FailureReason = "android baseline replay failed";
      ROPT_METRIC_INC("pipeline.failures");
      return Report;
    }
    Report.RegionAndroid = Android.MedianCycles;
    Report.RegionO3 = O3.ok() ? O3.MedianCycles : 0.0;

    // Criticality-weighted allocation: the slack-0 region keeps the full
    // configuration bit-for-bit; cooler regions search a scaled-down
    // budget with the label's pruned arms masked out.
    search::GaConfig GaCfg = Config.Search.GA;
    if (Config.Search.AnalysisGuided) {
      if (const analysis::RegionReport *R =
              Report.Analysis.byRoot(Report.Region.Root)) {
        Report.AppliedBudgetScale = R->BudgetScale;
        GaCfg = scaledGaConfig(GaCfg, R->BudgetScale);
        if (R->Slack > 0)
          GaCfg.Genomes.DisabledPassMask |=
              analysis::prunedPassMask(R->Label);
        Report.AppliedPassMask = GaCfg.Genomes.DisabledPassMask;
      }
    }

    search::GeneticSearch GA(GaCfg, Config.Seed ^ 0x6a5e,
                             Engine, Config.Provenance);
    if (!Config.Search.WarmStart.empty())
      GA.seedPopulation(Config.Search.WarmStart);
    Best = GA.run(Android.MedianCycles,
                  O3.ok() ? O3.MedianCycles : Android.MedianCycles,
                  &Report.Trace);
  }
  Report.Counters = Engine.counters();
  Report.Counters += Baselines.counters();
  Report.CacheStats = Engine.cacheStats();
  Report.RacingStats = Engine.racingStats();
  Report.ReplayBackend = Engine.replayBackendStats();
  Report.ReplayBackend += Baselines.replayStats();
  if (!Best) {
    Report.FailureReason = "search produced no valid binary";
    ROPT_METRIC_INC("pipeline.failures");
    return Report;
  }
  Report.Best = *Best;
  Report.RegionBest = Best->E.MedianCycles;

  // --- Phase 5: install + whole-program measurement outside replay. ----
  ROPT_TRACE_SPAN("pipeline.install_measure");
  std::optional<vm::CodeCache> BestCode =
      Baselines.compileRegion(Best->G);
  assert(BestCode && "winning genome stopped compiling");

  lir::CompileOptions O3Options;
  O3Options.Pipeline = lir::o3Pipeline();
  vm::CodeCache O3Code;
  lir::compileAllLlvm(*App.File, Report.Region.Methods, O3Options, O3Code,
                      &Captures.front().Profile);

  Rng NoiseRng(Config.Seed ^ 0x0911e);
  auto MeasureVariant =
      [&](const vm::CodeCache *Override) -> std::vector<double> {
    AppInstance Fresh(App, Config.Seed + 7);
    if (Override)
      Fresh.overrideRegionCode(Report.Region.Methods, *Override);
    uint64_t Block = Fresh.runSessionBlock(Config.Measure.FinalSessionBlock,
                                           App.DefaultParam);
    if (Block == 0)
      return {};
    std::vector<double> Samples;
    for (int I = 0; I != Config.Measure.FinalMeasurementRuns; ++I)
      Samples.push_back(Config.Measure.Noise.online(
          NoiseRng, static_cast<double>(Block)));
    return Samples;
  };
  Report.WholeAndroid = MeasureVariant(nullptr);
  Report.WholeO3 = MeasureVariant(&O3Code);
  Report.WholeGa = MeasureVariant(&*BestCode);

  Report.Succeeded = !Report.WholeAndroid.empty() &&
                     !Report.WholeGa.empty();
  if (!Report.Succeeded) {
    Report.FailureReason = "final measurement failed";
    ROPT_METRIC_INC("pipeline.failures");
  }
  return Report;
}
