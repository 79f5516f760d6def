//===- report/RunReport.cpp - The run-report flight recorder --------------===//

#include "report/RunReport.h"

#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Statistics.h"
#include "support/Trace.h"

#include <cmath>
#include <cstdio>

using namespace ropt;
using namespace ropt::report;

#ifndef ROPT_GIT_DESCRIBE
#define ROPT_GIT_DESCRIBE "unknown"
#endif

namespace {

std::string hexHash(uint64_t H) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

std::string countersJson(const search::EngineCounters &C) {
  json::Builder B;
  B.field("ok", C.Ok)
      .field("compile_error", C.CompileError)
      .field("runtime_crash", C.RuntimeCrash)
      .field("runtime_timeout", C.RuntimeTimeout)
      .field("wrong_output", C.WrongOutput)
      .field("total", C.total());
  return std::move(B).str();
}

std::string cacheJson(const search::EngineCacheStats &S) {
  uint64_t Total = S.hits() + S.Misses;
  json::Builder B;
  B.field("genome_hits", S.GenomeHits)
      .field("binary_hits", S.BinaryHits)
      .field("misses", S.Misses)
      .field("hit_rate", Total ? static_cast<double>(S.hits()) /
                                     static_cast<double>(Total)
                               : 0.0);
  return std::move(B).str();
}

/// Fork-server session accounting ("replay_backend"). Session
/// and backend counts depend on the worker count, so this section is
/// jobs-variant — like wall_seconds — while every measurement stream
/// stays byte-identical.
std::string replayBackendJson(const search::ReplayBackendStats &S) {
  json::Builder B;
  B.field("sessions_created", S.SessionsCreated)
      .field("session_replays", S.SessionReplays)
      .field("fresh_replays", S.FreshReplays)
      .field("delta_resets", S.DeltaResets)
      .field("pages_reverted", S.PagesReverted)
      .field("full_rebuilds", S.FullRebuilds)
      .field("pages_per_reset", S.pagesPerReset());
  return std::move(B).str();
}

std::string racingJson(const search::EngineRacingStats &S) {
  json::Builder B;
  B.field("replays_spent", S.ReplaysSpent)
      .field("fixed_budget", S.FixedBudget)
      .field("replays_saved", S.saved())
      .field("early_stops", S.EarlyStops)
      .field("escalations", S.Escalations)
      .field("top_ups", S.TopUps);
  return std::move(B).str();
}

/// Compact per-region entry for the manifest's "region_analysis" section
/// (the full feature vector lives in analysis.jsonl).
std::string regionManifestJson(const analysis::RegionReport &R) {
  json::Builder B;
  B.field("root", static_cast<uint64_t>(R.Root));
  B.field("root_name", R.RootName);
  B.field("label", analysis::bottleneckName(R.Label));
  B.field("cycles", R.Features.Cycles);
  B.field("critical_path_cycles", R.CriticalPathCycles);
  B.field("slack", R.Slack);
  B.field("budget_weight", R.BudgetWeight);
  B.field("budget_scale", R.BudgetScale);
  B.field("methods", static_cast<uint64_t>(R.Methods.size()));
  return std::move(B).str();
}

/// One analysis.jsonl line: the region's full auditable feature vector
/// next to the label and allocation it produced. Like evaluation records
/// it is a pure function of the profile — no timestamps, %.17g doubles —
/// so a seeded run's stream is byte-identical at any --jobs value.
std::string regionStreamJson(const std::string &App,
                             const analysis::RegionReport &R) {
  const analysis::RegionFeatures &F = R.Features;
  json::Builder B;
  B.field("app", App);
  B.field("root", static_cast<uint64_t>(R.Root));
  B.field("root_name", R.RootName);
  B.field("label", analysis::bottleneckName(R.Label));
  {
    json::Builder FB;
    FB.field("cycles", F.Cycles)
        .field("insns", F.Insns)
        .field("branches", F.Branches)
        .field("mispredicts", F.Mispredicts)
        .field("mem_reads", F.MemReads)
        .field("mem_writes", F.MemWrites)
        .field("cache_misses", F.CacheMisses)
        .field("allocs", F.Allocs)
        .field("alloc_slots", F.AllocSlots)
        .field("native_cycles", F.NativeCycles)
        .field("native_share", F.nativeShare())
        .field("mem_share", F.memShare())
        .field("mispredicts_per_kiloinsn", F.mispredictsPerKiloInsn());
    B.fieldRaw("features", std::move(FB).str());
  }
  B.field("critical_path_cycles", R.CriticalPathCycles);
  {
    json::Builder C(/*Array=*/true);
    for (dex::MethodId M : R.CriticalChain)
      C.element(static_cast<uint64_t>(M));
    B.fieldRaw("critical_chain", std::move(C).str());
  }
  B.field("slack", R.Slack);
  B.field("budget_weight", R.BudgetWeight);
  B.field("budget_scale", R.BudgetScale);
  B.field("methods", static_cast<uint64_t>(R.Methods.size()));
  return std::move(B).str();
}

} // namespace

support::Result<std::unique_ptr<RunReport>>
RunReport::open(const std::string &Dir, RunInfo Info) {
  support::Result<std::unique_ptr<ReportWriter>> W = ReportWriter::open(Dir);
  if (!W)
    return W.error();
  return std::unique_ptr<RunReport>(
      new RunReport(std::move(W).value(), std::move(Info)));
}

RunReport::RunReport(std::unique_ptr<ReportWriter> Writer, RunInfo Info)
    : Writer(std::move(Writer)), Info(std::move(Info)),
      Start(std::chrono::steady_clock::now()) {}

RunReport::~RunReport() { finish(); }

void RunReport::beginApp(const std::string &AppName) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Apps.push_back(AppEntry{AppName, AppOutcome{}, false});
}

void RunReport::endApp(const AppOutcome &Outcome) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Apps.empty() || Apps.back().Ended)
    Apps.push_back(AppEntry{"", AppOutcome{}, false});
  Apps.back().Outcome = Outcome;
  Apps.back().Ended = true;
  // One analysis.jsonl line per candidate region, hottest first (the
  // stream opens lazily, so harnesses without analysis don't grow the file).
  for (const analysis::RegionReport &R : Outcome.Analysis.Regions)
    Writer->appendAnalysis(regionStreamJson(Apps.back().Name, R));
}

uint64_t RunReport::onEvaluation(const search::Genome &G,
                                 const search::Evaluation &E, int Generation,
                                 const std::vector<uint64_t> &Parents) {
  std::lock_guard<std::mutex> Lock(Mutex);
  uint64_t Id = NextId++;
  ++TotalEvaluations;

  // The record must be a pure function of (id, app, genome, evaluation):
  // no timestamps, %.17g doubles, hashes as hex strings — this is what
  // keeps a seeded run byte-identical at any --jobs value.
  json::Builder B;
  B.field("id", Id);
  B.field("app", Apps.empty() ? std::string() : Apps.back().Name);
  B.field("gen", Generation);
  B.field("genome", G.name());
  {
    json::Builder P(/*Array=*/true);
    for (uint64_t Parent : Parents)
      P.element(Parent);
    B.fieldRaw("parents", std::move(P).str());
  }
  B.field("verdict", search::evalKindName(E.Kind));
  if (E.ok())
    B.fieldNull("error");
  else
    B.field("error", support::errorCodeName(E.Error));
  B.field("cache", search::cacheOriginName(E.Origin));
  B.field("median_cycles", E.MedianCycles);
  // Deterministic normal-approximation CI over the replay samples (the
  // bootstrap needs an RNG, which records must not consume).
  double CiLow = 0.0, CiHigh = 0.0;
  if (E.ok() && !E.Samples.empty()) {
    double M = mean(E.Samples);
    double Half = 1.96 * sampleStdDev(E.Samples) /
                  std::sqrt(static_cast<double>(E.Samples.size()));
    CiLow = M - Half;
    CiHigh = M + Half;
  }
  B.field("ci_low", CiLow);
  B.field("ci_high", CiHigh);
  {
    json::Builder S(/*Array=*/true);
    for (double Sample : E.Samples)
      S.element(Sample);
    B.fieldRaw("samples", std::move(S).str());
  }
  B.field("code_size", E.CodeSize);
  B.field("binary_hash", hexHash(E.BinaryHash));
  // Measurement-racing provenance: how many raw replays this evaluation
  // paid, how many escalation blocks it was granted, and whether it was
  // terminated early as a statistically-clear loser.
  B.field("samples_spent", E.SamplesSpent);
  B.field("escalation_rounds", E.EscalationRounds);
  B.field("early_stop", E.EarlyStop);
  Writer->appendEvaluation(std::move(B).str());
  return Id;
}

void RunReport::onFleetRound(const FleetRoundRecord &R) {
  std::lock_guard<std::mutex> Lock(Mutex);
  json::Builder B;
  B.field("app", R.App);
  B.field("devices", R.FleetDevices);
  B.field("round", R.Round);
  B.field("device", R.Device);
  B.field("virtual_time", R.VirtualTime);
  B.field("best_speedup", R.BestSpeedup);
  B.field("best_genome", R.BestGenome);
  B.field("best_source", R.BestSource);
  B.field("best_from_hint", R.BestFromHint);
  B.field("hints_received", R.HintsReceived);
  B.field("hints_adopted", R.HintsAdopted);
  B.field("hints_rejected", R.HintsRejected);
  B.field("evaluations", R.Evaluations);
  // The device's class and the best genome's provenance chain.
  B.field("device_class", R.DeviceClass);
  B.field("best_provenance", hexHash(R.BestProvenance));
  B.field("best_discovery_device", R.BestDiscoveryDevice);
  B.field("best_discovery_time", R.BestDiscoveryTime);
  B.field("transport_attempts", R.TransportAttempts);
  B.field("transport_drops", R.TransportDrops);
  B.field("transport_ticks", R.TransportTicks);
  B.field("delivered", R.Delivered);
  Writer->appendFleetRound(std::move(B).str());
}

void RunReport::setFleetSummary(const FleetSummary &S) {
  std::lock_guard<std::mutex> Lock(Mutex);
  HasFleet = true;
  Fleet = S;
}

void RunReport::setWarmStart(const WarmStartInfo &W) {
  std::lock_guard<std::mutex> Lock(Mutex);
  HasWarmStart = true;
  Warm = W;
}

void RunReport::onFleetCell(const fleet::FleetTelemetry &T) {
  std::lock_guard<std::mutex> Lock(Mutex);
  TelemetryCells.push_back(T);
}

void RunReport::onFleetTrace(
    const std::string &App, int Devices, int NumClasses,
    const std::vector<analysis::FleetTraceEvent> &Events) {
  std::lock_guard<std::mutex> Lock(Mutex);
  FleetTraceOut.beginCell(App, Devices, NumClasses);
  for (const analysis::FleetTraceEvent &E : Events)
    FleetTraceOut.add(E);
}

void RunReport::onGenerationDone(const search::GenerationStats &S) {
  std::lock_guard<std::mutex> Lock(Mutex);
  json::Builder B;
  B.field("app", Apps.empty() ? std::string() : Apps.back().Name);
  B.field("gen", S.Generation);
  B.field("evaluations", S.Evaluations);
  B.field("invalid", S.Invalid);
  B.field("best_cycles", S.BestCycles);
  B.field("worst_cycles", S.WorstCycles);
  B.field("mean_cycles", S.MeanCycles);
  Writer->appendGeneration(std::move(B).str());
}

std::string RunReport::manifestJson() const {
  double WallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();

  search::EngineCounters Totals;
  search::EngineCacheStats CacheTotals;
  search::EngineRacingStats RacingTotals;
  search::ReplayBackendStats ReplayTotals;
  for (const AppEntry &A : Apps) {
    Totals += A.Outcome.Counters;
    CacheTotals.GenomeHits += A.Outcome.Cache.GenomeHits;
    CacheTotals.BinaryHits += A.Outcome.Cache.BinaryHits;
    CacheTotals.Misses += A.Outcome.Cache.Misses;
    RacingTotals.ReplaysSpent += A.Outcome.Racing.ReplaysSpent;
    RacingTotals.FixedBudget += A.Outcome.Racing.FixedBudget;
    RacingTotals.EarlyStops += A.Outcome.Racing.EarlyStops;
    RacingTotals.Escalations += A.Outcome.Racing.Escalations;
    RacingTotals.TopUps += A.Outcome.Racing.TopUps;
    ReplayTotals += A.Outcome.ReplayBackend;
  }

  json::Builder B;
  B.field("schema", RunSchema);
  B.field("tool", Info.Tool);
  B.field("git", ROPT_GIT_DESCRIBE);
  B.field("seed", Info.Seed);
  B.field("jobs", Info.Jobs);
  B.field("fast", Info.Fast);
  {
    json::Builder C;
    C.field("generations", Info.Generations)
        .field("population", Info.PopulationSize)
        .field("racing", Info.Racing)
        .field("min_replays_per_evaluation", Info.MinReplaysPerEvaluation)
        .field("max_replays_per_evaluation", Info.MaxReplaysPerEvaluation)
        .field("captures_per_region", Info.CapturesPerRegion)
        .field("memoize", Info.Memoize)
        .field("analysis_guided", Info.AnalysisGuided)
        .field("session_backends", Info.SessionBackends)
        .field("store", Info.StoreDir);
    B.fieldRaw("config", std::move(C).str());
  }
  B.field("wall_seconds", WallSeconds);
  B.field("evaluations", TotalEvaluations);
  {
    json::Builder AppsB(/*Array=*/true);
    for (const AppEntry &A : Apps) {
      json::Builder E;
      E.field("name", A.Name);
      E.field("succeeded", A.Outcome.Succeeded);
      if (A.Outcome.FailureReason.empty())
        E.fieldNull("failure");
      else
        E.field("failure", A.Outcome.FailureReason);
      E.fieldRaw("verdicts", countersJson(A.Outcome.Counters));
      E.fieldRaw("cache", cacheJson(A.Outcome.Cache));
      E.fieldRaw("racing", racingJson(A.Outcome.Racing));
      E.fieldRaw("replay_backend", replayBackendJson(A.Outcome.ReplayBackend));
      E.field("region_android_cycles", A.Outcome.RegionAndroid);
      E.field("region_o3_cycles", A.Outcome.RegionO3);
      E.field("region_best_cycles", A.Outcome.RegionBest);
      E.field("speedup_ga_over_android", A.Outcome.SpeedupGaOverAndroid);
      E.field("speedup_ga_over_o3", A.Outcome.SpeedupGaOverO3);
      if (!A.Outcome.Analysis.empty()) {
        json::Builder RegionsB(/*Array=*/true);
        for (const analysis::RegionReport &R : A.Outcome.Analysis.Regions)
          RegionsB.elementRaw(regionManifestJson(R));
        E.fieldRaw("region_analysis", std::move(RegionsB).str());
        E.field("applied_budget_scale", A.Outcome.AppliedBudgetScale);
        E.field("applied_pass_mask",
                static_cast<uint64_t>(A.Outcome.AppliedPassMask));
      }
      AppsB.elementRaw(std::move(E).str());
    }
    B.fieldRaw("apps", std::move(AppsB).str());
  }
  {
    json::Builder T;
    T.fieldRaw("verdicts", countersJson(Totals));
    T.fieldRaw("cache", cacheJson(CacheTotals));
    T.fieldRaw("racing", racingJson(RacingTotals));
    T.fieldRaw("replay_backend", replayBackendJson(ReplayTotals));
    B.fieldRaw("totals", std::move(T).str());
  }
  if (HasFleet) {
    json::Builder F;
    F.field("devices", Fleet.DeviceSweep)
        .field("rounds", Fleet.Rounds)
        .field("top_k", Fleet.TopK)
        .field("drop_prob", Fleet.DropProb)
        .field("reorder_prob", Fleet.ReorderProb)
        .field("hints_published", Fleet.HintsPublished)
        .field("hints_adopted", Fleet.HintsAdopted)
        .field("hints_rejected", Fleet.HintsRejected);
    Fleet.Transport.emitJson(F);
    F.field("best_speedup", Fleet.BestSpeedup);
    if (!Fleet.ClassBoards.empty()) {
      json::Builder Rows(/*Array=*/true);
      for (const ClassLeaderboardRow &R : Fleet.ClassBoards) {
        json::Builder Row;
        Row.field("app", R.App)
            .field("devices", R.Devices)
            .field("class", R.Class)
            .field("genome", R.Genome)
            .field("speedup", R.Speedup)
            .field("reports", R.Reports)
            .field("restored", R.Restored);
        Rows.elementRaw(std::move(Row).str());
      }
      F.fieldRaw("class_leaderboards", std::move(Rows).str());
    }
    B.fieldRaw("fleet", std::move(F).str());
  }
  if (HasWarmStart) {
    json::Builder W;
    W.field("used", Warm.Used)
        .field("store_schema", Warm.StoreSchema)
        .field("nights", Warm.Nights)
        .field("entries_loaded", Warm.EntriesLoaded)
        .field("quarantined_loaded", Warm.QuarantinedLoaded)
        .field("hints_injected", Warm.HintsInjected);
    B.fieldRaw("warm_start", std::move(W).str());
  }
  return std::move(B).str();
}

bool RunReport::finish() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Finished)
    return true;
  Finished = true;

  bool Ok = Writer->writeFile(ManifestFile, manifestJson());

  // Fleet telemetry + trace are pure functions of the simulation (virtual
  // clock, no wall time), so unlike metrics/trace they stay
  // byte-identical at any --jobs.
  if (!TelemetryCells.empty()) {
    json::Builder B;
    B.field("schema", 5);
    uint64_t Dropped = 0;
    for (const fleet::FleetTelemetry &T : TelemetryCells)
      Dropped += T.DroppedEvents;
    B.field("dropped_events", Dropped);
    json::Builder Cells(/*Array=*/true);
    fleet::SketchSet FleetTotal;
    for (const fleet::FleetTelemetry &T : TelemetryCells) {
      Cells.elementRaw(T.json());
      FleetTotal += T.Total;
    }
    B.fieldRaw("cells", std::move(Cells).str());
    B.fieldRaw("fleet", FleetTotal.json());
    Ok &= Writer->writeFile(TelemetryFile, std::move(B).str());
  }
  if (!FleetTraceOut.empty())
    Ok &= Writer->writeFile(FleetTraceFile, FleetTraceOut.toChromeJson());

  Ok &= Writer->writeFile(MetricsFile,
                          Metrics::instance().snapshot().toJson());
  Ok &= Writer->writeFile(TraceFile, TraceRecorder::instance().toChromeJson());
  return Ok;
}
