//===- perfbench/main.cpp - The ReplayOpt benchmark program ---------------===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
// perfbench --workload ga-compile|ga-replay|fleet-1k --seed N --trace 0|1
//           [--jobs N] [--reduced] [--out DIR]
//
// Runs one pass of a workload at pipeline seed N: set-up, the timed
// operations exactly as a library user calls them
// (IterativeCompiler::optimize, fleet::Coordinator::run), then the
// reference check of every winner. --trace 1 adds a traced pass measured
// from spans around public calls (Layers.h) and reports its per-layer
// metrics. The last stdout line is one JSON object:
//   {"correct", "attempted", "failed",
//    "pass": {"wall_s", "cpu_s", "peak_rss_mb", "setup_ms": [..],
//             "speedups": [..], "digest"},
//    "metrics": {name: value}}
// perfbench/run.py runs one process per pass, so a crash costs only that
// pass's operations, and aggregates the passes into BENCHMARK.json's
// metrics; perfbench/NOTES.md says why each workload and metric exists.
//
//===----------------------------------------------------------------------===//

#include "perfbench/Pipelines.h"

#include "lir/Passes.h"
#include "support/Format.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <thread>

using namespace ropt;
using namespace perfbench;

namespace {

// --- Workloads -------------------------------------------------------------

struct Workload {
  const char *Name;
  bool Fleet;
  /// Table-1 apps, split by the layer that dominates their search time
  /// at seed 1 (NOTES.md records the shares).
  std::vector<std::string> Apps;
};

const std::vector<Workload> &allWorkloads() {
  static const std::vector<Workload> W = {
      {"ga-compile",
       false,
       {"FFT", "LU", "Linpack", "Fibonacci.recv", "ColorOverflow",
        "Svarka Calculator", "Reversi Android", "Poker Odds (Vitosha)",
        "4inaRow"}},
      {"ga-replay",
       false,
       {"SOR", "MonteCarlo", "Sparse matmult", "Sieve", "BubbleSort",
        "SelectionSort", "Fibonacci.iter", "Dhrystone", "MaterialLife",
        "DroidFish", "Blokish", "Brainstonz"}},
      {"fleet-1k", true, {"Sieve"}},
  };
  return W;
}

struct Args {
  const Workload *W = nullptr;
  uint64_t Seed = 1;
  bool Trace = false;
  int Jobs = 0;
  bool Reduced = false;
  std::string OutDir = ".bench_out";
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload NAME --seed N "
               "--trace 0|1 [--jobs N] [--reduced] [--out DIR]\n",
               Msg);
  std::exit(2);
}

uint64_t parseNumber(const char *Flag, const char *V) {
  char *End = nullptr;
  unsigned long long N = std::strtoull(V, &End, 10);
  if (End == V || *End != '\0' || std::strchr(V, '-'))
    usage(format("%s expects a non-negative integer, got '%s'", Flag, V)
              .c_str());
  return N;
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string F = Argv[I];
    if (F == "--reduced") {
      A.Reduced = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage(("missing value for " + F).c_str());
    const char *V = Argv[++I];
    if (F == "--workload") {
      for (const Workload &W : allWorkloads())
        if (W.Name == std::string(V))
          A.W = &W;
      if (!A.W)
        usage(format("unknown workload '%s'", V).c_str());
    } else if (F == "--seed") {
      A.Seed = parseNumber("--seed", V);
    } else if (F == "--trace") {
      A.Trace = parseNumber("--trace", V) != 0;
    } else if (F == "--jobs") {
      uint64_t Jobs = parseNumber("--jobs", V);
      if (Jobs > 1024)
        usage("--jobs expects at most 1024");
      A.Jobs = static_cast<int>(Jobs);
    } else if (F == "--out") {
      A.OutDir = V;
    } else {
      usage(("unknown flag " + F).c_str());
    }
  }
  if (!A.W)
    usage("--workload is required");
  if (A.Jobs <= 0)
    A.Jobs = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  return A;
}

/// The paper configuration: 11x50 GA, 10 samples, 1 capture, sessions
/// on, racing off. --reduced shrinks the search for the worker-count test.
core::PipelineConfig gaPipeline(const Args &A) {
  core::PipelineConfig C = core::PipelineConfig::paperDefaults();
  C.Seed = A.Seed;
  C.Search.Jobs = A.Jobs;
  if (A.Reduced) {
    C.Search.GA.Generations = 3;
    C.Search.GA.PopulationSize = 8;
    C.Search.GA.HillClimbRounds = 1;
    C.Search.MaxReplaysPerEvaluation = 5;
  }
  return C;
}

// --- Setup: what stands between process start and the timed operation ----

struct Setup {
  std::vector<workloads::Application> Apps;
  std::unique_ptr<fleet::Server> Srv;
  std::unique_ptr<fleet::SimTransport> Net;
  std::unique_ptr<fleet::Coordinator> Co;
};

Setup setUp(const Args &A) {
  Setup S;
  for (workloads::Application &App : workloads::buildSuite())
    if (std::count(A.W->Apps.begin(), A.W->Apps.end(), App.Name))
      S.Apps.push_back(std::move(App));
  if (A.W->Fleet) {
    fleet::FleetOptions FO = fleetOptions(A.Seed, A.Jobs, A.Reduced);
    S.Srv = std::make_unique<fleet::Server>();
    S.Net = std::make_unique<fleet::SimTransport>(FO.Net, A.Seed);
    S.Co = std::make_unique<fleet::Coordinator>(
        FO, fleetPipeline(A.Seed, A.Jobs));
  }
  return S;
}

// --- One timed pass over the workload --------------------------------------

double cpuSeconds() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec) * 1e-6;
}

struct Pass {
  double WallS = 0.0;
  double CpuS = 0.0;
  std::vector<AppResult> Apps;
  fleet::FleetResult Fleet;
};

AppResult fleetOutcome(const fleet::FleetResult &R) {
  AppResult Out;
  Out.Name = R.AppName;
  Out.Succeeded = R.Succeeded;
  Out.FailureReason = R.FailureReason;
  Out.Digest = R.digest();
  Out.Speedup = R.BestSpeedup;
  if (R.Succeeded && !search::parseGenome(R.BestGenome, Out.Best)) {
    Out.Succeeded = false;
    Out.FailureReason = "unparseable best genome " + R.BestGenome;
  }
  return Out;
}

/// \p P null: the untraced pass, exactly the library calls a user makes.
/// Otherwise the traced pass, which also fills \p Shares.
Pass runPass(const Args &A, Setup &S, Probe *P,
             std::vector<AppShares> *Shares) {
  Pass Out;
  core::PipelineConfig Config = gaPipeline(A);
  double Cpu0 = cpuSeconds();
  Clock::time_point T0 = Clock::now();
  if (A.W->Fleet) {
    ScopedSpan Sp(P, "fleet.run");
    Out.Fleet = S.Co->run(A.W->Apps.front(), *S.Srv, *S.Net);
    Out.Apps.push_back(fleetOutcome(Out.Fleet));
  } else {
    for (const workloads::Application &App : S.Apps) {
      if (!P) {
        Out.Apps.push_back(optimizeApp(App, Config));
        continue;
      }
      Shares->emplace_back();
      Out.Apps.push_back(tracedOptimizeApp(App, Config, *P, Shares->back()));
    }
  }
  // The phase-by-phase recompile is benchmark work, not program work.
  double DecomposeMs = P ? P->totalMs("bench.decompose") : 0.0;
  Out.WallS = (msBetween(T0, Clock::now()) - DecomposeMs) / 1e3;
  Out.CpuS = cpuSeconds() - Cpu0;
  return Out;
}

// --- Statistics ------------------------------------------------------------

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}
double medianOf(const std::vector<double> &V) { return quantile(V, 0.5); }
double ratio(double Num, double Den) { return Den > 0.0 ? Num / Den : 0.0; }

// --- Checks ----------------------------------------------------------------

/// Failed operations (apps, or the fleet run), each with the first
/// reason seen. An integrity failure also makes the run incorrect: the
/// benchmark's own measurement did not hold (a traced pass that differs
/// from the untraced one, a phase-by-phase compile that differs from
/// compileGenome).
struct Failures {
  std::map<std::string, std::string> ByOp;
  bool Integrity = true;

  void note(const std::string &App, const std::string &Why,
            bool IntegrityFailure) {
    ByOp.emplace(App, Why);
    if (IntegrityFailure)
      Integrity = false;
  }
};

/// A later pass of the same seed, traced or not, must reproduce the
/// untraced one bit for bit.
void checkRepeat(const Pass &Untraced, const Pass &Later, Failures &F) {
  for (size_t I = 0; I != Untraced.Apps.size(); ++I) {
    const AppResult &R = Untraced.Apps[I];
    if (I >= Later.Apps.size() || Later.Apps[I].Digest != R.Digest ||
        Later.Apps[I].Succeeded != R.Succeeded)
      F.note(R.Name, "a repeated pass differs from the untraced pass",
             true);
  }
  for (const AppResult &R : Later.Apps)
    if (R.Unreproduced)
      F.note(R.Name,
             format("%zu phase-by-phase compiles differ from compileGenome",
                    R.Unreproduced),
             true);
}

/// Pipeline failures and the reference check of every winner.
void checkOutcomes(const Args &A, const Setup &S, const Pass &Untraced,
                   Failures &F) {
  core::PipelineConfig Config =
      A.W->Fleet ? fleetPipeline(A.Seed, A.Jobs) : gaPipeline(A);
  for (size_t I = 0; I != Untraced.Apps.size(); ++I) {
    const AppResult &R = Untraced.Apps[I];
    if (!R.Succeeded) {
      F.note(R.Name, "pipeline failed: " + R.FailureReason, false);
      continue;
    }
    std::string Why =
        A.W->Fleet ? checkGenome(S.Apps.front(), Config, R.Best)
                   : checkWinner(S.Apps[I], Config, R.Region, R.Cap, R.Best,
                                 R.BestHash);
    if (!Why.empty())
      F.note(R.Name, "reference check: " + Why, false);
  }
}

// --- Metrics ---------------------------------------------------------------

using MetricMap = std::map<std::string, double>;

double peakRssMb() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

/// Layer metrics of the GA workloads, from one traced pass.
void gaLayers(const Probe &P, const Pass &Traced, int Jobs, MetricMap &M) {
  auto PerPass = [&](const std::string &Span) { return P.totalMs(Span); };
  auto Count = [&](const std::string &C) { return P.counter(C); };

  M["profiler.ms"] = PerPass("profiler");
  M["core.boot_ms"] = medianOf(P.durations("core.boot"));
  M["core.baselines_ms"] = PerPass("core.baselines");
  M["core.install_ms"] = PerPass("core.install");

  double Apps = 0.0, Pause = 0.0, Kb = 0.0, Pages = 0.0, Fork = 0.0,
         Prep = 0.0, Fault = 0.0;
  for (const AppResult &R : Traced.Apps) {
    Apps += 1.0;
    Pause += R.Cap.Overheads.totalMs();
    Kb += static_cast<double>(R.Cap.processSpecificBytes()) / 1024.0;
    Pages += static_cast<double>(R.Cap.Pages.size());
    Fork += R.Cap.Overheads.ForkMs;
    Prep += R.Cap.Overheads.PreparationMs;
    Fault += R.Cap.Overheads.FaultCowMs;
  }
  M["capture.ms"] = PerPass("capture");
  M["capture.pause_ms"] = ratio(Pause, Apps);
  M["capture.kb"] = ratio(Kb, Apps);
  M["capture.pages"] = ratio(Pages, Apps);
  M["capture.sim_fork_ms"] = ratio(Fork, Apps);
  M["capture.sim_prep_ms"] = ratio(Prep, Apps);
  M["capture.sim_fault_ms"] = ratio(Fault, Apps);

  std::vector<double> Measure = P.durations("replay.measure");
  double ReplayBusy = P.totalMs("replay.measure") + P.totalMs("replay.extend");
  M["replay.interp_ms"] = PerPass("replay.interp");
  M["replay.measure_ms.p50"] = quantile(Measure, 0.5);
  M["replay.measure_ms.p99"] = quantile(Measure, 0.99);
  M["replay.busy_ms"] = ReplayBusy;
  M["replay.measure_calls"] = static_cast<double>(Measure.size());
  M["replay.reject_ratio"] =
      ratio(P.counter("replay.rejects"), static_cast<double>(Measure.size()));
  M["replay.first_measure_ms"] = PerPass("replay.first_measure");
  M["replay.sessions_created"] = Count("replay.sessions_created");
  M["replay.session_replays"] = Count("replay.session_replays");
  M["replay.pages_per_reset"] = ratio(P.counter("replay.pages_reverted"),
                                      P.counter("replay.delta_resets"));
  M["replay.full_rebuilds"] = Count("replay.full_rebuilds");

  std::vector<double> Compile = P.durations("lir.compile");
  double Calls = static_cast<double>(Compile.size());
  double Fails = P.counter("lir.compile_fails");
  double CompileBusy = P.totalMs("lir.compile");
  M["lir.compile_ms.p50"] = quantile(Compile, 0.5);
  M["lir.compile_ms.p99"] = quantile(Compile, 0.99);
  M["lir.busy_ms"] = CompileBusy;
  M["lir.compile_calls"] = Calls;
  M["lir.compile_fail_ratio"] = ratio(Fails, Calls);
  M["lir.code_bytes"] =
      ratio(P.counter("lir.code_bytes_total"), Calls - Fails);
  M["lir.ir_insns"] =
      ratio(P.counter("lir.ir_insns_total"), P.counter("lir.decomposed_ok"));
  M["hgraph.build_ms"] = Count("hgraph.build_ms");
  M["lir.translate_ms"] = Count("lir.translate_ms");
  for (const lir::PassDescriptor &D : lir::passRegistry())
    M[std::string("lir.pass_ms.") + D.Name] =
        Count(std::string("lir.pass_ms.") + D.Name);
  M["lir.verify_ms"] = Count("lir.verify_ms");
  M["lir.codegen_ms"] = Count("lir.codegen_ms");
  M["lir.prefix_reuse_ratio"] = ratio(P.counter("lir.pass_prefix_reused"),
                                      P.counter("lir.pass_applications"));

  std::vector<double> Batches = P.durations("search.batch");
  double EngineMs = P.totalMs("search.batch") + P.totalMs("search.announce");
  double TracedMs = Traced.WallS * 1e3;
  M["search.batch_ms.p50"] = quantile(Batches, 0.5);
  M["search.batch_ms.p90"] = quantile(Batches, 0.9);
  M["search.busy_ratio"] =
      ratio(CompileBusy + ReplayBusy, EngineMs * static_cast<double>(Jobs));
  // Without engine calls (fleet-1k) there is no batch to be outside of.
  M["search.serial_ms"] = EngineMs > 0.0 ? TracedMs - EngineMs : 0.0;
  M["search.ga_self_ms"] = P.totalMs("search.ga") - EngineMs;
  double Hits =
      P.counter("search.genome_hits") + P.counter("search.binary_hits");
  double Answers = Hits + P.counter("search.misses");
  M["search.hit_ratio"] = ratio(Hits, Answers);
  M["search.evals"] = Answers;
  M["search.invalid_ratio"] =
      ratio(P.counter("search.invalid"), P.counter("search.answers"));
  M["search.samples_spent"] = Count("search.samples_spent");
}

/// Layer metrics of the fleet workload: counts from FleetResult, timing
/// end to end (the fleet's layers run inside Coordinator::run).
void fleetLayers(const Pass &Traced, MetricMap &M) {
  const fleet::FleetResult &R = Traced.Fleet;
  M["fleet.ms_per_device"] =
      ratio(Traced.WallS * 1e3, static_cast<double>(R.Devices));
  M["fleet.virtual_ticks"] = static_cast<double>(R.VirtualDuration);
  M["fleet.hint_adopt_ratio"] = ratio(static_cast<double>(R.HintsAdopted),
                                      static_cast<double>(R.HintsPublished));
  M["fleet.hints_rejected"] = static_cast<double>(R.HintsRejected);
  M["fleet.drop_ratio"] = ratio(static_cast<double>(R.Transport.Drops),
                                static_cast<double>(R.Transport.Attempts));
  double Hits = static_cast<double>(R.Cache.hits());
  double Answers = Hits + static_cast<double>(R.Cache.Misses);
  M["search.hit_ratio"] = ratio(Hits, Answers);
  M["search.evals"] = Answers;
  M["search.invalid_ratio"] =
      ratio(static_cast<double>(R.Counters.total() - R.Counters.Ok),
            static_cast<double>(R.Counters.total()));
  M["search.samples_spent"] = static_cast<double>(R.Racing.ReplaysSpent);
  M["replay.sessions_created"] =
      static_cast<double>(R.ReplayBackend.SessionsCreated);
  M["replay.session_replays"] =
      static_cast<double>(R.ReplayBackend.SessionReplays);
  M["replay.pages_per_reset"] = R.ReplayBackend.pagesPerReset();
  M["replay.full_rebuilds"] =
      static_cast<double>(R.ReplayBackend.FullRebuilds);
}

/// The top-level phases of a traced pass: everything else on the main
/// thread is unattributed.
double attributedMs(const Probe &P) {
  double Sum = 0.0;
  for (const char *Phase :
       {"profiler", "analysis", "capture", "replay.interp", "core.baselines",
        "search.ga", "core.install", "fleet.run"})
    Sum += P.totalMs(Phase);
  return Sum;
}

void printShares(const std::vector<AppShares> &Shares) {
  std::printf("%-22s %9s %9s %9s %9s %9s %8s\n", "app (traced pass)",
              "profile", "capture", "compile", "replay", "install",
              "compile%");
  for (const AppShares &S : Shares)
    std::printf("%-22s %9.1f %9.1f %9.1f %9.1f %9.1f %7.1f%%\n",
                S.Name.c_str(), S.ProfileMs, S.CaptureMs, S.CompileMs,
                S.ReplayMs, S.InstallMs,
                100.0 * ratio(S.CompileMs, S.CompileMs + S.ReplayMs));
  std::printf("(ms; compile/replay are busy time summed over workers; "
              "compile%% = compile / (compile + replay))\n");
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  const Clock::time_point Start = Clock::now();
  std::printf("perfbench %s seed=%llu jobs=%d trace=%d%s\n", A.W->Name,
              static_cast<unsigned long long>(A.Seed), A.Jobs, A.Trace ? 1 : 0,
              A.Reduced ? " reduced" : "");

  // setup_s: set-up is repeated SetupReps times before each pass; the
  // caller takes the median over every sample of the run.
  constexpr int SetupReps = 16;
  std::vector<double> SetupMs;
  auto TimedSetUp = [&]() {
    Setup S;
    for (int I = 0; I != SetupReps; ++I) {
      Clock::time_point T0 = Clock::now();
      S = setUp(A);
      SetupMs.push_back(msBetween(T0, Clock::now()));
    }
    return S;
  };
  Setup S = TimedSetUp();
  if (S.Apps.size() != A.W->Apps.size()) {
    std::fprintf(stderr, "error: workload %s names an app the suite does "
                         "not build\n",
                 A.W->Name);
    return 1;
  }

  Pass Untraced = runPass(A, S, nullptr, nullptr);
  double PeakRssMb = peakRssMb();
  std::printf("untraced pass: %.3f s wall, %.3f s cpu\n", Untraced.WallS,
              Untraced.CpuS);

  Failures F;
  MetricMap M;
  Probe P(Start);
  if (A.Trace) {
    S = TimedSetUp();
    std::vector<AppShares> Shares;
    Pass Traced = runPass(A, S, &P, &Shares);
    std::printf("traced pass: %.3f s wall\n", Traced.WallS);
    checkRepeat(Untraced, Traced, F);
    if (!Shares.empty())
      printShares(Shares);
    // Every workload reports the same names: the other kind's extraction
    // runs first, on data this run does not have, so the layers this
    // workload does not reach read 0 (NOTES.md lists them).
    if (A.W->Fleet) {
      gaLayers(P, Traced, A.Jobs, M);
      fleetLayers(Traced, M);
    } else {
      fleetLayers(Traced, M);
      gaLayers(P, Traced, A.Jobs, M);
    }
    // The first pass of a process pays cold caches and heap growth; an
    // untraced pass after the traced one is the warm baseline.
    S = TimedSetUp();
    Pass Warm = runPass(A, S, nullptr, nullptr);
    std::printf("warm untraced pass: %.3f s wall\n", Warm.WallS);
    checkRepeat(Untraced, Warm, F);
    double TracedMs = Traced.WallS * 1e3;
    M["trace.overhead_ratio"] = ratio(Traced.WallS, Warm.WallS);
    M["trace.unattributed_ratio"] =
        ratio(TracedMs - attributedMs(P), TracedMs);
    std::error_code Ec;
    std::filesystem::create_directories(A.OutDir, Ec);
    std::string Path = format("%s/%s-seed%llu.trace.json", A.OutDir.c_str(),
                              A.W->Name,
                              static_cast<unsigned long long>(A.Seed));
    if (P.writeChromeTrace(Path))
      std::printf("spans: %s\n", Path.c_str());
    else
      std::fprintf(stderr, "warning: cannot write %s\n", Path.c_str());
  }

  Clock::time_point Check0 = Clock::now();
  checkOutcomes(A, S, Untraced, F);
  std::printf("reference checks: %.1f ms\n", msBetween(Check0, Clock::now()));
  for (const auto &[Op, Why] : F.ByOp)
    std::printf("FAILED %s: %s\n", Op.c_str(), Why.c_str());

  // The result line.
  std::string Digest, Speedups, Setups, Metrics;
  for (const AppResult &R : Untraced.Apps) {
    Digest += R.Digest + "\n";
    if (R.Succeeded)
      Speedups += format("%s%.17g", Speedups.empty() ? "" : ", ", R.Speedup);
  }
  for (double Ms : SetupMs)
    Setups += format("%s%.17g", Setups.empty() ? "" : ", ", Ms);
  for (const auto &[Name, Value] : M)
    Metrics += format("%s\"%s\": %.17g", Metrics.empty() ? "" : ", ",
                      Name.c_str(), Value);
  uint64_t DigestHash = 1469598103934665603ULL;
  for (char C : Digest) {
    DigestHash ^= static_cast<unsigned char>(C);
    DigestHash *= 1099511628211ULL;
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"pass\": {\"wall_s\": %.17g, "
              "\"cpu_s\": %.17g, \"peak_rss_mb\": %.17g, \"setup_ms\": [%s], "
              "\"speedups\": [%s], \"digest\": \"%016llx\"}, "
              "\"metrics\": {%s}}\n",
              F.Integrity ? "true" : "false", Untraced.Apps.size(),
              F.ByOp.size(), Untraced.WallS, Untraced.CpuS,
              PeakRssMb, Setups.c_str(), Speedups.c_str(),
              static_cast<unsigned long long>(DigestHash), Metrics.c_str());
  return 0;
}
