//===- perfbench/Pipelines.h - What each workload runs ----------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The operations the benchmark times and checks:
///  - optimizeApp: IterativeCompiler::optimize(), as a library user calls
///    it (the untraced run);
///  - tracedOptimizeApp: the same phases driven one public call at a time
///    with spans around each (the traced run); its digest must equal
///    optimizeApp's;
///  - the fleet configuration of the fleet-1k workload;
///  - checkWinner: the reference check of a winning genome against the
///    interpreter on held-out sessions.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_PERFBENCH_PIPELINES_H
#define ROPT_PERFBENCH_PIPELINES_H

#include "fleet/Coordinator.h"
#include "perfbench/Layers.h"

#include <string>

namespace perfbench {

/// One app's outcome, plus what the reference check needs.
struct AppResult {
  std::string Name;
  bool Succeeded = false;
  std::string FailureReason;
  /// Best genome, RegionBest, EngineCounters and EngineCacheStats.
  std::string Digest;
  double Speedup = 0.0; ///< speedupGaOverAndroid()

  ropt::profiler::HotRegion Region;
  ropt::capture::Capture Cap;
  ropt::search::Genome Best;
  uint64_t BestHash = 0;

  /// Traced run: compiled genomes whose phase-by-phase recompile did not
  /// reproduce compileGenome's binary.
  size_t Unreproduced = 0;
};

/// Where one app's traced time went (the workload-split rationale).
struct AppShares {
  std::string Name;
  double ProfileMs = 0.0;
  double CaptureMs = 0.0; ///< Capture plus interpreted replay.
  double CompileMs = 0.0; ///< Busy time in compileGenome.
  double ReplayMs = 0.0;  ///< Busy time in measureBinary/extendSamples.
  double InstallMs = 0.0;
};

AppResult optimizeApp(const ropt::workloads::Application &App,
                      const ropt::core::PipelineConfig &Config);

AppResult tracedOptimizeApp(const ropt::workloads::Application &App,
                            const ropt::core::PipelineConfig &Config,
                            Probe &P, AppShares &Shares);

/// The fleet-1k cell (fleet_scale --devices 1000 --rounds 3): install-base
/// budgets, 24 profile classes, the paper's lossy network. \p Reduced
/// shrinks it for the worker-count test.
ropt::fleet::FleetOptions fleetOptions(uint64_t Seed, int Jobs, bool Reduced);
ropt::core::PipelineConfig fleetPipeline(uint64_t Seed, int Jobs);

/// Installs \p G's binary for \p Region and runs held-out sessions
/// against the same sessions on an interpret-only instance, comparing
/// the returned value and trap-freedom. When \p ExpectHash is non-zero
/// the recompiled winner must also hash to it. Returns "" on a pass,
/// else what differed.
std::string checkWinner(const ropt::workloads::Application &App,
                        const ropt::core::PipelineConfig &Config,
                        const ropt::profiler::HotRegion &Region,
                        const ropt::capture::Capture &Cap,
                        const ropt::search::Genome &G, uint64_t ExpectHash);

/// checkWinner for a genome found elsewhere (the fleet's best): profiles
/// and captures \p App with \p Config first.
std::string checkGenome(const ropt::workloads::Application &App,
                        const ropt::core::PipelineConfig &Config,
                        const ropt::search::Genome &G);

} // namespace perfbench

#endif // ROPT_PERFBENCH_PIPELINES_H
