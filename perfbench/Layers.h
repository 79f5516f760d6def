//===- perfbench/Layers.h - Spans around public calls -----------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's measuring layer. Every number here is taken in the
/// benchmark's own code, around calls into a module's public functions:
/// the program itself is not instrumented. Spans and counts are kept in
/// memory (Probe) and written out when the run ends.
///
///  - TimingBackend wraps each engine worker's core::RegionEvaluator and
///    times compileGenome / measureBinary / extendSamples.
///  - TimingEvaluator wraps the search::EvaluationEngine the GA sees and
///    times each evaluateBatch / announceIncumbent.
///  - Decomposer keeps every genome the engine compiled and, after the
///    search, re-runs each compile phase by phase through the public
///    hgraph/lir calls, checking that it reproduces the same binary. It
///    runs outside the search so it does not perturb the timed batches.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_PERFBENCH_LAYERS_H
#define ROPT_PERFBENCH_LAYERS_H

#include "core/IterativeCompiler.h"

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// In-memory spans and counts of one traced run. Thread-safe: engine
/// workers record into it concurrently.
class Probe {
public:
  explicit Probe(Clock::time_point Origin) : Origin(Origin) {}

  void span(const std::string &Name, Clock::time_point Begin,
            Clock::time_point End);
  void add(const std::string &Counter, double Delta);

  /// Durations (ms) of every span named \p Name, in record order.
  std::vector<double> durations(const std::string &Name) const;
  double totalMs(const std::string &Name) const;
  double counter(const std::string &Name) const;

  /// Chrome trace_event JSON of every span; false if the file cannot be
  /// written.
  bool writeChromeTrace(const std::string &Path) const;

private:
  struct Span {
    std::string Name;
    int Thread;
    double BeginMs;
    double EndMs;
  };
  int threadIndexLocked();

  mutable std::mutex M;
  Clock::time_point Origin;
  std::vector<Span> Spans;
  std::map<std::string, double> Counters;
  std::map<std::thread::id, int> Threads;
};

/// RAII span; inert when the probe is null (the untraced run).
class ScopedSpan {
public:
  ScopedSpan(Probe *P, std::string Name)
      : P(P), Name(std::move(Name)), Begin(Clock::now()) {}
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  ~ScopedSpan() {
    if (P)
      P->span(Name, Begin, Clock::now());
  }

private:
  Probe *P;
  std::string Name;
  Clock::time_point Begin;
};

/// Phase-by-phase recompilation of compiled genomes (hgraph build, LIR
/// translation, each registry pass, verify, codegen), timed into the
/// probe, plus the pass-prefix reuse count. One per app and region.
class Decomposer {
public:
  Decomposer(const ropt::workloads::Application &App,
             const ropt::profiler::HotRegion &Region,
             const std::vector<ropt::core::CapturedRegion> &Captures,
             const ropt::core::PipelineConfig &Config, Probe &P);

  /// Keeps \p B, the binary compileGenome produced for \p G. Thread-safe.
  void record(const ropt::search::Genome &G,
              const ropt::search::CompiledBinary &B);

  /// Recompiles every recorded genome on \p Jobs threads; returns how
  /// many did not reproduce their binary.
  size_t reproduceAll(size_t Jobs);

private:
  /// Recompiles \p G and compares the result with \p B.
  bool reproduces(const ropt::search::Genome &G,
                  const ropt::search::CompiledBinary &B);

  const ropt::workloads::Application &App;
  const ropt::profiler::HotRegion &Region;
  ropt::lir::TypeProfile Profile; ///< Merged like RegionEvaluator's.
  size_t SizeBudget;
  Probe &P;

  std::mutex M;
  std::vector<std::pair<ropt::search::Genome, ropt::search::CompiledBinary>>
      Compiled;
  std::unordered_set<uint64_t> SeenPrefixes; ///< (method, pass prefix)
};

/// An engine worker: forwards to a RegionEvaluator and times each call.
class TimingBackend : public ropt::search::EvalBackend {
public:
  TimingBackend(std::unique_ptr<ropt::core::RegionEvaluator> Inner,
                Probe &P, Decomposer &D)
      : Inner(std::move(Inner)), P(P), D(D) {}

  ropt::search::CompiledBinary
  compileGenome(const ropt::search::Genome &G) override;
  ropt::search::Evaluation measureBinary(const ropt::search::CompiledBinary &B,
                                         uint64_t NoiseSeed,
                                         size_t SampleCount) override;
  std::vector<double> extendSamples(const ropt::search::Evaluation &E,
                                    uint64_t NoiseSeed, size_t Begin,
                                    size_t Count) override;
  ropt::search::ReplayBackendStats replayStats() const override {
    return Inner->replayStats();
  }

private:
  std::unique_ptr<ropt::core::RegionEvaluator> Inner;
  Probe &P;
  Decomposer &D;
  bool Measured = false;
};

/// What the GA sees: the engine, with each call timed on the main thread.
class TimingEvaluator : public ropt::search::BatchEvaluator {
public:
  TimingEvaluator(ropt::search::BatchEvaluator &Inner, Probe &P)
      : Inner(Inner), P(P) {}

  std::vector<ropt::search::Evaluation>
  evaluateBatch(const std::vector<ropt::search::Genome> &Genomes) override;
  ropt::search::Evaluation
  announceIncumbent(const ropt::search::Evaluation &E) override;

private:
  ropt::search::BatchEvaluator &Inner;
  Probe &P;
};

} // namespace perfbench

#endif // ROPT_PERFBENCH_LAYERS_H
