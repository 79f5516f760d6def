//===- report/ReportWriter.h - Run-directory artifact streams ---*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The filesystem half of the run-report flight recorder: creates the run
/// directory, owns the append-only JSONL streams (`evaluations.jsonl`,
/// `generations.jsonl`) and writes the whole-file artifacts
/// (`manifest.json`, `metrics.json`, `trace.json`) at finish time. All
/// appends go through one mutex and are flushed line-at-a-time, so a
/// crashed run leaves a readable prefix rather than a torn record.
///
/// Ordering is the caller's contract: RunReport appends strictly in batch
/// order on the search's calling thread, which is what keeps a seeded
/// run's record stream bit-identical at any `--jobs` value.
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_REPORT_REPORT_WRITER_H
#define ROPT_REPORT_REPORT_WRITER_H

#include "support/Result.h"

#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

namespace ropt {
namespace report {

/// The manifest schema RunReport writes; report::loadRun reads no other.
inline constexpr int RunSchema = 8;

/// Artifact file names inside a run directory.
inline constexpr const char *ManifestFile = "manifest.json";
inline constexpr const char *EvaluationsFile = "evaluations.jsonl";
inline constexpr const char *GenerationsFile = "generations.jsonl";
inline constexpr const char *MetricsFile = "metrics.json";
inline constexpr const char *TraceFile = "trace.json";
/// Per-(round, device) log of a fleet run; absent in single-device runs.
inline constexpr const char *FleetFile = "fleet.jsonl";
/// Per-region observability-loop records: one line per candidate region
/// per app with its feature vector, bottleneck label, slack and budget
/// share. Absent when the pipeline produced no region analysis.
inline constexpr const char *AnalysisFile = "analysis.jsonl";
/// Fleet-wide Chrome trace on the virtual clock: one track per device
/// class per coordinator cell, async delivery arrows, churn instants.
/// Absent in non-fleet runs.
inline constexpr const char *FleetTraceFile = "fleet.trace.json";
/// Mergeable per-class telemetry sketches and provenance chains. Absent
/// in non-fleet runs. Unlike metrics.json this is a pure function of the
/// simulation, so it is byte-identical at any --jobs.
inline constexpr const char *TelemetryFile = "telemetry.json";

/// Owns one run directory and its streams. Create through open();
/// destruction closes the streams (finish-time artifacts are the
/// RunReport's job).
class ReportWriter {
public:
  /// Creates \p Dir (and parents) and opens the JSONL streams for
  /// truncation-append. Fails when the directory or streams cannot be
  /// created.
  static support::Result<std::unique_ptr<ReportWriter>>
  open(const std::string &Dir);

  ~ReportWriter();
  ReportWriter(const ReportWriter &) = delete;
  ReportWriter &operator=(const ReportWriter &) = delete;

  const std::string &directory() const { return Dir; }

  /// Appends one pre-rendered JSON object as a line; flushes.
  void appendEvaluation(const std::string &Json);
  void appendGeneration(const std::string &Json);
  /// Same, for the fleet round log. The stream opens lazily on first
  /// append, so only fleet runs grow a fleet.jsonl.
  void appendFleetRound(const std::string &Json);
  /// Same, for the per-region analysis log; lazily opened, so only runs
  /// that produced a region analysis grow an analysis.jsonl.
  void appendAnalysis(const std::string &Json);

  /// Writes \p Content verbatim to `<dir>/<Name>`; false on I/O failure.
  bool writeFile(const char *Name, const std::string &Content);

private:
  explicit ReportWriter(std::string Dir) : Dir(std::move(Dir)) {}
  void appendLine(std::FILE *F, const std::string &Json);

  std::string Dir;
  std::mutex Mutex;
  std::FILE *Evals = nullptr;
  std::FILE *Gens = nullptr;
  std::FILE *Fleet = nullptr; ///< Lazily opened by appendFleetRound().
  std::FILE *Analysis = nullptr; ///< Lazily opened by appendAnalysis().
};

} // namespace report
} // namespace ropt

#endif // ROPT_REPORT_REPORT_WRITER_H
