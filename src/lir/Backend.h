//===- lir/Backend.h - The LLVM-like compiler driver ------------*- C++ -*-===//
//
// Part of ReplayOpt (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end compilation through the LLVM-like backend: bytecode ->
/// HGraph -> SSA -> pass pipeline -> verification -> machine code. The
/// verifier and the size budget turn unsound or explosive pipelines into
/// *compiler errors/timeouts* rather than silent garbage — the offline
/// search discards those outright (Figure 1's manageable 15%).
///
//===----------------------------------------------------------------------===//

#ifndef ROPT_LIR_BACKEND_H
#define ROPT_LIR_BACKEND_H

#include "hgraph/Codegen.h"
#include "lir/FromHGraph.h"
#include "lir/Passes.h"

#include <memory>
#include <optional>

namespace ropt {
namespace lir {

/// Compilation outcome classes.
enum class CompileStatus {
  Ok,
  VerifierError, ///< A pass pipeline produced invalid IR ("compiler crash").
  SizeBudget,    ///< Code growth exploded ("compiler timeout").
  Unsupported,   ///< Native or Android-uncompilable method.
};

const char *compileStatusName(CompileStatus Status);

/// Everything that configures one compilation.
struct CompileOptions {
  std::vector<PassInstance> Pipeline;
  hgraph::RegAllocKind RegAlloc = hgraph::RegAllocKind::LinearScan;
  TranslateOptions Translate;
  size_t SizeBudget = 50000;
};

/// Result of one compilation.
struct CompileResult {
  CompileStatus Status = CompileStatus::Unsupported;
  std::shared_ptr<vm::MachineFunction> Fn;
  std::string Error; ///< Verifier message when Status == VerifierError.

  bool ok() const { return Status == CompileStatus::Ok; }
};

/// Compiles one method again and again, each time resuming from the
/// longest pass prefix the new pipeline shares with the last one.
///
/// The compiler keeps the translated function (prefix length 0) and the
/// IR after each pass of the last pipeline it ran, keyed by that exact
/// (PassId, IntParam, Aggressive) sequence. A pipeline that exploded the
/// size budget is remembered up to the exploding pass, so a later pipeline
/// through the same prefix fails the same way without running it. Only
/// the suffix after the shared prefix runs, followed by verification and
/// code generation as usual: every result is byte-identical to a compile
/// from the bytecode. Memory is bounded by one pipeline's snapshots.
///
/// The translation options, size budget and profile are part of the key:
/// a compile with different ones starts over. The profile is keyed by
/// address, so its contents must not change between compiles.
class MethodCompiler {
public:
  MethodCompiler(const dex::DexFile &File, dex::MethodId Method);

  CompileResult compile(const CompileOptions &Options,
                        const TypeProfile *Profile = nullptr);

  /// Pass applications run, and skipped by resuming from a snapshot.
  uint64_t passesApplied() const { return Applied; }
  uint64_t passesResumed() const { return Resumed; }

private:
  /// Drops everything but the translated function.
  void forgetPipeline();

  const dex::DexFile *File;
  dex::MethodId Method;
  std::optional<LFunction> Translated;
  TranslateOptions TranslatedWith;
  size_t SizeBudget = 0;
  const TypeProfile *Profile = nullptr;
  /// The last pipeline, up to and including its exploding pass when
  /// Exploded; Snapshots[I] is the IR after Path[0..I].
  std::vector<PassInstance> Path;
  std::vector<LFunction> Snapshots;
  bool Exploded = false;
  uint64_t Applied = 0;
  uint64_t Resumed = 0;
};

/// One MethodCompiler per method of a region.
class RegionCompiler {
public:
  RegionCompiler(const dex::DexFile &File,
                 const std::vector<dex::MethodId> &Methods);

  /// Compiles every method into \p Cache; methods that fail keep their
  /// previous tier (interpreter or whatever was installed). Returns the
  /// first non-Ok status encountered (Ok if all succeeded).
  CompileStatus compile(const CompileOptions &Options, vm::CodeCache &Cache,
                        const TypeProfile *Profile = nullptr);

private:
  std::vector<MethodCompiler> Compilers;
};

/// Compiles \p Method through the backend (a fresh MethodCompiler).
CompileResult compileMethodLlvm(const dex::DexFile &File,
                                dex::MethodId Method,
                                const CompileOptions &Options,
                                const TypeProfile *Profile = nullptr);

/// Compiles every method of \p Methods into \p Cache (a fresh
/// RegionCompiler; see RegionCompiler::compile).
CompileStatus compileAllLlvm(const dex::DexFile &File,
                             const std::vector<dex::MethodId> &Methods,
                             const CompileOptions &Options,
                             vm::CodeCache &Cache,
                             const TypeProfile *Profile = nullptr);

/// Stock preset pipelines (the "-O0/-O1/-O2/-O3" baselines). Note that the
/// presets deliberately exclude the backend's custom passes (gc-elide) —
/// they model *stock LLVM* heuristics, which is why -O3 can lose to the
/// Android compiler on safepoint-heavy loops (Section 5.1).
std::vector<PassInstance> o0Pipeline();
std::vector<PassInstance> o1Pipeline();
std::vector<PassInstance> o2Pipeline();
std::vector<PassInstance> o3Pipeline();

} // namespace lir
} // namespace ropt

#endif // ROPT_LIR_BACKEND_H
