//===- perfbench/Layers.cpp - Spans around public calls -------------------===//

#include "perfbench/Layers.h"

#include "hgraph/Build.h"
#include "lir/Codegen.h"
#include "lir/FromHGraph.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

using namespace ropt;
using namespace perfbench;

// --- Probe ---------------------------------------------------------------

int Probe::threadIndexLocked() {
  auto [It, Inserted] = Threads.try_emplace(std::this_thread::get_id(),
                                            static_cast<int>(Threads.size()));
  return It->second;
}

void Probe::span(const std::string &Name, Clock::time_point Begin,
                 Clock::time_point End) {
  std::lock_guard<std::mutex> L(M);
  Spans.push_back(
      Span{Name, threadIndexLocked(), msBetween(Origin, Begin),
           msBetween(Origin, End)});
}

void Probe::add(const std::string &Counter, double Delta) {
  std::lock_guard<std::mutex> L(M);
  Counters[Counter] += Delta;
}

std::vector<double> Probe::durations(const std::string &Name) const {
  std::lock_guard<std::mutex> L(M);
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (S.Name == Name)
      Out.push_back(S.EndMs - S.BeginMs);
  return Out;
}

double Probe::totalMs(const std::string &Name) const {
  double Sum = 0.0;
  for (double D : durations(Name))
    Sum += D;
  return Sum;
}

double Probe::counter(const std::string &Name) const {
  std::lock_guard<std::mutex> L(M);
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0.0 : It->second;
}

bool Probe::writeChromeTrace(const std::string &Path) const {
  std::lock_guard<std::mutex> L(M);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"traceEvents\":[");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f}",
                 I ? "," : "", S.Name.c_str(), S.Thread, S.BeginMs * 1e3,
                 (S.EndMs - S.BeginMs) * 1e3);
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

// --- Decomposer ----------------------------------------------------------

namespace {

uint64_t mix(uint64_t H, uint64_t V) {
  H ^= V;
  H *= 1099511628211ULL;
  return H;
}

bool sameInsn(const vm::MInsn &X, const vm::MInsn &Y) {
  if (X.Op != Y.Op || X.A != Y.A || X.B != Y.B || X.C != Y.C ||
      X.Target != Y.Target || X.Idx != Y.Idx || X.Site != Y.Site ||
      X.ImmI != Y.ImmI || X.Hint != Y.Hint || X.ArgCount != Y.ArgCount ||
      std::memcmp(&X.ImmF, &Y.ImmF, sizeof(X.ImmF)) != 0)
    return false;
  for (unsigned A = 0; A != X.ArgCount; ++A)
    if (X.Args[A] != Y.Args[A])
      return false;
  return true;
}

bool sameCode(const vm::CodeCache &X, const vm::CodeCache &Y) {
  if (X.size() != Y.size())
    return false;
  for (const auto &[Id, Fn] : X.functions()) {
    const vm::MachineFunction *Other = Y.lookup(Id);
    if (!Other || Fn->NumRegs != Other->NumRegs ||
        Fn->ParamCount != Other->ParamCount ||
        Fn->ReturnsValue != Other->ReturnsValue ||
        Fn->Code.size() != Other->Code.size())
      return false;
    for (size_t I = 0; I != Fn->Code.size(); ++I)
      if (!sameInsn(Fn->Code[I], Other->Code[I]))
        return false;
  }
  return true;
}

} // namespace

Decomposer::Decomposer(const workloads::Application &App,
                       const profiler::HotRegion &Region,
                       const std::vector<core::CapturedRegion> &Captures,
                       const core::PipelineConfig &Config, Probe &P)
    : App(App), Region(Region),
      SizeBudget(Config.Search.CompileSizeBudget), P(P) {
  for (const core::CapturedRegion &C : Captures)
    Profile.merge(C.Profile);
}

void Decomposer::record(const search::Genome &G,
                        const search::CompiledBinary &B) {
  std::lock_guard<std::mutex> L(M);
  Compiled.emplace_back(G, B);
}

size_t Decomposer::reproduceAll(size_t Jobs) {
  std::vector<char> Same(Compiled.size(), 0);
  ThreadPool Pool(Jobs);
  Pool.parallelFor(Compiled.size(), [&](size_t I, size_t) {
    Same[I] = reproduces(Compiled[I].first, Compiled[I].second);
  });
  return static_cast<size_t>(std::count(Same.begin(), Same.end(), 0));
}

bool Decomposer::reproduces(const search::Genome &G,
                            const search::CompiledBinary &B) {
  // Mirrors lir::compileAllLlvm / compileMethodLlvm: a method that
  // explodes the size budget or fails the verifier makes the whole
  // compile fail; native and uncompilable methods are skipped.
  vm::CodeCache Code;
  bool Ok = true;
  double IrInsns = 0.0;
  std::vector<uint64_t> Prefixes;
  lir::PassContext Ctx;
  Ctx.File = App.File.get();
  Ctx.Profile = &Profile;
  for (dex::MethodId Id : Region.Methods) {
    const dex::Method &M = App.File->method(Id);
    if (M.IsNative || M.isUncompilable())
      continue;
    Clock::time_point T0 = Clock::now();
    hgraph::HGraph HG = hgraph::buildHGraph(*App.File, Id);
    Clock::time_point T1 = Clock::now();
    lir::LFunction Fn = lir::fromHGraph(HG, lir::TranslateOptions());
    Clock::time_point T2 = Clock::now();
    P.add("hgraph.build_ms", msBetween(T0, T1));
    P.add("lir.translate_ms", msBetween(T1, T2));

    uint64_t Prefix = mix(1469598103934665603ULL, Id);
    bool Exploded = false;
    for (const lir::PassInstance &Pass : G.Passes) {
      Prefix = mix(Prefix, static_cast<uint64_t>(Pass.Id) |
                               (uint64_t(uint32_t(Pass.IntParam)) << 8) |
                               (uint64_t(Pass.Aggressive) << 40));
      Prefixes.push_back(Prefix);
      Clock::time_point A = Clock::now();
      lir::applyPass(Fn, Pass, Ctx);
      P.add(std::string("lir.pass_ms.") + lir::passDescriptor(Pass.Id).Name,
            msBetween(A, Clock::now()));
      if (Fn.instructionCount() > SizeBudget) {
        Exploded = true;
        break;
      }
    }
    if (Exploded) {
      Ok = false;
      continue;
    }
    IrInsns += static_cast<double>(Fn.instructionCount());

    std::string Error;
    Clock::time_point V0 = Clock::now();
    bool Valid = Fn.verify(Error);
    Clock::time_point V1 = Clock::now();
    P.add("lir.verify_ms", msBetween(V0, V1));
    if (!Valid) {
      Ok = false;
      continue;
    }
    Code.install(lir::emitMachine(std::move(Fn), G.RegAlloc));
    P.add("lir.codegen_ms", msBetween(V1, Clock::now()));
  }

  size_t Fresh = 0;
  {
    std::lock_guard<std::mutex> L(M);
    for (uint64_t K : Prefixes)
      Fresh += SeenPrefixes.insert(K).second;
  }
  P.add("lir.pass_applications", static_cast<double>(Prefixes.size()));
  P.add("lir.pass_prefix_reused",
        static_cast<double>(Prefixes.size() - Fresh));
  if (Ok) {
    P.add("lir.ir_insns_total", IrInsns);
    P.add("lir.decomposed_ok", 1.0);
  }

  if (Ok != B.Ok)
    return false;
  if (!Ok)
    return true;
  const auto *Compiled = static_cast<const vm::CodeCache *>(B.Artifact.get());
  return Compiled && B.CodeSize == Code.totalSizeBytes() &&
         sameCode(Code, *Compiled);
}

// --- TimingBackend -------------------------------------------------------

search::CompiledBinary TimingBackend::compileGenome(const search::Genome &G) {
  Clock::time_point T0 = Clock::now();
  search::CompiledBinary B = Inner->compileGenome(G);
  P.span("lir.compile", T0, Clock::now());
  if (B.Ok)
    P.add("lir.code_bytes_total", static_cast<double>(B.CodeSize));
  else
    P.add("lir.compile_fails", 1.0);
  D.record(G, B);
  return B;
}

search::Evaluation TimingBackend::measureBinary(const search::CompiledBinary &B,
                                                uint64_t NoiseSeed,
                                                size_t SampleCount) {
  Clock::time_point T0 = Clock::now();
  search::Evaluation E = Inner->measureBinary(B, NoiseSeed, SampleCount);
  Clock::time_point T1 = Clock::now();
  P.span("replay.measure", T0, T1);
  if (!Measured) {
    // The lane's first replay builds its fork-server session.
    P.span("replay.first_measure", T0, T1);
    Measured = true;
  }
  if (!E.ok())
    P.add("replay.rejects", 1.0);
  return E;
}

std::vector<double> TimingBackend::extendSamples(const search::Evaluation &E,
                                                 uint64_t NoiseSeed,
                                                 size_t Begin, size_t Count) {
  Clock::time_point T0 = Clock::now();
  std::vector<double> Out = Inner->extendSamples(E, NoiseSeed, Begin, Count);
  P.span("replay.extend", T0, Clock::now());
  return Out;
}

// --- TimingEvaluator -----------------------------------------------------

std::vector<search::Evaluation>
TimingEvaluator::evaluateBatch(const std::vector<search::Genome> &Genomes) {
  ScopedSpan S(&P, "search.batch");
  return Inner.evaluateBatch(Genomes);
}

search::Evaluation
TimingEvaluator::announceIncumbent(const search::Evaluation &E) {
  ScopedSpan S(&P, "search.announce");
  return Inner.announceIncumbent(E);
}
