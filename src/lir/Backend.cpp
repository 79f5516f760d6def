//===- lir/Backend.cpp - The LLVM-like compiler driver ----------------------===//

#include "lir/Backend.h"

#include "hgraph/Build.h"
#include "lir/Codegen.h"
#include "lir/FromHGraph.h"
#include "support/Metrics.h"

using namespace ropt;
using namespace ropt::lir;

const char *lir::compileStatusName(CompileStatus Status) {
  switch (Status) {
  case CompileStatus::Ok: return "ok";
  case CompileStatus::VerifierError: return "verifier-error";
  case CompileStatus::SizeBudget: return "size-budget";
  case CompileStatus::Unsupported: return "unsupported";
  }
  return "unknown";
}

namespace {

bool samePass(const PassInstance &A, const PassInstance &B) {
  return A.Id == B.Id && A.IntParam == B.IntParam &&
         A.Aggressive == B.Aggressive;
}

} // namespace

MethodCompiler::MethodCompiler(const dex::DexFile &File,
                               dex::MethodId Method)
    : File(&File), Method(Method) {}

void MethodCompiler::forgetPipeline() {
  Path.clear();
  Snapshots.clear();
  Exploded = false;
}

CompileResult MethodCompiler::compile(const CompileOptions &Options,
                                      const TypeProfile *Profile) {
  CompileResult Result;
  const dex::Method &M = File->method(Method);
  if (M.IsNative || M.isUncompilable()) {
    Result.Status = CompileStatus::Unsupported;
    return Result;
  }

  if (!Translated || TranslatedWith != Options.Translate) {
    hgraph::HGraph G = hgraph::buildHGraph(*File, Method);
    Translated = fromHGraph(G, Options.Translate);
    TranslatedWith = Options.Translate;
    forgetPipeline();
  }
  if (SizeBudget != Options.SizeBudget || this->Profile != Profile) {
    SizeBudget = Options.SizeBudget;
    this->Profile = Profile;
    forgetPipeline();
  }

  // Resume from the longest prefix shared with the last pipeline.
  const std::vector<PassInstance> &Pipeline = Options.Pipeline;
  size_t Shared = 0;
  while (Shared != Path.size() && Shared != Pipeline.size() &&
         samePass(Path[Shared], Pipeline[Shared]))
    ++Shared;
  Resumed += Shared;
  ROPT_METRIC_ADD("compile.passes_resumed", Shared);
  if (Exploded && Shared == Path.size()) {
    Result.Status = CompileStatus::SizeBudget;
    return Result;
  }
  Path.resize(Shared);
  Snapshots.resize(Shared);
  Exploded = false;

  PassContext Ctx;
  Ctx.File = File;
  Ctx.Profile = Profile;
  for (size_t I = Shared; I != Pipeline.size(); ++I) {
    LFunction Fn = Snapshots.empty() ? *Translated : Snapshots.back();
    applyPass(Fn, Pipeline[I], Ctx);
    Path.push_back(Pipeline[I]);
    ++Applied;
    ROPT_METRIC_INC("compile.passes_applied");
    if (Fn.instructionCount() > SizeBudget) {
      Exploded = true;
      Result.Status = CompileStatus::SizeBudget;
      return Result;
    }
    Snapshots.push_back(std::move(Fn));
  }

  const LFunction &Fn = Snapshots.empty() ? *Translated : Snapshots.back();
  std::string Error;
  if (!Fn.verify(Error)) {
    Result.Status = CompileStatus::VerifierError;
    Result.Error = Error;
    return Result;
  }

  Result.Fn = emitMachine(Fn, Options.RegAlloc);
  Result.Status = CompileStatus::Ok;
  return Result;
}

RegionCompiler::RegionCompiler(const dex::DexFile &File,
                               const std::vector<dex::MethodId> &Methods) {
  Compilers.reserve(Methods.size());
  for (dex::MethodId Id : Methods)
    Compilers.emplace_back(File, Id);
}

CompileStatus RegionCompiler::compile(const CompileOptions &Options,
                                      vm::CodeCache &Cache,
                                      const TypeProfile *Profile) {
  CompileStatus Status = CompileStatus::Ok;
  for (MethodCompiler &M : Compilers) {
    CompileResult Result = M.compile(Options, Profile);
    if (Result.ok()) {
      Cache.install(Result.Fn);
      continue;
    }
    if (Result.Status != CompileStatus::Unsupported &&
        Status == CompileStatus::Ok)
      Status = Result.Status;
  }
  return Status;
}

CompileResult lir::compileMethodLlvm(const dex::DexFile &File,
                                     dex::MethodId Method,
                                     const CompileOptions &Options,
                                     const TypeProfile *Profile) {
  return MethodCompiler(File, Method).compile(Options, Profile);
}

CompileStatus lir::compileAllLlvm(const dex::DexFile &File,
                                  const std::vector<dex::MethodId> &Methods,
                                  const CompileOptions &Options,
                                  vm::CodeCache &Cache,
                                  const TypeProfile *Profile) {
  return RegionCompiler(File, Methods).compile(Options, Cache, Profile);
}

namespace {

PassInstance pass(PassId Id, int IntParam = 0, bool Aggressive = false) {
  PassInstance P;
  P.Id = Id;
  P.IntParam = IntParam;
  P.Aggressive = Aggressive;
  return P;
}

} // namespace

std::vector<PassInstance> lir::o0Pipeline() { return {}; }

std::vector<PassInstance> lir::o1Pipeline() {
  return {
      pass(PassId::SimplifyCfg), pass(PassId::ConstProp),
      pass(PassId::InstCombine), pass(PassId::Gvn),
      pass(PassId::Dce),         pass(PassId::SimplifyCfg),
  };
}

std::vector<PassInstance> lir::o2Pipeline() {
  std::vector<PassInstance> P = o1Pipeline();
  std::vector<PassInstance> More = {
      pass(PassId::Inline, 40),
      pass(PassId::SimplifyCfg),
      pass(PassId::ConstProp),
      pass(PassId::InstCombine),
      pass(PassId::JniIntrinsics),
      pass(PassId::Licm),
      pass(PassId::Gvn),
      pass(PassId::BoundsCheckElim),
      pass(PassId::Dce),
      pass(PassId::SimplifyCfg),
  };
  P.insert(P.end(), More.begin(), More.end());
  return P;
}

std::vector<PassInstance> lir::o3Pipeline() {
  std::vector<PassInstance> P = o2Pipeline();
  std::vector<PassInstance> More = {
      pass(PassId::Inline, 120),
      pass(PassId::LoopRotate),
      pass(PassId::Licm),
      pass(PassId::Reassociate),
      pass(PassId::Sink),
      pass(PassId::Gvn),
      pass(PassId::InstCombine),
      pass(PassId::BoundsCheckElim),
      pass(PassId::Dce),
      pass(PassId::SimplifyCfg),
  };
  P.insert(P.end(), More.begin(), More.end());
  return P;
}
