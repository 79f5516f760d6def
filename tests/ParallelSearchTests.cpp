//===- tests/ParallelSearchTests.cpp - Engine/ThreadPool/Result tests --------===//
//
// The parallel evaluation engine's contracts: ThreadPool scheduling and
// exception propagation, jobs-invariant determinism (bit-identical
// results at any worker count), two-level memoization accounting, and
// the Result error plumbing into EvalKind, the runtime-image registry's
// concurrent first use, and prefix-resumed compilation (a warm backend
// and the engine's sorted compile order build the same binaries as a
// cold compile). These tests carry the
// "parallel" ctest label and are the ThreadSanitizer targets (a
// -fsanitize=thread build, see the CI tsan job).
//
//===----------------------------------------------------------------------===//

#include "core/IterativeCompiler.h"
#include "search/EvaluationEngine.h"
#include "support/Metrics.h"
#include "support/Result.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"
#include "vm/Runtime.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <latch>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>

using namespace ropt;
using namespace ropt::search;

// --- ThreadPool --------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.size(), 4u);
  constexpr size_t N = 1000;
  std::vector<std::atomic<int>> Hits(N);
  Pool.parallelFor(N, [&](size_t I, size_t Slot) {
    EXPECT_LT(Slot, 4u);
    Hits[I].fetch_add(1);
  });
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, WorkerSlotsAreExclusive) {
  // Two tasks may never run on the same slot at the same time: per-slot
  // state needs no synchronization.
  ThreadPool Pool(3);
  std::vector<std::atomic<int>> InSlot(3);
  std::atomic<bool> Clashed{false};
  Pool.parallelFor(300, [&](size_t, size_t Slot) {
    if (InSlot[Slot].fetch_add(1) != 0)
      Clashed = true;
    InSlot[Slot].fetch_sub(1);
  });
  EXPECT_FALSE(Clashed.load());
}

TEST(ThreadPool, SubmitRunsTasksAndPropagatesExceptions) {
  ThreadPool Pool(2);
  std::future<void> Ok = Pool.submit([] {});
  Ok.get(); // does not throw
  std::future<void> Bad =
      Pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(Bad.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForRethrowsAndStaysUsable) {
  ThreadPool Pool(4);
  EXPECT_THROW(Pool.parallelFor(100,
                                [&](size_t I, size_t) {
                                  if (I == 37)
                                    throw std::runtime_error("item 37");
                                }),
               std::runtime_error);
  // The sweep stopped, the pool survived; later work still runs.
  std::atomic<int> Count{0};
  Pool.parallelFor(50, [&](size_t, size_t) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 50);
}

TEST(ThreadPool, CleanShutdownWithQueuedWork) {
  // Destroying a pool with tasks still queued must not hang or crash;
  // unstarted tasks are abandoned.
  for (int Round = 0; Round != 10; ++Round) {
    ThreadPool Pool(2);
    for (int I = 0; I != 64; ++I)
      Pool.submit([] {});
  } // dtor joins here
  SUCCEED();
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool Pool(1);
  std::thread::id Caller = std::this_thread::get_id();
  std::vector<std::thread::id> Seen;
  Pool.parallelFor(5, [&](size_t, size_t Slot) {
    EXPECT_EQ(Slot, 0u);
    Seen.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(Seen.size(), 5u);
  for (std::thread::id Id : Seen)
    EXPECT_EQ(Id, Caller);
}

// --- The shared runtime image --------------------------------------------------

TEST(RuntimeImage, ConcurrentFirstUseBuildsOnePageSet) {
  // Every worker asks for a boot id nothing else uses, at the same moment:
  // the registry must build its image once and hand all of them the same
  // pages, with the content published to every reader.
  constexpr uint64_t FreshBootId = 0x5eed'b007;
  ThreadPool Pool(4);
  std::latch AllReady(Pool.size());
  std::vector<std::span<const os::PhysPageRef>> Seen(Pool.size());
  std::vector<uint64_t> FirstWord(Pool.size());
  std::vector<std::future<void>> Done;
  for (size_t W = 0; W != Pool.size(); ++W)
    Done.push_back(Pool.submit([&, W] {
      AllReady.arrive_and_wait();
      Seen[W] = vm::Runtime::imagePages(FreshBootId);
      std::memcpy(&FirstWord[W], Seen[W].front()->Data.data(), 8);
    }));
  for (std::future<void> &F : Done)
    F.get();

  std::span<const os::PhysPageRef> Image =
      vm::Runtime::imagePages(FreshBootId);
  EXPECT_EQ(Image.size() * os::PageSize, vm::Layout::RuntimeImageSize);
  for (size_t W = 0; W != Pool.size(); ++W) {
    EXPECT_EQ(Seen[W].data(), Image.data()) << "worker " << W;
    EXPECT_EQ(Seen[W].size(), Image.size());
    EXPECT_EQ(FirstWord[W], FirstWord[0]);
  }
  EXPECT_NE(Image.front(), vm::Runtime::imagePages(FreshBootId + 1).front());
}

// --- A deterministic synthetic backend for engine tests ----------------------

namespace {

/// Compile = FNV over the canonical genome string; empty pipelines fail.
/// Binary identity deliberately collapses pass *parameters* so distinct
/// genomes can produce identical "binaries" (exercising the binary-level
/// cache). Measurement cost is a pure function of (hash, noise seed).
class SyntheticBackend : public EvalBackend {
public:
  SyntheticBackend(std::atomic<int> &Compiles, std::atomic<int> &Measures)
      : Compiles(Compiles), Measures(Measures) {}

  CompiledBinary compileGenome(const Genome &G) override {
    Compiles.fetch_add(1);
    CompiledBinary B;
    if (G.Passes.empty())
      return B; // compile error
    uint64_t H = 1469598103934665603ULL;
    for (const lir::PassInstance &P : G.Passes) {
      H ^= static_cast<uint64_t>(P.Id) + 1;
      H *= 1099511628211ULL;
    }
    B.Ok = true;
    B.BinaryHash = H;
    B.CodeSize = 10 * G.Passes.size();
    B.Artifact = std::make_shared<const uint64_t>(H);
    return B;
  }

  Evaluation measureBinary(const CompiledBinary &B, uint64_t NoiseSeed,
                           size_t SampleCount) override {
    Measures.fetch_add(1);
    Evaluation E;
    E.Kind = EvalKind::Ok;
    E.CodeSize = B.CodeSize;
    E.BinaryHash = B.BinaryHash;
    E.BaseCycles = 1000.0 + static_cast<double>(B.BinaryHash % 977);
    for (size_t I = 0; I != SampleCount; ++I)
      E.Samples.push_back(sampleAt(NoiseSeed, I, E.BaseCycles));
    E.SamplesSpent = static_cast<int>(SampleCount);
    E.MedianCycles = median(E.Samples);
    return E;
  }

  std::vector<double> extendSamples(const Evaluation &E, uint64_t NoiseSeed,
                                    size_t Begin, size_t Count) override {
    std::vector<double> Out;
    for (size_t I = 0; I != Count; ++I)
      Out.push_back(sampleAt(NoiseSeed, Begin + I, E.BaseCycles));
    return Out;
  }

private:
  /// Sample i is a pure function of (NoiseSeed, i): the engine may split
  /// the draw into racing blocks without changing any value.
  static double sampleAt(uint64_t NoiseSeed, size_t Index, double Base) {
    Rng Noise(NoiseSeed +
              0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(Index) + 1));
    return Base * Noise.logNormal(0.0, 0.01);
  }

  std::atomic<int> &Compiles;
  std::atomic<int> &Measures;
};

std::vector<Genome> randomBatch(uint64_t Seed, size_t N) {
  Rng R(Seed);
  GenomeConfig GC;
  std::vector<Genome> Out;
  for (size_t I = 0; I != N; ++I)
    Out.push_back(randomGenome(R, GC));
  return Out;
}

bool sameEvaluation(const Evaluation &A, const Evaluation &B) {
  return A.Kind == B.Kind && A.Samples == B.Samples &&
         A.MedianCycles == B.MedianCycles && A.CodeSize == B.CodeSize &&
         A.BinaryHash == B.BinaryHash && A.SamplesSpent == B.SamplesSpent &&
         A.EscalationRounds == B.EscalationRounds &&
         A.EarlyStop == B.EarlyStop;
}

} // namespace

// --- EvaluationEngine: determinism across worker counts ----------------------

TEST(EvaluationEngine, BatchResultsAreIdenticalAtAnyJobCount) {
  std::vector<Genome> Batch = randomBatch(71, 64);
  std::vector<std::vector<Evaluation>> Runs;
  for (int Jobs : {1, 2, 8}) {
    std::atomic<int> Compiles{0}, Measures{0};
    EngineOptions Opts;
    Opts.Jobs = Jobs;
    EvaluationEngine Engine(
        [&]() {
          return std::make_unique<SyntheticBackend>(Compiles, Measures);
        },
        Opts, /*Seed=*/9);
    EXPECT_EQ(Engine.jobs(), static_cast<size_t>(Jobs));
    Runs.push_back(Engine.evaluateBatch(Batch));
  }
  for (size_t R = 1; R != Runs.size(); ++R) {
    ASSERT_EQ(Runs[R].size(), Runs[0].size());
    for (size_t I = 0; I != Runs[0].size(); ++I)
      EXPECT_TRUE(sameEvaluation(Runs[R][I], Runs[0][I]))
          << "jobs run " << R << ", genome " << I;
  }
}

TEST(EvaluationEngine, GaIsBitIdenticalAcrossJobCounts) {
  // The full search — generations, gen-0 retries, hill climb — produces
  // the same winner and the same evaluation trace at jobs=1 and jobs=8.
  auto RunGa = [](int Jobs) {
    std::atomic<int> Compiles{0}, Measures{0};
    EngineOptions Opts;
    Opts.Jobs = Jobs;
    EvaluationEngine Engine(
        [&]() {
          return std::make_unique<SyntheticBackend>(Compiles, Measures);
        },
        Opts, 5);
    GaConfig C;
    C.Generations = 5;
    C.PopulationSize = 16;
    GeneticSearch GA(C, 123, Engine);
    GaTrace Trace;
    std::optional<Scored> Best = GA.run(5000.0, 4800.0, &Trace);
    std::string Name = Best ? Best->G.name() : "none";
    return std::tuple{Name, Best ? Best->E.MedianCycles : 0.0,
                      Trace.Evaluations.size(), Trace.IdenticalBinaries};
  };
  auto Serial = RunGa(1);
  auto Wide = RunGa(8);
  EXPECT_EQ(Serial, Wide);
}

// --- EvaluationEngine: racing determinism ------------------------------------

TEST(EvaluationEngine, RacingBatchResultsAreIdenticalAtAnyJobCount) {
  // Racing splits the measurement into seed blocks and escalation blocks
  // drawn by whichever worker is free — but every sample is a pure
  // function of (seed, hash, index) and every racing decision is serial
  // in batch order, so the whole batch (sample vectors, early stops,
  // escalation counts) is bit-identical at any --jobs.
  std::vector<Genome> Batch = randomBatch(71, 64);
  std::vector<std::vector<Evaluation>> Runs;
  std::vector<EngineRacingStats> Stats;
  for (int Jobs : {1, 2, 8}) {
    std::atomic<int> Compiles{0}, Measures{0};
    EngineOptions Opts;
    Opts.Jobs = Jobs;
    Opts.Racing = true;
    EvaluationEngine Engine(
        [&]() {
          return std::make_unique<SyntheticBackend>(Compiles, Measures);
        },
        Opts, /*Seed=*/9);
    Runs.push_back(Engine.evaluateBatch(Batch));
    Stats.push_back(Engine.racingStats());
  }
  for (size_t R = 1; R != Runs.size(); ++R) {
    ASSERT_EQ(Runs[R].size(), Runs[0].size());
    for (size_t I = 0; I != Runs[0].size(); ++I)
      EXPECT_TRUE(sameEvaluation(Runs[R][I], Runs[0][I]))
          << "jobs run " << R << ", genome " << I;
    EXPECT_EQ(Stats[R].ReplaysSpent, Stats[0].ReplaysSpent);
    EXPECT_EQ(Stats[R].EarlyStops, Stats[0].EarlyStops);
    EXPECT_EQ(Stats[R].Escalations, Stats[0].Escalations);
  }
  // The synthetic hash landscape spreads base cycles widely, so the
  // batch-local race must have terminated real losers early.
  EXPECT_GT(Stats[0].EarlyStops, 0u);
  EXPECT_LT(Stats[0].ReplaysSpent, Stats[0].FixedBudget);
}

TEST(EvaluationEngine, RacingGaIsBitIdenticalAcrossJobCounts) {
  // The full search with racing on — gen-0 retries, incumbent
  // announcements, top-ups, hill climb — walks the same path at jobs=1
  // and jobs=8.
  auto RunGa = [](int Jobs) {
    std::atomic<int> Compiles{0}, Measures{0};
    EngineOptions Opts;
    Opts.Jobs = Jobs;
    Opts.Racing = true;
    EvaluationEngine Engine(
        [&]() {
          return std::make_unique<SyntheticBackend>(Compiles, Measures);
        },
        Opts, 5);
    GaConfig C;
    C.Generations = 5;
    C.PopulationSize = 16;
    GeneticSearch GA(C, 123, Engine);
    GaTrace Trace;
    std::optional<Scored> Best = GA.run(5000.0, 4800.0, &Trace);
    std::string Name = Best ? Best->G.name() : "none";
    const EngineRacingStats &S = Engine.racingStats();
    return std::tuple{Name,
                      Best ? Best->E.MedianCycles : 0.0,
                      Best ? Best->E.Samples : std::vector<double>{},
                      Trace.Evaluations.size(),
                      S.ReplaysSpent,
                      S.EarlyStops,
                      S.Escalations,
                      S.TopUps};
  };
  auto Serial = RunGa(1);
  auto Wide = RunGa(8);
  EXPECT_EQ(Serial, Wide);
  EXPECT_GT(std::get<5>(Serial), 0u); // the race stopped losers early
}

// --- EvaluationEngine: memoization -------------------------------------------

TEST(EvaluationEngine, DuplicateGenomesHitTheGenomeCache) {
  std::atomic<int> Compiles{0}, Measures{0};
  EngineOptions Opts;
  Opts.Jobs = 2;
  EvaluationEngine Engine(
      [&]() {
        return std::make_unique<SyntheticBackend>(Compiles, Measures);
      },
      Opts, 1);

  std::vector<Genome> Batch = randomBatch(3, 4);
  Batch.push_back(Batch[0]); // duplicate inside the batch
  Batch.push_back(Batch[1]);

  std::vector<Evaluation> R1 = Engine.evaluateBatch(Batch);
  ASSERT_EQ(R1.size(), 6u);
  // Duplicates got the identical evaluation, noise included.
  EXPECT_TRUE(sameEvaluation(R1[0], R1[4]));
  EXPECT_TRUE(sameEvaluation(R1[1], R1[5]));
  EXPECT_EQ(Compiles.load(), 4); // one compile per distinct genome
  EXPECT_EQ(Engine.cacheStats().GenomeHits, 2u);

  // A second batch of the same genomes is answered entirely from cache.
  int CompilesBefore = Compiles.load();
  std::vector<Evaluation> R2 = Engine.evaluateBatch(Batch);
  EXPECT_EQ(Compiles.load(), CompilesBefore);
  EXPECT_EQ(Engine.cacheStats().GenomeHits, 8u);
  for (size_t I = 0; I != R1.size(); ++I)
    EXPECT_TRUE(sameEvaluation(R1[I], R2[I]));

  // Every one of the 12 answers was tallied.
  EXPECT_EQ(Engine.counters().total(), 12);
}

TEST(EvaluationEngine, IdenticalBinariesHitTheBinaryCache) {
  std::atomic<int> Compiles{0}, Measures{0};
  EvaluationEngine Engine(
      [&]() {
        return std::make_unique<SyntheticBackend>(Compiles, Measures);
      },
      EngineOptions{}, 1);

  // Same passes, different parameters: distinct genomes (distinct
  // canonical names), but SyntheticBackend gives them one binary hash.
  Rng R(17);
  GenomeConfig GC;
  Genome A = randomGenome(R, GC);
  while (A.Passes.empty() ||
         !lir::passDescriptor(A.Passes[0].Id).HasIntParam)
    A = randomGenome(R, GC);
  Genome B = A;
  B.Passes[0].IntParam = A.Passes[0].IntParam > 1
                             ? A.Passes[0].IntParam - 1
                             : A.Passes[0].IntParam + 1;
  ASSERT_NE(A.name(), B.name());

  std::vector<Evaluation> Out = Engine.evaluateBatch({A, B});
  EXPECT_TRUE(sameEvaluation(Out[0], Out[1]));
  EXPECT_EQ(Compiles.load(), 2);  // both compiled...
  EXPECT_EQ(Measures.load(), 1);  // ...but only one was measured
  EXPECT_EQ(Engine.cacheStats().BinaryHits, 1u);
  EXPECT_EQ(Engine.cacheStats().Misses, 1u);
}

TEST(EvaluationEngine, MemoizeOffReplaysEveryBatch) {
  std::atomic<int> Compiles{0}, Measures{0};
  EngineOptions Opts;
  Opts.Memoize = false;
  EvaluationEngine Engine(
      [&]() {
        return std::make_unique<SyntheticBackend>(Compiles, Measures);
      },
      Opts, 1);
  std::vector<Genome> Batch = randomBatch(21, 8);
  Engine.evaluateBatch(Batch);
  Engine.evaluateBatch(Batch);
  EXPECT_EQ(Compiles.load(), 16); // recompiled every time
  EXPECT_EQ(Engine.cacheStats().GenomeHits, 0u);
}

TEST(EvaluationEngine, CacheMetricsArePublished) {
  Metrics::instance().reset();
  std::atomic<int> Compiles{0}, Measures{0};
  EvaluationEngine Engine(
      [&]() {
        return std::make_unique<SyntheticBackend>(Compiles, Measures);
      },
      EngineOptions{}, 1);
  std::vector<Genome> Batch = randomBatch(5, 6);
  Engine.evaluateBatch(Batch);
  Engine.evaluateBatch(Batch); // all hits
  MetricsSnapshot S = Metrics::instance().snapshot();
  EXPECT_EQ(S.counter("search.cache_hits") + S.counter("search.cache_misses"),
            12u);
  EXPECT_EQ(S.counter("search.cache_hits"),
            Engine.cacheStats().hits());
  Metrics::instance().reset();
}

// --- Evaluation defaults and error mapping -----------------------------------

TEST(Evaluation, DefaultsToUnevaluatedNotCompileError) {
  // The old default (CompileError) made uninitialized evaluations look
  // like real compiler rejections.
  Evaluation E;
  EXPECT_EQ(E.Kind, EvalKind::Unevaluated);
  EXPECT_FALSE(E.ok());
  EXPECT_STREQ(evalKindName(E.Kind), "unevaluated");
}

TEST(ErrorMapping, EveryReplayErrorLandsOnAnEvalKind) {
  using support::ErrorCode;
  EXPECT_EQ(evalKindForError(ErrorCode::CompileFailed),
            EvalKind::CompileError);
  EXPECT_EQ(evalKindForError(ErrorCode::ReplayCrash),
            EvalKind::RuntimeCrash);
  EXPECT_EQ(evalKindForError(ErrorCode::ReplayTimeout),
            EvalKind::RuntimeTimeout);
  EXPECT_EQ(evalKindForError(ErrorCode::OutputMismatch),
            EvalKind::WrongOutput);
  EXPECT_EQ(evalKindForError(ErrorCode::CaptureNotReady),
            EvalKind::RuntimeCrash);
}

TEST(ResultType, CarriesValueOrTypedError) {
  support::Result<int> Ok = 42;
  ASSERT_TRUE(Ok.ok());
  EXPECT_EQ(Ok.value(), 42);
  EXPECT_EQ(Ok.valueOr(7), 42);

  support::Result<int> Bad =
      support::Error{support::ErrorCode::ReplayTimeout, "too slow"};
  ASSERT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.error().Code, support::ErrorCode::ReplayTimeout);
  EXPECT_EQ(Bad.error().Message, "too slow");
  EXPECT_EQ(Bad.valueOr(7), 7);
  EXPECT_STREQ(support::errorCodeName(Bad.error().Code),
               "replay-timeout");
}

// --- The real pipeline through the engine ------------------------------------

namespace {

core::PipelineConfig fastPipelineConfig(int Jobs) {
  core::PipelineConfig C = core::PipelineConfig::paperDefaults();
  C.Seed = 1;
  C.Search.GA.Generations = 3;
  C.Search.GA.PopulationSize = 10;
  C.Search.GA.HillClimbRounds = 1;
  C.Search.MaxReplaysPerEvaluation = 5;
  C.Search.Jobs = Jobs;
  C.Capture.ProfileSessions = 4;
  C.Measure.FinalMeasurementRuns = 4;
  return C;
}

} // namespace

TEST(ParallelPipeline, OptimizeIsBitIdenticalAcrossJobCounts) {
  auto RunOnce = [](int Jobs) {
    core::IterativeCompiler Pipeline(fastPipelineConfig(Jobs));
    return Pipeline.optimize(workloads::buildByName("Sieve"));
  };
  core::OptimizationReport Serial = RunOnce(1);
  core::OptimizationReport Wide = RunOnce(4);
  ASSERT_TRUE(Serial.Succeeded) << Serial.FailureReason;
  ASSERT_TRUE(Wide.Succeeded) << Wide.FailureReason;

  // The search walked the same path...
  EXPECT_EQ(Serial.Best.G.name(), Wide.Best.G.name());
  EXPECT_EQ(Serial.RegionBest, Wide.RegionBest);
  EXPECT_EQ(Serial.Best.E.Samples, Wide.Best.E.Samples);
  ASSERT_EQ(Serial.Trace.Evaluations.size(), Wide.Trace.Evaluations.size());
  for (size_t I = 0; I != Serial.Trace.Evaluations.size(); ++I) {
    EXPECT_EQ(Serial.Trace.Evaluations[I].MedianCycles,
              Wide.Trace.Evaluations[I].MedianCycles);
    EXPECT_EQ(Serial.Trace.Evaluations[I].Valid,
              Wide.Trace.Evaluations[I].Valid);
  }
  // ...and the installed binary measures identically.
  EXPECT_EQ(Serial.WholeGa, Wide.WholeGa);

  // The GA revisits genomes/binaries, so the memoization layer must have
  // fired on a default seeded run.
  EXPECT_GT(Serial.CacheStats.hits(), 0u);
  EXPECT_GT(Wide.CacheStats.hits(), 0u);
}

TEST(ParallelPipeline, RacingOptimizeIsBitIdenticalAcrossJobCounts) {
  // Same acceptance bar with the racing budget: the real pipeline's
  // early stops, escalations and top-ups land identically at any --jobs.
  auto RunOnce = [](int Jobs) {
    core::PipelineConfig C = fastPipelineConfig(Jobs);
    C.Search.Racing = true;
    core::IterativeCompiler Pipeline(C);
    return Pipeline.optimize(workloads::buildByName("Sieve"));
  };
  core::OptimizationReport Serial = RunOnce(1);
  core::OptimizationReport Wide = RunOnce(4);
  ASSERT_TRUE(Serial.Succeeded) << Serial.FailureReason;
  ASSERT_TRUE(Wide.Succeeded) << Wide.FailureReason;

  EXPECT_EQ(Serial.Best.G.name(), Wide.Best.G.name());
  EXPECT_EQ(Serial.RegionBest, Wide.RegionBest);
  EXPECT_EQ(Serial.Best.E.Samples, Wide.Best.E.Samples);
  ASSERT_EQ(Serial.Trace.Evaluations.size(), Wide.Trace.Evaluations.size());
  for (size_t I = 0; I != Serial.Trace.Evaluations.size(); ++I)
    EXPECT_EQ(Serial.Trace.Evaluations[I].MedianCycles,
              Wide.Trace.Evaluations[I].MedianCycles);

  // Identical budget accounting, and a real saving over the fixed budget.
  EXPECT_EQ(Serial.RacingStats.ReplaysSpent, Wide.RacingStats.ReplaysSpent);
  EXPECT_EQ(Serial.RacingStats.EarlyStops, Wide.RacingStats.EarlyStops);
  EXPECT_EQ(Serial.RacingStats.Escalations, Wide.RacingStats.Escalations);
  EXPECT_EQ(Serial.RacingStats.TopUps, Wide.RacingStats.TopUps);
  EXPECT_GT(Serial.RacingStats.EarlyStops, 0u);
  EXPECT_LT(Serial.RacingStats.ReplaysSpent, Serial.RacingStats.FixedBudget);
}

TEST(ParallelPipeline, SessionBackendsAreSemanticallyInvisible) {
  // Fork-server sessions (DESIGN.md §16) are a pure performance
  // substrate: the same seeded GA must walk the identical evaluation
  // stream with sessions on (the default) and off, at any job count.
  // The E2E twin of this test byte-compares evaluations.jsonl over the
  // real binaries (RunReportE2E.cmake).
  auto RunOnce = [](int Jobs, bool Sessions) {
    core::PipelineConfig C = fastPipelineConfig(Jobs);
    C.Search.SessionBackends = Sessions;
    core::IterativeCompiler Pipeline(C);
    return Pipeline.optimize(workloads::buildByName("Sieve"));
  };
  core::OptimizationReport On = RunOnce(1, true);
  core::OptimizationReport Off = RunOnce(4, false);
  ASSERT_TRUE(On.Succeeded) << On.FailureReason;
  ASSERT_TRUE(Off.Succeeded) << Off.FailureReason;

  EXPECT_EQ(On.Best.G.name(), Off.Best.G.name());
  EXPECT_EQ(On.RegionBest, Off.RegionBest);
  EXPECT_EQ(On.Best.E.Samples, Off.Best.E.Samples);
  EXPECT_EQ(On.WholeGa, Off.WholeGa);
  ASSERT_EQ(On.Trace.Evaluations.size(), Off.Trace.Evaluations.size());
  for (size_t I = 0; I != On.Trace.Evaluations.size(); ++I) {
    EXPECT_EQ(On.Trace.Evaluations[I].MedianCycles,
              Off.Trace.Evaluations[I].MedianCycles);
    EXPECT_EQ(On.Trace.Evaluations[I].Valid, Off.Trace.Evaluations[I].Valid);
  }

  // The substrate itself must have been exercised on the session run —
  // and never on the fresh run.
  EXPECT_GT(On.ReplayBackend.SessionReplays, 0u);
  EXPECT_GT(On.ReplayBackend.DeltaResets, 0u);
  EXPECT_GT(On.ReplayBackend.SessionsCreated, 0u);
  EXPECT_EQ(Off.ReplayBackend.SessionReplays, 0u);
  EXPECT_GT(Off.ReplayBackend.FreshReplays, 0u);
}

// --- Prefix-resumed compilation ----------------------------------------------

TEST(PrefixResume, WarmAndParallelCompilesMatchColdCompiles) {
  // Seeded genome families (random parents, their mutants and crossovers,
  // so many genomes share pass prefixes) are compiled cold, each on a
  // fresh RegionEvaluator, then again shuffled on one warm evaluator and
  // through the engine at 1 and 4 workers. Every route must build the
  // same binary, and fail to build the same ones.
  workloads::Application App = workloads::buildByName("FFT");
  core::PipelineConfig Config = fastPipelineConfig(1);
  Config.Search.MaxReplaysPerEvaluation = 1;
  core::IterativeCompiler Pipeline(Config);
  core::IterativeCompiler::ProfiledApp Profiled = Pipeline.profileApp(App);
  ASSERT_TRUE(Profiled.Region.has_value());
  std::optional<core::CapturedRegion> Cap =
      Pipeline.captureRegion(*Profiled.Instance, *Profiled.Region);
  ASSERT_TRUE(Cap.has_value());
  const profiler::HotRegion &Region = *Profiled.Region;
  auto NewEvaluator = [&] {
    return std::make_unique<core::RegionEvaluator>(App, Region, Cap->Cap,
                                                   Cap->Map, Cap->Profile,
                                                   Config);
  };

  Rng R(0x5eed);
  GenomeConfig GC;
  std::vector<Genome> Genomes;
  for (int Family = 0; Family != 16; ++Family) {
    Genome Parent = randomGenome(R, GC);
    Genomes.push_back(Parent);
    for (int Child = 0; Child != 3; ++Child) {
      Genome G = Parent;
      mutate(G, R, GC);
      Genomes.push_back(G);
    }
    Genomes.push_back(crossover(Parent, Genomes[R.below(Genomes.size())],
                                R, GC));
  }

  // Cold: a fresh evaluator per genome; the one-shot compileAllLlvm names
  // the failure class.
  std::vector<CompiledBinary> Cold;
  std::map<lir::CompileStatus, int> Classes;
  for (const Genome &G : Genomes) {
    Cold.push_back(NewEvaluator()->compileGenome(G));
    lir::CompileOptions Options;
    Options.Pipeline = G.Passes;
    Options.RegAlloc = G.RegAlloc;
    Options.SizeBudget = Config.Search.CompileSizeBudget;
    vm::CodeCache Code;
    lir::CompileStatus Status = lir::compileAllLlvm(
        *App.File, Region.Methods, Options, Code, &Cap->Profile);
    ++Classes[Status];
    EXPECT_EQ(Status == lir::CompileStatus::Ok, Cold.back().Ok);
  }
  EXPECT_GT(Classes[lir::CompileStatus::Ok], 0);
  EXPECT_GT(Classes[lir::CompileStatus::SizeBudget], 0);
  EXPECT_GT(Classes[lir::CompileStatus::VerifierError], 0);

  auto ExpectSame = [&](const CompiledBinary &B, size_t I,
                        const char *Route) {
    EXPECT_EQ(B.Ok, Cold[I].Ok) << Route << ", genome " << I;
    EXPECT_EQ(B.BinaryHash, Cold[I].BinaryHash) << Route << ", genome " << I;
    EXPECT_EQ(B.CodeSize, Cold[I].CodeSize) << Route << ", genome " << I;
  };

  // Warm: one evaluator, shuffled order.
  std::vector<size_t> Order(Genomes.size());
  std::iota(Order.begin(), Order.end(), size_t(0));
  R.shuffle(Order);
  std::unique_ptr<core::RegionEvaluator> Warm = NewEvaluator();
  Metrics::instance().reset();
  for (size_t I : Order)
    ExpectSame(Warm->compileGenome(Genomes[I]), I, "warm");
  EXPECT_GT(Metrics::instance().snapshot().counter("compile.passes_resumed"),
            0u);
  Metrics::instance().reset();

  // The engine's sorted dispatch, at 1 and 4 workers.
  for (int Jobs : {1, 4}) {
    EngineOptions Opts;
    Opts.Jobs = Jobs;
    Opts.MaxReplays = 1;
    EvaluationEngine Engine([&] { return NewEvaluator(); }, Opts,
                            /*Seed=*/3);
    std::vector<Evaluation> Results = Engine.evaluateBatch(Genomes);
    ASSERT_EQ(Results.size(), Genomes.size());
    for (size_t I = 0; I != Genomes.size(); ++I) {
      EXPECT_EQ(Results[I].Kind == EvalKind::CompileError, !Cold[I].Ok)
          << "jobs " << Jobs << ", genome " << I;
      if (Cold[I].Ok) {
        EXPECT_EQ(Results[I].BinaryHash, Cold[I].BinaryHash)
            << "jobs " << Jobs << ", genome " << I;
        EXPECT_EQ(Results[I].CodeSize, Cold[I].CodeSize)
            << "jobs " << Jobs << ", genome " << I;
      }
    }
  }
}
