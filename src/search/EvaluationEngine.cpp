//===- search/EvaluationEngine.cpp - Parallel, memoizing fitness ----------===//

#include "search/EvaluationEngine.h"

#include "support/Metrics.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <tuple>

using namespace ropt;
using namespace ropt::search;

EvalKind search::evalKindForError(support::ErrorCode Code) {
  switch (Code) {
  case support::ErrorCode::CompileFailed:
    return EvalKind::CompileError;
  case support::ErrorCode::ReplayCrash:
    return EvalKind::RuntimeCrash;
  case support::ErrorCode::ReplayTimeout:
    return EvalKind::RuntimeTimeout;
  case support::ErrorCode::OutputMismatch:
    return EvalKind::WrongOutput;
  case support::ErrorCode::CaptureNotReady:
  case support::ErrorCode::CaptureFailed:
  case support::ErrorCode::Unknown:
    // No capture means nothing ever ran: treat like a crash rather than a
    // compiler defect, so the GA rejects without blaming the pipeline.
    return EvalKind::RuntimeCrash;
  }
  return EvalKind::RuntimeCrash;
}

EvaluationEngine::EvaluationEngine(BackendFactory Factory,
                                   EngineOptions Options, uint64_t Seed)
    : Factory(std::move(Factory)), Options(Options), Seed(Seed) {
  size_t Jobs = Options.Jobs > 0 ? static_cast<size_t>(Options.Jobs)
                                 : ThreadPool::defaultThreadCount();
  Pool = std::make_unique<ThreadPool>(Jobs);
  ROPT_METRIC_GAUGE_SET("search.parallel_workers",
                        static_cast<double>(Jobs));
}

EvaluationEngine::~EvaluationEngine() = default;

size_t EvaluationEngine::jobs() const { return Pool->size(); }

void EvaluationEngine::ensureBackends(size_t Count) {
  // Backends are built serially on the calling thread so any RNG draws in
  // the factory happen in a deterministic order.
  while (Backends.size() < Count)
    Backends.push_back(Factory());
}

uint64_t EvaluationEngine::noiseSeed(uint64_t BinaryHash) const {
  // splitmix64 finalizer over (engine seed, binary hash): measurement
  // noise becomes a pure function of binary identity, so samples do not
  // depend on scheduling order or worker count.
  uint64_t Z = Seed ^ (BinaryHash + 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

void EngineCounters::count(EvalKind K) {
  switch (K) {
  case EvalKind::Ok: ++Ok; break;
  case EvalKind::CompileError: ++CompileError; break;
  case EvalKind::RuntimeCrash: ++RuntimeCrash; break;
  case EvalKind::RuntimeTimeout: ++RuntimeTimeout; break;
  case EvalKind::WrongOutput: ++WrongOutput; break;
  case EvalKind::Unevaluated: break;
  }
}

std::vector<Evaluation>
EvaluationEngine::evaluateBatch(const std::vector<Genome> &Genomes) {
  ROPT_TRACE_SPAN_V("search.batch", static_cast<int64_t>(Genomes.size()));

  const size_t N = Genomes.size();
  std::vector<Evaluation> Results(N);
  if (N == 0)
    return Results;

  // --- Plan (serial, batch order): decide per genome whether its compile
  // outcome is already known, deduplicating textually equal genomes
  // within the batch. ------------------------------------------------------
  std::vector<std::string> Keys(N);
  // Genome index -> index into CompileWork, or SIZE_MAX when the compile
  // outcome comes from GenomeCache / an earlier duplicate in this batch.
  constexpr size_t NoWork = static_cast<size_t>(-1);
  std::vector<size_t> WorkOf(N, NoWork);
  std::vector<size_t> CompileWork; // genome indices to actually compile
  std::unordered_map<std::string, size_t> BatchFirst; // key -> work index

  for (size_t I = 0; I != N; ++I) {
    Keys[I] = Genomes[I].name();
    if (!Options.Memoize) {
      WorkOf[I] = CompileWork.size();
      CompileWork.push_back(I);
      continue;
    }
    if (GenomeCache.count(Keys[I]))
      continue; // answered from the genome-level cache
    auto It = BatchFirst.find(Keys[I]);
    if (It != BatchFirst.end()) {
      WorkOf[I] = It->second; // share the first occurrence's compile
      continue;
    }
    WorkOf[I] = CompileWork.size();
    BatchFirst.emplace(Keys[I], CompileWork.size());
    CompileWork.push_back(I);
  }

  // --- Compile stage (parallel), dispatched in lexicographic pass-sequence
  // order so that neighbouring compiles share pass prefixes a backend can
  // resume from. Results land in Compiled[W] by index, so the order is
  // invisible to everything below. -----------------------------------------
  ensureBackends(std::min(Pool->size(), CompileWork.size()));
  std::vector<size_t> Order(CompileWork.size());
  std::iota(Order.begin(), Order.end(), size_t(0));
  auto PassKey = [](const lir::PassInstance &P) {
    return std::make_tuple(P.Id, P.IntParam, P.Aggressive);
  };
  std::stable_sort(Order.begin(), Order.end(), [&](size_t X, size_t Y) {
    const std::vector<lir::PassInstance> &A = Genomes[CompileWork[X]].Passes;
    const std::vector<lir::PassInstance> &B = Genomes[CompileWork[Y]].Passes;
    return std::lexicographical_compare(
        A.begin(), A.end(), B.begin(), B.end(),
        [&](const lir::PassInstance &P, const lir::PassInstance &Q) {
          return PassKey(P) < PassKey(Q);
        });
  });
  std::vector<CompiledBinary> Compiled(CompileWork.size());
  Pool->parallelFor(Order.size(), [&](size_t K, size_t Slot) {
    size_t W = Order[K];
    Compiled[W] = Backends[Slot]->compileGenome(Genomes[CompileWork[W]]);
  });

  // --- Commit compiles (serial, batch order) and plan the measure stage:
  // one measurement per distinct fresh binary. -----------------------------
  struct MeasureTask {
    size_t WorkIndex;   // into Compiled
    uint64_t NoiseSeed;
  };
  std::vector<MeasureTask> MeasureWork;
  std::unordered_map<uint64_t, size_t> MeasureOf; // hash -> MeasureWork idx

  for (size_t W = 0; W != Compiled.size(); ++W) {
    const CompiledBinary &B = Compiled[W];
    if (Options.Memoize)
      GenomeCache.emplace(Keys[CompileWork[W]],
                          GenomeEntry{B.Ok, B.BinaryHash});
    if (!B.Ok)
      continue;
    bool Known = Options.Memoize && BinaryCache.count(B.BinaryHash);
    if (!Known && !MeasureOf.count(B.BinaryHash)) {
      MeasureOf.emplace(B.BinaryHash, MeasureWork.size());
      MeasureWork.push_back(MeasureTask{W, noiseSeed(B.BinaryHash)});
    }
  }

  // --- Measure stage (parallel): every distinct fresh binary draws its
  // racing seed block, or the whole fixed budget when racing is off.
  // Same-binary batching: tasks are partitioned over backend lanes by
  // binary hash, so a binary measured again later (memoization off, or a
  // re-compiled duplicate) lands on the backend whose replay sessions and
  // verify cache already hold its state, and all of one binary's verified
  // replays run back-to-back on one backend under one shared code install.
  // The lane of a task is a pure function of the binary hash and the lane
  // count, never of scheduling — measurements themselves are pure
  // functions of (noise seed, index), so results stay bit-identical at
  // any --jobs value. ------------------------------------------------------
  const size_t MaxReplays =
      static_cast<size_t>(std::max(1, Options.MaxReplays));
  const size_t SeedBlock =
      Options.Racing
          ? std::min(static_cast<size_t>(std::max(1, Options.MinReplays)),
                     MaxReplays)
          : MaxReplays;
  std::vector<Evaluation> Measured(MeasureWork.size());
  const size_t LaneCount =
      std::max<size_t>(1, std::min(Pool->size(), MeasureWork.size()));
  ensureBackends(LaneCount);
  std::vector<std::vector<size_t>> Lanes(LaneCount);
  for (size_t M = 0; M != MeasureWork.size(); ++M) {
    uint64_t Hash = Compiled[MeasureWork[M].WorkIndex].BinaryHash;
    Lanes[Hash % LaneCount].push_back(M);
  }
  Pool->parallelFor(LaneCount, [&](size_t Lane, size_t Slot) {
    (void)Slot; // one task per lane: Backends[Lane] is single-threaded
    for (size_t M : Lanes[Lane]) {
      const MeasureTask &T = MeasureWork[M];
      Measured[M] = Backends[Lane]->measureBinary(Compiled[T.WorkIndex],
                                                  T.NoiseSeed, SeedBlock);
    }
  });

  // --- Commit the raw seed samples (serial, batch order) and collect the
  // racers. ----------------------------------------------------------------
  std::vector<Evaluation *> Racers;
  for (size_t M = 0; M != MeasureWork.size(); ++M) {
    Evaluation &E = Measured[M];
    if (!E.ok())
      continue;
    RawSamples[E.BinaryHash] = E.Samples; // raw; cleaned view built below
    Racing.ReplaysSpent += E.Samples.size();
    Racing.FixedBudget += MaxReplays;
    Racers.push_back(&E);
  }

  // --- Racing: serial batch-order escalation decisions, parallel block
  // draws (no-op when racing is off). --------------------------------------
  if (Options.Racing)
    raceFreshBinaries(Racers);

  // --- Finalize the public sample view and commit measurements (serial,
  // batch order). ----------------------------------------------------------
  for (Evaluation *E : Racers) {
    finalizeFromRaw(*E);
    ROPT_METRIC_OBSERVE("search.replays_per_eval", E->SamplesSpent,
                        ({1, 2, 3, 5, 7, 10, 15, 20}));
    if (static_cast<size_t>(E->SamplesSpent) < MaxReplays)
      ROPT_METRIC_ADD("search.replays_saved",
                      MaxReplays - static_cast<size_t>(E->SamplesSpent));
  }
  if (Options.Memoize)
    for (size_t M = 0; M != MeasureWork.size(); ++M)
      BinaryCache.emplace(Compiled[MeasureWork[M].WorkIndex].BinaryHash,
                          Measured[M]);

  // --- Assemble results in genome order, classifying each answer as a
  // genome hit, binary hit, or miss. ---------------------------------------
  auto evaluationFor = [&](size_t I) -> Evaluation {
    uint64_t Hash = 0;
    bool CompileOk = false;
    if (WorkOf[I] != NoWork) {
      const CompiledBinary &B = Compiled[WorkOf[I]];
      CompileOk = B.Ok;
      Hash = B.BinaryHash;
    } else {
      const GenomeEntry &E = GenomeCache.at(Keys[I]);
      CompileOk = E.Ok;
      Hash = E.BinaryHash;
    }
    if (!CompileOk) {
      Evaluation E;
      E.Kind = EvalKind::CompileError;
      E.Error = support::ErrorCode::CompileFailed;
      return E;
    }
    if (Options.Memoize)
      return BinaryCache.at(Hash);
    return Measured[MeasureOf.at(Hash)];
  };

  for (size_t I = 0; I != N; ++I) {
    Results[I] = evaluationFor(I);
    if (WorkOf[I] != NoWork && CompileWork[WorkOf[I]] == I) {
      // This genome paid a fresh compile. A failed compile is a miss; an
      // Ok compile is a miss only if it also paid the measurement — when
      // the binary was already known (from an earlier batch, or an
      // earlier same-hash compile in this one) it is a binary-level hit.
      const CompiledBinary &B = Compiled[WorkOf[I]];
      auto MIt = B.Ok ? MeasureOf.find(B.BinaryHash) : MeasureOf.end();
      bool PaidMeasure = MIt != MeasureOf.end() &&
                         MeasureWork[MIt->second].WorkIndex == WorkOf[I];
      if (B.Ok && !PaidMeasure) {
        ++Cache.BinaryHits;
        Results[I].Origin = CacheOrigin::BinaryHit;
        ROPT_METRIC_INC("search.cache_hits");
      } else {
        ++Cache.Misses;
        Results[I].Origin = CacheOrigin::Fresh;
        ROPT_METRIC_INC("search.cache_misses");
      }
    } else {
      // Answered without compiling: genome-level hit (earlier batch or an
      // earlier duplicate within this one).
      ++Cache.GenomeHits;
      Results[I].Origin = CacheOrigin::GenomeHit;
      ROPT_METRIC_INC("search.cache_hits");
    }
    Stats.count(Results[I].Kind);
  }

  return Results;
}

void EvaluationEngine::finalizeFromRaw(Evaluation &E) const {
  auto It = RawSamples.find(E.BinaryHash);
  if (It == RawSamples.end())
    return;
  E.Samples = removeOutliersMAD(It->second);
  E.MedianCycles = median(E.Samples);
  E.SamplesSpent = static_cast<int>(It->second.size());
}

void EvaluationEngine::raceFreshBinaries(
    const std::vector<Evaluation *> &Racers) {
  if (Racers.empty())
    return;
  const size_t Max = static_cast<size_t>(std::max(1, Options.MaxReplays));
  const size_t Block =
      std::min(static_cast<size_t>(std::max(1, Options.MinReplays)), Max);
  // Escalation rounds needed to go from the seed block to the full budget
  // in steps of Block; the alpha-spending schedule is laid out over
  // exactly this horizon so the whole race spends RacingAlpha.
  const int MaxRounds = static_cast<int>((Max - Block + Block - 1) / Block);
  if (MaxRounds == 0)
    return; // seed block is already the full budget

  // The reference every candidate races against: the search's announced
  // incumbent, or — before any announcement (generation 0) — the batch-
  // local leader: lowest seed-block median, ties broken by batch order.
  // The leader takes part in escalation (it needs full samples to become
  // a trustworthy reference) but is never tested against itself.
  const Evaluation *Leader = nullptr;
  if (IncumbentSamples.empty()) {
    double LeaderMedian = 0.0;
    for (const Evaluation *E : Racers) {
      double Med = median(removeOutliersMAD(RawSamples.at(E->BinaryHash)));
      if (!Leader || Med < LeaderMedian) {
        Leader = E;
        LeaderMedian = Med;
      }
    }
  }

  struct Extension {
    Evaluation *E;
    size_t Begin;
    size_t Count;
    std::vector<double> Drawn;
  };

  std::vector<char> Active(Racers.size(), 1);
  for (int Round = 1; Round <= MaxRounds; ++Round) {
    double RoundAlpha =
        racingRoundAlpha(Options.RacingAlpha, Round, MaxRounds);
    const std::vector<double> Reference =
        IncumbentSamples.empty()
            ? removeOutliersMAD(RawSamples.at(Leader->BinaryHash))
            : IncumbentSamples;

    // Decide (serial, batch order): early-stop statistically-clear
    // losers, grant everyone else another block.
    std::vector<Extension> Extensions;
    for (size_t I = 0; I != Racers.size(); ++I) {
      if (!Active[I])
        continue;
      Evaluation *E = Racers[I];
      std::vector<double> &Raw = RawSamples.at(E->BinaryHash);
      if (Raw.size() >= Max) {
        Active[I] = 0;
        continue;
      }
      if (E != Leader &&
          compareSamples(removeOutliersMAD(Raw), Reference, RoundAlpha) ==
              SampleOrder::Greater) {
        Active[I] = 0;
        E->EarlyStop = true;
        ++Racing.EarlyStops;
        ROPT_METRIC_INC("search.early_stops");
        continue;
      }
      Extensions.push_back(
          Extension{E, Raw.size(), std::min(Block, Max - Raw.size()), {}});
      ++E->EscalationRounds;
      ++Racing.Escalations;
      ROPT_METRIC_INC("search.escalations");
    }
    if (Extensions.empty())
      break;

    // Draw the granted blocks (parallel): sample i is a pure function of
    // (noise seed, i), so values are independent of scheduling.
    ensureBackends(std::min(Pool->size(), Extensions.size()));
    Pool->parallelFor(Extensions.size(), [&](size_t X, size_t Slot) {
      Extension &Ext = Extensions[X];
      Ext.Drawn = Backends[Slot]->extendSamples(
          *Ext.E, noiseSeed(Ext.E->BinaryHash), Ext.Begin, Ext.Count);
    });

    // Commit (serial, batch order).
    for (Extension &Ext : Extensions) {
      std::vector<double> &Raw = RawSamples.at(Ext.E->BinaryHash);
      Raw.insert(Raw.end(), Ext.Drawn.begin(), Ext.Drawn.end());
      Racing.ReplaysSpent += Ext.Drawn.size();
    }
  }
}

ReplayBackendStats EvaluationEngine::replayBackendStats() const {
  ReplayBackendStats Total;
  for (const std::unique_ptr<EvalBackend> &B : Backends)
    Total += B->replayStats();
  return Total;
}

Evaluation EvaluationEngine::announceIncumbent(const Evaluation &E) {
  if (!Options.Racing || !E.ok())
    return E;
  Evaluation Updated = E;
  auto It = RawSamples.find(E.BinaryHash);
  const size_t Max = static_cast<size_t>(std::max(1, Options.MaxReplays));
  if (It != RawSamples.end() && It->second.size() < Max) {
    // The incumbent is the one binary every future race is judged
    // against: give it the full measurement budget so the reference
    // samples are as tight as a fixed-budget run's.
    ensureBackends(1);
    std::vector<double> Drawn = Backends[0]->extendSamples(
        Updated, noiseSeed(E.BinaryHash), It->second.size(),
        Max - It->second.size());
    It->second.insert(It->second.end(), Drawn.begin(), Drawn.end());
    Racing.ReplaysSpent += Drawn.size();
    ++Racing.TopUps;
    finalizeFromRaw(Updated);
    Updated.EarlyStop = false; // now holds the full budget
    if (Options.Memoize) {
      auto CacheIt = BinaryCache.find(E.BinaryHash);
      if (CacheIt != BinaryCache.end()) {
        CacheIt->second.Samples = Updated.Samples;
        CacheIt->second.MedianCycles = Updated.MedianCycles;
        CacheIt->second.SamplesSpent = Updated.SamplesSpent;
        CacheIt->second.EarlyStop = false;
      }
    }
  }
  IncumbentSamples = Updated.Samples;
  return Updated;
}
