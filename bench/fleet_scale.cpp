//===- bench/fleet_scale.cpp - Crowd-sourced search population sweep ------===//
//
// The fleet layer's headline experiment (DESIGN.md §12, §14): run the
// same per-device search budget over growing device populations and
// watch crowd-sourcing pay — a larger fleet explores more of the
// pass-pipeline space, the server's leaderboard pools the discoveries,
// and every device warm-starts its next step from the fleet's verified
// best. Since the event-loop redesign the sweep runs on virtual time:
// devices finish steps asynchronously, reports and hints travel with
// real in-flight latency over a lossy SimTransport, and loss genuinely
// costs virtual time (a dropped hint response deterministically misses
// the step it would have seeded). Results are still bit-identical across
// --jobs and reruns at the same seed.
//
// At four-digit populations (--devices 1000,10000) the harness switches
// to install-base budgets — each device contributes a sliver of search
// and shares a device-class pipeline state — so per-device wall-clock
// *falls* as the population grows: the sublinear-scaling acceptance
// check reads the ms/dev column.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "fleet/Coordinator.h"
#include "store/Store.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <utility>

#include <sys/resource.h>

using namespace ropt;
using namespace ropt::bench;

int main(int Argc, char **Argv) {
  Options Opt = parseArgs(Argc, Argv);
  core::PipelineConfig BaseConfig = pipelineConfig(Opt);
  if (!Opt.Fast) {
    // Per-step search depth; the fleet steps multiply it back up.
    BaseConfig.Search.GA.Generations = 6;
    BaseConfig.Search.GA.PopulationSize = 16;
    BaseConfig.Search.GA.HillClimbRounds = 1;
  }
  beginObservability(Opt);
  ReportScope Report(Opt, "fleet_scale", BaseConfig);

  // --store DIR: the persistent optimization service (DESIGN.md §17).
  // The store is loaded once; every sweep cell's fresh server imports the
  // prior night's leaderboards (quarantine included) and pre-seeds device
  // mailboxes, and each completed cell folds its final board back into
  // the next save. Two runs with the same store directory are a
  // two-night deployment.
  std::unique_ptr<store::Store> St;
  store::Store::LoadResult Loaded;
  report::WarmStartInfo Warm;
  // (app name, genome key) pairs that predate this run, for the
  // class-leaderboard "restored" flag.
  std::set<std::pair<std::string, std::string>> LoadedKeys;
  if (!Opt.StoreDir.empty()) {
    St.reset(new store::Store(Opt.StoreDir));
    Loaded = St->load();
    if (!Loaded.Warning.empty())
      std::fprintf(stderr, "warning: %s\n", Loaded.Warning.c_str());
    Warm.Used = Loaded.Found && Loaded.Warning.empty();
    Warm.StoreSchema = Loaded.State.Schema;
    Warm.Nights = Loaded.State.Nights;
    for (const store::StoredApp &A : Loaded.State.Apps)
      for (const store::StoredEntry &E : A.Entries) {
        ++Warm.EntriesLoaded;
        if (E.Quarantined)
          ++Warm.QuarantinedLoaded;
        LoadedKeys.insert({A.Name, E.Genome});
      }
    if (Warm.Used)
      std::printf("store: %s (night %llu, %llu entries, %llu quarantined)\n",
                  St->path().c_str(),
                  static_cast<unsigned long long>(Loaded.State.Nights),
                  static_cast<unsigned long long>(Warm.EntriesLoaded),
                  static_cast<unsigned long long>(Warm.QuarantinedLoaded));
    else
      std::printf("store: %s (cold start)\n", St->path().c_str());
  }

  printHeader("Fleet scale: crowd-sourced search vs population size "
              "(DESIGN.md §12, §14)",
              "best fleet speedup grows (or holds) with device count at "
              "the same per-device budget; per-device wall-clock falls "
              "at install-base scale; unsound hints quarantined");

  std::vector<int> Sweep = Opt.Devices;
  if (Sweep.empty())
    Sweep = Opt.Fast ? std::vector<int>{1, 4} : std::vector<int>{1, 4, 16};
  int Rounds = Opt.Rounds > 0 ? Opt.Rounds : (Opt.Fast ? 2 : 3);

  std::vector<std::string> Apps = {"Sieve", "FFT"};
  if (Opt.Fast)
    Apps = {"Sieve"};
  if (!Opt.AppFilter.empty()) {
    std::vector<std::string> Filtered;
    for (const std::string &A : Apps)
      if (A.find(Opt.AppFilter) != std::string::npos)
        Filtered.push_back(A);
    Apps = Filtered;
  }

  // The paper-default lossy network; loss costs virtual time and can
  // reorder which hints seed which step, but seeded runs stay
  // bit-identical across --jobs and reruns.
  const fleet::FleetOptions Defaults = fleet::FleetOptions::paperDefaults();

  CsvSink Csv(Opt, "fleet_scale.csv",
              "app,devices,rounds,best_speedup,best_device,best_from_hint,"
              "hints_published,hints_adopted,hints_rejected,"
              "transport_attempts,transport_drops,deliveries_failed,"
              "reorders_effective,evaluations,devices_left,devices_joined,"
              "virtual_time,wall_ms,wall_ms_per_device");

  std::printf("%-10s %7s | %8s %5s %4s | %5s %5s %5s | %7s %6s | %4s %4s "
              "| %8s %8s\n",
              "app", "devices", "speedup", "dev", "hint", "pub", "adopt",
              "rej", "attempt", "drop", "left", "join", "vtime", "ms/dev");

  report::FleetSummary Summary;
  {
    std::string SweepStr;
    for (size_t I = 0; I != Sweep.size(); ++I)
      SweepStr += (I ? "," : "") + std::to_string(Sweep[I]);
    Summary.DeviceSweep = SweepStr;
  }
  Summary.Rounds = Rounds;
  Summary.TopK = fleet::ServerOptions{}.TopK;
  Summary.DropProb = Defaults.Net.DropProb;
  Summary.ReorderProb = Defaults.Net.ReorderProb;

  bool AnyFailed = false;
  // The night's accumulating snapshot: the last cell per app (the most
  // crowd-sourced population) supplies that app's board; the class model
  // carries over from last night until a k-means cell replaces it.
  std::map<std::string, store::StoredApp> NextApps;
  store::StoredClassModel NextClasses = Loaded.State.Classes;
  for (const std::string &App : Apps) {
    for (int N : Sweep) {
      fleet::FleetOptions FO = fleet::FleetOptions::paperDefaults();
      FO.Devices = N;
      FO.Rounds = Rounds;
      FO.Jobs = Opt.Jobs;
      FO.Seed = Opt.Seed;
      // Device classes make four-digit populations tractable: class
      // members share one pipeline state and memoized engine, so
      // evaluations dedup across the crowd. Small sweeps keep the
      // historical one-class-per-device behavior.
      FO.ProfileClasses = Opt.Classes >= 0 ? Opt.Classes
                                           : (N >= 100 ? 24 : 0);
      if (St) {
        // Store mode: classes come from seeded k-means over the
        // continuous profile vectors (per-class leaderboards need real
        // hardware classes), and devices warm-start from the restored
        // hint set. Small cells still get a few classes by default so
        // the class boards are populated.
        if (Opt.Classes < 0)
          FO.ProfileClasses = N >= 100 ? 24 : (N >= 4 ? 4 : 0);
        FO.KMeansClasses = true;
        FO.WarmStartHints = Warm.EntriesLoaded > 0;
      }

      core::PipelineConfig Cfg = BaseConfig;
      if (N >= 500) {
        // Install-base budgets: each device runs a sliver of search per
        // step; the population supplies the volume.
        Cfg.Search.GA.Generations = 1;
        Cfg.Search.GA.PopulationSize = 4;
        Cfg.Search.GA.HillClimbRounds = 0;
        Cfg.Search.MaxReplaysPerEvaluation = 3;
      }

      fleet::ServerOptions SrvOpt;
      if (Opt.ChurnPercent > 0) {
        double F = Opt.ChurnPercent / 100.0;
        FO.Population.LeaveFraction = F;
        FO.Population.JoinFraction = F;
        // Size the churn horizon to the run's expected virtual length so
        // leaves actually land mid-run: steps cost roughly Base plus a
        // cache miss per fresh evaluation.
        int EvalsPerStep =
            Cfg.Search.GA.PopulationSize *
                std::max(1, Cfg.Search.GA.Generations) +
            8;
        FO.Population.HorizonTicks =
            static_cast<fleet::VirtualTime>(Rounds) *
            (FO.Costs.BaseTicks +
             FO.Costs.MissTicks * static_cast<uint64_t>(EvalsPerStep) +
             FO.IdleTicks);
        // With members coming and going, leaderboard entries nobody
        // re-confirms within a device lifetime age out.
        SrvOpt.TtlTicks = FO.Population.HorizonTicks;
      }

      // Fresh server and transport per cell: every sweep point is an
      // independent population, not a continuation. Cross-run continuity
      // comes from the store: each cell restores last night's boards.
      fleet::Server Srv(SrvOpt);
      if (St && Warm.EntriesLoaded > 0) {
        std::vector<std::string> ImportWarnings;
        Srv.importState(Loaded.State, &ImportWarnings);
        for (const std::string &W : ImportWarnings)
          std::fprintf(stderr, "warning: %s\n", W.c_str());
      }
      fleet::SimTransport Net(FO.Net, Opt.Seed);
      fleet::Coordinator Co(FO, Cfg);
      std::chrono::steady_clock::time_point T0 =
          std::chrono::steady_clock::now();
      fleet::FleetResult R = Co.run(App, Srv, Net, Report.report());
      double WallMs = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - T0)
                          .count();
      double MsPerDevice = WallMs / static_cast<double>(std::max(1, R.Devices));

      if (!R.Succeeded) {
        std::printf("%-10s %7d | fleet failed (%s)\n", App.c_str(), N,
                    R.FailureReason.c_str());
        AnyFailed = true;
        continue;
      }

      std::printf("%-10s %7d | %7.3fx %5d %4s | %5llu %5llu %5llu | "
                  "%7llu %6llu | %4d %4d | %8llu %8.2f\n",
                  App.c_str(), N, R.BestSpeedup, R.BestDevice,
                  R.BestFromHint ? "yes" : "no",
                  static_cast<unsigned long long>(R.HintsPublished),
                  static_cast<unsigned long long>(R.HintsAdopted),
                  static_cast<unsigned long long>(R.HintsRejected),
                  static_cast<unsigned long long>(R.Transport.Attempts),
                  static_cast<unsigned long long>(R.Transport.Drops),
                  R.DevicesLeft, R.DevicesJoined,
                  static_cast<unsigned long long>(R.VirtualDuration),
                  MsPerDevice);
      Csv.row(App + "," + std::to_string(N) + "," + std::to_string(Rounds) +
              "," + std::to_string(R.BestSpeedup) + "," +
              std::to_string(R.BestDevice) + "," +
              (R.BestFromHint ? "1" : "0") + "," +
              std::to_string(R.HintsPublished) + "," +
              std::to_string(R.HintsAdopted) + "," +
              std::to_string(R.HintsRejected) + "," +
              std::to_string(R.Transport.Attempts) + "," +
              std::to_string(R.Transport.Drops) + "," +
              std::to_string(R.Transport.Failed) + "," +
              std::to_string(R.Transport.ReordersEffective) + "," +
              std::to_string(R.Counters.total()) + "," +
              std::to_string(R.DevicesLeft) + "," +
              std::to_string(R.DevicesJoined) + "," +
              std::to_string(R.VirtualDuration) + "," +
              std::to_string(WallMs) + "," + std::to_string(MsPerDevice));

      // The winning genome's fleet journey: who discovered it, when it
      // reached the server, and how far the hint plane carried it.
      if (R.BestProv.Id != 0) {
        for (const fleet::ProvenanceChain &C : R.Telemetry.Chains) {
          if (C.Id != R.BestProv.Id)
            continue;
          std::printf("           winner %s %s: discovered d%d@vt%llu, "
                      "merged@vt%llu, %llu arrivals, %llu adopted, "
                      "%llu rejected\n",
                      fleet::provenanceHex(C.Id).c_str(), C.Key.c_str(),
                      C.Device,
                      static_cast<unsigned long long>(C.DiscoveryTime),
                      static_cast<unsigned long long>(C.FirstMergeTime),
                      static_cast<unsigned long long>(C.Arrivals),
                      static_cast<unsigned long long>(C.Adoptions),
                      static_cast<unsigned long long>(C.Rejections));
          break;
        }
      }

      // Fork-server session accounting across the cell's class engines.
      if (R.ReplayBackend.any())
        std::printf("           replay backend: %llu session replays / "
                    "%llu sessions, %llu delta resets (%.1f pages/reset), "
                    "%llu fresh, %llu rebuilds\n",
                    static_cast<unsigned long long>(
                        R.ReplayBackend.SessionReplays),
                    static_cast<unsigned long long>(
                        R.ReplayBackend.SessionsCreated),
                    static_cast<unsigned long long>(
                        R.ReplayBackend.DeltaResets),
                    R.ReplayBackend.pagesPerReset(),
                    static_cast<unsigned long long>(
                        R.ReplayBackend.FreshReplays),
                    static_cast<unsigned long long>(
                        R.ReplayBackend.FullRebuilds));

      Summary.HintsPublished += R.HintsPublished;
      Summary.HintsAdopted += R.HintsAdopted;
      Summary.HintsRejected += R.HintsRejected;
      Summary.Transport += R.Transport;
      if (R.BestSpeedup > Summary.BestSpeedup)
        Summary.BestSpeedup = R.BestSpeedup;

      if (St) {
        Warm.HintsInjected += R.WarmStartHintCount;

        // Fold the cell's final board into the night's snapshot and
        // publish it: saving after every completed cell means a crashed
        // sweep still keeps the cells that finished (save is atomic).
        store::StoreState CellState;
        Srv.exportState(CellState);
        for (store::StoredApp &A : CellState.Apps)
          NextApps[A.Name] = std::move(A);
        if (!R.ClassCentroids.empty()) {
          NextClasses = store::StoredClassModel();
          NextClasses.K = static_cast<int>(R.ClassCentroids.size());
          NextClasses.Dims =
              static_cast<int>(R.ClassCentroids.front().size());
          NextClasses.Centroids = R.ClassCentroids;
          NextClasses.Assignments = R.ClassOf;
        }
        store::StoreState Night;
        Night.Nights = Loaded.State.Nights + 1;
        Night.FleetSeed = Opt.Seed;
        Night.Classes = NextClasses;
        for (const auto &KV : NextApps)
          Night.Apps.push_back(KV.second);
        std::string Err;
        if (!St->save(Night, &Err))
          std::fprintf(stderr, "warning: %s\n", Err.c_str());

        // Per-class leaderboard snapshot for the run report: the best
        // class-confirmed entry per device class in this cell.
        if (!R.ClassCentroids.empty()) {
          if (const std::vector<fleet::Server::LeaderEntry> *Board =
                  Srv.leaderboard(App)) {
            int K = static_cast<int>(R.ClassCentroids.size());
            for (int C = 0; C != K; ++C) {
              const fleet::Server::LeaderEntry *BestE = nullptr;
              for (const fleet::Server::LeaderEntry &E : *Board) {
                if (E.Quarantined || E.Expired || !E.Classes.count(C))
                  continue;
                if (!BestE || E.Speedup > BestE->Speedup ||
                    (E.Speedup == BestE->Speedup && E.Key < BestE->Key))
                  BestE = &E;
              }
              if (!BestE)
                continue;
              report::ClassLeaderboardRow Row;
              Row.App = App;
              Row.Devices = N;
              Row.Class = C;
              Row.Genome = BestE->Key;
              Row.Speedup = BestE->Speedup;
              Row.Reports = BestE->Reports;
              Row.Restored = LoadedKeys.count({App, BestE->Key}) != 0;
              Summary.ClassBoards.push_back(Row);
            }
          }
        }
      }
    }
    std::printf("\n");
  }

  std::printf("(speedups are vs each device's own Android baseline; the "
              "transport dropped %llu of %llu attempts — %llu deliveries "
              "never landed and %llu reorders changed which hints seeded "
              "a step, all deterministically at this seed)\n",
              static_cast<unsigned long long>(Summary.Transport.Drops),
              static_cast<unsigned long long>(Summary.Transport.Attempts),
              static_cast<unsigned long long>(Summary.Transport.Failed),
              static_cast<unsigned long long>(
                  Summary.Transport.ReordersEffective));

  if (Report.report()) {
    Report.report()->setFleetSummary(Summary);
    if (St)
      Report.report()->setWarmStart(Warm);
  }
  if (St)
    std::printf("store: saved %s (night %llu, %llu warm-start hints "
                "pre-seeded)\n",
                St->path().c_str(),
                static_cast<unsigned long long>(Loaded.State.Nights + 1),
                static_cast<unsigned long long>(Warm.HintsInjected));
  // The high-water mark of the whole process (ru_maxrss is KiB on
  // Linux); CI bounds it at install-base size.
  rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  std::printf("peak RSS: %.1f MiB\n",
              static_cast<double>(Usage.ru_maxrss) / 1024.0);
  finishObservability(Opt);
  return AnyFailed ? 1 : 0;
}
