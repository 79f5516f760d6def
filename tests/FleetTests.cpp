//===- tests/FleetTests.cpp - Crowd-sourced fleet search --------------------===//
//
// The fleet layer's acceptance criteria (DESIGN.md §12, §14):
//
//   (a) a seeded fleet run is bit-identical across --jobs values and
//       across re-runs at the same seed — including under a lossy,
//       reordering transport and under device churn;
//   (b) a 4-device fleet's final best fitness is at least the 1-device
//       best at the same per-device budget;
//   (c) a deliberately-unsound injected hint is rejected by every
//       device's own verification map, counted, and quarantined;
//   (d) loss and reordering are *real* since the virtual-time redesign:
//       they shift delivery times and can change which hints seed which
//       search — what stays fixed is determinism at a given seed.
//
// Plus unit coverage of the event loop's (time, seq) commit order, the
// transport's pure-function verdicts and delivery planning, the server's
// statistical merging/dedup/quarantine/TTL, device-profile derivation
// (per-device and classed), and the core warm-start hook.
//
//===----------------------------------------------------------------------===//

#include "fleet/Coordinator.h"
#include "fleet/EventLoop.h"
#include "fleet/Server.h"
#include "fleet/Transport.h"

#include "core/IterativeCompiler.h"
#include "lir/Passes.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace ropt;

namespace {

/// Small-but-real per-device pipeline budget: every fleet test runs the
/// full profile/capture/replay/search stack per device.
core::PipelineConfig fleetBase(uint64_t Seed) {
  core::PipelineConfig Config;
  Config.Seed = Seed;
  Config.Search.GA.Generations = 3;
  Config.Search.GA.PopulationSize = 8;
  Config.Search.GA.HillClimbRounds = 1;
  Config.Search.MaxReplaysPerEvaluation = 4;
  Config.Capture.ProfileSessions = 4;
  Config.Measure.FinalMeasurementRuns = 4;
  return Config;
}

fleet::FleetOptions fleetOptions(int Devices, int Rounds, int Jobs,
                                 uint64_t Seed) {
  fleet::FleetOptions FO;
  FO.Devices = Devices;
  FO.Rounds = Rounds;
  FO.Jobs = Jobs;
  FO.Seed = Seed;
  return FO;
}

fleet::FleetResult runFleet(const fleet::FleetOptions &FO,
                            fleet::Transport &Net,
                            const std::string &App = "Sieve") {
  fleet::Server Srv;
  fleet::Coordinator Co(FO, fleetBase(FO.Seed));
  return Co.run(App, Srv, Net);
}

/// A genome whose aggressive modes are mechanistically unsound (LICM
/// division speculation, divisibility-assuming unroll, naive bounds-check
/// elimination) — the fleet-scale stand-in for a device-specific
/// miscompile that some other device's inputs never caught.
search::Genome unsoundGenome() {
  search::Genome G;
  G.Passes.push_back(lir::PassInstance{lir::PassId::Licm, 0, true});
  G.Passes.push_back(
      lir::PassInstance{lir::PassId::LoopUnroll, 3, true});
  G.Passes.push_back(
      lir::PassInstance{lir::PassId::BoundsCheckElim, 0, true});
  return G;
}

} // namespace

// --- Event loop -------------------------------------------------------------

TEST(FleetEventLoop, CommitsRunInTimeSeqOrder) {
  ThreadPool Pool(4);
  fleet::EventLoop Loop(Pool);

  std::vector<int> Order;
  auto Committer = [&Order](int Tag) {
    return [&Order, Tag](fleet::EventLoop &) { Order.push_back(Tag); };
  };
  // Scheduled out of order; same-time events tie-break on schedule seq.
  Loop.schedule(5, /*Lane=*/0, nullptr, Committer(50));
  Loop.schedule(3, /*Lane=*/1, nullptr, Committer(30));
  Loop.schedule(3, /*Lane=*/2, nullptr, Committer(31));
  Loop.schedule(7, /*Lane=*/-1, nullptr,
                [&](fleet::EventLoop &L) {
                  Order.push_back(70);
                  // Scheduling from a commit lands in a later wave, never
                  // the current one.
                  L.schedule(7, -1, nullptr, Committer(71));
                });
  Loop.run();

  EXPECT_EQ(Order, (std::vector<int>{30, 31, 50, 70, 71}));
  EXPECT_EQ(Loop.eventsProcessed(), 5u);
  EXPECT_GE(Loop.now(), 7u);
}

TEST(FleetEventLoop, ParallelComputesCommitDeterministically) {
  // Many same-window events across lanes: computes may run on any
  // worker, but commits must land in (time, seq) order at any pool size.
  auto Run = [](size_t Workers) {
    ThreadPool Pool(Workers);
    fleet::EventLoop Loop(Pool);
    std::vector<int> Order;
    for (int I = 0; I != 32; ++I) {
      int Lane = I % 5;
      Loop.schedule(static_cast<fleet::VirtualTime>(1 + (I % 3)), Lane,
                    []() { /* lane-parallel compute */ },
                    [&Order, I](fleet::EventLoop &) { Order.push_back(I); });
    }
    Loop.run();
    return Order;
  };
  EXPECT_EQ(Run(1), Run(8));
}

// --- Transport --------------------------------------------------------------

TEST(FleetTransport, VerdictIsPureFunctionOfAttemptIdentity) {
  fleet::TransportOptions Opt;
  Opt.DropProb = 0.5;
  Opt.ReorderProb = 0.5;
  fleet::SimTransport Net(Opt, /*Seed=*/7);

  fleet::MessageKey Key{fleet::appKey("Sieve"), fleet::Channel::Report, 2,
                        1, 0};
  fleet::Delivery First = Net.attempt(Key);
  // Same identity, any later call: same fate. No hidden call-order state.
  for (int I = 0; I != 5; ++I) {
    fleet::Delivery Again = Net.attempt(Key);
    EXPECT_EQ(Again.Delivered, First.Delivered);
    EXPECT_EQ(Again.LatencyTicks, First.LatencyTicks);
    EXPECT_EQ(Again.Reordered, First.Reordered);
    EXPECT_EQ(Again.ReorderTicks, First.ReorderTicks);
  }

  // Distinct attempt numbers draw independent fates; over many keys both
  // outcomes must occur at DropProb = 0.5.
  int Delivered = 0, Dropped = 0;
  for (int A = 0; A != 64; ++A) {
    fleet::MessageKey K = Key;
    K.Attempt = A;
    (Net.attempt(K).Delivered ? Delivered : Dropped) += 1;
  }
  EXPECT_GT(Delivered, 0);
  EXPECT_GT(Dropped, 0);
}

TEST(FleetTransport, PlanDeliveryAccumulatesRetriesAndLatency) {
  fleet::TransportOptions Opt;
  Opt.DropProb = 0.6;
  fleet::SimTransport Net(Opt, /*Seed=*/3);
  fleet::RetryPolicy Policy;

  int TotalAttempts = 0;
  for (int D = 0; D != 32; ++D) {
    fleet::MessageKey Key{fleet::appKey("FFT"), fleet::Channel::Hints, 0, D,
                          0};
    fleet::SendOutcome S = fleet::planDelivery(Net, Key, Policy);
    EXPECT_TRUE(S.Delivered); // P(fail) = 0.6^64 — effectively never.
    EXPECT_GE(S.Attempts, 1);
    EXPECT_EQ(S.Drops, static_cast<uint64_t>(S.Attempts - 1));
    // Every attempt costs at least its latency tick; retries add backoff
    // on top — loss is paid in virtual time, not hidden by the retry.
    EXPECT_GE(S.DelayTicks, static_cast<uint64_t>(S.Attempts));
    if (S.Attempts > 1)
      EXPECT_GT(S.DelayTicks, static_cast<uint64_t>(S.Attempts));
    TotalAttempts += S.Attempts;
  }
  EXPECT_GT(TotalAttempts, 32); // The loss was real: retries happened.

  fleet::PerfectTransport Ideal;
  fleet::SendOutcome S = fleet::planDelivery(
      Ideal, fleet::MessageKey{1, fleet::Channel::Hints, 0, 0, 0}, Policy);
  EXPECT_TRUE(S.Delivered);
  EXPECT_EQ(S.Attempts, 1);
  EXPECT_EQ(S.Drops, 0u);
  EXPECT_EQ(S.DelayTicks, 1u); // PerfectTransport: one tick in flight.
}

TEST(FleetTransport, PlanDeliveryCanGenuinelyFail) {
  fleet::TransportOptions Opt;
  Opt.DropProb = 1.0; // A dead link: every attempt is lost.
  fleet::SimTransport Net(Opt, /*Seed=*/9);
  fleet::RetryPolicy Policy;
  Policy.MaxAttempts = 8;

  fleet::SendOutcome S = fleet::planDelivery(
      Net, fleet::MessageKey{2, fleet::Channel::Report, 0, 0, 0}, Policy);
  EXPECT_FALSE(S.Delivered);
  EXPECT_EQ(S.Attempts, 8);
  EXPECT_EQ(S.Drops, 8u);
  // The failure still cost time: latency per attempt plus capped backoff.
  EXPECT_GT(S.DelayTicks, 8u);

  fleet::TransportStats Stats;
  Stats.count(S);
  EXPECT_EQ(Stats.Failed, 1u);
  EXPECT_EQ(Stats.Attempts, 8u);
}

// --- Server -----------------------------------------------------------------

namespace {

fleet::GenomeReport genomeReport(const search::Genome &G, uint64_t Hash,
                                 std::vector<double> Speedups) {
  fleet::GenomeReport R;
  R.G = G;
  R.Key = G.name();
  R.BinaryHash = Hash;
  R.SpeedupSamples = std::move(Speedups);
  R.SpeedupMedian = R.SpeedupSamples[R.SpeedupSamples.size() / 2];
  return R;
}

} // namespace

TEST(FleetServer, MergesDeduplicatesAndRanks) {
  fleet::Server Srv;
  search::Genome G1, G2;
  G1.Passes.push_back(lir::PassInstance{lir::PassId::Gvn, 0, false});
  G1.Passes.push_back(lir::PassInstance{lir::PassId::Dce, 0, false});
  G2.Passes.push_back(lir::PassInstance{lir::PassId::Sink, 0, false});
  G2.Passes.push_back(lir::PassInstance{lir::PassId::Dce, 0, false});

  fleet::RoundReport R0;
  R0.Device = 0;
  R0.Best.push_back(genomeReport(G1, 0xaaa, {1.2, 1.3, 1.4}));
  Srv.merge("App", R0);

  // A second device reports the same binary hash: the entry is folded,
  // not duplicated, and the pooled samples re-rank the median.
  fleet::RoundReport R1;
  R1.Device = 1;
  R1.Best.push_back(genomeReport(G1, 0xaaa, {1.6, 1.7, 1.8}));
  R1.Best.push_back(genomeReport(G2, 0xbbb, {2.0, 2.1, 2.2}));
  Srv.merge("App", R1);

  const std::vector<fleet::Server::LeaderEntry> *Board =
      Srv.leaderboard("App");
  ASSERT_NE(Board, nullptr);
  ASSERT_EQ(Board->size(), 2u);
  EXPECT_EQ(Srv.stats().Duplicates, 1u);
  EXPECT_EQ(Srv.stats().ReportsMerged, 2u);

  // Hints come back best-first: G2's 2.1 median beats G1's pooled median.
  std::vector<fleet::Hint> Hints = Srv.hints("App");
  ASSERT_EQ(Hints.size(), 2u);
  EXPECT_EQ(Hints[0].Key, G2.name());
  EXPECT_GT(Hints[0].Speedup, Hints[1].Speedup);
  EXPECT_EQ(Hints[1].Reports, 2);

  // A rejection report quarantines the genome: it leaves the hint set
  // for good, but stays on the leaderboard for the post-mortem.
  fleet::RoundReport R2;
  R2.Device = 2;
  R2.Rejections.push_back(fleet::HintRejection{G2.name(), "wrong-output"});
  Srv.merge("App", R2);
  Hints = Srv.hints("App");
  ASSERT_EQ(Hints.size(), 1u);
  EXPECT_EQ(Hints[0].Key, G1.name());
  EXPECT_EQ(Srv.stats().Quarantined, 1u);
}

TEST(FleetServer, UnknownAppHasNoBoardOrHints) {
  fleet::Server Srv;
  EXPECT_EQ(Srv.leaderboard("Nope"), nullptr);
  EXPECT_TRUE(Srv.hints("Nope").empty());
}

TEST(FleetServer, LeaderboardTtlExpiresStaleEntries) {
  fleet::ServerOptions Opt;
  Opt.TtlTicks = 100;
  fleet::Server Srv(Opt);

  search::Genome G;
  G.Passes.push_back(lir::PassInstance{lir::PassId::Gvn, 0, false});
  fleet::RoundReport R;
  R.Device = 0;
  R.Best.push_back(genomeReport(G, 0xaaa, {1.5, 1.6, 1.7}));
  Srv.merge("App", R, /*Now=*/10);

  // Fresh within the TTL window: served.
  EXPECT_EQ(Srv.hints("App", /*Now=*/60).size(), 1u);
  EXPECT_EQ(Srv.stats().Expired, 0u);

  // Past LastReportTick + TtlTicks: aged out of the hint set, counted,
  // but kept on the leaderboard for the post-mortem.
  EXPECT_TRUE(Srv.hints("App", /*Now=*/111).empty());
  EXPECT_EQ(Srv.stats().Expired, 1u);
  const std::vector<fleet::Server::LeaderEntry> *Board =
      Srv.leaderboard("App");
  ASSERT_NE(Board, nullptr);
  ASSERT_EQ(Board->size(), 1u);
  EXPECT_TRUE(Board->front().Expired);

  // A fresh report revives the entry: live confirmation beats staleness.
  Srv.merge("App", R, /*Now=*/120);
  EXPECT_EQ(Srv.hints("App", /*Now=*/150).size(), 1u);
  EXPECT_FALSE(Board->front().Expired);
}

TEST(FleetServer, InjectHintRespectsQuarantine) {
  fleet::Server Srv;
  search::Genome G = unsoundGenome();

  // First injection lands (nothing known against the genome yet)...
  Srv.injectHint("App", G, 2.0);
  EXPECT_EQ(Srv.stats().HintsInjected, 1u);
  ASSERT_EQ(Srv.hints("App").size(), 1u);

  // ...then a device's verification map rejects it and it's quarantined.
  fleet::RoundReport R;
  R.Device = 0;
  R.Rejections.push_back(fleet::HintRejection{G.name(), "wrong-output"});
  Srv.merge("App", R);
  EXPECT_EQ(Srv.stats().Quarantined, 1u);

  // Re-injecting the proven miscompile (the restart-from-store path)
  // must be dropped, not merged: quarantine survives injection.
  Srv.injectHint("App", G, 2.5);
  EXPECT_EQ(Srv.stats().InjectionsDropped, 1u);
  EXPECT_EQ(Srv.stats().HintsInjected, 1u);
  EXPECT_TRUE(Srv.hints("App").empty());

  // A different, clean genome still injects fine.
  search::Genome Clean;
  Clean.Passes.push_back(lir::PassInstance{lir::PassId::Gvn, 0, false});
  Clean.Passes.push_back(lir::PassInstance{lir::PassId::Dce, 0, false});
  Srv.injectHint("App", Clean, 1.5);
  EXPECT_EQ(Srv.stats().HintsInjected, 2u);
  ASSERT_EQ(Srv.hints("App").size(), 1u);
  EXPECT_EQ(Srv.hints("App")[0].Key, Clean.name());
}

TEST(FleetServer, ClassLocalHintsServeClassTopKPlusExplorationTail) {
  fleet::ServerOptions Opt;
  Opt.TopK = 2;
  Opt.ExplorationTail = 1;
  fleet::Server Srv(Opt);

  auto MakeGenome = [](lir::PassId Id) {
    search::Genome G;
    G.Passes.push_back(lir::PassInstance{Id, 0, false});
    G.Passes.push_back(lir::PassInstance{lir::PassId::Dce, 0, false});
    return G;
  };
  auto Report = [&](const search::Genome &G, uint64_t Hash, double Speedup,
                    int Device, int Class) {
    fleet::RoundReport R;
    R.Device = Device;
    R.DeviceClass = Class;
    R.Best.push_back(
        genomeReport(G, Hash, {Speedup, Speedup, Speedup}));
    Srv.merge("App", R);
  };

  // Class 0 confirmed three entries; class 1 confirmed two faster ones
  // (different silicon, different winners).
  search::Genome A = MakeGenome(lir::PassId::Gvn);
  search::Genome B = MakeGenome(lir::PassId::Sink);
  search::Genome C = MakeGenome(lir::PassId::Licm);
  search::Genome D = MakeGenome(lir::PassId::InstCombine);
  search::Genome E = MakeGenome(lir::PassId::SimplifyCfg);
  Report(A, 0xa, 1.4, /*Device=*/0, /*Class=*/0);
  Report(B, 0xb, 1.3, /*Device=*/1, /*Class=*/0);
  Report(C, 0xc, 1.2, /*Device=*/2, /*Class=*/0);
  Report(D, 0xd, 2.0, /*Device=*/3, /*Class=*/1);
  Report(E, 0xe, 1.9, /*Device=*/4, /*Class=*/1);

  // Class 0 gets its own top-2 first — not class 1's globally-better
  // entries — then the single best foreign entry as the exploration
  // tail.
  std::vector<fleet::Hint> H0 = Srv.hints("App", /*Now=*/0, /*Class=*/0);
  ASSERT_EQ(H0.size(), 3u);
  EXPECT_EQ(H0[0].Key, A.name());
  EXPECT_EQ(H0[1].Key, B.name());
  EXPECT_EQ(H0[2].Key, D.name());

  // Class 1 symmetric: own two winners, then class 0's best.
  std::vector<fleet::Hint> H1 = Srv.hints("App", /*Now=*/0, /*Class=*/1);
  ASSERT_EQ(H1.size(), 3u);
  EXPECT_EQ(H1[0].Key, D.name());
  EXPECT_EQ(H1[1].Key, E.name());
  EXPECT_EQ(H1[2].Key, A.name());

  // A class nobody reported from is all exploration tail.
  std::vector<fleet::Hint> H9 = Srv.hints("App", /*Now=*/0, /*Class=*/9);
  ASSERT_EQ(H9.size(), 1u);
  EXPECT_EQ(H9[0].Key, D.name());

  // Class -1 keeps the global ranking (best first, no tail).
  std::vector<fleet::Hint> HG = Srv.hints("App");
  ASSERT_EQ(HG.size(), 2u);
  EXPECT_EQ(HG[0].Key, D.name());
  EXPECT_EQ(HG[1].Key, E.name());
}

// --- Device profiles --------------------------------------------------------

TEST(FleetDevice, ProfileDerivationIsDeterministicAndBounded) {
  fleet::DeviceProfile A =
      fleet::DeviceProfile::derive(42, 3, 0.25, 0.5, 2);
  fleet::DeviceProfile B =
      fleet::DeviceProfile::derive(42, 3, 0.25, 0.5, 2);
  EXPECT_EQ(A.Seed, B.Seed);
  EXPECT_EQ(A.CostScale, B.CostScale);
  EXPECT_EQ(A.NoiseScale, B.NoiseScale);
  EXPECT_EQ(A.SessionShift, B.SessionShift);
  EXPECT_GE(A.CostScale, 0.75);
  EXPECT_LE(A.CostScale, 1.25);
  EXPECT_GE(A.NoiseScale, 0.5);
  EXPECT_LE(A.NoiseScale, 1.5);
  EXPECT_GE(A.SessionShift, -2);
  EXPECT_LE(A.SessionShift, 2);

  // Different members of the same population get different seeds.
  fleet::DeviceProfile C =
      fleet::DeviceProfile::derive(42, 4, 0.25, 0.5, 2);
  EXPECT_NE(A.Seed, C.Seed);

  // Zero jitter: a homogeneous fleet.
  fleet::DeviceProfile H = fleet::DeviceProfile::derive(42, 3, 0, 0, 0);
  EXPECT_EQ(H.CostScale, 1.0);
  EXPECT_EQ(H.NoiseScale, 1.0);
  EXPECT_EQ(H.SessionShift, 0);
}

TEST(FleetDevice, ClassedProfilesShareHardwareNotSeeds) {
  // Device 7 of a 4-class fleet lands in class 3 and inherits class 3's
  // hardware axes (that is what lets class members share one pipeline
  // state)...
  fleet::DeviceProfile D7 =
      fleet::DeviceProfile::deriveClassed(42, 7, 4, 0.25, 0.5, 2);
  fleet::DeviceProfile C3 = fleet::DeviceProfile::derive(42, 3, 0.25, 0.5, 2);
  EXPECT_EQ(D7.Id, 7);
  EXPECT_EQ(D7.ClassId, 3);
  EXPECT_EQ(D7.CostScale, C3.CostScale);
  EXPECT_EQ(D7.NoiseScale, C3.NoiseScale);
  EXPECT_EQ(D7.SessionShift, C3.SessionShift);

  // ...but searches from its own seed: class siblings explore distinct
  // trajectories.
  fleet::DeviceProfile D3 =
      fleet::DeviceProfile::deriveClassed(42, 3, 4, 0.25, 0.5, 2);
  EXPECT_EQ(D3.ClassId, D7.ClassId);
  EXPECT_NE(D3.Seed, D7.Seed);

  // Classes = 0 degenerates to the historical per-device derivation.
  fleet::DeviceProfile Solo =
      fleet::DeviceProfile::deriveClassed(42, 3, 0, 0.25, 0.5, 2);
  EXPECT_EQ(Solo.Seed, C3.Seed);
  EXPECT_EQ(Solo.ClassId, 3);
}

// --- (a) Determinism: bit-identical at any --jobs and across re-runs --------

TEST(FleetCoordinator, ResultsAreIdenticalAcrossJobsAndReruns) {
  fleet::PerfectTransport Net;
  fleet::FleetResult Serial =
      runFleet(fleetOptions(3, 2, /*Jobs=*/1, /*Seed=*/1), Net);
  fleet::FleetResult Parallel =
      runFleet(fleetOptions(3, 2, /*Jobs=*/4, /*Seed=*/1), Net);
  fleet::FleetResult Rerun =
      runFleet(fleetOptions(3, 2, /*Jobs=*/4, /*Seed=*/1), Net);

  ASSERT_TRUE(Serial.Succeeded) << Serial.FailureReason;
  EXPECT_FALSE(Serial.digest().empty());
  EXPECT_EQ(Serial.digest(), Parallel.digest());
  EXPECT_EQ(Parallel.digest(), Rerun.digest());
  EXPECT_EQ(Serial.BestSpeedup, Parallel.BestSpeedup);
  EXPECT_EQ(Serial.BestGenome, Parallel.BestGenome);
  EXPECT_GT(Serial.VirtualDuration, 0u);
}

// --- (b) Crowd-sourcing pays: more devices, no worse a best -----------------

TEST(FleetCoordinator, FourDevicesFindAtLeastTheSingleDeviceBest) {
  // Homogeneous fleet: identical hardware, so best-speedup comparisons
  // across population sizes are apples to apples. Each device still
  // searches from its own seed — the population explores more of the
  // space, and the leaderboard shares what it finds. Three steps so the
  // asynchronous hint loop closes: a device needs a delivered report
  // (step n), the piggybacked hint push, and a later step (n+1 or n+2)
  // to adopt.
  fleet::FleetOptions One = fleetOptions(1, 3, 1, /*Seed=*/1);
  One.CostJitter = 0.0;
  One.NoiseJitter = 0.0;
  One.SessionSpread = 0;
  fleet::FleetOptions Four = One;
  Four.Devices = 4;
  Four.Jobs = 4;

  fleet::PerfectTransport Net;
  fleet::FleetResult R1 = runFleet(One, Net);
  fleet::FleetResult R4 = runFleet(Four, Net);

  ASSERT_TRUE(R1.Succeeded) << R1.FailureReason;
  ASSERT_TRUE(R4.Succeeded) << R4.FailureReason;
  EXPECT_GT(R1.BestSpeedup, 0.0);
  EXPECT_GE(R4.BestSpeedup, R1.BestSpeedup);
  // The crowd actually talked: hints flowed and some were adopted.
  EXPECT_GT(R4.HintsPublished, 0u);
  EXPECT_GT(R4.HintsAdopted, 0u);
}

// --- (c) Safety: unsound hints are re-verified, rejected, quarantined -------

TEST(FleetCoordinator, UnsoundHintIsRejectedByVerificationAndQuarantined) {
  uint64_t RejectedBefore =
      Metrics::instance().snapshot().counter("fleet.hints_rejected");

  fleet::Server Srv;
  search::Genome Evil = unsoundGenome();
  // The poisoned leaderboard: an unsound genome claiming a 9.9x speedup,
  // as if reported by a device whose inputs never tripped the bug. Every
  // device must re-verify it against its own map before adoption.
  Srv.injectHint("Sieve", Evil, /*Speedup=*/9.9);

  fleet::PerfectTransport Net;
  fleet::Coordinator Co(fleetOptions(2, 2, 1, /*Seed=*/1), fleetBase(1));
  fleet::FleetResult R = Co.run("Sieve", Srv, Net);

  ASSERT_TRUE(R.Succeeded) << R.FailureReason;
  // Both devices saw the hint, neither adopted it, and the rejection was
  // counted and reported back.
  EXPECT_GT(R.HintsRejected, 0u);
  EXPECT_NE(R.BestGenome, Evil.name());
  uint64_t RejectedAfter =
      Metrics::instance().snapshot().counter("fleet.hints_rejected");
  EXPECT_GT(RejectedAfter, RejectedBefore);

  // The server quarantined the genome on the first rejection report: it
  // is out of the hint set for good.
  const std::vector<fleet::Server::LeaderEntry> *Board =
      Srv.leaderboard("Sieve");
  ASSERT_NE(Board, nullptr);
  bool FoundQuarantined = false;
  for (const fleet::Server::LeaderEntry &E : *Board)
    if (E.Key == Evil.name()) {
      EXPECT_TRUE(E.Quarantined);
      EXPECT_FALSE(E.RejectVerdict.empty());
      FoundQuarantined = true;
    }
  EXPECT_TRUE(FoundQuarantined);
  for (const fleet::Hint &H : Srv.hints("Sieve"))
    EXPECT_NE(H.Key, Evil.name());
}

// --- (d) Loss is real, determinism survives it ------------------------------

TEST(FleetCoordinator, LossyTransportIsDeterministicAndCounted) {
  fleet::PerfectTransport Ideal;
  fleet::FleetResult Clean =
      runFleet(fleetOptions(2, 2, 1, /*Seed=*/1), Ideal);

  fleet::TransportOptions Opt;
  Opt.DropProb = 0.3;
  Opt.ReorderProb = 0.3;
  auto RunLossy = [&](int Jobs) {
    fleet::SimTransport Lossy(Opt, /*Seed=*/1);
    return runFleet(fleetOptions(2, 2, Jobs, /*Seed=*/1), Lossy);
  };
  fleet::FleetResult Noisy = RunLossy(1);
  fleet::FleetResult NoisyParallel = RunLossy(8);
  fleet::FleetResult NoisyRerun = RunLossy(1);

  ASSERT_TRUE(Clean.Succeeded) << Clean.FailureReason;
  ASSERT_TRUE(Noisy.Succeeded) << Noisy.FailureReason;
  // The loss was real: retries happened and cost virtual time. Since the
  // redesign loss may legitimately change *results* too (late hints miss
  // steps) — what must hold is determinism at the seed.
  EXPECT_GT(Noisy.Transport.Drops, 0u);
  EXPECT_GT(Noisy.Transport.Attempts, Clean.Transport.Attempts);
  EXPECT_EQ(Clean.Transport.Drops, 0u);
  EXPECT_EQ(Noisy.digest(), NoisyParallel.digest());
  EXPECT_EQ(Noisy.digest(), NoisyRerun.digest());
}

// --- Churn: seeded join/leave, TTL, determinism -----------------------------

TEST(FleetCoordinator, ChurnedFleetIsDeterministicAcrossJobsAndReruns) {
  // 30% of the initial population disconnects mid-run (their in-flight
  // results die with them) and 30% joins late, on a seeded schedule.
  auto ChurnOptions = [](int Jobs) {
    fleet::FleetOptions FO = fleetOptions(10, 2, Jobs, /*Seed=*/5);
    FO.ProfileClasses = 2; // Class sharing keeps ten devices cheap.
    FO.Population.LeaveFraction = 0.3;
    FO.Population.JoinFraction = 0.3;
    FO.Population.HorizonTicks = 900;
    return FO;
  };

  auto RunChurn = [&](int Jobs) {
    fleet::ServerOptions SrvOpt;
    SrvOpt.TtlTicks = 900; // Stale entries age out within a lifetime.
    fleet::Server Srv(SrvOpt);
    fleet::SimTransport Net(fleet::TransportOptions{}, /*Seed=*/5);
    fleet::Coordinator Co(ChurnOptions(Jobs), fleetBase(5));
    return Co.run("Sieve", Srv, Net);
  };

  fleet::FleetResult Serial = RunChurn(1);
  fleet::FleetResult Parallel = RunChurn(8);
  fleet::FleetResult Rerun = RunChurn(1);

  ASSERT_TRUE(Serial.Succeeded) << Serial.FailureReason;
  // The churn schedule actually fired at this seed.
  EXPECT_GT(Serial.DevicesLeft, 0);
  EXPECT_EQ(Serial.DevicesJoined, 3);
  EXPECT_EQ(Serial.Devices, 13);
  // And the simulation stayed bit-identical across --jobs and reruns.
  EXPECT_EQ(Serial.digest(), Parallel.digest());
  EXPECT_EQ(Serial.digest(), Rerun.digest());
}

// --- The core warm-start hook the fleet seeds through -----------------------

TEST(FleetWarmStart, WarmStartedSearchIsNoWorseThanColdAtSameBudget) {
  workloads::Application App = workloads::buildByName("Sieve");

  core::PipelineConfig Cold = fleetBase(/*Seed=*/1);
  core::IterativeCompiler ColdPipeline(Cold);
  core::OptimizationReport ColdRun = ColdPipeline.optimize(App);
  ASSERT_TRUE(ColdRun.Succeeded) << ColdRun.FailureReason;

  // Same budget, same seed, but gen-0 starts from the cold run's winner
  // — exactly how a fleet device re-enters each step. The warm run can
  // only match or beat the seed it started from.
  core::PipelineConfig Warm = fleetBase(/*Seed=*/1);
  Warm.Search.WarmStart.push_back(
      search::SeedGenome{ColdRun.Best.G, /*Provenance=*/0});
  core::IterativeCompiler WarmPipeline(Warm);
  core::OptimizationReport WarmRun = WarmPipeline.optimize(App);
  ASSERT_TRUE(WarmRun.Succeeded) << WarmRun.FailureReason;

  EXPECT_LE(WarmRun.RegionBest, ColdRun.RegionBest);
}

// --- Telemetry: sketches, provenance chains, bounded buffers ----------------

TEST(FleetTelemetry, SketchMergeIsAssociativeAndCommutative) {
  const Histogram::Snapshot Empty = fleet::SketchSet().Speedup;
  Histogram::Snapshot A = Empty, B = Empty, C = Empty;
  for (double V : {0.4, 1.1, 2.2})
    A.observe(V);
  B.observe(1.6);
  for (double V : {3.5, 9.0})
    C.observe(V);

  // (A + B) + C == A + (B + C) == C + B + A on the counts — fixed bounds
  // make the merge a plain bucket-wise sum, which is what lets device
  // sketches roll up to class, cell and fleet totals in any grouping.
  Histogram::Snapshot L = A;
  L += B;
  L += C;
  Histogram::Snapshot BC = B;
  BC += C;
  Histogram::Snapshot R = A;
  R += BC;
  Histogram::Snapshot Rev = C;
  Rev += B;
  Rev += A;
  EXPECT_EQ(L.Counts, R.Counts);
  EXPECT_EQ(L.Counts, Rev.Counts);
  EXPECT_EQ(L.Count, 6u);
  EXPECT_EQ(L.Min, 0.4);
  EXPECT_EQ(L.Max, 9.0);
  EXPECT_DOUBLE_EQ(L.Sum, R.Sum);
  // The same value type powers the report layer's quantile tables.
  EXPECT_GT(L.quantile(0.5), 0.0);
  EXPECT_LE(L.quantile(0.5), L.quantile(0.95));
}

TEST(FleetTelemetry, TelemetryAndTraceAreIdenticalAcrossJobsAndReruns) {
  fleet::PerfectTransport Net;
  fleet::FleetResult Serial =
      runFleet(fleetOptions(3, 2, /*Jobs=*/1, /*Seed=*/1), Net);
  fleet::FleetResult Parallel =
      runFleet(fleetOptions(3, 2, /*Jobs=*/8, /*Seed=*/1), Net);
  fleet::FleetResult Rerun =
      runFleet(fleetOptions(3, 2, /*Jobs=*/1, /*Seed=*/1), Net);
  ASSERT_TRUE(Serial.Succeeded) << Serial.FailureReason;

  // The rendered telemetry (sketches + chains) is a pure function of the
  // simulation: byte-identical at any --jobs and across reruns.
  EXPECT_FALSE(Serial.Telemetry.Chains.empty());
  EXPECT_GT(Serial.Telemetry.Total.StepTicks.Count, 0u);
  EXPECT_EQ(Serial.Telemetry.json(), Parallel.Telemetry.json());
  EXPECT_EQ(Serial.Telemetry.json(), Rerun.Telemetry.json());

  // Same bar for the virtual-clock Chrome trace.
  auto Render = [](const fleet::FleetResult &R) {
    analysis::FleetTrace T;
    T.beginCell(R.AppName, R.Devices, /*NumTracks=*/R.Devices);
    for (const analysis::FleetTraceEvent &E : R.TraceEvents)
      T.add(E);
    return T.toChromeJson();
  };
  EXPECT_FALSE(Serial.TraceEvents.empty());
  EXPECT_EQ(Render(Serial), Render(Parallel));
  EXPECT_EQ(Render(Serial), Render(Rerun));
}

TEST(FleetTelemetry, ProvenanceChainFollowsTheWinningGenome) {
  // The homogeneous 4-device fleet from the crowd-sourcing test: hints
  // flow and get adopted, so chains record complete fleet journeys.
  fleet::FleetOptions FO = fleetOptions(4, 3, /*Jobs=*/4, /*Seed=*/1);
  FO.CostJitter = 0.0;
  FO.NoiseJitter = 0.0;
  FO.SessionSpread = 0;
  fleet::PerfectTransport Net;
  fleet::FleetResult R = runFleet(FO, Net);
  ASSERT_TRUE(R.Succeeded) << R.FailureReason;

  // The winning genome's chain: flagged, keyed by the winning genome,
  // and causally ordered (discovered before it reached the server).
  ASSERT_NE(R.BestProv.Id, 0u);
  const fleet::ProvenanceChain *Winner = nullptr;
  for (const fleet::ProvenanceChain &C : R.Telemetry.Chains)
    if (C.Id == R.BestProv.Id)
      Winner = &C;
  ASSERT_NE(Winner, nullptr);
  EXPECT_TRUE(Winner->Won);
  EXPECT_EQ(Winner->Key, R.BestGenome);
  EXPECT_EQ(Winner->Device, R.BestProv.Device);
  EXPECT_EQ(Winner->DiscoveryTime, R.BestProv.Time);
  if (Winner->FirstMergeTime != 0) {
    EXPECT_GE(Winner->FirstMergeTime, Winner->DiscoveryTime);
  }

  // The crowd adopted at least one chain, after its discovery, and the
  // adoption latency landed in the hint-latency sketch.
  ASSERT_GT(R.HintsAdopted, 0u);
  bool AnyAdopted = false;
  for (const fleet::ProvenanceChain &C : R.Telemetry.Chains) {
    if (C.Adoptions == 0)
      continue;
    AnyAdopted = true;
    EXPECT_GE(C.Arrivals, 1u);
    EXPECT_GE(C.FirstAdoptTime, C.DiscoveryTime);
    EXPECT_GE(C.FirstAdoptDevice, 0);
  }
  EXPECT_TRUE(AnyAdopted);
  EXPECT_GT(R.Telemetry.Total.HintLatency.Count, 0u);
}

TEST(FleetTelemetry, BoundedBuffersDropOldestWithoutChangingResults) {
  auto Run = [](size_t EventsPerDevice) {
    fleet::PerfectTransport Net;
    fleet::FleetOptions FO = fleetOptions(3, 3, /*Jobs=*/1, /*Seed=*/1);
    FO.TelemetryEventsPerDevice = EventsPerDevice;
    fleet::Server Srv;
    fleet::Coordinator Co(FO, fleetBase(FO.Seed));
    return Co.run("Sieve", Srv, Net);
  };
  fleet::FleetResult Wide = Run(2048);
  fleet::FleetResult Tight = Run(1); // Clamped to the 8-event floor.
  ASSERT_TRUE(Wide.Succeeded) << Wide.FailureReason;
  ASSERT_TRUE(Tight.Succeeded) << Tight.FailureReason;

  // The cap bit: oldest events dropped and counted, fewer survivors.
  EXPECT_EQ(Wide.Telemetry.DroppedEvents, 0u);
  EXPECT_GT(Tight.Telemetry.DroppedEvents, 0u);
  EXPECT_LT(Tight.TraceEvents.size(), Wide.TraceEvents.size());

  // Telemetry is observability, not policy: bounding the buffers must
  // not change a single search outcome, and the aggregate sketches and
  // chains (leaderboard-like state, not buffered events) stay complete.
  EXPECT_EQ(Wide.digest(), Tight.digest());
  EXPECT_EQ(Wide.Telemetry.Total.Speedup.Count,
            Tight.Telemetry.Total.Speedup.Count);
  EXPECT_EQ(Wide.Telemetry.Chains.size(), Tight.Telemetry.Chains.size());
}

TEST(FleetTelemetry, InjectedUnsoundHintChainRecordsRejections) {
  fleet::Server Srv;
  search::Genome Evil = unsoundGenome();
  Srv.injectHint("Sieve", Evil, /*Speedup=*/9.9);

  fleet::PerfectTransport Net;
  fleet::Coordinator Co(fleetOptions(2, 2, 1, /*Seed=*/1), fleetBase(1));
  fleet::FleetResult R = Co.run("Sieve", Srv, Net);
  ASSERT_TRUE(R.Succeeded) << R.FailureReason;

  // The poisoned hint's chain: marked server-injected (device -1), every
  // adoption attempt ended in a re-verification rejection, and it never
  // won anything.
  const fleet::ProvenanceChain *EvilChain = nullptr;
  for (const fleet::ProvenanceChain &C : R.Telemetry.Chains)
    if (C.Key == Evil.name())
      EvilChain = &C;
  ASSERT_NE(EvilChain, nullptr);
  EXPECT_EQ(EvilChain->Device, -1);
  EXPECT_GE(EvilChain->Rejections, 1u);
  EXPECT_EQ(EvilChain->Adoptions, 0u);
  EXPECT_FALSE(EvilChain->Won);

  // And the rejections surfaced as class-level quarantine counts.
  uint64_t Quarantines = 0;
  for (const fleet::ClassTelemetry &C : R.Telemetry.Classes)
    Quarantines += C.Quarantines;
  EXPECT_GE(Quarantines, 1u);
}
