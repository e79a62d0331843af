//===- e2ebench/UpdateStorm.cpp - The update_storm workload ---------------===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
//
// Each rep builds a fresh 2-shard engine with the default pipeline
// (FastUpdates, refined partition, no trace), injects a one-way H1->H2
// flood of 8000 packets with 8 ring-event probes scattered through it in
// one injectBatch, and waits for quiescence: open loop within the rep.
// The first probe fires the ring's event mid-storm, so every rep measures
// both the data path (storm time) and the update pipeline (convergence:
// detection until the last switch learned). Two shards, not four: four
// workers plus the injecting thread oversubscribe a 4-vCPU box, and the
// tails then measure the scheduler.
//
//===----------------------------------------------------------------------===//

#include "Collect.h"
#include "Measure.h"
#include "Workloads.h"

#include "consistency/Check.h"

using namespace eventnet;
using namespace eventnet::e2ebench;

namespace {

constexpr unsigned StormShards = 2;
constexpr unsigned StormPackets = 8000;
constexpr unsigned StormProbes = 8;
/// The checked sidecar rep records the whole trace; keep it small.
constexpr unsigned SidecarPackets = 400;
/// Reps per stretch for the convergence percentiles (about 3 s, with 20
/// samples beyond p90); a run reports its calmest stretch.
constexpr size_t ConvChunk = 200;

engine::EngineConfig stormConfig(bool Traced) {
  engine::EngineConfig C;
  C.NumShards = StormShards;
  C.RecordTrace = false;
  C.RecordDeliveries = false;
  C.LatencyHistograms = Traced;
  return C;
}

/// What a sequence of reps produced.
struct StormPass {
  uint64_t Reps = 0, FailedReps = 0;
  std::vector<double> RatePerS; ///< per rep: delivered / storm time
  std::vector<double> ConvUs;   ///< per rep: convergence
  std::vector<double> LocalUs, RemoteUs;
  std::vector<double> ConstructMs, StartMs, InjectMs, QuiesceMs, FinishMs;
  std::vector<EngineLayerSample> Engine;
  uint64_t Learns = 0, FastLearns = 0, CtrlDeltas = 0, Events = 0;
};

/// Runs reps for \p Seconds, and on until \p MinReps converged, taking
/// the set-ups \p Setups has due between reps.
void stormPass(const Program &P, bool Traced, double Seconds, size_t MinReps,
               std::mt19937_64 &R, uint64_t &Seq, SetupSampler *Setups,
               StormPass &Out, Outcome &Res) {
  engine::SwitchIndex Idx(P.topo());
  int64_t End = nowNs() + static_cast<int64_t>(Seconds * 1e9);
  int64_t GiveUp = End + static_cast<int64_t>(60e9);
  while (nowNs() < End || Out.ConvUs.size() < MinReps) {
    if (nowNs() > GiveUp) {
      Res.fail("update_storm: too few converged reps for the percentiles");
      return;
    }
    if (Setups)
      Setups->tick();
    std::vector<engine::Injection> Inj =
        oneWayFlood(R, Seq, StormPackets, StormProbes);
    int64_t T0 = nowNs();
    engine::Engine E(P.nes(), P.topo(), stormConfig(Traced));
    int64_t T1 = nowNs();
    E.start();
    int64_t T2 = nowNs();
    E.injectBatch(Inj.data(), Inj.size());
    int64_t T3 = nowNs();
    E.awaitQuiescence();
    int64_t T4 = nowNs();
    E.finish();
    int64_t T5 = nowNs();

    engine::Stats S = E.stats();
    ++Out.Reps;
    std::optional<double> Conv = convergenceUs(E.transitionLatenciesNs());
    bool Lost = S.PacketsDelivered != Inj.size() ||
                S.PacketsInjected != Inj.size();
    if (Lost || !Conv) {
      ++Out.FailedReps;
      continue;
    }
    Out.ConvUs.push_back(*Conv);
    Out.RatePerS.push_back(static_cast<double>(S.PacketsDelivered) /
                           (static_cast<double>(T4 - T2) * 1e-9));
    Out.Learns += E.transitionLatenciesNs().size();
    Out.FastLearns += S.FastPathLearns;
    Out.CtrlDeltas += S.CtrlDeltas;
    Out.Events += S.EventsDetected;
    if (!Traced)
      continue;
    const std::vector<uint32_t> &ShardOf = E.partition().ShardOf;
    LearnSplit Split = splitLearns(E.learnTimes(), [&](SwitchId Sw) {
      return ShardOf[Idx.denseOf(Sw)];
    });
    Out.LocalUs.insert(Out.LocalUs.end(), Split.LocalUs.begin(),
                       Split.LocalUs.end());
    Out.RemoteUs.insert(Out.RemoteUs.end(), Split.RemoteUs.begin(),
                        Split.RemoteUs.end());
    Out.ConstructMs.push_back(static_cast<double>(T1 - T0) * 1e-6);
    Out.StartMs.push_back(static_cast<double>(T2 - T1) * 1e-6);
    Out.InjectMs.push_back(static_cast<double>(T3 - T2) * 1e-6);
    Out.QuiesceMs.push_back(static_cast<double>(T4 - T3) * 1e-6);
    Out.FinishMs.push_back(static_cast<double>(T5 - T4) * 1e-6);
    Out.Engine.push_back(engineLayerSample(S));
  }
}

/// The correctness sidecar: a small storm recorded in full and streamed
/// at once, checked by the batch Definition 6 oracle and by the
/// streaming checker through the timed collector.
void checkedRep(const Program &P, std::mt19937_64 &R, uint64_t &Seq,
                Outcome &Res) {
  engine::EngineConfig Cfg = stormConfig(false);
  Cfg.RecordTrace = true;
  Cfg.StreamTrace = true;
  engine::Engine E(P.nes(), P.topo(), Cfg);
  TimedCollector Col(E, P.nes(), P.topo(), consistency::StreamOptions());
  std::vector<engine::Injection> Inj =
      oneWayFlood(R, Seq, SidecarPackets, StormProbes);
  E.start();
  E.injectBatch(Inj.data(), Inj.size());
  E.awaitQuiescence();
  E.finish();
  engine::Stats S = E.stats();
  consistency::StreamResult SR = Col.finalize(S.TraceDropped);
  if (S.PacketsInjected != S.PacketsDelivered + S.PacketsDropped)
    Res.fail("update_storm: sidecar injected != delivered + dropped");
  if (!consistency::checkAgainstNes(E.trace(), P.topo(), P.nes()).Correct)
    Res.fail("update_storm: sidecar violates Definition 6 (batch check)");
  if (!SR.ok())
    Res.fail("update_storm: sidecar streaming verdict " +
             std::string(consistency::streamVerdictName(SR.Verdict)) + " " +
             SR.Reason);
  const CollectTimes &T = Col.times();
  uint64_t Entries = SR.Stats.EntriesIngested;
  if (T.Drains) {
    Res.L.StreamDrainUs = static_cast<double>(T.DrainNs) * 1e-3 / T.Drains;
    Res.L.StreamItemsPerDrain = static_cast<double>(T.Items) / T.Drains;
  }
  if (Entries) {
    Res.L.FeedNsPerEntry = static_cast<double>(T.FeedNs) / Entries;
    Res.L.AdvanceNsPerEntry = static_cast<double>(T.AdvanceNs) / Entries;
  }
  Res.L.PeakWindow = static_cast<double>(SR.Stats.PeakWindow);
  Res.L.PeakResidentKb =
      static_cast<double>(SR.Stats.PeakResidentBytes) / 1024;
  Res.L.ChainsRetired = static_cast<double>(SR.Stats.ChainsRetired);
  Res.L.StreamLagShed = static_cast<double>(E.streamLagShed());
}

} // namespace

Outcome e2ebench::runUpdateStorm(const Options &O) {
  Outcome Res;
  Program P = compileRing();
  std::mt19937_64 R(O.Seed);
  uint64_t Seq = 1 + (R() & 0xffffff);
  StormPass Warm;
  stormPass(P, false, WarmupSeconds, 1, R, Seq, nullptr, Warm, Res);

  SetupSampler Setups([] { return engineSetup(stormConfig(false)); },
                      O.Seconds);
  StormPass Main;
  if (!O.Trace) {
    stormPass(P, false, O.Seconds, ConvChunk, R, Seq, &Setups, Main, Res);
  } else {
    // Half untraced, half traced: the gap is the tracing overhead.
    StormPass Plain;
    stormPass(P, false, O.Seconds / 2, 1, R, Seq, &Setups, Plain, Res);
    stormPass(P, true, O.Seconds / 2, samplesNeeded(0.9), R, Seq, &Setups,
              Main, Res);
    double Untraced = medianOr0(Plain.RatePerS);
    Res.L.TracedThroughputPerS = medianOr0(Main.RatePerS);
    if (Untraced > 0)
      Res.L.TracingOverheadPct =
          (1 - Res.L.TracedThroughputPerS / Untraced) * 100;
    Res.Attempted += Plain.Reps;
    Res.Failed += Plain.FailedReps;
  }
  Setups.finish(Res);
  checkedRep(P, R, Seq, Res);

  Res.Attempted += Main.Reps;
  Res.Failed += Main.FailedReps;
  if (Res.Failed)
    Res.fail("update_storm: " + std::to_string(Res.Failed) +
             " reps lost packets or never converged");

  Res.E2E.ThroughputPerS = medianOr0(Main.RatePerS);
  Res.E2E.LatencyP50Us =
      calmestPercentile(Main.ConvUs, ConvChunk, 0.5).value_or(0);
  Res.E2E.LatencyP90Us =
      calmestPercentile(Main.ConvUs, ConvChunk, 0.9).value_or(0);

  Res.E2E.PeakRssMb = peakRssMiB();
  if (!O.Trace)
    return Res;

  // Per rep, as the engine is built for every storm.
  Layers &L = Res.L;
  L.ConstructMs = medianOr0(Main.ConstructMs);
  L.StartMs = medianOr0(Main.StartMs);
  L.InjectMs = medianOr0(Main.InjectMs);
  L.QuiesceMs = medianOr0(Main.QuiesceMs);
  L.FinishMs = medianOr0(Main.FinishMs);
  foldEngineSamples(Main.Engine, L);
  L.LocalLagP50Us = medianOr0(Main.LocalUs);
  L.RemoteLagP50Us = percentile(Main.RemoteUs, 0.5).value_or(0);
  L.RemoteLagP90Us = percentile(Main.RemoteUs, 0.9).value_or(0);
  if (Main.Learns)
    L.FastLearnShare = static_cast<double>(Main.FastLearns) / Main.Learns;
  if (Main.Events)
    L.CtrlDeltasPerEvent =
        static_cast<double>(Main.CtrlDeltas) / Main.Events;
  return Res;
}
