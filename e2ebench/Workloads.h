//===- e2ebench/Workloads.h - End-to-end benchmark workloads ----*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The workloads of the end-to-end benchmark (see README.md for why
/// each exists and what every metric means on it) and the result shape
/// they share. Every workload runs apps::ringApp(16, 8) and generates its
/// own traffic from the --seed it is given; the program under test only
/// ever sees the generated injections or socket frames.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_E2EBENCH_WORKLOADS_H
#define EVENTNET_E2EBENCH_WORKLOADS_H

#include "Measure.h"

#include "apps/Programs.h"
#include "engine/Engine.h"
#include "nes/Pipeline.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

namespace eventnet {
namespace e2ebench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  /// Per-layer run: times the calls into each layer and turns on the
  /// engine's latency histograms. End-to-end metrics come only from
  /// untraced runs.
  bool Trace = false;
};

/// The end-to-end metrics (untraced runs). Every workload fills all of
/// them.
struct EndToEnd {
  double SetupS = 0;
  double PeakRssMb = 0;
  double ThroughputPerS = 0;
  double LatencyP50Us = 0;
  double LatencyP90Us = 0;
};

/// The per-layer metrics (traced runs). A layer a workload never calls
/// reads 0; the counters named *Shed and FreelistGrowth must read 0.
struct Layers {
  double CompileMs = 0, ConstructMs = 0, StartMs = 0, FinishMs = 0;
  double InjectMs = 0, QuiesceMs = 0;
  double HopsPerDelivery = 0;
  double DwellP50Us = 0, DwellP99Us = 0, OccupancyP50 = 0;
  double QueueHighWater = 0, IdleSleeps = 0;
  double LocalLagP50Us = 0, RemoteLagP50Us = 0, RemoteLagP90Us = 0;
  double FastLearnShare = 0, CtrlDeltasPerEvent = 0;
  double StreamDrainUs = 0, StreamItemsPerDrain = 0;
  double FeedNsPerEntry = 0, AdvanceNsPerEntry = 0;
  double PeakWindow = 0, PeakResidentKb = 0, ChainsRetired = 0;
  double FramesIn = 0, FramesOut = 0, PartialReadShare = 0;
  double ClientWriteUs = 0, ClientReadUs = 0, RepliesPerRead = 0;
  double FreelistGrowth = 0, StreamLagShed = 0, BackpressureShed = 0,
         RingShed = 0;
  double TracedThroughputPerS = 0, TracingOverheadPct = 0;
};

/// What one workload run reports.
struct Outcome {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Problems; ///< why Correct is false
  EndToEnd E2E;
  Layers L;

  void fail(const std::string &Why) {
    Correct = false;
    Problems.push_back(Why);
  }
};

Outcome runUpdateStorm(const Options &O);
Outcome runServe(const Options &O);

/// Threads every workload keeps busy, its injecting thread included:
/// update_storm runs the injecting thread and 2 workers (the controller
/// sleeps on its eventfd), serve the client, the server loop and a
/// worker.
inline constexpr unsigned BusyThreads = 3;

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double msSince(int64_t T0Ns) {
  return static_cast<double>(nowNs() - T0Ns) * 1e-6;
}

/// The compiled ring program. The App owns the topology the NES and
/// every engine built from it refer to, so it is heap-held and never
/// moves.
struct Program {
  std::unique_ptr<apps::App> A;
  nes::CompiledProgram C;

  const nes::Nes &nes() const { return *C.N; }
  const topo::Topology &topo() const { return A->Topo; }
};

/// Builds ringApp(16, 8) and compiles it; \p CompileMs gets the time of
/// the compile call alone. Exits on a compile error.
Program compileRing(double *CompileMs = nullptr);

/// One-way H1 -> H2 data packets with \p Probes ring-event probes at
/// seeded positions; sequence numbers continue from \p NextSeq.
std::vector<engine::Injection> oneWayFlood(std::mt19937_64 &R,
                                           uint64_t &NextSeq,
                                           unsigned Packets, unsigned Probes);

/// The per-layer engine numbers read from one finished engine's Stats
/// (histogram digests need EngineConfig::LatencyHistograms).
struct EngineLayerSample {
  double HopsPerDelivery = 0;
  double DwellP50Us = 0, DwellP99Us = 0, OccupancyP50 = 0;
  double QueueHighWater = 0, IdleSleeps = 0, FreelistGrowth = 0;
};
EngineLayerSample engineLayerSample(const engine::Stats &S);

/// Folds per-engine samples into \p L by their medians (FreelistGrowth
/// is summed: it must stay 0).
void foldEngineSamples(const std::vector<EngineLayerSample> &V, Layers &L);

/// Median of \p V, 0 when empty (per-layer reporting).
double medianOr0(std::vector<double> V);

/// The times of one set-up as setup_s counts it.
struct SetupTimes {
  double TotalS = 0; ///< compile through ready for traffic; 0 if it failed
  double CompileMs = 0, ConstructMs = 0, StartMs = 0, FinishMs = 0;
};

/// One engine-only set-up: the compile call, Engine construction and
/// start(). The engine is then finished, untimed by TotalS.
SetupTimes engineSetup(const engine::EngineConfig &Cfg);

/// Untimed workload a run drives before its set-ups and timed part. On a
/// VM whose vCPUs sat idle, the first seconds of traffic run in a slow
/// mode (remote learns wait milliseconds for the idle vCPU the
/// controller wakes on); the warm-up absorbs it.
inline constexpr double WarmupSeconds = 3;

/// Set-ups a run performs; setup_s is the fastest.
inline constexpr unsigned SetupReps = 30;

/// Collects a run's set-ups. The host's speed drifts over seconds, so
/// set-ups taken in one burst all share one regime and their fastest
/// moves with it; tick() spreads them over the timed part instead.
class SetupSampler {
public:
  SetupSampler(std::function<SetupTimes()> Once, double Seconds)
      : Once(std::move(Once)),
        IntervalNs(static_cast<int64_t>(Seconds * 1e9 / SetupReps)),
        NextNs(nowNs()) {}

  /// Takes a set-up if the next one is due.
  void tick() {
    if (Taken.size() < SetupReps && nowNs() >= NextNs) {
      Taken.push_back(Once());
      NextNs = nowNs() + IntervalNs;
    }
  }
  /// Takes \p N set-ups now.
  void take(unsigned N) {
    for (unsigned I = 0; I != N; ++I)
      Taken.push_back(Once());
  }
  /// Takes the set-ups still owed, then fills setup_s (the fastest) and
  /// the per-layer set-up medians.
  void finish(Outcome &Out) {
    if (Taken.size() < SetupReps)
      take(SetupReps - static_cast<unsigned>(Taken.size()));
    std::vector<double> Total, Compile, Construct, Start, Finish;
    for (const SetupTimes &T : Taken) {
      if (T.TotalS > 0) // 0 marks a failed set-up, already reported
        Total.push_back(T.TotalS);
      Compile.push_back(T.CompileMs);
      Construct.push_back(T.ConstructMs);
      Start.push_back(T.StartMs);
      Finish.push_back(T.FinishMs);
    }
    Out.E2E.SetupS = fastest(Total).value_or(0);
    Out.L.CompileMs = medianOr0(Compile);
    Out.L.ConstructMs = medianOr0(Construct);
    Out.L.StartMs = medianOr0(Start);
    Out.L.FinishMs = medianOr0(Finish);
  }

private:
  std::function<SetupTimes()> Once;
  int64_t IntervalNs;
  int64_t NextNs;
  std::vector<SetupTimes> Taken;
};

} // namespace e2ebench
} // namespace eventnet

#endif // EVENTNET_E2EBENCH_WORKLOADS_H
