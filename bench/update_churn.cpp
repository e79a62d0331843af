//===- bench/update_churn.cpp - Event-storm update-latency bench ---------===//
//
// Event-to-new-config latency under a high-churn packet storm, per shard
// count (1/4), through the engine's one update pipeline: the detecting
// shard pushes an event-id delta, routed by the subscription index, onto
// every other subscribed shard's priority lane, then fans the transition
// out to its own subscribed switches. The `pipeline` column keeps the
// constant value "fast" because it is part of the row key
// scripts/run_benches.py --compare matches on.
//
// Each row aggregates many *fresh* engines (the ring program fires its
// probe event once per engine), injecting the whole storm open-loop —
// one batch, no inter-phase quiescence — so the update messages
// genuinely race a backlog of in-flight data traffic. The storm is
// deliberately *one-way* (a single H1->H2 flood with the probe triggers
// scattered through it): bidirectional traffic gossips the event digest
// onto every switch within microseconds, hiding the pipeline behind
// the storm's own propagation, whereas a one-way flood leaves the
// ingress switch and the ring's far arc gossip-starved — exactly the
// switches whose new config must come from the update pipeline. The raw
// detection->learn samples (engine transitionLatenciesNs) from every
// repetition merge into one log-bucket histogram, giving true p50/p99
// across the row rather than a percentile-of-percentiles.
//
// A final smaller run per row records a trace and replays it through the
// Definition 6 oracle: the pipeline publishes each switch's register
// independently, and this check is the standing proof that independent
// publication is still the Section 4 protocol.
//
// Flags: --json (suppress the human table; emit only the JSON object),
//        --smoke (tiny repetition counts for CI), --seed N,
//        --partition modulo|contiguous|refined (default refined).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "consistency/Check.h"
#include "engine/Engine.h"
#include "obs/Histogram.h"
#include "support/Rng.h"

#include <cstring>
#include <iostream>
#include <string>
#include <thread>

using namespace eventnet;
using namespace eventnet::bench;

namespace {

struct BenchOpts {
  uint64_t Seed = 1;
  unsigned Reps = 32;           ///< fresh engines aggregated per row
  unsigned StormPackets = 8000; ///< distinct-flow data packets per rep
  unsigned Triggers = 8;        ///< probes scattered through the storm
  unsigned Warmup = 1;
  bool JsonOnly = false;
  engine::PartitionStrategy Partition = engine::PartitionStrategy::Refined;
};

engine::EngineConfig pipelineConfig(unsigned Shards, const BenchOpts &O) {
  engine::EngineConfig Cfg;
  Cfg.NumShards = Shards;
  Cfg.Partition = O.Partition;
  // CtrlBroadcast stays off: the subscription index routes deltas to
  // exactly the switches whose config or detection behavior the event
  // can change.
  Cfg.RecordTrace = false; // pure latency: no per-hop allocation
  Cfg.EchoReplies = false; // churn flows are one-way data packets
  return Cfg;
}

/// The one-way event storm: a single-phase H1->H2 data flood with
/// \p Triggers H1->H2 probes (the ring program's update trigger)
/// inserted at random positions, so the first trigger detects mid-storm
/// and the transition races the remaining backlog. One-way on purpose —
/// see the file header.
engine::Workload oneWayStorm(engine::TrafficGen &G, unsigned Packets,
                             unsigned Triggers, uint64_t Seed) {
  engine::Workload W =
      G.bulk(topo::HostH1, topo::HostH2, Packets, Packets);
  Rng R(Seed * 7919 + 17);
  for (unsigned I = 0; I != Triggers; ++I) {
    engine::Workload P = G.probe(topo::HostH1, topo::HostH2);
    auto &Inj = W.Phases[0].Injections;
    size_t At = R.below(Inj.size() + 1);
    Inj.insert(Inj.begin() + static_cast<ptrdiff_t>(At),
               P.Phases[0].Injections[0]);
  }
  return W;
}

/// What one row accumulates across its repetitions.
struct RowAccum {
  obs::LogHistogram LatNs; ///< detect->learn samples, all reps
  uint64_t Hops = 0;       ///< switch-hops executed, all reps
  uint64_t FastLearns = 0;
  uint64_t CtrlDeltas = 0;
  double ElapsedSec = 0;
};

/// One open-loop storm on a fresh engine: inject everything in a single
/// batch (no inter-phase quiescence — the transition races the backlog),
/// drain, and account the latency samples.
void stormRep(const nes::Nes &N, const topo::Topology &Topo,
              unsigned Shards, const BenchOpts &O, uint64_t Seed,
              unsigned Packets, RowAccum *Acc) {
  engine::Engine E(N, Topo, pipelineConfig(Shards, O));
  engine::TrafficGen G(Topo, Seed);
  engine::Workload W = oneWayStorm(G, Packets, O.Triggers, Seed);
  E.start();
  for (const engine::Phase &Ph : W.Phases)
    E.injectBatch(Ph.Injections.data(), Ph.Injections.size());
  E.awaitQuiescence();
  E.finish();
  if (!Acc)
    return;
  for (int64_t Ns : E.transitionLatenciesNs())
    Acc->LatNs.record(Ns > 0 ? static_cast<uint64_t>(Ns) : 0);
  engine::Stats S = E.stats();
  Acc->Hops += S.PacketsProcessed;
  Acc->FastLearns += S.FastPathLearns;
  Acc->CtrlDeltas += S.CtrlDeltas;
  Acc->ElapsedSec += S.ElapsedSec;
}

/// A smaller recorded storm replayed through the Definition 6 checker.
bool checkedRep(const nes::Nes &N, const topo::Topology &Topo,
                unsigned Shards, const BenchOpts &O) {
  engine::EngineConfig Cfg = pipelineConfig(Shards, O);
  Cfg.RecordTrace = true;
  engine::Engine E(N, Topo, Cfg);
  engine::TrafficGen G(Topo, O.Seed);
  engine::Workload W = oneWayStorm(G, 400, O.Triggers, O.Seed);
  E.start();
  for (const engine::Phase &Ph : W.Phases)
    E.injectBatch(Ph.Injections.data(), Ph.Injections.size());
  E.awaitQuiescence();
  E.finish();
  return consistency::checkAgainstNes(E.trace(), Topo, N).Correct;
}

} // namespace

int main(int argc, char **argv) {
  BenchOpts O;
  for (int I = 1; I != argc; ++I) {
    if (!strcmp(argv[I], "--json")) {
      O.JsonOnly = true;
    } else if (!strcmp(argv[I], "--smoke")) {
      O.Reps = 3;
      O.StormPackets = 600;
    } else if (!strcmp(argv[I], "--seed") && I + 1 != argc) {
      O.Seed = strtoull(argv[++I], nullptr, 10);
    } else if (!strcmp(argv[I], "--partition") && I + 1 != argc) {
      auto S = engine::parsePartitionStrategy(argv[++I]);
      if (!S) {
        fprintf(stderr, "unknown partition strategy '%s'\n", argv[I]);
        return 2;
      }
      O.Partition = *S;
    } else {
      fprintf(stderr, "usage: update_churn [--json] [--smoke] [--seed N] "
                      "[--partition modulo|contiguous|refined]\n");
      return 2;
    }
  }

  if (!O.JsonOnly)
    banner("update_churn", "event-storm update latency, per shard count");

  TextTable T({"pipeline", "shards", "reps", "storm_packets", "learns",
               "fast_learns", "ctrl_deltas", "hops_per_sec_M",
               "update_storm_lat_p50_us", "update_storm_lat_p99_us",
               "definition6"});

  apps::App A = apps::ringApp(16, 8);
  nes::CompiledProgram C = compileApp(A);
  const nes::Nes &N = *C.N;
  const topo::Topology &Topo = A.Topo;

  for (unsigned Shards : {1u, 4u}) {
    warmupRuns(O.Warmup, [&] {
      stormRep(N, Topo, Shards, O, O.Seed, O.StormPackets / 4 + 1, nullptr);
    });
    RowAccum Acc;
    for (unsigned R = 0; R != O.Reps; ++R)
      stormRep(N, Topo, Shards, O, O.Seed + R, O.StormPackets, &Acc);
    bool Ok = checkedRep(N, Topo, Shards, O);

    obs::HistogramSnapshot H = Acc.LatNs.snapshot();
    double P50Us = static_cast<double>(H.percentile(0.50)) * 1e-3;
    double P99Us = static_cast<double>(H.percentile(0.99)) * 1e-3;
    double HopsPerSec = Acc.ElapsedSec > 0 ? Acc.Hops / Acc.ElapsedSec : 0;
    T.addRow({"fast", std::to_string(Shards), std::to_string(O.Reps),
              std::to_string(O.StormPackets), std::to_string(H.TotalCount),
              std::to_string(Acc.FastLearns), std::to_string(Acc.CtrlDeltas),
              formatDouble(HopsPerSec / 1e6, 3), formatDouble(P50Us, 1),
              formatDouble(P99Us, 1), Ok ? "ok" : "VIOLATION"});
  }

  if (!O.JsonOnly)
    T.print(std::cout);
  // Same attestations as engine_throughput: the latency gates only judge
  // the fault-free path, and hw_threads lets them skip configurations
  // this machine cannot genuinely run in parallel.
  printResultJson("update_churn", T,
                  "\"faults\": \"off\", \"hw_threads\": " +
                      std::to_string(std::thread::hardware_concurrency()));
  return 0;
}
