//===- bench/engine_throughput.cpp - Sharded engine throughput -----------===//
//
// Packets/sec of the concurrent data-plane engine on the Section 5.2
// ring and on a 4-ary fat-tree per shard count (1/2/4/8), on the
// engine's one lookup path: the contiguous classifier program with the
// batched, zero-allocation hot loop (batch 32). The `path` column keeps
// the constant value "classifier" because it is part of the row key
// scripts/run_benches.py --compare matches on.
//
// Each measurement is preceded by a warmup run of the same shape (page
// faults, malloc pools, interned symbols; the egress freelists are
// pre-sized from the batch size, so steady-state freelist_growth must
// read 0), timed with steady_clock. A final checked run replays a
// recorded concurrent trace through the Definition 6 oracle to show the
// fast path is still the correct protocol. The single-threaded
// sim::Simulation Nes mode provides the historical baseline row.
//
// The shard sweep doubles as the parallel-scaling measurement: every
// row records scaling_efficiency = hops/s at N shards divided by
// (hops/s at 1 shard × N) for its topology, plus the weighted
// inter-shard edge cut the chosen partition achieved, and the JSON
// carries hw_threads so gates can tell real scaling failures from
// plain lack of cores.
//
// Flags: --json (suppress the human table; emit only the JSON object),
//        --smoke (tiny iteration counts for CI), --seed N,
//        --partition modulo|contiguous|refined (default refined).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "consistency/Check.h"
#include "engine/Engine.h"
#include "sim/Simulation.h"
#include "support/Table.h"

#include <cstring>
#include <iostream>
#include <string>
#include <thread>

using namespace eventnet;
using namespace eventnet::bench;

namespace {

struct BenchOpts {
  uint64_t Seed = 1;
  uint64_t BulkPackets = 100000;
  unsigned PerPhase = 5000;
  unsigned Warmup = 1;
  bool JsonOnly = false;
  engine::PartitionStrategy Partition = engine::PartitionStrategy::Refined;
};

struct SimBaseline {
  double DeliveredPerSec = 0;
  uint64_t Delivered = 0;
};

/// The single-threaded baseline: the same bulk load through the
/// discrete-event simulator's Nes mode, measured in wall-clock time.
SimBaseline simBaseline(const nes::Nes &N, const topo::Topology &Topo,
                        HostId From, HostId To, const BenchOpts &O) {
  sim::SimParams P;
  P.LinkBandwidthBps = 10e9; // uncongested: measure the software path
  sim::Simulation S(N, Topo, sim::Simulation::Mode::Nes, P);
  double Bps =
      static_cast<double>(P.PayloadBytes) * 8 * O.BulkPackets / 2.0;
  S.scheduleUdpFlow(0.0, 2.0, From, To, Bps);

  Stopwatch W;
  S.run(3.0);
  double Wall = W.seconds();
  SimBaseline B;
  B.Delivered = S.flowStats().PktsDelivered;
  B.DeliveredPerSec = Wall > 0 ? B.Delivered / Wall : 0;
  return B;
}

engine::Stats engineRun(const nes::Nes &N, const topo::Topology &Topo,
                        unsigned Shards, HostId From, HostId To,
                        const BenchOpts &O, uint64_t Packets) {
  engine::EngineConfig Cfg;
  Cfg.NumShards = Shards;
  Cfg.Partition = O.Partition;
  Cfg.RecordTrace = false; // pure throughput
  Cfg.EchoReplies = false;
  engine::Engine E(N, Topo, Cfg);
  engine::TrafficGen G(Topo, O.Seed);
  E.run(G.bulk(From, To, Packets, O.PerPhase));
  return E.stats();
}

/// A small config-churn run measuring the event-detection to
/// register-learn latency digest: pings, a probe (the ring program's
/// update trigger), more pings. Topologies without events (the fat-tree
/// static-routing Nes) report zero samples, rendered as 0.
engine::LatencyDigest updateLatencyRun(const nes::Nes &N,
                                       const topo::Topology &Topo,
                                       unsigned Shards,
                                       const BenchOpts &O) {
  engine::EngineConfig Cfg;
  Cfg.NumShards = Shards;
  Cfg.Partition = O.Partition;
  Cfg.RecordTrace = false;
  engine::Engine E(N, Topo, Cfg);
  engine::TrafficGen G(Topo, O.Seed);
  engine::Workload W = G.pings(1, 8);
  W += G.probe(topo::HostH1, topo::HostH2);
  W += G.pings(3, 8);
  E.run(W);
  return E.stats().Transition;
}

/// A smaller recorded run replayed through the Definition 6 checker.
bool checkedRun(const nes::Nes &N, const topo::Topology &Topo,
                unsigned Shards, HostId From, HostId To,
                const BenchOpts &O) {
  engine::EngineConfig Cfg;
  Cfg.NumShards = Shards;
  Cfg.Partition = O.Partition;
  engine::Engine E(N, Topo, Cfg);
  engine::TrafficGen G(Topo, O.Seed);
  E.run(G.bulk(From, To, 200, 50));
  return consistency::checkAgainstNes(E.trace(), Topo, N).Correct;
}

void benchTopology(const char *Name, const nes::Nes &N,
                   const topo::Topology &Topo, HostId From, HostId To,
                   const BenchOpts &O, TextTable &T) {
  SimBaseline Sim = simBaseline(N, Topo, From, To, O);
  // hops/sec at 1 shard, the scaling_efficiency denominator.
  double OneShardHops = 0;

  for (unsigned Shards : {1u, 2u, 4u, 8u}) {
    // Warmup: a shorter run of the same shape on a throwaway engine (an
    // Engine runs one workload), then the measured run.
    warmupRuns(O.Warmup, [&] {
      engineRun(N, Topo, Shards, From, To, O, O.BulkPackets / 4 + 1);
    });
    engine::Stats S = engineRun(N, Topo, Shards, From, To, O, O.BulkPackets);
    engine::LatencyDigest Lat = updateLatencyRun(N, Topo, Shards, O);
    bool Ok = checkedRun(N, Topo, Shards, From, To, O);

    if (Shards == 1)
      OneShardHops = S.PacketsPerSec;
    double VsSim = Sim.DeliveredPerSec > 0
                       ? S.DeliveredPerSec / Sim.DeliveredPerSec
                       : 0;
    // Parallel efficiency: 1.0 means N shards run N times as fast as one;
    // beyond min(N, cores) it necessarily decays.
    double Efficiency =
        OneShardHops > 0 ? S.PacketsPerSec / (OneShardHops * Shards) : 0;
    uint64_t Hwm = 0, FreeGrow = 0;
    for (const engine::ShardStats &SS : S.Shards) {
      if (SS.QueueHighWater > Hwm)
        Hwm = SS.QueueHighWater;
      FreeGrow += SS.FreelistGrowth;
    }
    T.addRow({Name, std::to_string(Shards), "classifier",
              engine::partitionStrategyName(S.Partition.Strategy),
              std::to_string(S.PacketsDelivered),
              formatDouble(S.ElapsedSec * 1e3, 1),
              formatDouble(S.PacketsPerSec / 1e6, 3),
              formatDouble(S.DeliveredPerSec / 1e6, 3),
              formatDouble(VsSim, 1), formatDouble(Efficiency, 3),
              std::to_string(S.Partition.CutWeight),
              std::to_string(S.Partition.TotalWeight), std::to_string(Hwm),
              std::to_string(FreeGrow), formatDouble(Lat.P50Sec * 1e6, 1),
              formatDouble(Lat.P99Sec * 1e6, 1), Ok ? "ok" : "VIOLATION"});
  }
}

} // namespace

int main(int argc, char **argv) {
  BenchOpts O;
  for (int I = 1; I != argc; ++I) {
    if (!strcmp(argv[I], "--json")) {
      O.JsonOnly = true;
    } else if (!strcmp(argv[I], "--smoke")) {
      O.BulkPackets = 400;
      O.PerPhase = 200;
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
      fprintf(stderr, "usage: engine_throughput [--json] [--smoke] "
                      "[--seed N] [--partition modulo|contiguous|"
                      "refined]\n");
      return 2;
    }
  }

  if (!O.JsonOnly)
    banner("engine_throughput", "classifier program, per shard count");

  TextTable T({"topology", "shards", "path", "partition", "delivered",
               "elapsed_ms", "hops_per_sec_M", "delivered_per_sec_M",
               "speedup_vs_sim", "scaling_efficiency",
               "edge_cut", "edge_total", "queue_hwm", "freelist_growth",
               "update_lat_p50_us", "update_lat_p99_us", "definition6"});

  {
    apps::App A = apps::ringApp(16, 8);
    nes::CompiledProgram C = compileApp(A);
    benchTopology("ring16", *C.N, A.Topo, topo::HostH1, topo::HostH2, O, T);
  }
  {
    topo::Topology Topo = topo::fatTreeTopology(4);
    nes::Nes N = apps::staticRoutingNes(Topo);
    benchTopology("fattree4", N, Topo, 1, 16, O, T);
  }

  if (!O.JsonOnly)
    T.print(std::cout);
  // hw_threads lets scaling gates distinguish "the partition regressed"
  // from "this machine has no cores to scale onto".
  // "faults": "off" lets the regression gate assert it is comparing the
  // fault-free hot path: the injection hooks must stay null-pointer-gated
  // zero-cost when no plan is armed.
  printResultJson("engine_throughput", T,
                  "\"faults\": \"off\", \"hw_threads\": " +
                      std::to_string(std::thread::hardware_concurrency()));
  return 0;
}
