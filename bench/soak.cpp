//===- bench/soak.cpp - Long-horizon streaming-checker soak bench --------===//
//
// The robustness companion to update_churn: one *long-lived* engine per
// row runs a duration-bounded churn storm (batched one-way floods with
// probe triggers scattered in), once with the streaming Definition 6
// checker attached and once without, so the row can attest three things
// the unit tests cannot:
//
//   overhead   the checker rides a collector thread off the hot path;
//              the row reports the hops/s cost of turning it on
//              (checker_overhead_pct, gated <15% by run_benches.py on
//              machines with a spare hardware thread for the collector);
//   bounded    the checker's state must not grow with the horizon: the
//              row records peak live window occupancy and peak resident
//              bytes, and requires that retirement actually ran
//              (chains_retired > 0) — a long trace with no retirement
//              means the window only survived because the run was short;
//   verdict    the whole multi-minute trace streams through Definition 6
//              and the row carries the verdict ("ok", or
//              "inconclusive:<cause>" — never silently clean).
//
// Unlike update_churn (fresh engine per repetition, latency percentiles)
// the soak keeps a single engine and a single checker alive for the full
// duration, so ticket watermarks, quiet-horizon retirement, and the
// window cap are exercised across millions of entries, not hundreds.
//
// Flags: --json (suppress the human table; emit only the JSON object),
//        --smoke (short duration for CI), --seed N, --duration SEC
//        (per measured run; two runs per row),
//        --partition modulo|contiguous|refined (default refined).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "api/StreamCollect.h"
#include "consistency/StreamCheck.h"
#include "engine/Engine.h"
#include "support/Rng.h"

#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

using namespace eventnet;
using namespace eventnet::bench;

namespace {

struct SoakOpts {
  uint64_t Seed = 1;
  double DurationSec = 5.0; ///< per measured run (two runs per row)
  unsigned BatchPackets = 512;
  unsigned ProbeEvery = 7; ///< batches between probe triggers
  size_t Window = 1 << 16;
  bool JsonOnly = false;
  engine::PartitionStrategy Partition = engine::PartitionStrategy::Refined;
};

/// What one duration-bounded run produced.
struct SoakOut {
  uint64_t Hops = 0;
  uint64_t Batches = 0;
  double ElapsedSec = 0;
  bool WithChecker = false;
  consistency::StreamResult Stream; ///< meaningful iff WithChecker
};

/// One long-lived engine driven with quiesced churn batches until the
/// wall-clock budget runs out. Every batch is a one-way H1->H2 flood
/// (distinct flows) and every ProbeEvery-th batch carries the ring
/// program's probe trigger, so the checker sees event chains — not just
/// plain forwarding — throughout the horizon. Per-batch quiescence is
/// deliberate: it paces the storm (no unbounded queue growth over
/// minutes) and gives the checker genuine quiet horizons to retire
/// against, which is exactly the state-boundedness claim under test.
/// Production is closed-loop: between batches the driver yields until
/// the stream backlog drains below a batch's worth, so the engine runs
/// at the checker-sustainable rate and nothing is shed at the bounded
/// hand-off (an open-loop flood would just measure the shed policy).
SoakOut soakRun(const nes::Nes &N, const topo::Topology &Topo,
                unsigned Shards, const SoakOpts &O, bool WithChecker) {
  engine::EngineConfig Cfg;
  Cfg.NumShards = Shards;
  Cfg.Partition = O.Partition;
  Cfg.RecordTrace = false; // the soak never materializes the full trace
  Cfg.StreamTrace = WithChecker;
  Cfg.EchoReplies = false;

  engine::Engine E(N, Topo, Cfg);
  consistency::StreamOptions SO;
  SO.Window = O.Window;
  SO.QuietHorizon = std::max<uint64_t>(8192, SO.Window / 2);
  std::optional<api::detail::StreamCollector> Col;
  if (WithChecker)
    Col.emplace(E, N, Topo, SO);

  engine::TrafficGen G(Topo, O.Seed);
  E.start();
  SoakOut Out;
  Out.WithChecker = WithChecker;
  Stopwatch SW;
  while (SW.seconds() < O.DurationSec) {
    engine::Workload W = G.bulk(topo::HostH1, topo::HostH2, O.BatchPackets,
                                O.BatchPackets);
    if (O.ProbeEvery && Out.Batches % O.ProbeEvery == 0) {
      engine::Workload P = G.probe(topo::HostH1, topo::HostH2);
      W.Phases[0].Injections.push_back(P.Phases[0].Injections[0]);
    }
    for (const engine::Phase &Ph : W.Phases)
      E.injectBatch(Ph.Injections.data(), Ph.Injections.size());
    E.awaitQuiescence();
    // Closed loop: don't outrun the checker. A batch is ~4 hops per
    // packet; once the backlog is below one batch the collector has
    // caught up enough that the next flush cannot hit StreamBufCap.
    if (Col)
      while (E.streamBacklog() > uint64_t(4) * O.BatchPackets)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    ++Out.Batches;
  }
  E.finish();
  engine::Stats S = E.stats();
  Out.Hops = S.PacketsProcessed;
  Out.ElapsedSec = S.ElapsedSec;
  if (Col)
    Out.Stream = Col->finalize();
  return Out;
}

std::string verdictCell(const consistency::StreamResult &R) {
  if (R.violated())
    return "VIOLATION";
  if (R.ok())
    return "ok";
  return std::string("inconclusive:") + (R.Reason.empty() ? "?" : R.Reason);
}

} // namespace

int main(int argc, char **argv) {
  SoakOpts O;
  for (int I = 1; I != argc; ++I) {
    if (!strcmp(argv[I], "--json")) {
      O.JsonOnly = true;
    } else if (!strcmp(argv[I], "--smoke")) {
      O.DurationSec = 1.0;
    } else if (!strcmp(argv[I], "--seed") && I + 1 != argc) {
      O.Seed = strtoull(argv[++I], nullptr, 10);
    } else if (!strcmp(argv[I], "--duration") && I + 1 != argc) {
      O.DurationSec = strtod(argv[++I], nullptr);
      if (O.DurationSec <= 0) {
        fprintf(stderr, "--duration must be positive\n");
        return 2;
      }
    } else if (!strcmp(argv[I], "--partition") && I + 1 != argc) {
      auto S = engine::parsePartitionStrategy(argv[++I]);
      if (!S) {
        fprintf(stderr, "unknown partition strategy '%s'\n", argv[I]);
        return 2;
      }
      O.Partition = *S;
    } else {
      fprintf(stderr, "usage: soak [--json] [--smoke] [--seed N] "
                      "[--duration SEC] "
                      "[--partition modulo|contiguous|refined]\n");
      return 2;
    }
  }

  if (!O.JsonOnly)
    banner("soak", "long-horizon churn with the streaming Definition 6 "
                   "checker attached");

  TextTable T({"shards", "duration_s", "batches", "window",
               "hops_per_sec_M", "base_hops_per_sec_M",
               "checker_overhead_pct", "entries_checked", "chains_retired",
               "retired_per_sec", "events_observed", "peak_window",
               "peak_checker_kb", "definition6"});

  apps::App A = apps::ringApp(16, 8);
  nes::CompiledProgram C = compileApp(A);
  const nes::Nes &N = *C.N;
  const topo::Topology &Topo = A.Topo;

  for (unsigned Shards : {1u, 4u}) {
    SoakOut Base = soakRun(N, Topo, Shards, O, /*WithChecker=*/false);
    SoakOut Chk = soakRun(N, Topo, Shards, O, /*WithChecker=*/true);

    double BaseRate =
        Base.ElapsedSec > 0 ? Base.Hops / Base.ElapsedSec : 0;
    double ChkRate = Chk.ElapsedSec > 0 ? Chk.Hops / Chk.ElapsedSec : 0;
    double OverheadPct =
        BaseRate > 0 ? (1.0 - ChkRate / BaseRate) * 100.0 : 0;
    const consistency::StreamStats &SS = Chk.Stream.Stats;
    double RetiredPerSec =
        Chk.ElapsedSec > 0 ? SS.ChainsRetired / Chk.ElapsedSec : 0;
    T.addRow({std::to_string(Shards), formatDouble(O.DurationSec, 1),
              std::to_string(Chk.Batches), std::to_string(O.Window),
              formatDouble(ChkRate / 1e6, 3), formatDouble(BaseRate / 1e6, 3),
              formatDouble(OverheadPct, 1), std::to_string(SS.EntriesChecked),
              std::to_string(SS.ChainsRetired), formatDouble(RetiredPerSec, 0),
              std::to_string(SS.EventsObserved),
              std::to_string(SS.PeakWindow),
              std::to_string((SS.PeakResidentBytes + 1023) / 1024),
              verdictCell(Chk.Stream)});
  }

  if (!O.JsonOnly)
    T.print(std::cout);
  // faults-off attestation as elsewhere; hw_threads so the overhead gate
  // can skip machines with no spare core for the collector thread.
  printResultJson("soak", T,
                  "\"faults\": \"off\", \"hw_threads\": " +
                      std::to_string(std::thread::hardware_concurrency()));
  return 0;
}
