//===- e2ebench/Main.cpp - End-to-end benchmark entry point ---------------===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
//
// Usage: e2ebench --workload update_storm|serve --seed N
//                 --seconds S --trace 0|1
//
// Prints an environment attestation line, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 0
// whenever it measured (a failed correctness check reads
// "correct": false), 2 on a usage error.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace eventnet;
using namespace eventnet::e2ebench;

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace {

struct MetricOut {
  const char *Name;
  double Value;
  const char *Unit;
};

std::vector<MetricOut> endToEndMetrics(const EndToEnd &M) {
  return {{"setup_s", M.SetupS, "s"},
          {"peak_rss_mb", M.PeakRssMb, "MiB"},
          {"throughput_per_s", M.ThroughputPerS, "1/s"},
          {"latency_p50_us", M.LatencyP50Us, "us"},
          {"latency_p90_us", M.LatencyP90Us, "us"}};
}

std::vector<MetricOut> layerMetrics(const Layers &L) {
  return {
      {"nes.compile_ms", L.CompileMs, "ms"},
      {"engine.construct_ms", L.ConstructMs, "ms"},
      {"engine.start_ms", L.StartMs, "ms"},
      {"engine.finish_ms", L.FinishMs, "ms"},
      {"engine.inject_ms", L.InjectMs, "ms"},
      {"engine.quiesce_ms", L.QuiesceMs, "ms"},
      {"engine.hops_per_delivery", L.HopsPerDelivery, "hops"},
      {"engine.queue_dwell_p50_us", L.DwellP50Us, "us"},
      {"engine.queue_dwell_p99_us", L.DwellP99Us, "us"},
      {"engine.batch_occupancy_p50", L.OccupancyP50, "msgs"},
      {"engine.queue_high_water", L.QueueHighWater, "msgs"},
      {"engine.idle_sleeps", L.IdleSleeps, "count"},
      {"engine.local_learn_lag_p50_us", L.LocalLagP50Us, "us"},
      {"engine.remote_learn_lag_p50_us", L.RemoteLagP50Us, "us"},
      {"engine.remote_learn_lag_p90_us", L.RemoteLagP90Us, "us"},
      {"engine.fast_learn_share", L.FastLearnShare, "share"},
      {"engine.ctrl_deltas_per_event", L.CtrlDeltasPerEvent, "count"},
      {"engine.stream_drain_us", L.StreamDrainUs, "us"},
      {"engine.stream_items_per_drain", L.StreamItemsPerDrain, "count"},
      {"consistency.feed_ns_per_entry", L.FeedNsPerEntry, "ns"},
      {"consistency.advance_ns_per_entry", L.AdvanceNsPerEntry, "ns"},
      {"consistency.peak_window", L.PeakWindow, "count"},
      {"consistency.peak_resident_kb", L.PeakResidentKb, "KiB"},
      {"consistency.chains_retired", L.ChainsRetired, "count"},
      {"net.frames_in", L.FramesIn, "count"},
      {"net.frames_out", L.FramesOut, "count"},
      {"net.partial_read_share", L.PartialReadShare, "share"},
      {"net.client_write_us", L.ClientWriteUs, "us"},
      {"net.client_read_us", L.ClientReadUs, "us"},
      {"net.replies_per_read", L.RepliesPerRead, "count"},
      {"engine.freelist_growth", L.FreelistGrowth, "count"},
      {"engine.stream_lag_shed", L.StreamLagShed, "count"},
      {"net.backpressure_shed", L.BackpressureShed, "count"},
      {"net.ring_shed", L.RingShed, "count"},
      {"traced_throughput_per_s", L.TracedThroughputPerS, "1/s"},
      {"tracing_overhead_pct", L.TracingOverheadPct, "%"},
  };
}

/// A JSON number with every digit the double carries.
std::string num(double V) {
  char Buf[64];
  snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

int usage(const char *Why) {
  fprintf(stderr,
          "e2ebench: %s\nusage: e2ebench --workload update_storm|serve"
          " [--seed N] [--seconds S] [--trace 0|1]\n",
          Why);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    const char *A = argv[I];
    if (I + 1 == argc)
      return usage("missing flag value");
    const char *V = argv[++I];
    char *End = nullptr;
    if (!strcmp(A, "--workload")) {
      O.Workload = V;
    } else if (!strcmp(A, "--seed")) {
      O.Seed = strtoull(V, &End, 10);
      if (*End)
        return usage("--seed takes an unsigned integer");
    } else if (!strcmp(A, "--seconds")) {
      O.Seconds = strtod(V, &End);
      if (*End || !(O.Seconds > 0) || O.Seconds > 600)
        return usage("--seconds takes a number in (0, 600]");
    } else if (!strcmp(A, "--trace")) {
      if (strcmp(V, "0") && strcmp(V, "1"))
        return usage("--trace takes 0 or 1");
      O.Trace = V[0] == '1';
    } else {
      return usage("unknown flag");
    }
  }

  Outcome (*Run)(const Options &) = nullptr;
  if (O.Workload == "update_storm")
    Run = runUpdateStorm;
  else if (O.Workload == "serve")
    Run = runServe;
  else
    return usage("unknown --workload");

  unsigned NProc = std::thread::hardware_concurrency();
  unsigned Busy = BusyThreads;
  bool Oversubscribed = NProc != 0 && Busy > NProc;
  if (Oversubscribed)
    fprintf(stderr, "e2ebench: warning: %s keeps %u threads busy on %u "
                    "hardware threads; its numbers measure the scheduler\n",
            O.Workload.c_str(), Busy, NProc);
  printf("{\"env\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
         "\"trace\": %d, \"nproc\": %u, \"busy_threads\": %u, "
         "\"oversubscribed\": %s, \"build_type\": \"%s\", "
         "\"faults\": \"off\"}}\n",
         O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
         num(O.Seconds).c_str(), O.Trace ? 1 : 0, NProc, Busy,
         Oversubscribed ? "true" : "false", E2EBENCH_BUILD_TYPE);
  fflush(stdout);

  Outcome R = Run(O);

  std::vector<MetricOut> Ms =
      O.Trace ? layerMetrics(R.L) : endToEndMetrics(R.E2E);
  for (const MetricOut &M : Ms)
    if (!std::isfinite(M.Value)) {
      R.fail(std::string("metric ") + M.Name + " is not finite");
      break;
    }
  for (const std::string &P : R.Problems)
    fprintf(stderr, "e2ebench: check failed: %s\n", P.c_str());

  std::string J = std::string("{\"correct\": ") +
                  (R.Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(R.Attempted) +
                  ", \"failed\": " + std::to_string(R.Failed) +
                  ", \"metrics\": {";
  for (size_t I = 0; I != Ms.size(); ++I) {
    const MetricOut &M = Ms[I];
    J += std::string(I ? ", " : "") + "\"" + M.Name + "\": {\"value\": " +
         num(std::isfinite(M.Value) ? M.Value : 0) + ", \"unit\": \"" +
         M.Unit + "\"}";
  }
  J += "}}";
  printf("%s\n", J.c_str());
  return 0;
}
