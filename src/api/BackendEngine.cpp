//===- api/BackendEngine.cpp - "engine" backend ---------------------------===//
//
// The sharded concurrent engine behind the façade's Backend interface,
// and the engine run it shares with the net front-ends (api/EngineRun.h):
// construct an engine with the requested shard count, execute the shared
// workload phase by phase, and translate engine::Stats into the uniform
// RunReport shape.
//
//===----------------------------------------------------------------------===//

#include "api/EngineRun.h"

#include "api/StreamCollect.h"
#include "engine/Partition.h"
#include "obs/Metrics.h"
#include "obs/Sampler.h"

#include <fstream>
#include <iostream>

using namespace eventnet;
using namespace eventnet::api;

namespace {

LatencyReport toReport(const engine::LatencyDigest &D) {
  return {D.Samples, D.MeanSec, D.P50Sec, D.P90Sec, D.P99Sec, D.MaxSec};
}

class EngineBackend : public Backend {
public:
  const char *name() const override { return "engine"; }

  Result<RunReport> execute(const Compilation &C, const RunOptions &O,
                            const engine::Workload &W) override {
    Result<detail::EngineChoice> EC = detail::parseEngineOptions(O);
    if (!EC.ok())
      return EC.status();
    return detail::runEngine(C, O, *EC, nullptr,
                             [&W](engine::Engine &E) { E.run(W); });
  }
};

} // namespace

Result<detail::EngineChoice> detail::parseEngineOptions(const RunOptions &O) {
  if (O.Shards < 1 || O.Shards > 1024)
    return Status::error(Code::InvalidArgument,
                         "shards must be in [1, 1024], got " +
                             std::to_string(O.Shards));
  auto Strategy = engine::parsePartitionStrategy(O.Partition);
  if (!Strategy)
    return Status::error(Code::InvalidArgument,
                         "unknown partition strategy '" + O.Partition +
                             "' (known: modulo, contiguous, refined)");
  auto Overload = engine::parseOverloadPolicy(O.Overload);
  if (!Overload)
    return Status::error(Code::InvalidArgument,
                         "unknown overload policy '" + O.Overload +
                             "' (known: block, shed-oldest, shed-newest)");
  return EngineChoice{*Strategy, *Overload};
}

Result<RunReport>
detail::runEngine(const Compilation &C, const RunOptions &O,
                  const EngineChoice &EC,
                  std::function<void(HostId, const netkat::Packet &)> Sink,
                  const std::function<void(engine::Engine &)> &Drive) {
  // Optional periodic metrics sampler: JSON-lines counter snapshots to
  // a file or stderr while the run is live.
  std::ofstream MetricsFile;
  if (O.MetricsIntervalMs > 0 && !O.MetricsPath.empty()) {
    MetricsFile.open(O.MetricsPath);
    if (!MetricsFile)
      return Status::error(Code::RunError,
                           "cannot open metrics path '" + O.MetricsPath + "'");
  }
  std::optional<faults::Injector> Inj;
  if (O.Faults && O.Faults->enabled())
    Inj.emplace(*O.Faults);

  engine::EngineConfig Cfg;
  Cfg.NumShards = O.Shards;
  Cfg.BatchSize = O.Batch;
  Cfg.Partition = EC.Partition;
  Cfg.LatencyHistograms = O.LatencyHistograms;
  Cfg.Overload = EC.Overload;
  Cfg.DeliverySink = std::move(Sink);
  // Streaming verification trades the O(run) merged trace for the
  // O(window) online checker; differential mode keeps both so the two
  // verdicts can be compared, and a timeline is read from the trace.
  Cfg.StreamTrace = O.StreamingCheck;
  Cfg.RecordTrace = !O.StreamingCheck || O.CheckDifferential || O.Timeline;
  if (Inj)
    Cfg.Faults = &*Inj;
  engine::Engine E(C.structure(), C.topology(), Cfg);

  consistency::StreamOptions SO;
  SO.Window = std::max<size_t>(1, O.CheckWindow);
  // Quiet-horizon retirement must outlast fault-plan delays and deep
  // shard backlogs (ticket gaps), or healthy chains get cut.
  SO.QuietHorizon = std::max<uint64_t>(8192, SO.Window / 2);
  std::optional<StreamCollector> Col;
  if (O.StreamingCheck)
    Col.emplace(E, C.structure(), C.topology(), SO);

  std::optional<obs::MetricsSampler> Sampler;
  if (O.MetricsIntervalMs > 0) {
    Sampler.emplace(
        O.MetricsIntervalMs, [&E] { return obs::metricsJsonLine(E.stats()); },
        MetricsFile.is_open() ? static_cast<std::ostream &>(MetricsFile)
                              : std::cerr);
    Sampler->start();
  }

  Drive(E);
  E.finish();
  if (Sampler)
    Sampler->stop(); // emits one final post-run sample

  engine::Stats S = E.stats();
  RunReport R;
  R.Shards = O.Shards;
  R.Batch = S.BatchSize;
  R.Partition = engine::partitionStrategyName(S.Partition.Strategy);
  R.EdgeCut = S.Partition.CutWeight;
  R.EdgeTotal = S.Partition.TotalWeight;
  R.Overload = engine::overloadPolicyName(EC.Overload);
  for (const engine::ShardStats &SS : S.Shards)
    R.ShardDetail.push_back({SS.PacketsProcessed, SS.QueueHighWater,
                             SS.Dropped, SS.Transitions, SS.Switches,
                             SS.Shed});
  R.PacketsInjected = S.PacketsInjected;
  R.PacketsDelivered = S.PacketsDelivered;
  R.PacketsDropped = S.PacketsDropped;
  R.SwitchHops = S.PacketsProcessed;
  R.EventsDetected = S.EventsDetected;
  R.ConfigTransitions = S.ConfigTransitions;
  R.ElapsedSec = S.ElapsedSec;
  R.UpdateLatency = toReport(S.Transition);
  R.QueueDwell = toReport(S.QueueDwell);
  R.BatchOccupancy = toReport(S.BatchOccupancy);
  if (O.Timeline)
    R.ObsTrace = E.timeline(); // reads the trace and ledger taken below
  faults::FaultLedger L = E.takeFaultLedger();
  if (Inj) {
    R.Faults.Enabled = true;
    R.Faults.Drops = S.FaultDrops;
    R.Faults.Dups = S.FaultDups;
    R.Faults.Delays = S.FaultDelays;
    R.Faults.Shed = S.FaultSheds;
    R.Faults.Stalls = S.FaultStalls;
    R.Faults.Storms = S.FaultStorms;
    R.Faults.DupDelivered = S.DupDelivered;
    R.Faults.DupDropped = S.DupDropped;
    R.Faults.LedgerEntries = L.Records.size();
    R.Faults.Ledger = L.canonical();
  }
  // The checker context rides along even without a fault plan: a shed
  // overload policy retires chains under plain pressure, and those
  // tickets must be excusable for Definition 6 verification.
  R.FaultCtx.ExcusedEntries = std::move(L.ExcusedEntries);
  R.FaultCtx.DupEntries = std::move(L.DupEntries);
  R.Trace = E.takeTrace();
  if (Col) {
    R.StreamCheck.Enabled = true;
    R.StreamCheck.Window = SO.Window;
    R.StreamCheck.Result = Col->finalize();
    R.StreamCheck.StreamShed = Col->lagShed();
  }
  return R;
}

namespace eventnet {
namespace api {
std::unique_ptr<Backend> makeEngineBackend() {
  return std::make_unique<EngineBackend>();
}
} // namespace api
} // namespace eventnet
