//===- tests/api/FacadeRunTest.cpp - One surface, three backends ----------===//
//
// The acceptance-level façade test: the same compiled program and the
// same seeded workload execute on the Machine, the Simulator, and the
// Engine through one Run surface, every backend's recorded trace passes
// the Definition 6 checker, and the uniform RunReport carries comparable
// counters (identical injected-packet counts, since all backends realize
// the identical workload).
//
//===----------------------------------------------------------------------===//

#include "api/Api.h"

#include "apps/Programs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

using namespace eventnet;
using namespace eventnet::api;

namespace {

Result<Compilation> compileFirewall() {
  return compile(CompileOptions()
                     .programSource(apps::firewallSource())
                     .topology(topo::firewallTopology()));
}

} // namespace

TEST(Facade, RegistryListsBuiltins) {
  std::vector<std::string> Names = backendNames();
  EXPECT_NE(std::find(Names.begin(), Names.end(), "machine"), Names.end());
  EXPECT_NE(std::find(Names.begin(), Names.end(), "sim"), Names.end());
  EXPECT_NE(std::find(Names.begin(), Names.end(), "engine"), Names.end());
}

TEST(Facade, CompilationExposesEveryArtifact) {
  Result<Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();

  EXPECT_EQ(C->structure().numEvents(), 1u);
  EXPECT_EQ(C->structure().numSets(), 2u);
  EXPECT_EQ(C->ets().vertices().size(), 2u);
  EXPECT_EQ(C->bindings().at("H4"), 4);
  EXPECT_GT(C->compileSeconds(), 0);
  EXPECT_GT(C->guardedRuleCount(), 0u);
  EXPECT_LE(C->shareStats().After, C->shareStats().Before);
  EXPECT_FALSE(C->etsText().empty());
  EXPECT_FALSE(C->nesText().empty());
  EXPECT_NE(C->tablesText().find("event-set E0"), std::string::npos);
  EXPECT_NE(C->summary().find("locally determined"), std::string::npos);
  EXPECT_NE(C->summaryJson().find("\"events\": 1"), std::string::npos);
}

class FacadeBackends : public ::testing::TestWithParam<const char *> {};

TEST_P(FacadeBackends, FirewallRunIsConsistent) {
  Result<Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();

  Result<RunReport> R =
      run(*C, GetParam(), RunOptions().seed(7).phases(4).pingsPerPhase(4));
  ASSERT_TRUE(R.ok()) << R.status().str();

  EXPECT_EQ(R->Backend, GetParam());
  EXPECT_EQ(R->Seed, 7u);
  EXPECT_GT(R->PacketsInjected, 0u);
  EXPECT_GT(R->PacketsDelivered, 0u);
  EXPECT_GT(R->SwitchHops, 0u);
  EXPECT_GT(R->Trace.size(), 0u);
  ASSERT_TRUE(R->Checked);
  EXPECT_TRUE(R->Consistency.Correct) << R->Consistency.Reason;

  // Packet conservation holds on every backend; the audit proves it.
  EXPECT_TRUE(R->Audit.Ok)
      << R->Audit.SilentLoss << " packets silently lost";
  EXPECT_EQ(R->Audit.Injected, R->PacketsInjected);
  EXPECT_EQ(R->Audit.SilentLoss, 0u);
}

TEST_P(FacadeBackends, RingRunIsConsistent) {
  apps::App A = apps::ringApp(6, 3);
  Result<Compilation> C = compile(
      CompileOptions().programAst(A.Ast).topology(A.Topo));
  ASSERT_TRUE(C.ok()) << C.status().str();

  Result<RunReport> R =
      run(*C, GetParam(), RunOptions().seed(13).phases(3).pingsPerPhase(2));
  ASSERT_TRUE(R.ok()) << R.status().str();
  ASSERT_TRUE(R->Checked);
  EXPECT_TRUE(R->Consistency.Correct)
      << GetParam() << ": " << R->Consistency.Reason;
}

TEST_P(FacadeBackends, ReportRendersTextAndJson) {
  Result<Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();
  Result<RunReport> R = run(*C, GetParam(), RunOptions().seed(3));
  ASSERT_TRUE(R.ok()) << R.status().str();

  std::string Text = R->str();
  EXPECT_NE(Text.find("injected:"), std::string::npos);
  EXPECT_NE(Text.find("definition 6: consistent"), std::string::npos);

  std::string Json = R->json();
  EXPECT_NE(Json.find("\"backend\": \"" + std::string(GetParam()) + "\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"seed\": 3"), std::string::npos);
  EXPECT_NE(Json.find("\"consistency\": {\"checked\": true, "
                      "\"correct\": true}"),
            std::string::npos);
  // The observability keys are part of the schema on every backend
  // (zero-valued where the backend records nothing).
  for (const char *Key :
       {"\"update_lat_p50\"", "\"update_lat_p99\"", "\"queue_dwell\"",
        "\"batch_occupancy\"", "\"drop_audit\"", "\"silent_loss\""})
    EXPECT_NE(Json.find(Key), std::string::npos) << Key;
  EXPECT_NE(Json.find("\"ok\": true"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Backends, FacadeBackends,
                         ::testing::Values("machine", "sim", "engine"));

TEST(Facade, EnginePartitionStrategiesRunAndReport) {
  apps::App A = apps::ringApp(6, 3);
  Result<Compilation> C =
      compile(CompileOptions().programAst(A.Ast).topology(A.Topo));
  ASSERT_TRUE(C.ok()) << C.status().str();

  for (const char *P : {"modulo", "contiguous", "refined"}) {
    Result<RunReport> R = run(
        *C, "engine",
        RunOptions().seed(5).shards(2).phases(3).pingsPerPhase(2).partition(
            P));
    ASSERT_TRUE(R.ok()) << P << ": " << R.status().str();
    EXPECT_EQ(R->Partition, P);
    EXPECT_LE(R->EdgeCut, R->EdgeTotal) << P;
    uint32_t Placed = 0;
    for (const ShardReport &D : R->ShardDetail)
      Placed += D.Switches;
    EXPECT_EQ(Placed, A.Topo.switches().size()) << P;
    ASSERT_TRUE(R->Checked);
    EXPECT_TRUE(R->Consistency.Correct) << P << ": "
                                        << R->Consistency.Reason;
    EXPECT_NE(R->json().find("\"partition\": \"" + std::string(P) + "\""),
              std::string::npos);
    EXPECT_NE(R->json().find("\"switches\": "), std::string::npos);
  }
  // The ring's contiguous placement must beat round-robin on edge cut.
  Result<RunReport> Mod =
      run(*C, "engine", RunOptions().seed(5).shards(2).partition("modulo"));
  Result<RunReport> Ref = run(*C, "engine",
                              RunOptions().seed(5).shards(2).partition(
                                  "refined"));
  ASSERT_TRUE(Mod.ok() && Ref.ok());
  EXPECT_LT(Ref->EdgeCut, Mod->EdgeCut);
}

TEST(Facade, EngineObservabilityEndToEnd) {
  // The full observability stack through the façade: latency
  // histograms, the timeline, and the metrics sampler all on at once,
  // with counters that cross-check the run's own report.
  Result<Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();

  Result<RunReport> R =
      run(*C, "engine",
          RunOptions().seed(9).shards(2).phases(3).pingsPerPhase(3)
              .latencyHistograms(true)
              .timeline(true)
              .metricsIntervalMs(1)
              .metricsPath("/dev/null"));
  ASSERT_TRUE(R.ok()) << R.status().str();
  ASSERT_TRUE(R->Checked);
  EXPECT_TRUE(R->Consistency.Correct) << R->Consistency.Reason;
  EXPECT_TRUE(R->Audit.Ok);

  // Histograms: every switch hop dwelt in some queue, every dequeue
  // batch had occupancy >= 1.
  EXPECT_GT(R->QueueDwell.Samples, 0u);
  EXPECT_GE(R->QueueDwell.MaxSec, R->QueueDwell.P50Sec);
  EXPECT_GT(R->BatchOccupancy.Samples, 0u);
  EXPECT_GE(R->BatchOccupancy.MeanSec, 1.0);

  // Timeline: read from the trace log, so its instants count what the
  // report counts, and it is time-ordered.
  std::map<obs::TraceKind, uint64_t> Count;
  for (size_t I = 0; I != R->ObsTrace.size(); ++I) {
    const obs::TraceEvent &E = R->ObsTrace[I];
    ++Count[E.Kind];
    EXPECT_LT(E.Shard, 2u);
    if (I) {
      EXPECT_LE(R->ObsTrace[I - 1].TsNs, E.TsNs) << "unsorted at " << I;
    }
  }
  using obs::TraceKind;
  EXPECT_GT(Count[TraceKind::Inject], 0u);
  EXPECT_EQ(Count[TraceKind::Inject], R->PacketsInjected);
  EXPECT_EQ(Count[TraceKind::Inject] + Count[TraceKind::Hop], R->SwitchHops);
  EXPECT_EQ(Count[TraceKind::Deliver], R->PacketsDelivered);
  EXPECT_EQ(Count[TraceKind::Drop], R->PacketsDropped);
  EXPECT_EQ(Count[TraceKind::Inject] + Count[TraceKind::Hop] +
                Count[TraceKind::Egress] + Count[TraceKind::FaultDup] +
                Count[TraceKind::Deliver],
            R->Trace.size());
  EXPECT_EQ(Count[TraceKind::EventDetect], R->EventsDetected);
  EXPECT_EQ(Count[TraceKind::RegisterLearn], R->UpdateLatency.Samples);
  EXPECT_EQ(Count[TraceKind::ConfigSwap], R->ConfigTransitions);

  // Off by default: the same run without the options records nothing.
  Result<RunReport> Off =
      run(*C, "engine",
          RunOptions().seed(9).shards(2).phases(3).pingsPerPhase(3));
  ASSERT_TRUE(Off.ok()) << Off.status().str();
  EXPECT_EQ(Off->QueueDwell.Samples, 0u);
  EXPECT_TRUE(Off->ObsTrace.empty());
  // ...but the update-latency digest is a protocol by-product and is
  // populated either way (the ring app's probe flips its config).
  EXPECT_GT(Off->ConfigTransitions, 0u);
}

TEST(Facade, UnknownPartitionStrategyIsInvalidArgument) {
  Result<Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();
  Result<RunReport> R =
      run(*C, "engine", RunOptions().partition("round-robin"));
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), Code::InvalidArgument);
  EXPECT_NE(R.status().message().find("round-robin"), std::string::npos);
}

TEST(Facade, OneSeedReproducesSequentialBackends) {
  // The uniform-seeding satellite: a single RunOptions::Seed drives the
  // workload generator and every backend's own randomness, so the
  // sequential backends are bit-reproducible run to run. (Cross-backend
  // *counter equality* is not guaranteed — within a phase, a request
  // racing its own enabling event may be dropped on one substrate and
  // delivered on another, which is exactly the nondeterminism Definition
  // 6 quantifies over.)
  Result<Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();

  RunOptions O = RunOptions().seed(21).phases(3).pingsPerPhase(3);
  Result<RunReport> M = run(*C, "machine", O);
  Result<RunReport> M2 = run(*C, "machine", O);
  ASSERT_TRUE(M.ok() && M2.ok());
  EXPECT_EQ(M->PacketsInjected, M2->PacketsInjected);
  EXPECT_EQ(M->PacketsDelivered, M2->PacketsDelivered);
  EXPECT_EQ(M->SwitchHops, M2->SwitchHops);
  EXPECT_EQ(M->Trace.size(), M2->Trace.size());

  Result<RunReport> S = run(*C, "sim", O);
  Result<RunReport> S2 = run(*C, "sim", O);
  ASSERT_TRUE(S.ok() && S2.ok());
  EXPECT_EQ(S->PacketsInjected, S2->PacketsInjected);
  EXPECT_EQ(S->PacketsDelivered, S2->PacketsDelivered);
  EXPECT_EQ(S->Trace.size(), S2->Trace.size());
  EXPECT_EQ(S->Trace.str(), S2->Trace.str());
}

TEST(Facade, RegisteredBackendIsReachable) {
  // The registry is open: a custom substrate plugs into the same Run
  // surface the CLI uses.
  class NullBackend : public Backend {
  public:
    const char *name() const override { return "null"; }
    Result<RunReport> execute(const Compilation &, const RunOptions &,
                              const engine::Workload &W) override {
      RunReport R;
      R.PacketsInjected = W.totalInjections();
      return R;
    }
  };
  registerBackend("null", [] { return std::make_unique<NullBackend>(); });

  Result<Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();
  Result<RunReport> R =
      run(*C, "null", RunOptions().phases(2).pingsPerPhase(2));
  ASSERT_TRUE(R.ok()) << R.status().str();
  EXPECT_EQ(R->PacketsInjected, 4u);
  // An empty trace with no events trivially satisfies Definition 6.
  ASSERT_TRUE(R->Checked);
  EXPECT_TRUE(R->Consistency.Correct) << R->Consistency.Reason;
}
