//===- tests/engine/EngineConsistencyTest.cpp - Definition 6, concurrent --===//
//
// The theorem-level check: traces recorded by the sharded concurrent
// engine replay through consistency::checkAgainstNes — the same
// Definition 6 oracle the sequential runtime::Machine and the simulator
// are tested against — across applications, seeds, and shard counts.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "api/Api.h"
#include "apps/Programs.h"
#include "consistency/Check.h"
#include "engine/TrafficGen.h"
#include "faults/FaultPlan.h"
#include "faults/Injector.h"
#include "sim/Simulation.h"
#include "sim/Wire.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace eventnet;
using namespace eventnet::engine;

namespace {

struct Scenario {
  apps::App A;
  api::Result<api::Compilation> C;
  Workload W;
};

/// Compiles through the api façade, exercising the same surface the CLI
/// and embedding programs use.
api::Result<api::Compilation> compileApp(const apps::App &A) {
  api::CompileOptions O;
  if (A.Source.empty())
    O.programAst(A.Ast);
  else
    O.programSource(A.Source);
  return api::compile(std::move(O.topology(A.Topo)));
}

Scenario firewallScenario(uint64_t Seed) {
  Scenario S{apps::firewallApp(), {}, {}};
  S.C = compileApp(S.A);
  TrafficGen G(S.A.Topo, Seed);
  S.W = G.ping(topo::HostH4, topo::HostH1);
  for (int I = 0; I != 12; ++I)
    S.W += G.ping(topo::HostH1, topo::HostH4);
  S.W += G.ping(topo::HostH4, topo::HostH1);
  return S;
}

Scenario authScenario(uint64_t Seed) {
  Scenario S{apps::authenticationApp(), {}, {}};
  S.C = compileApp(S.A);
  TrafficGen G(S.A.Topo, Seed);
  for (HostId To : {topo::HostH3, topo::HostH1, topo::HostH3, topo::HostH2,
                    topo::HostH3})
    S.W += G.ping(topo::HostH4, To);
  return S;
}

Scenario idsScenario(uint64_t Seed) {
  Scenario S{apps::idsApp(), {}, {}};
  S.C = compileApp(S.A);
  TrafficGen G(S.A.Topo, Seed);
  for (HostId To : {topo::HostH3, topo::HostH1, topo::HostH2, topo::HostH3,
                    topo::HostH3})
    S.W += G.ping(topo::HostH4, To);
  return S;
}

Scenario bwcapScenario(uint64_t Seed) {
  Scenario S{apps::bandwidthCapApp(5), {}, {}};
  S.C = compileApp(S.A);
  TrafficGen G(S.A.Topo, Seed);
  for (int I = 0; I != 9; ++I)
    S.W += G.ping(topo::HostH1, topo::HostH4);
  return S;
}

Scenario ringScenario(uint64_t Seed) {
  Scenario S{apps::ringApp(8, 4), {}, {}};
  S.C = compileApp(S.A);
  TrafficGen G(S.A.Topo, Seed);
  S.W = G.pings(2, 3);
  S.W += G.probe(topo::HostH1, topo::HostH2); // the update trigger
  S.W += G.pings(2, 3);
  return S;
}

consistency::CheckResult runAndCheck(Scenario &S, unsigned Shards,
                                     unsigned Batch,
                                     PartitionStrategy Partition,
                                     bool Broadcast = false) {
  EngineConfig Cfg;
  Cfg.NumShards = Shards;
  Cfg.CtrlBroadcast = Broadcast;
  Cfg.BatchSize = Batch;
  Cfg.Partition = Partition;
  Engine E(S.C->structure(), S.A.Topo, Cfg);
  E.run(S.W);
  EXPECT_GT(E.trace().size(), 0u);
  return consistency::checkAgainstNes(E.trace(), S.A.Topo,
                                      S.C->structure());
}

} // namespace

/// (seed, batch size, partition strategy): the Definition 6 theorem must
/// hold in the batched hot loop exactly as in the message-at-a-time one
/// (batch 1), under every shard placement — the tag/digest protocol
/// cannot care *where* a switch's owner thread runs, nor how many
/// messages it claims per drain.
class EngineConsistency
    : public ::testing::TestWithParam<
          std::tuple<uint64_t, unsigned, PartitionStrategy>> {
protected:
  uint64_t seed() const { return std::get<0>(GetParam()); }
  unsigned batch() const { return std::get<1>(GetParam()); }
  PartitionStrategy partition() const { return std::get<2>(GetParam()); }
};

TEST_P(EngineConsistency, AllAppsAllShardCounts) {
  using Maker = Scenario (*)(uint64_t);
  for (Maker Make : {firewallScenario, authScenario, idsScenario,
                     bwcapScenario, ringScenario}) {
    for (unsigned Shards : {1u, 2u, 4u}) {
      Scenario S = Make(seed());
      ASSERT_TRUE(S.C.ok()) << S.A.Name << ": " << S.C.status().str();
      auto R = runAndCheck(S, Shards, batch(), partition());
      EXPECT_TRUE(R.Correct)
          << S.A.Name << " shards=" << Shards << " batch=" << batch()
          << " partition=" << partitionStrategyName(partition()) << ": "
          << R.Reason;
    }
  }
}

TEST_P(EngineConsistency, FirewallWithControllerBroadcast) {
  Scenario S = firewallScenario(seed());
  ASSERT_TRUE(S.C.ok()) << S.C.status().str();
  auto R = runAndCheck(S, 4, batch(), partition(), /*Broadcast=*/true);
  EXPECT_TRUE(R.Correct) << R.Reason;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByBatch, EngineConsistency,
    ::testing::Combine(::testing::Values(1, 7, 13, 42),
                       ::testing::Values(1u, 32u),
                       ::testing::Values(PartitionStrategy::Modulo,
                                         PartitionStrategy::Contiguous,
                                         PartitionStrategy::Refined)));

TEST(EngineConsistency, StaticRoutingQuiescent) {
  // A zero-event NES: every packet trace must be a trace of g(∅); also
  // exercises the fat-tree builder end to end.
  topo::Topology Topo = topo::fatTreeTopology(4);
  nes::Nes N = apps::staticRoutingNes(Topo);

  EngineConfig Cfg;
  Cfg.NumShards = 4;
  Engine E(N, Topo, Cfg);
  TrafficGen G(Topo, 5);
  E.run(G.pings(3, 8));

  Stats S = E.stats();
  EXPECT_EQ(S.EventsDetected, 0u);
  EXPECT_EQ(S.ConfigTransitions, 0u);
  EXPECT_GT(S.PacketsDelivered, 0u);
  // Pings succeed: requests and replies (both counted as injections)
  // are each delivered exactly once.
  EXPECT_EQ(S.PacketsDelivered, S.PacketsInjected);

  auto R = consistency::checkAgainstNes(E.trace(), Topo, N);
  EXPECT_TRUE(R.Correct) << R.Reason;
}

TEST(EngineConsistency, CounterChainPastEvent128) {
  // A cap of 130 is a chain of 131 events, one per counter step, so the
  // registers and the digests the hops carry reach past event 128 (three
  // bitset words). A digest travels as its family index, so every hop
  // still fits a ring record, whatever the event count.
  apps::App A = apps::bandwidthCapApp(130);
  api::Result<api::Compilation> C = compileApp(A);
  ASSERT_TRUE(C.ok()) << C.status().str();
  const nes::Nes &N = C->structure();
  ASSERT_EQ(N.numEvents(), 131u);

  EngineConfig Cfg;
  Cfg.NumShards = 2;
  Engine E(N, A.Topo, Cfg);
  TrafficGen G(A.Topo, 17);
  Workload W;
  // One ping per phase steps the counter once; the last two pings meet
  // the cap.
  for (int I = 0; I != 133; ++I)
    W += G.ping(topo::HostH1, topo::HostH4);
  E.run(W);

  Stats S = E.stats();
  EXPECT_EQ(S.EventsDetected, 131u);
  for (nes::EventId Ev = 0; Ev != N.numEvents(); ++Ev)
    EXPECT_TRUE(E.learnTimes().count({N.event(Ev).Loc.Sw, Ev}))
        << "event " << Ev << " was not detected at its switch";
  EXPECT_EQ(S.PacketsDelivered + S.PacketsDropped, S.PacketsInjected);

  auto R = consistency::checkAgainstNes(E.trace(), A.Topo, N);
  EXPECT_TRUE(R.Correct) << R.Reason;
}

class EngineBackpressure : public ::testing::TestWithParam<unsigned> {};

TEST_P(EngineBackpressure, TinyQueuesNeverDeadlockOrDrop) {
  // Queues far smaller than a phase keep the rings permanently full:
  // every producer exercises the overflow path (the ring is only the
  // fast path; producers never block, so no cycle of full queues can
  // deadlock), and nothing may be lost or reordered into inconsistency.
  apps::App A = apps::ringApp(6, 3);
  api::Result<api::Compilation> C = compileApp(A);
  ASSERT_TRUE(C.ok()) << C.status().str();

  EngineConfig Cfg;
  Cfg.NumShards = GetParam();
  Cfg.QueueCapacity = 2;
  Engine E(C->structure(), A.Topo, Cfg);
  TrafficGen G(A.Topo, 21);
  Workload W = G.bulk(topo::HostH1, topo::HostH2, 150, 75);
  W += G.probe(topo::HostH1, topo::HostH2); // transition under pressure
  W += G.bulk(topo::HostH1, topo::HostH2, 150, 75);
  E.run(W);

  Stats S = E.stats();
  EXPECT_EQ(S.PacketsInjected, 301u);
  EXPECT_EQ(S.PacketsDelivered, 301u); // bulk data plus the probe

  auto R =
      consistency::checkAgainstNes(E.trace(), A.Topo, C->structure());
  EXPECT_TRUE(R.Correct) << R.Reason;
}

INSTANTIATE_TEST_SUITE_P(Shards, EngineBackpressure,
                         ::testing::Values(1u, 3u));

namespace {

/// A ring workload with every third injection of each phase, the probe
/// among them, widened by 4 extra header fields: 10 fields once placed
/// at the ingress, more than a ring record holds, so those packets cross
/// every shard hand-off (the injecting thread's and the workers') through
/// the overflow deque.
Workload wideRingWorkload(const topo::Topology &Topo, size_t &Widened) {
  TrafficGen G(Topo, 31);
  Workload W = G.bulk(topo::HostH1, topo::HostH2, 600, 300);
  W += G.probe(topo::HostH1, topo::HostH2);
  W += G.bulk(topo::HostH1, topo::HostH2, 600, 300);
  const FieldId Extra[] = {fieldOf("wide_a"), fieldOf("wide_b"),
                           fieldOf("wide_c"), fieldOf("wide_d")};
  Widened = 0;
  for (Phase &Ph : W.Phases)
    for (size_t I = 0; I < Ph.Injections.size(); I += 3, ++Widened)
      for (FieldId F : Extra)
        Ph.Injections[I].Header.set(F, static_cast<Value>(I));
  return W;
}

} // namespace

TEST(EngineOversizeRecords, BlockDeliversEveryWidePacket) {
  apps::App A = apps::ringApp(16, 8);
  api::Result<api::Compilation> C = compileApp(A);
  ASSERT_TRUE(C.ok()) << C.status().str();
  size_t Widened = 0;
  Workload W = wideRingWorkload(A.Topo, Widened);

  EngineConfig Cfg;
  Cfg.NumShards = 2;
  Engine E(C->structure(), A.Topo, Cfg);
  // H1 and H2 ingress on different shards, so every delivery crossed the
  // shard cut.
  SwitchIndex Idx(A.Topo);
  ASSERT_NE(E.partition().ShardOf[Idx.denseOf(A.Topo.hostLoc(topo::HostH1).Sw)],
            E.partition().ShardOf[Idx.denseOf(A.Topo.hostLoc(topo::HostH2).Sw)]);
  E.run(W);

  Stats S = E.stats();
  EXPECT_EQ(S.PacketsInjected, 1201u);
  EXPECT_EQ(S.PacketsDelivered, 1201u);
  EXPECT_EQ(S.PacketsDelivered + S.PacketsDropped, S.PacketsInjected);
  EXPECT_EQ(S.EventsDetected, 1u);

  // The wide packets arrive with every field they were sent with.
  size_t WideDeliveries = 0;
  for (const consistency::TraceEntry &En : E.trace().entries())
    if (En.IsDelivery && En.Lp.has(fieldOf("wide_d")))
      ++WideDeliveries;
  EXPECT_EQ(WideDeliveries, Widened);

  auto R = consistency::checkAgainstNes(E.trace(), A.Topo, C->structure());
  EXPECT_TRUE(R.Correct) << R.Reason;
}

TEST(EngineOversizeRecords, ShedOldestKeepsExactAccounting) {
  // The OverloadPolicies shape: rings clamped to two cells, and the
  // overflow deque bounded at ring capacity, so the wide packets' spills
  // meet the shedding policy too.
  apps::App A = apps::ringApp(16, 8);
  api::Result<api::Compilation> C = compileApp(A);
  ASSERT_TRUE(C.ok()) << C.status().str();
  size_t Widened = 0;
  Workload W = wideRingWorkload(A.Topo, Widened);

  faults::FaultPlan Plan;
  Plan.Seed = 3;
  Plan.QueueCapacityClamp = 2;
  faults::Injector Inj(Plan);
  EngineConfig Cfg;
  Cfg.NumShards = 2;
  Cfg.Overload = OverloadPolicy::ShedOldest;
  Cfg.Faults = &Inj;
  Engine E(C->structure(), A.Topo, Cfg);
  E.run(W);

  Stats S = E.stats();
  EXPECT_EQ(S.PacketsInjected, 1201u);
  EXPECT_EQ(S.PacketsDelivered + S.PacketsDropped, S.PacketsInjected)
      << "delivered " << S.PacketsDelivered << " + dropped "
      << S.PacketsDropped << " != injected (silent loss)";
  EXPECT_GT(S.FaultSheds, 0u);
  EXPECT_EQ(S.PacketsDropped, S.FaultSheds);

  faults::FaultLedger L = E.takeFaultLedger();
  consistency::FaultContext Ctx;
  Ctx.ExcusedEntries = std::move(L.ExcusedEntries);
  Ctx.DupEntries = std::move(L.DupEntries);
  auto R = consistency::checkAgainstNes(E.trace(), A.Topo, C->structure(),
                                        &Ctx);
  EXPECT_TRUE(R.Correct) << R.Reason;
}

namespace {

/// Named fault plans for the Definition 6 sweep below.
faults::FaultPlan namedPlan(const std::string &Name) {
  faults::FaultPlan P;
  P.Seed = 19;
  if (Name == "drop")
    P.Links.push_back({-1, -1, 0.1, 0, 0, 0, -1});
  else if (Name == "dup")
    P.Links.push_back({-1, -1, 0, 0.1, 0, 0, -1});
  else if (Name == "delay")
    P.Links.push_back({-1, -1, 0, 0, 0.15, 0, -1});
  else { // "mixed": everything at once plus overload pressure
    P.Links.push_back({-1, -1, 0.05, 0.05, 0.1, 0, -1});
    P.Stalls.push_back({-1, 8, 100});
    P.QueueCapacityClamp = 4;
    P.CtrlStormRepeat = 2;
  }
  return P;
}

} // namespace

/// The PR's acceptance sweep: Definition 6 must hold on the surviving
/// trace with silent_loss == 0 for every (fault plan, overload policy)
/// pair — injected damage is excused via the ledger, and the overload
/// machinery never loses a packet without a ticket.
class EngineFaultConsistency
    : public ::testing::TestWithParam<
          std::tuple<const char *, OverloadPolicy>> {};

TEST_P(EngineFaultConsistency, DefinitionSixHoldsWithZeroSilentLoss) {
  auto [PlanName, Policy] = GetParam();
  faults::FaultPlan Plan = namedPlan(PlanName);
  faults::Injector Inj(Plan);

  // Multi-event apps too: auth (2 events) and bwcap (11) detect several
  // events per run, and the "mixed" plan storms each one, so every lane
  // takes up to NumEvents x (1 + CtrlStormRepeat) deltas, its bound.
  for (auto Make :
       {firewallScenario, authScenario, bwcapScenario, ringScenario}) {
    Scenario S = Make(23);
    ASSERT_TRUE(S.C.ok()) << S.A.Name << ": " << S.C.status().str();

    EngineConfig Cfg;
    Cfg.NumShards = 3;
    Cfg.Overload = Policy;
    Cfg.Faults = &Inj;
    Engine E(S.C->structure(), S.A.Topo, Cfg);
    E.run(S.W);

    // Exact conservation: dup-descended outcomes discounted, every
    // remaining injection delivered or drop-ticketed.
    Stats St = E.stats();
    uint64_t EffDelivered = St.PacketsDelivered - St.DupDelivered;
    uint64_t EffDropped = St.PacketsDropped - St.DupDropped;
    EXPECT_EQ(EffDelivered + EffDropped, St.PacketsInjected)
        << S.A.Name << " plan=" << PlanName << " policy="
        << overloadPolicyName(Policy) << ": silent loss";

    faults::FaultLedger L = E.takeFaultLedger();
    consistency::FaultContext Ctx;
    Ctx.ExcusedEntries = std::move(L.ExcusedEntries);
    Ctx.DupEntries = std::move(L.DupEntries);
    auto R = consistency::checkAgainstNes(E.trace(), S.A.Topo,
                                          S.C->structure(), &Ctx);
    EXPECT_TRUE(R.Correct)
        << S.A.Name << " plan=" << PlanName
        << " policy=" << overloadPolicyName(Policy) << ": " << R.Reason;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PlansByPolicy, EngineFaultConsistency,
    ::testing::Combine(::testing::Values("drop", "dup", "delay", "mixed"),
                       ::testing::Values(OverloadPolicy::Block,
                                         OverloadPolicy::ShedOldest,
                                         OverloadPolicy::ShedNewest)),
    [](const ::testing::TestParamInfo<
        std::tuple<const char *, OverloadPolicy>> &I) {
      std::string N = std::string(std::get<0>(I.param)) + "_" +
                      overloadPolicyName(std::get<1>(I.param));
      for (char &C : N)
        if (C == '-')
          C = '_';
      return N;
    });

/// The event-storm sweep: the churn workload (distinct-flow data storm
/// with probe triggers scattered through it, so transitions race
/// sustained traffic) must hold Definition 6 across shard counts,
/// partition strategies, and overload policies. The queues are kept
/// tiny so the shed policies genuinely retire chains under plain
/// pressure — no fault plan is armed, which is the point: shed tickets
/// must be ledgered and handed to the checker as excusal context even
/// without one.
class EngineStormConsistency
    : public ::testing::TestWithParam<
          std::tuple<unsigned, PartitionStrategy, OverloadPolicy>> {};

TEST_P(EngineStormConsistency, ChurnStormHoldsDefinitionSix) {
  auto [Shards, Partition, Policy] = GetParam();
  apps::App A = apps::ringApp(8, 4);
  api::Result<api::Compilation> C = compileApp(A);
  ASSERT_TRUE(C.ok()) << C.status().str();

  EngineConfig Cfg;
  Cfg.NumShards = Shards;
  Cfg.Partition = Partition;
  Cfg.Overload = Policy;
  Cfg.QueueCapacity = 8; // keep the storm pressing on the policy
  Engine E(C->structure(), A.Topo, Cfg);
  TrafficGen G(A.Topo, 31);
  E.run(G.churn(3, 40, 4));

  // Exact conservation: a shed is an accounted drop, never silent loss.
  Stats St = E.stats();
  EXPECT_EQ(St.PacketsDelivered + St.PacketsDropped, St.PacketsInjected)
      << "shards=" << Shards << " policy=" << overloadPolicyName(Policy)
      << ": silent loss";

  faults::FaultLedger L = E.takeFaultLedger();
  consistency::FaultContext Ctx;
  Ctx.ExcusedEntries = std::move(L.ExcusedEntries);
  Ctx.DupEntries = std::move(L.DupEntries);
  bool HasCtx = !Ctx.ExcusedEntries.empty() || !Ctx.DupEntries.empty();
  auto R = consistency::checkAgainstNes(E.trace(), A.Topo,
                                        C->structure(),
                                        HasCtx ? &Ctx : nullptr);
  EXPECT_TRUE(R.Correct)
      << "shards=" << Shards
      << " partition=" << partitionStrategyName(Partition)
      << " policy=" << overloadPolicyName(Policy) << ": " << R.Reason;
}

INSTANTIATE_TEST_SUITE_P(
    ShardsByPressure, EngineStormConsistency,
    ::testing::Combine(::testing::Values(1u, 3u),
                       ::testing::Values(PartitionStrategy::Modulo,
                                         PartitionStrategy::Refined),
                       ::testing::Values(OverloadPolicy::Block,
                                         OverloadPolicy::ShedOldest,
                                         OverloadPolicy::ShedNewest)),
    [](const ::testing::TestParamInfo<
        std::tuple<unsigned, PartitionStrategy, OverloadPolicy>> &I) {
      std::string N = "s" + std::to_string(std::get<0>(I.param)) + "_" +
                      partitionStrategyName(std::get<1>(I.param)) + "_" +
                      overloadPolicyName(std::get<2>(I.param));
      for (char &C : N)
        if (C == '-')
          C = '_';
      return N;
    });

TEST(EngineUpdatePipeline, DetectingShardSendsDeltasOnlyToOtherShards) {
  // One probe fires the ring's event. The detecting worker pushes the
  // delta to the other subscribed shard itself and fans out locally, so
  // exactly one delta crosses shards at 2 shards and none at 1 — no
  // delta comes back to the detector. Every switch still learns, each
  // learn is stamped exactly once, and the trace passes Definition 6.
  apps::App A = apps::ringApp(16, 8);
  api::Result<api::Compilation> C = compileApp(A);
  ASSERT_TRUE(C.ok()) << C.status().str();

  for (unsigned Shards : {1u, 2u}) {
    EngineConfig Cfg;
    Cfg.NumShards = Shards;
    Cfg.Partition = PartitionStrategy::Refined;
    Engine E(C->structure(), A.Topo, Cfg);
    TrafficGen G(A.Topo, 5);
    E.run(G.probe(topo::HostH1, topo::HostH2));

    Stats St = E.stats();
    EXPECT_EQ(St.EventsDetected, 1u) << "shards=" << Shards;
    EXPECT_EQ(St.CtrlDeltas, Shards - 1) << "shards=" << Shards;
    std::set<SwitchId> Learned;
    for (const auto &Entry : E.learnTimes())
      Learned.insert(Entry.first.first);
    EXPECT_EQ(Learned.size(), A.Topo.switches().size())
        << "shards=" << Shards;
    EXPECT_EQ(E.transitionLatenciesNs().size(), E.learnTimes().size())
        << "shards=" << Shards;
    auto R =
        consistency::checkAgainstNes(E.trace(), A.Topo, C->structure());
    EXPECT_TRUE(R.Correct) << "shards=" << Shards << ": " << R.Reason;
  }
}

TEST(EngineConsistency, EngineMatchesSimulatorDeliverySemantics) {
  // Bulk H1 -> H2 over the ring: the engine must deliver every packet
  // the static path allows, like the simulator's uncongested runs.
  apps::App A = apps::ringApp(6, 3);
  api::Result<api::Compilation> C = compileApp(A);
  ASSERT_TRUE(C.ok()) << C.status().str();

  EngineConfig Cfg;
  Cfg.NumShards = 2;
  Engine E(C->structure(), A.Topo, Cfg);
  TrafficGen G(A.Topo, 9);
  E.run(G.bulk(topo::HostH1, topo::HostH2, 200, 50));

  Stats S = E.stats();
  EXPECT_EQ(S.PacketsInjected, 200u);
  EXPECT_EQ(S.PacketsDelivered, 200u);
  EXPECT_EQ(S.PacketsDropped, 0u);

  auto R =
      consistency::checkAgainstNes(E.trace(), A.Topo, C->structure());
  EXPECT_TRUE(R.Correct) << R.Reason;
}

/// Every message popped in one ring batch takes its first hop, in pop
/// order, before any chain runs on (Engine::drainBatch), so the batch's
/// injections are all stamped against the registers the batch found, as
/// the simulator stamps packets emitted together. On the firewall at 1
/// shard, one batch carries an H1 -> H4 packet, whose arrival at s4 fires
/// the event, and then an H4 -> H1 packet: H4's is stamped with the
/// pre-event tag and dropped at s4, as in the simulator. A worker that ran
/// each popped message's chain to completion would fire the event before
/// it stamped H4's packet, and deliver that packet.
TEST(EngineConsistency, BatchStampsEveryInjectionBeforeAnyChainRuns) {
  apps::App A = apps::firewallApp();
  api::Result<api::Compilation> C = compileApp(A);
  ASSERT_TRUE(C.ok()) << C.status().str();
  const nes::Nes &N = C->structure();
  std::vector<Injection> Inj = {
      {topo::HostH1, sim::makeWireHeader(topo::HostH1, topo::HostH4,
                                         sim::KindData, 1)},
      {topo::HostH4, sim::makeWireHeader(topo::HostH4, topo::HostH1,
                                         sim::KindData, 2)}};

  // The simulator emits both at once: H4's packet meets s4 before H1's
  // crosses the link, so only H1's data packet is delivered (and H4's
  // host acks it).
  sim::Simulation Sim(N, A.Topo, sim::Simulation::Mode::Nes);
  for (const Injection &I : Inj)
    Sim.scheduleInjection(0, I.From, I.Header);
  Sim.run(1.0);
  auto DataTo = [&](HostId H) {
    unsigned Data = 0;
    for (const auto &D : Sim.deliveriesTo(H))
      Data += D.second.getOr(sim::kindField(), -1) == sim::KindData;
    return Data;
  };
  EXPECT_EQ(DataTo(topo::HostH4), 1u);
  EXPECT_EQ(DataTo(topo::HostH1), 0u) << "the simulator delivered H4's packet";

  // A batch push publishes its ring cells one by one, so the worker may
  // pop the first injection alone; such a run does not exercise the
  // contract and is retried on a fresh engine. The batch-occupancy
  // histogram tells: every hop stays on the one shard, so a run whose
  // ring gave one batch popped both injections in it.
  unsigned OneBatch = 0;
  for (unsigned Attempt = 0; Attempt != 50 && OneBatch == 0; ++Attempt) {
    EngineConfig Cfg;
    Cfg.NumShards = 1;
    Cfg.LatencyHistograms = true;
    Engine E(N, A.Topo, Cfg);
    E.start();
    E.injectBatch(Inj.data(), Inj.size());
    E.awaitQuiescence();
    E.finish();
    Stats St = E.stats();
    if (St.BatchOccupancy.Samples != 1)
      continue;
    ++OneBatch;
    EXPECT_EQ(St.EventsDetected, 1u);
    EXPECT_EQ(St.PacketsDelivered, 1u);
    EXPECT_EQ(St.PacketsDropped, 1u);

    const std::vector<consistency::TraceEntry> &Entries =
        E.trace().entries();
    unsigned H4Roots = 0;
    for (size_t I = 0; I != Entries.size(); ++I) {
      const consistency::TraceEntry &En = Entries[I];
      if (En.IsDelivery) {
        EXPECT_EQ(En.Lp.getOr(sim::ipDstField(), -1),
                  static_cast<Value>(topo::HostH4))
            << "H4's packet was delivered";
      }
      if (En.Parent >= 0 || En.Lp.sw() != 4)
        continue;
      ++H4Roots;
      EXPECT_EQ(E.traceTags()[I], N.emptySet())
          << "H4's packet was stamped after the event";
    }
    EXPECT_EQ(H4Roots, 1u);
    auto R = consistency::checkAgainstNes(E.trace(), A.Topo, N);
    EXPECT_TRUE(R.Correct) << R.Reason;
  }
  EXPECT_EQ(OneBatch, 1u) << "no run popped both injections in one batch";
}

namespace {

Scenario ringProbeScenario(uint64_t Seed) {
  Scenario S{apps::ringApp(16, 8), {}, {}};
  S.C = compileApp(S.A);
  TrafficGen G(S.A.Topo, Seed);
  S.W = G.pings(2, 4);
  S.W += G.probe(topo::HostH1, topo::HostH2); // the update trigger
  S.W += G.pings(2, 4);
  return S;
}

} // namespace

/// A merge group stamps all its learns with one clock read taken after
/// its view stores, and every learn follows its event's detection (a
/// far shard's lane pop acquires the detector's push, a gossiped digest
/// left after the detector's merge), so no register_learn instant may
/// precede its event's event_detect instant, on any shard count. A
/// stamp cached from before a lane drain, or taken before the group's
/// merges, would show here as a learn ahead of its detection.
TEST(EngineConsistency, LearnStampsFollowDetection) {
  using obs::TraceKind;
  struct Case {
    Scenario (*Make)(uint64_t);
    unsigned Shards;
  };
  for (Case K : {Case{bwcapScenario, 2}, Case{bwcapScenario, 3},
                 Case{ringProbeScenario, 2}, Case{ringProbeScenario, 3}})
    for (uint64_t Seed : {3u, 17u}) {
      Scenario S = K.Make(Seed);
      ASSERT_TRUE(S.C.ok()) << S.A.Name << ": " << S.C.status().str();
      std::string What = S.A.Name + " shards=" + std::to_string(K.Shards) +
                         " seed=" + std::to_string(Seed);
      EngineConfig Cfg;
      Cfg.NumShards = K.Shards;
      Engine E(S.C->structure(), S.A.Topo, Cfg);
      E.run(S.W);

      std::map<uint32_t, int64_t> DetectAt; // event -> detect instant
      std::vector<obs::TraceEvent> Learns;
      for (const obs::TraceEvent &Ev : E.timeline()) {
        if (Ev.Kind == TraceKind::EventDetect)
          DetectAt[Ev.A] = Ev.TsNs;
        else if (Ev.Kind == TraceKind::RegisterLearn)
          Learns.push_back(Ev);
      }
      EXPECT_GT(DetectAt.size(), 0u) << What;
      EXPECT_GT(Learns.size(), DetectAt.size()) << What;
      for (const obs::TraceEvent &L : Learns) {
        auto It = DetectAt.find(L.B);
        ASSERT_NE(It, DetectAt.end())
            << What << ": switch " << L.A << " learned undetected event "
            << L.B;
        EXPECT_GE(L.TsNs, It->second)
            << What << ": switch " << L.A << " learned event " << L.B
            << " before its detection";
      }
      for (int64_t Lat : E.transitionLatenciesNs())
        EXPECT_GE(Lat, 0) << What;
    }
}

/// The timeline is read from the merged trace log, the fault ledger and
/// the update stamps, so its instants count exactly what the engine
/// counts, with and without a drop/dup fault plan.
TEST(EngineTimeline, InstantsCountWhatTheEngineCounts) {
  using obs::TraceKind;
  faults::FaultPlan Plan;
  Plan.Seed = 19;
  Plan.Links.push_back({-1, -1, 0.1, 0.1, 0, 0, -1});
  faults::Injector Inj(Plan);

  for (bool Faulted : {false, true})
    for (auto Make : {firewallScenario, ringProbeScenario})
      for (unsigned Shards : {1u, 2u}) {
        Scenario S = Make(11);
        ASSERT_TRUE(S.C.ok()) << S.A.Name << ": " << S.C.status().str();
        std::string What = S.A.Name + " shards=" + std::to_string(Shards) +
                           (Faulted ? " faulted" : "");
        EngineConfig Cfg;
        Cfg.NumShards = Shards;
        if (Faulted)
          Cfg.Faults = &Inj;
        Engine E(S.C->structure(), S.A.Topo, Cfg);
        E.run(S.W);
        Stats St = E.stats();

        std::vector<obs::TraceEvent> T = E.timeline();
        std::map<TraceKind, uint64_t> Count;
        for (size_t I = 0; I != T.size(); ++I) {
          ++Count[T[I].Kind];
          EXPECT_LT(T[I].Shard, Shards) << What;
          EXPECT_GE(T[I].TsNs, 0) << What;
          EXPECT_LE(static_cast<double>(T[I].TsNs) * 1e-9, St.ElapsedSec)
              << What;
          if (I) {
            EXPECT_LE(T[I - 1].TsNs, T[I].TsNs) << What << " at " << I;
          }
        }

        // One instant per entry, named by its role.
        EXPECT_GT(Count[TraceKind::Inject], 0u) << What;
        EXPECT_EQ(Count[TraceKind::Inject], St.PacketsInjected) << What;
        EXPECT_EQ(Count[TraceKind::Inject] + Count[TraceKind::Hop],
                  St.PacketsProcessed)
            << What;
        EXPECT_EQ(Count[TraceKind::Egress] + Count[TraceKind::FaultDup],
                  St.PacketsForwarded)
            << What;
        EXPECT_EQ(Count[TraceKind::Deliver], St.PacketsDelivered) << What;
        EXPECT_EQ(Count[TraceKind::Inject] + Count[TraceKind::Hop] +
                      Count[TraceKind::Egress] + Count[TraceKind::FaultDup] +
                      Count[TraceKind::Deliver],
                  E.trace().size())
            << What;

        // The update instants.
        EXPECT_EQ(Count[TraceKind::EventDetect], St.EventsDetected) << What;
        EXPECT_EQ(Count[TraceKind::RegisterLearn], E.learnTimes().size())
            << What;
        EXPECT_EQ(Count[TraceKind::ConfigSwap], St.ConfigTransitions)
            << What;

        const faults::FaultLedger &L = E.faultLedger();
        if (!Faulted) {
          EXPECT_EQ(Count[TraceKind::Drop], St.PacketsDropped) << What;
          EXPECT_EQ(Count[TraceKind::FaultDup], 0u) << What;
          EXPECT_EQ(Count[TraceKind::Excused], 0u) << What;
          continue;
        }
        EXPECT_EQ(Count[TraceKind::Drop] + Count[TraceKind::Excused],
                  St.PacketsDropped)
            << What;
        EXPECT_EQ(Count[TraceKind::FaultDup], L.DupEntries.size()) << What;
        EXPECT_EQ(Count[TraceKind::Excused], L.ExcusedEntries.size())
            << What;
      }
}
