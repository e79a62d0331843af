//===- tests/engine/EngineTransitionTest.cpp - Atomic transitions ---------===//
//
// The engine's configuration transitions must be atomic from every
// angle:
//
//  - a concurrent reader of the published view word never observes a
//    torn view: the (tag, register) pair always satisfies tag ==
//    setIndex(register), versions are monotonic, and registers only
//    grow;
//  - no packet observes a mixed configuration: every hop of every packet
//    trace was matched against the table of one tag — the tag stamped at
//    ingress (Section 4's per-packet consistency);
//  - a single-event transition read from the compiled successor table
//    is the family member the union names.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "apps/Programs.h"
#include "engine/TrafficGen.h"
#include "nes/Pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <thread>

using namespace eventnet;
using namespace eventnet::engine;

namespace {

Workload firewallScript(TrafficGen &G) {
  // The SimConsistencyTest scenario: a blocked inbound ping, a train of
  // outbound pings (the first fires the event), a now-allowed inbound
  // ping.
  Workload W = G.ping(topo::HostH4, topo::HostH1);
  for (int I = 0; I != 12; ++I)
    W += G.ping(topo::HostH1, topo::HostH4);
  W += G.ping(topo::HostH4, topo::HostH1);
  return W;
}

} // namespace

TEST(EngineTransition, ConcurrentReaderNeverSeesTornView) {
  apps::App A = apps::ringApp(8, 4);
  api::Result<nes::CompiledProgram> CR = nes::compileAst(A.Ast, A.Topo);
  ASSERT_TRUE(CR.ok()) << CR.status().str();
  nes::CompiledProgram &C = *CR;

  EngineConfig Cfg;
  Cfg.NumShards = 4;
  Engine E(*C.N, A.Topo, Cfg);

  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Reads{0};
  std::atomic<bool> Violation{false};
  std::thread Monitor([&] {
    std::map<SwitchId, uint64_t> LastVersion;
    std::map<SwitchId, unsigned> LastCount;
    while (!Done.load()) {
      for (SwitchId Sw : A.Topo.switches()) {
        Engine::ViewSnapshot V = E.readView(Sw);
        // Internal consistency: the pair was swapped atomically.
        auto Set = C.N->setIndex(V.E);
        if (!Set || *Set != V.Tag) {
          Violation.store(true);
          return;
        }
        // Monotonicity: versions and registers only grow.
        if (V.Version < LastVersion[Sw] || V.E.count() < LastCount[Sw]) {
          Violation.store(true);
          return;
        }
        LastVersion[Sw] = V.Version;
        LastCount[Sw] = static_cast<unsigned>(V.E.count());
        Reads.fetch_add(1);
      }
      std::this_thread::yield();
    }
  });

  TrafficGen G(A.Topo, 11);
  Workload W = G.pings(3, 4);
  W += G.probe(topo::HostH1, topo::HostH2); // flips the ring config
  W += G.pings(3, 4);
  E.run(W);

  Done.store(true);
  Monitor.join();
  EXPECT_FALSE(Violation.load());
  EXPECT_GT(Reads.load(), 0u);

  Stats S = E.stats();
  EXPECT_GT(S.EventsDetected, 0u);
  EXPECT_GT(S.ConfigTransitions, 0u);
}

class EngineMixedConfig
    : public ::testing::TestWithParam<std::tuple<unsigned, uint64_t>> {};

TEST_P(EngineMixedConfig, NoPacketObservesAMixedConfiguration) {
  auto [Shards, Seed] = GetParam();

  apps::App A = apps::firewallApp();
  api::Result<nes::CompiledProgram> CR =
      nes::compileSource(A.Source, A.Topo);
  ASSERT_TRUE(CR.ok()) << CR.status().str();
  nes::CompiledProgram &C = *CR;

  EngineConfig Cfg;
  Cfg.NumShards = Shards;
  Engine E(*C.N, A.Topo, Cfg);

  TrafficGen G(A.Topo, Seed);
  E.run(firewallScript(G));

  ASSERT_GT(E.trace().size(), 0u);
  ASSERT_EQ(E.traceTags().size(), E.trace().size());

  // Every chain of the packet-trace forest carries exactly one tag: the
  // packet was processed by a single configuration end to end.
  for (const std::vector<int> &Chain : E.trace().packetTraces()) {
    nes::SetId Tag = E.traceTags()[Chain.front()];
    for (int Idx : Chain)
      EXPECT_EQ(E.traceTags()[Idx], Tag)
          << "mixed configuration on chain starting at " << Chain.front();
  }

  // The scenario forces the event: the firewall state actually changed
  // while traffic was in flight.
  Stats S = E.stats();
  EXPECT_EQ(S.EventsDetected, 1u);
  EXPECT_GT(S.ConfigTransitions, 0u);
  EXPECT_GT(S.Transition.Samples, 0u);

  // Both tags appear in the trace: some packets ran on g(∅), some on the
  // post-event configuration.
  bool SawOld = false, SawNew = false;
  for (nes::SetId T : E.traceTags()) {
    SawOld |= (T == C.N->emptySet());
    SawNew |= (T != C.N->emptySet());
  }
  EXPECT_TRUE(SawOld);
  EXPECT_TRUE(SawNew);
}

INSTANTIATE_TEST_SUITE_P(
    ShardsAndSeeds, EngineMixedConfig,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(uint64_t(1), uint64_t(42))));

TEST(EngineTransition, BroadcastPropagatesEventsToAllSwitches) {
  // With CTRLSEND broadcast every switch must learn the event. Each input
  // fires exactly one event, so every interleaving of detection, local
  // fan-out and lane deltas must reach the same fixpoint: on every switch
  // the register is {e}, the tag indexes it, and the view transitioned
  // exactly once.
  auto ExpectFixpoint = [](const nes::Nes &N, const topo::Topology &Topo,
                           unsigned Shards, const Workload &W,
                           const char *Input) {
    EngineConfig Cfg;
    Cfg.NumShards = Shards;
    Cfg.CtrlBroadcast = true;
    Engine E(N, Topo, Cfg);
    E.run(W);

    ASSERT_EQ(E.stats().EventsDetected, 1u) << Input;
    ASSERT_EQ(N.numEvents(), 1u) << Input;
    DenseBitSet Only;
    Only.set(0);
    for (SwitchId Sw : Topo.switches()) {
      Engine::ViewSnapshot V = E.readView(Sw);
      EXPECT_TRUE(V.E == Only)
          << Input << ": switch " << Sw << " register is not {e}";
      EXPECT_EQ(std::optional<nes::SetId>(V.Tag), N.setIndex(V.E))
          << Input << ": switch " << Sw;
      EXPECT_EQ(V.Version, 1u) << Input << ": switch " << Sw;
    }
    EXPECT_EQ(E.learnTimes().size(), Topo.switches().size()) << Input;
  };

  {
    apps::App A = apps::firewallApp();
    api::Result<nes::CompiledProgram> CR =
        nes::compileSource(A.Source, A.Topo);
    ASSERT_TRUE(CR.ok()) << CR.status().str();
    TrafficGen G(A.Topo, 3);
    ExpectFixpoint(*CR->N, A.Topo, 2, firewallScript(G), "firewall");
  }
  {
    apps::App A = apps::ringApp(8, 4);
    api::Result<nes::CompiledProgram> CR = nes::compileAst(A.Ast, A.Topo);
    ASSERT_TRUE(CR.ok()) << CR.status().str();
    TrafficGen G(A.Topo, 11);
    Workload W = G.pings(1, 4);
    W += G.probe(topo::HostH1, topo::HostH2);
    W += G.pings(2, 4);
    ExpectFixpoint(*CR->N, A.Topo, 3, W, "ring");
  }
}

TEST(EngineTransition, SuccessorTableAgreesWithTheFamily) {
  // A delta's register transition is one read of the compiled successor
  // table, so for every (set, event) pair the table must name exactly
  // the family member the single-event union is, or none when the union
  // is not one. A miss is where a merge falls back to the detection's
  // causal context, so an app with an enabling chain must keep some.
  std::vector<apps::App> Apps = apps::caseStudyApps();
  Apps.push_back(apps::ringApp(16, 8));
  std::map<std::string, unsigned> Misses;
  for (const apps::App &A : Apps) {
    api::Result<nes::CompiledProgram> CR =
        A.Source.empty() ? nes::compileAst(A.Ast, A.Topo)
                         : nes::compileSource(A.Source, A.Topo);
    ASSERT_TRUE(CR.ok()) << A.Name << ": " << CR.status().str();
    const nes::Nes &N = *CR->N;
    SwitchIndex Idx(A.Topo);
    CompiledNes Compiled(N, Idx);
    for (nes::SetId S = 0; S != N.numSets(); ++S)
      for (nes::EventId E = 0; E != N.numEvents(); ++E) {
        DenseBitSet With = N.setBits(S);
        With.set(E);
        std::optional<nes::SetId> Union = N.setIndex(With);
        EXPECT_EQ(Compiled.next(S, E), Union)
            << A.Name << ": set " << S << ", event " << E;
        Misses[A.Name] += !Union;
      }
  }
  EXPECT_GT(Misses["authentication"] + Misses["bandwidth-cap"], 0u)
      << "no app exercises the causal fallback";
}
