//===- tests/faults/FaultInjectionTest.cpp - Faults end to end ------------===//
//
// The harness acceptance tests: injected drops/dups/delays are counted
// and ledgered on both substrates, the ledger is byte-identical across
// repeat runs and shard counts, the Definition 6 checker passes exactly
// when the ledger excuses the damage, and the overload policies keep the
// accounting airtight (delivered + dropped == injected, silent loss 0)
// even with queue capacities clamped to nearly nothing.
//
//===----------------------------------------------------------------------===//

#include "faults/FaultPlan.h"
#include "faults/Injector.h"

#include "api/Api.h"
#include "apps/Programs.h"
#include "consistency/Check.h"
#include "engine/Engine.h"
#include "engine/TrafficGen.h"

#include <gtest/gtest.h>

#include <memory>

using namespace eventnet;

namespace {

api::Result<api::Compilation> compileFirewall() {
  return api::compile(api::CompileOptions()
                          .programSource(apps::firewallSource())
                          .topology(topo::firewallTopology()));
}

std::shared_ptr<faults::FaultPlan> linkPlan(uint64_t Seed, double DropP,
                                            double DupP, double DelayP) {
  auto P = std::make_shared<faults::FaultPlan>();
  P->Seed = Seed;
  P->Links.push_back({-1, -1, DropP, DupP, DelayP, 0, -1});
  return P;
}

} // namespace

class FaultBackends : public ::testing::TestWithParam<const char *> {};

TEST_P(FaultBackends, InjectedFaultsAreCountedAndExcused) {
  api::Result<api::Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();

  api::Result<api::RunReport> R =
      api::run(*C, GetParam(),
               api::RunOptions().seed(3).phases(8).pingsPerPhase(4).faults(
                   linkPlan(7, 0.08, 0.08, 0.1)));
  ASSERT_TRUE(R.ok()) << R.status().str();

  EXPECT_TRUE(R->Faults.Enabled);
  // With ~26% total fault probability over dozens of link crossings,
  // every content-addressed fault type fires for this (seed, workload).
  EXPECT_GT(R->Faults.Drops + R->Faults.Dups + R->Faults.Delays, 0u);
  EXPECT_EQ(R->Faults.LedgerEntries,
            R->Faults.Drops + R->Faults.Dups + R->Faults.Delays);
  EXPECT_FALSE(R->Faults.Ledger.empty());

  // Injected damage is excused, not silent: the audit stays clean and
  // the checker accepts the surviving trace.
  EXPECT_TRUE(R->Audit.Ok) << R->Audit.SilentLoss << " silently lost";
  ASSERT_TRUE(R->Checked);
  EXPECT_TRUE(R->Consistency.Correct) << R->Consistency.Reason;

  // The report renders the fault block in both formats.
  EXPECT_NE(R->str().find("faults:"), std::string::npos);
  EXPECT_NE(R->json().find("\"faults\": {\"enabled\": true"),
            std::string::npos);
}

TEST_P(FaultBackends, LedgerIsByteIdenticalAcrossRepeatRuns) {
  api::Result<api::Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();

  // Drop/dup/delay decisions are pure functions of (plan seed, site,
  // packet content), so two runs — whatever the thread interleavings —
  // must produce the same canonical ledger bytes.
  api::RunOptions O;
  O.seed(11).phases(6).pingsPerPhase(4).faults(linkPlan(21, 0.1, 0.1, 0.1));
  api::Result<api::RunReport> A = api::run(*C, GetParam(), O);
  api::Result<api::RunReport> B = api::run(*C, GetParam(), O);
  ASSERT_TRUE(A.ok() && B.ok());
  EXPECT_GT(A->Faults.LedgerEntries, 0u);
  EXPECT_EQ(A->Faults.Ledger, B->Faults.Ledger);
}

INSTANTIATE_TEST_SUITE_P(Backends, FaultBackends,
                         ::testing::Values("engine", "sim"));

TEST(FaultInjection, LedgerAgreesAcrossSubstratesAndShardCounts) {
  api::Result<api::Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();

  api::RunOptions O;
  O.seed(5).phases(6).pingsPerPhase(4).faults(linkPlan(13, 0.1, 0.1, 0.1));

  api::Result<api::RunReport> Sim = api::run(*C, "sim", O);
  ASSERT_TRUE(Sim.ok()) << Sim.status().str();

  // Link-fault verdicts are content-addressed, independent of substrate
  // and of where switches are placed: every configuration produces the
  // identical ledger.
  for (unsigned Shards : {1u, 2u, 4u}) {
    api::RunOptions OE = O;
    OE.shards(Shards);
    api::Result<api::RunReport> Eng = api::run(*C, "engine", OE);
    ASSERT_TRUE(Eng.ok()) << Eng.status().str();
    EXPECT_EQ(Eng->Faults.Ledger, Sim->Faults.Ledger)
        << "shards=" << Shards;
  }
}

TEST(FaultInjection, UnledgeredTruncationStillFails) {
  // The point of the ledger: the checker excuses exactly the damage the
  // plan owns. Discarding the ledger turns the same faulted trace into a
  // Definition 6 violation (a chain ends where the configuration says it
  // must continue).
  api::Result<api::Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();

  api::Result<api::RunReport> R =
      api::run(*C, "engine",
               api::RunOptions().seed(3).phases(8).pingsPerPhase(4).faults(
                   linkPlan(7, 0.2, 0.0, 0.0)));
  ASSERT_TRUE(R.ok()) << R.status().str();
  ASSERT_GT(R->Faults.Drops, 0u);
  ASSERT_TRUE(R->Checked);
  EXPECT_TRUE(R->Consistency.Correct) << R->Consistency.Reason;

  auto Naked = consistency::checkAgainstNes(R->Trace, C->topology(),
                                            C->structure());
  EXPECT_FALSE(Naked.Correct);
}

TEST(FaultInjection, MachineBackendRejectsPlans) {
  api::Result<api::Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();
  api::Result<api::RunReport> R = api::run(
      *C, "machine",
      api::RunOptions().faults(linkPlan(1, 0.1, 0.0, 0.0)));
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), api::Code::InvalidArgument);
}

TEST(FaultInjection, UnknownOverloadPolicyIsInvalidArgument) {
  api::Result<api::Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();
  api::Result<api::RunReport> R =
      api::run(*C, "engine", api::RunOptions().overload("spill-to-disk"));
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), api::Code::InvalidArgument);
  EXPECT_NE(R.status().message().find("spill-to-disk"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Overload policies under a clamped queue (the graceful-degradation half)
//===----------------------------------------------------------------------===//

class OverloadPolicies
    : public ::testing::TestWithParam<engine::OverloadPolicy> {};

TEST_P(OverloadPolicies, ClampedQueuesKeepExactAccounting) {
  // Queue capacity clamped to 2 via the plan while bulk traffic slams
  // the ring: whatever the policy does — block losslessly or shed with
  // tickets — every injected packet must end as a delivery or a counted
  // drop. Silent loss is the one unacceptable outcome.
  apps::App A = apps::ringApp(6, 3);
  api::Result<api::Compilation> C = api::compile(
      api::CompileOptions().programAst(A.Ast).topology(A.Topo));
  ASSERT_TRUE(C.ok()) << C.status().str();

  faults::FaultPlan Plan;
  Plan.Seed = 3;
  Plan.QueueCapacityClamp = 2;
  faults::Injector Inj(Plan);

  engine::EngineConfig Cfg;
  Cfg.NumShards = 3;
  Cfg.Overload = GetParam();
  Cfg.Faults = &Inj;
  engine::Engine E(C->structure(), A.Topo, Cfg);

  engine::TrafficGen G(A.Topo, 17);
  engine::Workload W = G.bulk(topo::HostH1, topo::HostH2, 200, 100);
  W += G.probe(topo::HostH1, topo::HostH2); // transition under pressure
  W += G.bulk(topo::HostH1, topo::HostH2, 200, 100);
  E.run(W);

  engine::Stats S = E.stats();
  EXPECT_EQ(S.PacketsInjected, 401u);
  EXPECT_EQ(S.PacketsDelivered + S.PacketsDropped, S.PacketsInjected)
      << "delivered " << S.PacketsDelivered << " + dropped "
      << S.PacketsDropped << " != injected (silent loss)";

  uint64_t ShardShed = 0;
  for (const engine::ShardStats &SS : S.Shards)
    ShardShed += SS.Shed;
  EXPECT_EQ(ShardShed, S.FaultSheds);
  if (GetParam() == engine::OverloadPolicy::Block) {
    // Block is lossless: bounded backoff then unbounded spill.
    EXPECT_EQ(S.FaultSheds, 0u);
    EXPECT_EQ(S.PacketsDelivered, 401u);
  } else {
    // The shedding policies must actually engage at this capacity.
    EXPECT_GT(S.FaultSheds, 0u);
    EXPECT_EQ(S.PacketsDropped, S.FaultSheds);
  }

  // Shed tickets excuse the truncated chains: Definition 6 still holds
  // on the surviving trace.
  faults::FaultLedger L = E.takeFaultLedger();
  consistency::FaultContext Ctx;
  Ctx.ExcusedEntries = std::move(L.ExcusedEntries);
  Ctx.DupEntries = std::move(L.DupEntries);
  auto R = consistency::checkAgainstNes(E.trace(), A.Topo, C->structure(),
                                        &Ctx);
  EXPECT_TRUE(R.Correct) << R.Reason;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, OverloadPolicies,
    ::testing::Values(engine::OverloadPolicy::Block,
                      engine::OverloadPolicy::ShedOldest,
                      engine::OverloadPolicy::ShedNewest),
    [](const ::testing::TestParamInfo<engine::OverloadPolicy> &I) {
      std::string N = engine::overloadPolicyName(I.param);
      for (char &C : N)
        if (C == '-')
          C = '_';
      return N;
    });

TEST(FaultInjection, OverloadPolicyNamesRoundTrip) {
  using engine::OverloadPolicy;
  for (OverloadPolicy P :
       {OverloadPolicy::Block, OverloadPolicy::ShedOldest,
        OverloadPolicy::ShedNewest}) {
    auto Parsed = engine::parseOverloadPolicy(engine::overloadPolicyName(P));
    ASSERT_TRUE(Parsed.has_value());
    EXPECT_EQ(*Parsed, P);
  }
  EXPECT_FALSE(engine::parseOverloadPolicy("drop-all").has_value());
}

TEST(FaultInjection, StallsAreCountedAndEachStormIsOneLedgerRecord) {
  // Stalls are timing-dependent: they perturb the schedule but stay out
  // of the deterministic ledger. A storm is a burst of re-sent update
  // deltas per detected event; the burst is one ledger record (event id,
  // repeat count) and its re-sends are counted.
  api::Result<api::Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();

  auto P = std::make_shared<faults::FaultPlan>();
  P->Seed = 2;
  P->Stalls.push_back({-1, 1, 50}); // stall every non-empty batch
  api::Result<api::RunReport> R = api::run(
      *C, "engine",
      api::RunOptions().seed(9).shards(2).phases(6).pingsPerPhase(4).faults(
          P));
  ASSERT_TRUE(R.ok()) << R.status().str();
  EXPECT_GT(R->Faults.Stalls, 0u);
  EXPECT_EQ(R->Faults.LedgerEntries, 0u); // stalls never enter the ledger
  ASSERT_TRUE(R->Checked);
  EXPECT_TRUE(R->Consistency.Correct) << R->Consistency.Reason;

  auto Storm = std::make_shared<faults::FaultPlan>();
  Storm->Seed = 2;
  Storm->CtrlStormRepeat = 3;
  api::Result<api::RunReport> RS = api::run(
      *C, "engine",
      api::RunOptions().seed(9).shards(2).phases(6).pingsPerPhase(4).faults(
          Storm));
  ASSERT_TRUE(RS.ok()) << RS.status().str();
  // The firewall app has one event; its detecting worker re-sends the
  // delta to each of the 2 shards CtrlStormRepeat (3) times and ledgers
  // the burst once.
  EXPECT_GT(RS->EventsDetected, 0u);
  EXPECT_EQ(RS->Faults.Storms, 3u * 2u * RS->EventsDetected);
  EXPECT_EQ(RS->Faults.LedgerEntries, RS->EventsDetected);
  ASSERT_TRUE(RS->Checked);
  EXPECT_TRUE(RS->Consistency.Correct) << RS->Consistency.Reason;
}
