//===- tests/consistency/StreamCheckTest.cpp - streaming vs batch ---------===//
//
// The streaming Definition 6 checker's contract: on any trace the batch
// checker can hold, the streaming verdict agrees with checkAgainstNes —
// ok ⇔ Correct, violated ⇒ !Correct, and inconclusive only when a window
// or ordering cut genuinely removed information. Property-tested over
// apps × seeds × shards, with and without fault ledgers, plus window
// boundary and out-of-ticket-order regression cases.
//
//===----------------------------------------------------------------------===//

#include "consistency/StreamCheck.h"

#include "api/Api.h"
#include "api/StreamCollect.h"
#include "apps/Programs.h"
#include "consistency/Check.h"
#include "engine/Engine.h"
#include "engine/TrafficGen.h"
#include "faults/FaultPlan.h"
#include "faults/Injector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

using namespace eventnet;
using namespace eventnet::engine;
using consistency::StreamOptions;
using consistency::StreamResult;
using consistency::StreamVerdict;

namespace {

struct Scenario {
  apps::App A;
  api::Result<api::Compilation> C;
  Workload W;
};

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

using Maker = Scenario (*)(uint64_t);
constexpr Maker AllMakers[] = {firewallScenario, authScenario, idsScenario,
                               bwcapScenario, ringScenario};

/// Runs the engine and returns trace + ledger-derived fault context.
struct RunOut {
  consistency::NetworkTrace Trace;
  consistency::FaultContext Ctx;
  bool HasCtx = false;
};

RunOut runEngine(Scenario &S, unsigned Shards,
                 faults::Injector *Inj = nullptr,
                 OverloadPolicy Policy = OverloadPolicy::Block) {
  EngineConfig Cfg;
  Cfg.NumShards = Shards;
  Cfg.Overload = Policy;
  Cfg.Faults = Inj;
  Engine E(S.C->structure(), S.A.Topo, Cfg);
  E.run(S.W);
  RunOut R;
  R.Trace = E.trace();
  faults::FaultLedger L = E.takeFaultLedger();
  R.Ctx.ExcusedEntries = std::move(L.ExcusedEntries);
  R.Ctx.DupEntries = std::move(L.DupEntries);
  R.HasCtx = !R.Ctx.empty();
  return R;
}

/// The differential property itself: streaming must be conclusive on a
/// trace the batch checker holds (default window dwarfs these traces),
/// and the verdicts must coincide.
void expectAgreement(const RunOut &R, const Scenario &S,
                     const std::string &Tag) {
  const consistency::FaultContext *Ctx = R.HasCtx ? &R.Ctx : nullptr;
  auto Batch = consistency::checkAgainstNes(R.Trace, S.A.Topo,
                                            S.C->structure(), Ctx);
  StreamResult Stream = consistency::streamCheckTrace(
      R.Trace, S.A.Topo, S.C->structure(), Ctx);
  EXPECT_NE(Stream.Verdict, StreamVerdict::Inconclusive)
      << Tag << ": inconclusive (" << Stream.Reason
      << ") on a fully-held trace";
  EXPECT_EQ(Stream.ok(), Batch.Correct)
      << Tag << ": stream=" << streamVerdictName(Stream.Verdict) << " ("
      << Stream.Reason << ") batch=" << (Batch.Correct ? "ok" : "fail")
      << " (" << Batch.Reason << ")";
  EXPECT_EQ(Stream.Stats.EntriesChecked, R.Trace.size()) << Tag;
}

} // namespace

class StreamDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamDifferential, AgreesWithBatchAllAppsAllShardCounts) {
  for (Maker Make : AllMakers) {
    for (unsigned Shards : {1u, 2u, 4u}) {
      Scenario S = Make(GetParam());
      ASSERT_TRUE(S.C.ok()) << S.A.Name << ": " << S.C.status().str();
      RunOut R = runEngine(S, Shards);
      expectAgreement(R, S,
                      S.A.Name + " shards=" + std::to_string(Shards));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamDifferential,
                         ::testing::Values(1, 7, 13, 42));

namespace {

faults::FaultPlan namedPlan(const std::string &Name) {
  faults::FaultPlan P;
  P.Seed = 19;
  if (Name == "drop")
    P.Links.push_back({-1, -1, 0.1, 0, 0, 0, -1});
  else if (Name == "dup")
    P.Links.push_back({-1, -1, 0, 0.1, 0, 0, -1});
  else if (Name == "delay")
    P.Links.push_back({-1, -1, 0, 0, 0.15, 0, -1});
  else { // "mixed"
    P.Links.push_back({-1, -1, 0.05, 0.05, 0.1, 0, -1});
    P.Stalls.push_back({-1, 8, 100});
    P.QueueCapacityClamp = 4;
    P.CtrlStormRepeat = 2;
  }
  return P;
}

} // namespace

/// With fault ledgers: excused prefixes and pruned dup subtrees must be
/// honored identically by both checkers.
class StreamFaultDifferential
    : public ::testing::TestWithParam<
          std::tuple<const char *, OverloadPolicy>> {};

TEST_P(StreamFaultDifferential, AgreesWithBatchUnderLedgeredFaults) {
  auto [PlanName, Policy] = GetParam();
  faults::FaultPlan Plan = namedPlan(PlanName);
  faults::Injector Inj(Plan);
  for (Maker Make : {firewallScenario, ringScenario}) {
    Scenario S = Make(23);
    ASSERT_TRUE(S.C.ok()) << S.A.Name << ": " << S.C.status().str();
    RunOut R = runEngine(S, 3, &Inj, Policy);
    expectAgreement(R, S,
                    S.A.Name + " plan=" + PlanName + " policy=" +
                        overloadPolicyName(Policy));
  }
}

INSTANTIATE_TEST_SUITE_P(
    PlansByPolicy, StreamFaultDifferential,
    ::testing::Combine(::testing::Values("drop", "dup", "delay", "mixed"),
                       ::testing::Values(OverloadPolicy::Block,
                                         OverloadPolicy::ShedOldest)),
    [](const ::testing::TestParamInfo<
        std::tuple<const char *, OverloadPolicy>> &I) {
      std::string N = std::string(std::get<0>(I.param)) + "_" +
                      overloadPolicyName(std::get<1>(I.param));
      for (char &C : N)
        if (C == '-')
          C = '_';
      return N;
    });

namespace {

/// Each engine shard keeps one trace log with two consumers: the stream
/// hand-off and the merge at finish(). Runs \p S with both on, drains
/// every stream item after the run, and checks that the two saw the same
/// records: entries one to one with trace() and traceTags(), duplicate
/// marks with the ledger's DupEntries, excusals with its ExcusedEntries.
void expectLogConsumersAgree(const Scenario &S, unsigned Shards,
                             faults::Injector *Inj, OverloadPolicy Policy,
                             const std::string &Tag) {
  EngineConfig Cfg;
  Cfg.NumShards = Shards;
  Cfg.Overload = Policy;
  Cfg.Faults = Inj;
  Cfg.RecordTrace = true;
  Cfg.StreamTrace = true;
  Engine E(S.C->structure(), S.A.Topo, Cfg);
  E.run(S.W);
  std::vector<Engine::StreamItem> Items;
  E.drainTraceStream(Items);
  ASSERT_EQ(E.streamLagShed(), 0u) << Tag;

  std::vector<const Engine::StreamItem *> Entries;
  std::vector<uint64_t> Excusals;
  for (const Engine::StreamItem &It : Items) {
    if (It.K == Engine::StreamItem::Entry)
      Entries.push_back(&It);
    else
      Excusals.push_back(It.Ticket);
  }
  std::sort(Entries.begin(), Entries.end(),
            [](const Engine::StreamItem *A, const Engine::StreamItem *B) {
              return A->Ticket < B->Ticket;
            });
  const std::vector<consistency::TraceEntry> &Es = E.trace().entries();
  ASSERT_EQ(Entries.size(), Es.size()) << Tag;
  ASSERT_EQ(E.traceTags().size(), Es.size()) << Tag;

  std::unordered_map<uint64_t, int> IndexOf;
  std::vector<int> DupAt;
  for (size_t I = 0; I != Es.size(); ++I) {
    const Engine::StreamItem &It = *Entries[I];
    int Parent = -1;
    if (It.Parent >= 0) {
      auto P = IndexOf.find(static_cast<uint64_t>(It.Parent));
      ASSERT_NE(P, IndexOf.end()) << Tag << ": entry " << I << "'s parent";
      Parent = P->second;
    }
    EXPECT_TRUE(It.Lp == Es[I].Lp) << Tag << ": entry " << I;
    EXPECT_EQ(It.IsDelivery, Es[I].IsDelivery) << Tag << ": entry " << I;
    EXPECT_EQ(Parent, Es[I].Parent) << Tag << ": entry " << I;
    EXPECT_EQ(It.Tag, E.traceTags()[I]) << Tag << ": entry " << I;
    if (It.IsDup)
      DupAt.push_back(static_cast<int>(I));
    IndexOf.emplace(It.Ticket, static_cast<int>(I));
  }

  std::vector<int> ExcusedAt;
  for (uint64_t T : Excusals) {
    auto At = IndexOf.find(T);
    ASSERT_NE(At, IndexOf.end()) << Tag << ": excused ticket " << T;
    ExcusedAt.push_back(At->second);
  }
  std::sort(ExcusedAt.begin(), ExcusedAt.end());
  ExcusedAt.erase(std::unique(ExcusedAt.begin(), ExcusedAt.end()),
                  ExcusedAt.end());
  const faults::FaultLedger &L = E.faultLedger();
  EXPECT_EQ(DupAt, L.DupEntries) << Tag;
  EXPECT_EQ(ExcusedAt, L.ExcusedEntries) << Tag;
}

} // namespace

TEST(StreamCheck, LogConsumersAgreeUnderMixedFaults) {
  faults::FaultPlan Plan = namedPlan("mixed");
  faults::Injector Inj(Plan);
  for (Maker Make : {firewallScenario, ringScenario}) {
    Scenario S = Make(23);
    ASSERT_TRUE(S.C.ok()) << S.A.Name << ": " << S.C.status().str();
    for (OverloadPolicy Policy :
         {OverloadPolicy::Block, OverloadPolicy::ShedOldest})
      expectLogConsumersAgree(S, 3, &Inj, Policy,
                              S.A.Name + " plan=mixed policy=" +
                                  overloadPolicyName(Policy));
  }
}

/// The FaultInjection OverloadPolicies shape: a ring clamped to two
/// slots sheds hundreds of messages per run, so the producer-written shed
/// excusals reach both consumers too.
TEST(StreamCheck, LogConsumersAgreeUnderShedding) {
  Scenario S{apps::ringApp(6, 3), {}, {}};
  S.C = compileApp(S.A);
  ASSERT_TRUE(S.C.ok()) << S.C.status().str();
  TrafficGen G(S.A.Topo, 17);
  S.W = G.bulk(topo::HostH1, topo::HostH2, 200, 100);
  S.W += G.probe(topo::HostH1, topo::HostH2);
  S.W += G.bulk(topo::HostH1, topo::HostH2, 200, 100);
  faults::FaultPlan Plan;
  Plan.Seed = 3;
  Plan.QueueCapacityClamp = 2;
  faults::Injector Inj(Plan);
  for (OverloadPolicy Policy :
       {OverloadPolicy::ShedOldest, OverloadPolicy::ShedNewest})
    expectLogConsumersAgree(S, 3, &Inj, Policy, overloadPolicyName(Policy));
}

/// Agreement on the *violated* side: truncating a chain without an
/// excusal must fail both checkers the same way.
TEST(StreamCheck, TruncatedChainViolatesLikeBatch) {
  Scenario S = firewallScenario(3);
  ASSERT_TRUE(S.C.ok()) << S.C.status().str();
  RunOut R = runEngine(S, 1);
  ASSERT_GT(R.Trace.size(), 4u);

  // Drop the last entry of some chain: rebuild the trace without the
  // final delivery entry (and anything parented on it).
  consistency::NetworkTrace Cut;
  int LastDelivery = -1;
  for (size_t I = 0; I != R.Trace.size(); ++I)
    if (R.Trace.entries()[I].IsDelivery)
      LastDelivery = (int)I;
  ASSERT_GE(LastDelivery, 0);
  for (size_t I = 0; I != R.Trace.size(); ++I) {
    if ((int)I == LastDelivery)
      continue;
    consistency::TraceEntry E = R.Trace.entries()[I];
    ASSERT_NE(E.Parent, LastDelivery) << "delivery had a child";
    if (E.Parent > LastDelivery)
      --E.Parent; // reindex past the removed entry
    Cut.append(std::move(E));
  }

  auto Batch =
      consistency::checkAgainstNes(Cut, S.A.Topo, S.C->structure());
  StreamResult Stream =
      consistency::streamCheckTrace(Cut, S.A.Topo, S.C->structure());
  EXPECT_FALSE(Batch.Correct);
  EXPECT_TRUE(Stream.violated())
      << streamVerdictName(Stream.Verdict) << ": " << Stream.Reason;
}

/// Window-eviction boundary: a window far smaller than the live set must
/// degrade to inconclusive(window_exceeded) — never to violated, and
/// never to a silent pass.
TEST(StreamCheck, TinyWindowIsInconclusiveNeverViolated) {
  Scenario S = ringScenario(5);
  ASSERT_TRUE(S.C.ok()) << S.C.status().str();
  RunOut R = runEngine(S, 2);
  ASSERT_GT(R.Trace.size(), 32u);

  StreamOptions O;
  O.Window = 4;
  StreamResult Res = consistency::streamCheckTrace(
      R.Trace, S.A.Topo, S.C->structure(),
      R.HasCtx ? &R.Ctx : nullptr, O);
  EXPECT_EQ(Res.Verdict, StreamVerdict::Inconclusive)
      << streamVerdictName(Res.Verdict) << ": " << Res.Reason;
  EXPECT_NE(Res.Reason.find("window_exceeded"), std::string::npos)
      << Res.Reason;
  EXPECT_LE(Res.Stats.PeakWindow, 4u + 1u); // cap enforced per commit
}

/// The boundary just above: a window that fits the whole trace behaves
/// exactly like the default.
TEST(StreamCheck, ExactFitWindowStaysConclusive) {
  Scenario S = firewallScenario(11);
  ASSERT_TRUE(S.C.ok()) << S.C.status().str();
  RunOut R = runEngine(S, 1);

  StreamOptions O;
  O.Window = R.Trace.size(); // never exceeded: nothing is force-cut
  StreamResult Res = consistency::streamCheckTrace(
      R.Trace, S.A.Topo, S.C->structure(),
      R.HasCtx ? &R.Ctx : nullptr, O);
  EXPECT_TRUE(Res.ok()) << streamVerdictName(Res.Verdict) << ": "
                        << Res.Reason;
  EXPECT_GT(Res.Stats.ChainsRetired, 0u);
}

/// A tiny quiet horizon cuts in-flight chains: inconclusive, never a
/// spurious violation on a healthy trace.
TEST(StreamCheck, TinyQuietHorizonNeverViolatesHealthyTrace) {
  Scenario S = ringScenario(17);
  ASSERT_TRUE(S.C.ok()) << S.C.status().str();
  RunOut R = runEngine(S, 4);

  StreamOptions O;
  O.QuietHorizon = 2;
  StreamResult Res = consistency::streamCheckTrace(
      R.Trace, S.A.Topo, S.C->structure(),
      R.HasCtx ? &R.Ctx : nullptr, O);
  EXPECT_FALSE(Res.violated()) << Res.Reason;
}

/// Out-of-ticket-order regression: an entry surfacing *behind* the
/// committed frontier (a watermark lie) degrades the verdict instead of
/// corrupting checker state or passing silently.
TEST(StreamCheck, OutOfOrderCommitIsInconclusive) {
  Scenario S = firewallScenario(29);
  ASSERT_TRUE(S.C.ok()) << S.C.status().str();
  RunOut R = runEngine(S, 1);
  const auto &Es = R.Trace.entries();
  ASSERT_GT(Es.size(), 6u);

  consistency::StreamChecker C(S.C->structure(), S.A.Topo);
  // Feed the whole trace, advance past it, then deliver a stale ticket
  // behind the committed frontier: a watermark lie, not a trace defect.
  for (size_t I = 0; I != Es.size(); ++I)
    C.feedEntry(I, Es[I].Parent, Es[I].Lp, Es[I].IsDelivery);
  C.advance(Es.size() - 1);
  C.feedEntry(3, Es[3].Parent, Es[3].Lp, Es[3].IsDelivery);
  StreamResult Res = C.finish();
  EXPECT_EQ(Res.Verdict, StreamVerdict::Inconclusive)
      << streamVerdictName(Res.Verdict) << ": " << Res.Reason;
  EXPECT_NE(Res.Reason.find("out_of_order"), std::string::npos)
      << streamVerdictName(Res.Verdict) << ": " << Res.Reason;
}

/// Embedder-reported causes (conditions the checker cannot see itself)
/// force the verdict off "ok" even when everything the checker saw was
/// clean.
TEST(StreamCheck, NotedCauseDegradesCleanRun) {
  Scenario S = authScenario(7);
  ASSERT_TRUE(S.C.ok()) << S.C.status().str();
  RunOut R = runEngine(S, 1);
  const auto &Es = R.Trace.entries();

  consistency::StreamChecker C(S.C->structure(), S.A.Topo);
  for (size_t I = 0; I != Es.size(); ++I)
    C.feedEntry(I, Es[I].Parent, Es[I].Lp, Es[I].IsDelivery);
  C.noteCause("trace_dropped");
  StreamResult Res = C.finish();
  EXPECT_EQ(Res.Verdict, StreamVerdict::Inconclusive);
  EXPECT_NE(Res.Reason.find("trace_dropped"), std::string::npos)
      << Res.Reason;
}

/// Peak accounting is populated and bounded by the window: the soak
/// report's memory attestation depends on these counters being real.
TEST(StreamCheck, PeakAccountingTracksWindow) {
  Scenario S = ringScenario(13);
  ASSERT_TRUE(S.C.ok()) << S.C.status().str();
  RunOut R = runEngine(S, 2);

  StreamOptions O;
  O.Window = 64;
  StreamResult Res = consistency::streamCheckTrace(
      R.Trace, S.A.Topo, S.C->structure(),
      R.HasCtx ? &R.Ctx : nullptr, O);
  EXPECT_GT(Res.Stats.PeakWindow, 0u);
  EXPECT_LE(Res.Stats.PeakWindow, 65u);
  EXPECT_GT(Res.Stats.PeakResidentBytes, 0u);
  EXPECT_GT(Res.Stats.EntriesChecked, 0u);
  EXPECT_EQ(Res.Stats.EntriesIngested, R.Trace.size());
}

//===----------------------------------------------------------------------===//
// Live collector path (api::run with StreamingCheck)
//===----------------------------------------------------------------------===//

/// End-to-end through the façade: the engine's per-shard stream sink,
/// the collector thread's watermark protocol, and the checker — in
/// differential mode, so the online verdict is compared against the
/// batch replay of the very same run. Both engine-based backends run the
/// same engine set-up, so both must agree.
TEST(StreamCheckApi, LiveCollectorDifferentialAgrees) {
  for (const char *Backend : {"engine", "net"}) {
    for (uint64_t Seed : {1ull, 9ull, 23ull}) {
      Scenario S = ringScenario(Seed); // for the compilation only
      ASSERT_TRUE(S.C.ok()) << S.C.status().str();
      api::RunOptions O;
      O.seed(Seed)
          .shards(4)
          .workload("churn")
          .phases(4)
          .pingsPerPhase(16)
          .streamingCheck(true)
          .checkDifferential(true);
      auto R = api::run(*S.C, Backend, O);
      ASSERT_TRUE(R.ok()) << Backend << ": " << R.status().str();
      EXPECT_TRUE(R->StreamCheck.Enabled) << Backend;
      EXPECT_TRUE(R->Checked) << Backend;
      EXPECT_TRUE(R->StreamCheck.DifferentialRan) << Backend;
      EXPECT_FALSE(R->StreamCheck.Result.violated())
          << Backend << " seed " << Seed << ": "
          << R->StreamCheck.Result.Reason;
      EXPECT_TRUE(R->StreamCheck.DifferentialMatched)
          << Backend << " seed " << Seed << ": stream="
          << streamVerdictName(R->StreamCheck.Result.Verdict) << " ("
          << R->StreamCheck.Result.Reason << ") batch="
          << (R->Consistency.Correct ? "ok" : "fail");
      // Every logged entry reached the checker through the stream.
      EXPECT_EQ(R->StreamCheck.Result.Stats.EntriesChecked, R->Trace.size())
          << Backend << " seed " << Seed;
    }
  }
}

/// Streaming-only mode is the whole point of the checker: no merged
/// trace is retained, the batch replay is skipped (an empty trace would
/// pass vacuously), and the online verdict stands alone.
TEST(StreamCheckApi, StreamingOnlyRetainsNoTrace) {
  Scenario S = firewallScenario(21);
  ASSERT_TRUE(S.C.ok()) << S.C.status().str();
  api::RunOptions O;
  O.seed(21).shards(2).streamingCheck(true);
  auto R = api::run(*S.C, "engine", O);
  ASSERT_TRUE(R.ok()) << R.status().str();
  EXPECT_TRUE(R->StreamCheck.Enabled);
  EXPECT_FALSE(R->Checked);
  EXPECT_FALSE(R->StreamCheck.DifferentialRan);
  EXPECT_EQ(R->Trace.size(), 0u);
  EXPECT_FALSE(R->StreamCheck.Result.violated())
      << R->StreamCheck.Result.Reason;
  EXPECT_GT(R->StreamCheck.Result.Stats.EntriesChecked, 0u);
  EXPECT_GT(R->StreamCheck.Result.Stats.PeakResidentBytes, 0u);
}

/// A fault plan's ledger must flow through the stream (excusals and dup
/// markers ride the per-shard logs, not the merged-trace remap).
TEST(StreamCheckApi, LiveCollectorAgreesUnderFaults) {
  Scenario S = firewallScenario(23);
  ASSERT_TRUE(S.C.ok()) << S.C.status().str();
  auto Plan = std::make_shared<faults::FaultPlan>(namedPlan("mixed"));
  for (const char *Backend : {"engine", "net"}) {
    api::RunOptions O;
    O.seed(23)
        .shards(2)
        .faults(Plan)
        .streamingCheck(true)
        .checkDifferential(true);
    auto R = api::run(*S.C, Backend, O);
    ASSERT_TRUE(R.ok()) << Backend << ": " << R.status().str();
    EXPECT_TRUE(R->StreamCheck.DifferentialRan) << Backend;
    EXPECT_FALSE(R->StreamCheck.Result.violated())
        << Backend << ": " << R->StreamCheck.Result.Reason;
    EXPECT_TRUE(R->StreamCheck.DifferentialMatched)
        << Backend
        << ": stream=" << streamVerdictName(R->StreamCheck.Result.Verdict)
        << " (" << R->StreamCheck.Result.Reason << ") batch="
        << (R->Consistency.Correct ? "ok" : "fail");
  }
}

/// A collector that lags the data path must cost counted sheds and a
/// stream_backlog inconclusive — never a blocked worker, never O(horizon)
/// stream memory, and never a violation fabricated from the chains the
/// gap truncated. The collector is attached only after the run so every
/// item beyond StreamBufCap is deterministically shed.
TEST(StreamCheckApi, LaggingCollectorShedsAndDegrades) {
  Scenario S = firewallScenario(31);
  ASSERT_TRUE(S.C.ok()) << S.C.status().str();
  EngineConfig Cfg;
  Cfg.NumShards = 2;
  Cfg.RecordTrace = false;
  Cfg.StreamTrace = true;
  Cfg.StreamBufCap = 64; // far below the workload's stream volume
  Engine E(S.C->structure(), S.A.Topo, Cfg);
  TrafficGen G(S.A.Topo, 31);
  Workload W = G.bulk(topo::HostH1, topo::HostH4, 2048, 512);
  E.run(W);
  ASSERT_GT(E.streamLagShed(), 0u)
      << "workload too small to overflow a 64-entry hand-off";
  Stats St = E.stats();
  api::detail::StreamCollector Col(E, S.C->structure(), S.A.Topo, {});
  StreamResult R = Col.finalize();
  EXPECT_GT(Col.lagShed(), 0u);
  EXPECT_FALSE(R.violated()) << R.Reason;
  EXPECT_EQ(R.Verdict, StreamVerdict::Inconclusive)
      << streamVerdictName(R.Verdict);
  EXPECT_NE(R.Reason.find("stream_backlog"), std::string::npos) << R.Reason;
}
