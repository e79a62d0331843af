//===- tests/engine/ClassifierPropertyTest.cpp - Classifier lowering ------===//
//
// Property tests for the final lowering (flattened FDD -> contiguous
// classifier program):
//
//  - agreement: on random tables x random packets (and on every table
//    the compiler produces for the case-study apps), the classifier
//    program, the flattened-FDD walk, the bucket scan, and the reference
//    Table::apply all yield the same action set;
//  - op coverage: contiguous value ranges lower to dense jump tables,
//    scattered ones to sorted-value binary search, and both execute
//    correctly;
//  - zero allocation: once the recycled PacketBuf is warm, steady-state
//    classifier lookups perform no heap allocations (counted by a
//    replacement global operator new);
//  - zero freelist growth: a full engine run on the classifier path
//    never grows its recycled egress/output pools — they are pre-sized
//    from EngineConfig::BatchSize at construction;
//  - allocation-free forwarding: a warm engine performs no heap
//    allocations per injected packet or echo reply, on the injecting
//    thread or on the workers, and neither does a fresh engine whose
//    rings are still on their first lap;
//  - allocation-free updates: neither does a fresh engine whose storm
//    fires an event (the detection, its lane deltas and every switch's
//    register transition).
//
//===----------------------------------------------------------------------===//

#include "engine/MatchPipeline.h"

#include "apps/Programs.h"
#include "engine/Engine.h"
#include "flowtable/FlowTable.h"
#include "nes/Pipeline.h"
#include "runtime/Guarded.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

using namespace eventnet;
using namespace eventnet::engine;
using eventnet::flowtable::Rule;
using eventnet::flowtable::Table;
using eventnet::netkat::Packet;

//===----------------------------------------------------------------------===//
// Counting allocator hook
//===----------------------------------------------------------------------===//

// Every heap allocation in this binary bumps GAllocs; the zero-alloc
// test snapshots the counter around a warmed lookup loop. The hooks
// forward to malloc/free, so sanitizer interceptors still see every
// allocation underneath.
static std::atomic<uint64_t> GAllocs{0};

static void *countedAlloc(size_t Sz) {
  GAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Sz ? Sz : 1))
    return P;
  throw std::bad_alloc();
}

void *operator new(size_t Sz) { return countedAlloc(Sz); }
void *operator new[](size_t Sz) { return countedAlloc(Sz); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }

namespace {

//===----------------------------------------------------------------------===//
// Helpers (canonical output sets, random tables/packets)
//===----------------------------------------------------------------------===//

std::vector<Packet> canon(std::vector<Packet> V) {
  std::sort(V.begin(), V.end());
  V.erase(std::unique(V.begin(), V.end()), V.end());
  return V;
}

std::vector<Packet> classifierOut(const MatchPipeline &M, const Packet &P) {
  std::vector<Packet> Out;
  M.applyClassifier(P, Out);
  return canon(Out);
}

std::vector<Packet> fddOut(const MatchPipeline &M, const Packet &P) {
  std::vector<Packet> Out;
  M.apply(P, Out);
  return canon(Out);
}

std::vector<Packet> scanOut(const MatchPipeline &M, const Packet &P) {
  std::vector<Packet> Out;
  M.applyScan(P, Out);
  return canon(Out);
}

Packet randomPacket(Rng &R, const std::vector<FieldId> &Fields,
                    int64_t MaxVal) {
  Packet P;
  P.setLoc({static_cast<SwitchId>(R.range(1, 4)),
            static_cast<PortId>(R.range(1, 4))});
  for (FieldId F : Fields)
    if (R.chance(0.7))
      P.set(F, R.range(0, MaxVal));
  return P;
}

/// A random table whose constrained values are drawn from [0, MaxVal] —
/// small MaxVal yields contiguous runs (dense ops), large MaxVal yields
/// scattered values (sparse ops).
Table randomTable(Rng &R, const std::vector<FieldId> &Fields,
                  int64_t MaxVal, unsigned MaxRules) {
  Table T;
  unsigned NumRules = static_cast<unsigned>(R.range(0, MaxRules));
  for (unsigned I = 0; I != NumRules; ++I) {
    Rule Ru;
    Ru.Priority = static_cast<int>(R.range(0, 9));
    for (FieldId F : Fields)
      if (R.chance(0.4))
        Ru.Pattern.require(F, R.range(0, MaxVal));
    unsigned NumActs = static_cast<unsigned>(R.range(0, 2)); // 0 = drop
    for (unsigned A = 0; A != NumActs; ++A) {
      std::vector<std::pair<FieldId, Value>> Writes;
      Writes.push_back({FieldPt, R.range(1, 4)});
      if (R.chance(0.5))
        Writes.push_back({Fields[R.below(Fields.size())], R.range(0, 3)});
      Ru.Actions.push_back(flowtable::normalizeActionSeq(Writes));
    }
    T.add(std::move(Ru));
  }
  return T;
}

void expectAllPathsAgree(const Table &T, const MatchPipeline &M,
                         const Packet &P, const char *What) {
  auto Ref = canon(T.apply(P));
  ASSERT_EQ(classifierOut(M, P), Ref)
      << What << ": classifier diverged on " << P.str() << "\ntable:\n"
      << T.str();
  ASSERT_EQ(fddOut(M, P), Ref) << What << ": FDD walk diverged on "
                               << P.str() << "\ntable:\n" << T.str();
  ASSERT_EQ(scanOut(M, P), Ref) << What << ": bucket scan diverged on "
                                << P.str() << "\ntable:\n" << T.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// Agreement properties
//===----------------------------------------------------------------------===//

TEST(ClassifierProperty, EmptyTableDrops) {
  Table T;
  MatchPipeline M(T);
  std::vector<Packet> Out;
  M.applyClassifier(netkat::makePacket({1, 1}, {}), Out);
  EXPECT_TRUE(Out.empty());
  EXPECT_GT(M.classifier().codeWords(), 0u); // the drop leaf
}

TEST(ClassifierProperty, RandomTablesAllPathsAgree) {
  Rng R(4242);
  std::vector<FieldId> Fields = {fieldOf("ip_dst"), fieldOf("kind"),
                                 fieldOf("__tag")};
  for (int Iter = 0; Iter != 200; ++Iter) {
    Table T = randomTable(R, Fields, /*MaxVal=*/3, /*MaxRules=*/12);
    MatchPipeline M(T);
    for (int I = 0; I != 25; ++I)
      expectAllPathsAgree(T, M, randomPacket(R, Fields, 3), "random");
  }
}

TEST(ClassifierProperty, ScatteredValuesUseSparseOpsAndAgree) {
  Rng R(99);
  std::vector<FieldId> Fields = {fieldOf("ip_dst"), fieldOf("kind")};
  size_t SawSparse = 0;
  for (int Iter = 0; Iter != 50; ++Iter) {
    // Values scattered over a 1e9 range: dense tables would be absurd,
    // so the lowering must pick binary-search ops.
    Table T = randomTable(R, Fields, /*MaxVal=*/1000000000, 16);
    MatchPipeline M(T);
    SawSparse += M.classifier().numOps() - M.classifier().numDenseOps();
    for (int I = 0; I != 20; ++I) {
      // Mix misses (random values) and hits (values constrained by some
      // rule) so the binary search's equal path is exercised too.
      Packet P = randomPacket(R, Fields, 1000000000);
      expectAllPathsAgree(T, M, P, "sparse");
    }
    for (const Rule &Ru : T.rules())
      for (const auto &[F, V] : Ru.Pattern.constraints()) {
        Packet P = randomPacket(R, Fields, 4);
        P.set(F, V);
        expectAllPathsAgree(T, M, P, "sparse-hit");
      }
  }
  EXPECT_GT(SawSparse, 0u) << "scattered tables never produced sparse ops";
}

TEST(ClassifierProperty, ContiguousValuesUseDenseOpsAndAgree) {
  FieldId Dst = fieldOf("ip_dst");
  Table T;
  // 32 contiguous ip_dst values on one field: a canonical lo-chain the
  // lowering should turn into one dense jump table.
  for (int I = 0; I != 32; ++I) {
    Rule Ru;
    Ru.Priority = 1;
    Ru.Pattern.require(Dst, I);
    Ru.Actions = {flowtable::normalizeActionSeq({{FieldPt, (I % 4) + 1}})};
    T.add(Ru);
  }
  MatchPipeline M(T);
  EXPECT_GT(M.classifier().numDenseOps(), 0u);
  Rng R(7);
  for (int I = 0; I != 200; ++I) {
    Packet P = netkat::makePacket(
        {static_cast<SwitchId>(R.range(1, 4)),
         static_cast<PortId>(R.range(1, 4))},
        {{Dst, R.range(-4, 40)}}); // in-range hits and out-of-range misses
    expectAllPathsAgree(T, M, P, "dense");
  }
}

TEST(ClassifierProperty, CompiledAppTablesAgree) {
  Rng R(17);
  for (const apps::App &A : apps::caseStudyApps()) {
    api::Result<nes::CompiledProgram> CR =
        A.Source.empty() ? nes::compileAst(A.Ast, A.Topo)
                         : nes::compileSource(A.Source, A.Topo);
    ASSERT_TRUE(CR.ok()) << A.Name << ": " << CR.status().str();
    nes::CompiledProgram &C = *CR;

    std::vector<FieldId> Fields = {apps::ipDstField(), apps::probeField(),
                                   runtime::tagField()};
    for (nes::SetId S = 0; S != C.N->numSets(); ++S)
      for (SwitchId Sw : A.Topo.switches()) {
        const Table &T = C.N->configOf(S).tableFor(Sw);
        MatchPipeline M(T);
        for (int I = 0; I != 30; ++I)
          expectAllPathsAgree(T, M, randomPacket(R, Fields, 3), A.Name.c_str());
      }
    // The tag-guarded union table exercises multi-field chains.
    topo::Configuration G = runtime::buildGuardedConfig(*C.N, A.Topo);
    for (SwitchId Sw : A.Topo.switches()) {
      const Table &T = G.tableFor(Sw);
      MatchPipeline M(T);
      for (int I = 0; I != 30; ++I) {
        Packet P = randomPacket(R, Fields, 3);
        P.set(runtime::tagField(),
              R.range(0, static_cast<int64_t>(C.N->numSets()) - 1));
        expectAllPathsAgree(T, M, P, "guarded");
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Zero allocation on the warmed fast path
//===----------------------------------------------------------------------===//

TEST(ClassifierProperty, WarmLookupsAllocateNothing) {
  Rng R(123);
  std::vector<FieldId> Fields = {fieldOf("ip_dst"), fieldOf("kind")};
  Table T = randomTable(R, Fields, 3, 12);
  while (T.size() == 0) // ensure some outputs exist
    T = randomTable(R, Fields, 3, 12);
  MatchPipeline M(T);

  std::vector<Packet> Pkts;
  for (int I = 0; I != 64; ++I)
    Pkts.push_back(randomPacket(R, Fields, 3));

  PacketBuf Buf;
  // Warm: the buffer grows to the table's maximal multicast width and
  // every slot's field vector reaches its steady capacity.
  for (const Packet &P : Pkts) {
    Buf.reset();
    M.applyClassifier(P, Buf);
  }
  uint64_t GrownWarm = Buf.grownCount();

  uint64_t Before = GAllocs.load(std::memory_order_relaxed);
  for (int Round = 0; Round != 10; ++Round)
    for (const Packet &P : Pkts) {
      Buf.reset();
      M.applyClassifier(P, Buf);
    }
  uint64_t After = GAllocs.load(std::memory_order_relaxed);

  EXPECT_EQ(After - Before, 0u)
      << "steady-state classifier lookups allocated";
  EXPECT_EQ(Buf.grownCount(), GrownWarm) << "PacketBuf grew after warmup";
}

TEST(ClassifierProperty, EngineFreelistsNeverGrow) {
  // The engine pre-sizes every recycled pool (classifier outputs,
  // per-target egress buffers, the self-delivery swap space) from
  // EngineConfig::BatchSize, so a steady-state run reports zero freelist
  // growth — from the very first packet, not just "once warm".
  apps::App A = apps::ringApp(8, 4);
  api::Result<nes::CompiledProgram> C = nes::compileAst(A.Ast, A.Topo);
  ASSERT_TRUE(C.ok()) << C.status().str();

  for (unsigned Shards : {1u, 2u, 4u}) {
    engine::EngineConfig Cfg;
    Cfg.NumShards = Shards;
    Cfg.BatchSize = 32;
    Cfg.RecordTrace = false; // the throughput-benchmark shape
    Cfg.EchoReplies = false;
    engine::Engine E(*C->N, A.Topo, Cfg);
    engine::TrafficGen G(A.Topo, 3);
    E.run(G.bulk(topo::HostH1, topo::HostH2, 2000, 500));

    engine::Stats S = E.stats();
    ASSERT_GT(S.PacketsDelivered, 0u);
    for (const engine::ShardStats &SS : S.Shards)
      EXPECT_EQ(SS.FreelistGrowth, 0u) << "shards=" << Shards;
  }
}

TEST(ClassifierProperty, EngineSteadyStateAllocatesNothing) {
  // Every buffer a packet passes through is recycled: the injection
  // slots, the ring cells (plain records), the dequeue batch, the egress
  // buffers and the classifier outputs, and an echo reply's header is
  // rebuilt in its recycled egress slot. So phases of traffic on a warm
  // engine allocate nothing anywhere in the process — not a phase larger
  // than any before it, because injectBatch stages at most BatchSize
  // injections per shard before handing them over, and not a phase of
  // echo requests in both directions, whose replies the hosts send
  // back. Trace recording allocates per packet by design.
  apps::App A = apps::ringApp(16, 8);
  api::Result<nes::CompiledProgram> C = nes::compileAst(A.Ast, A.Topo);
  ASSERT_TRUE(C.ok()) << C.status().str();
  engine::SwitchIndex Idx(A.Topo);
  uint32_t D1 = Idx.denseOf(A.Topo.hostLoc(topo::HostH1).Sw);
  uint32_t D2 = Idx.denseOf(A.Topo.hostLoc(topo::HostH2).Sw);

  constexpr unsigned PerDir = 128;  // injections per direction per phase
  constexpr size_t Capacity = 1024; // small rings lap quickly
  constexpr unsigned Measured = 10;
  constexpr unsigned BigPhase = 900; // > any warm phase, < Capacity
  constexpr unsigned Pings = 128;    // echo requests per direction
  for (unsigned Shards : {1u, 2u}) {
    engine::EngineConfig Cfg;
    Cfg.NumShards = Shards;
    Cfg.QueueCapacity = Capacity;
    Cfg.RecordTrace = false;
    ASSERT_TRUE(Cfg.EchoReplies);
    engine::Engine E(*C->N, A.Topo, Cfg);
    // Each direction's injections all enter one ring, and at 2 shards H1
    // and H2 ingress on different shards, so every ring takes at least
    // PerDir messages per phase: WarmPhases phases lap every ring, and
    // the measured phases run on later laps (the fresh-engine test
    // below covers the first).
    if (Shards == 2) {
      ASSERT_NE(E.partition().ShardOf[D1], E.partition().ShardOf[D2]);
    }
    unsigned WarmPhases = Capacity / PerDir + 1;
    unsigned Phases = WarmPhases + Measured;

    // Build every phase up front: the workload's own vectors are not the
    // engine's allocations.
    engine::TrafficGen G(A.Topo, 11);
    engine::Workload There = G.bulk(topo::HostH1, topo::HostH2,
                                    uint64_t(PerDir) * Phases, PerDir);
    engine::Workload Back = G.bulk(topo::HostH2, topo::HostH1,
                                   uint64_t(PerDir) * Phases, PerDir);
    ASSERT_EQ(There.Phases.size(), Phases);
    for (unsigned P = 0; P != Phases; ++P)
      There.Phases[P].Injections.insert(There.Phases[P].Injections.end(),
                                        Back.Phases[P].Injections.begin(),
                                        Back.Phases[P].Injections.end());
    // One H1->H2 phase bigger than any warm one: it all enters one ring,
    // which it cannot overflow.
    engine::Workload Big =
        G.bulk(topo::HostH1, topo::HostH2, BigPhase, BigPhase);
    ASSERT_EQ(Big.Phases.size(), 1u);
    const std::vector<engine::Injection> &BigInj = Big.Phases[0].Injections;
    // One phase of echo requests, alternating direction.
    std::vector<engine::Injection> PingInj;
    for (unsigned I = 0; I != Pings; ++I)
      for (auto [From, To] : {std::pair(topo::HostH1, topo::HostH2),
                              std::pair(topo::HostH2, topo::HostH1)})
        PingInj.push_back(G.ping(From, To).Phases[0].Injections[0]);
    // Each request and its reply are injected and delivered once.
    uint64_t Total = uint64_t(2) * PerDir * Phases + BigInj.size() +
                     2 * PingInj.size();

    E.start();
    uint64_t Before = 0;
    for (unsigned P = 0; P != Phases; ++P) {
      if (P == WarmPhases)
        Before = GAllocs.load(std::memory_order_relaxed);
      const engine::Phase &Ph = There.Phases[P];
      E.injectBatch(Ph.Injections.data(), Ph.Injections.size());
      E.awaitQuiescence();
    }
    E.injectBatch(BigInj.data(), BigInj.size());
    E.awaitQuiescence();
    E.injectBatch(PingInj.data(), PingInj.size());
    E.awaitQuiescence();
    uint64_t After = GAllocs.load(std::memory_order_relaxed);
    // stats() allocates, so it runs only after the count is read.
    EXPECT_EQ(E.stats().PacketsDelivered, Total) << "shards=" << Shards;
    E.finish();

    EXPECT_EQ(After - Before, 0u)
        << "shards=" << Shards << ": " << (After - Before)
        << " allocations over " << Measured << " warm phases of "
        << 2 * PerDir << " injections, one of " << BigInj.size()
        << " and one of " << PingInj.size() << " echo requests";
    engine::Stats S = E.stats();
    EXPECT_EQ(S.PacketsInjected, Total);
    EXPECT_EQ(S.PacketsDelivered, S.PacketsInjected) << "shards=" << Shards;
  }
}

TEST(ClassifierProperty, FreshEngineFirstLapAllocatesNothing) {
  // On a fresh engine every ring push lands on a cell no push has used
  // yet — the case of a short storm on a new engine, whose rings never
  // finish a lap. Ring cells are plain records, so such a push copies
  // bytes and allocates nothing. After one warm phase, whose probe fires
  // the ring's event (so the registers, the tags and the digests have
  // settled), a storm that is still on the rings' first lap allocates
  // nothing anywhere in the process.
  apps::App A = apps::ringApp(16, 8);
  api::Result<nes::CompiledProgram> C = nes::compileAst(A.Ast, A.Topo);
  ASSERT_TRUE(C.ok()) << C.status().str();

  constexpr unsigned WarmPackets = 2000;
  constexpr unsigned StormPackets = 8000;
  for (unsigned Shards : {1u, 2u}) {
    engine::EngineConfig Cfg;
    Cfg.NumShards = Shards;
    Cfg.RecordTrace = false;
    // Every injection enters H1's ingress ring, which the two phases
    // together do not fill even once.
    ASSERT_LT(1 + WarmPackets + StormPackets, Cfg.QueueCapacity);
    engine::Engine E(*C->N, A.Topo, Cfg);

    // Build both phases up front: the workload's own vectors are not the
    // engine's allocations.
    engine::TrafficGen G(A.Topo, 5);
    engine::Workload Warm = G.probe(topo::HostH1, topo::HostH2);
    engine::Workload Bulk =
        G.bulk(topo::HostH1, topo::HostH2, WarmPackets, WarmPackets);
    std::vector<engine::Injection> &WarmInj = Warm.Phases[0].Injections;
    WarmInj.insert(WarmInj.end(), Bulk.Phases[0].Injections.begin(),
                   Bulk.Phases[0].Injections.end());
    engine::Workload Storm =
        G.bulk(topo::HostH1, topo::HostH2, StormPackets, StormPackets);
    const std::vector<engine::Injection> &StormInj =
        Storm.Phases[0].Injections;

    E.start();
    E.injectBatch(WarmInj.data(), WarmInj.size());
    E.awaitQuiescence();
    uint64_t Before = GAllocs.load(std::memory_order_relaxed);
    E.injectBatch(StormInj.data(), StormInj.size());
    E.awaitQuiescence();
    uint64_t After = GAllocs.load(std::memory_order_relaxed);
    E.finish();

    EXPECT_EQ(After - Before, 0u)
        << "shards=" << Shards << ": " << (After - Before)
        << " allocations over a first-lap storm of " << StormInj.size();
    engine::Stats S = E.stats();
    EXPECT_EQ(S.EventsDetected, 1u) << "the warm phase's probe fired nothing";
    EXPECT_EQ(S.PacketsDelivered, 1u + WarmPackets + StormPackets)
        << "shards=" << Shards;
  }
}

TEST(ClassifierProperty, FreshEngineEventAllocatesNothing) {
  // The update_storm shape: a fresh engine takes one H1->H2 storm with a
  // probe inside it, so the ring's event fires mid-storm and every switch
  // learns it through the detection, the shard-local fan-out, the other
  // shard's lane and digest gossip. A register is its family index, a
  // published view is one word, a delta is an event id on a plain-data
  // lane, and every scratch set was reserved at construction, so none of
  // that allocates anywhere in the process.
  apps::App A = apps::ringApp(16, 8);
  api::Result<nes::CompiledProgram> C = nes::compileAst(A.Ast, A.Topo);
  ASSERT_TRUE(C.ok()) << C.status().str();
  ASSERT_EQ(C->N->numEvents(), 1u);

  constexpr unsigned StormPackets = 8000;
  for (unsigned Shards : {1u, 2u}) {
    engine::EngineConfig Cfg;
    Cfg.NumShards = Shards;
    Cfg.RecordTrace = false;
    ASSERT_LT(1 + StormPackets, Cfg.QueueCapacity);
    engine::Engine E(*C->N, A.Topo, Cfg);

    // Build the storm up front: the workload's own vectors are not the
    // engine's allocations.
    engine::TrafficGen G(A.Topo, 7);
    engine::Workload Storm =
        G.bulk(topo::HostH1, topo::HostH2, StormPackets, StormPackets);
    std::vector<engine::Injection> &Inj = Storm.Phases[0].Injections;
    engine::Workload Probe = G.probe(topo::HostH1, topo::HostH2);
    Inj.insert(Inj.begin() + Inj.size() / 2, Probe.Phases[0].Injections[0]);

    // The workers' own set-up (their classifier output slots) is done
    // once the fresh engine is quiescent.
    E.start();
    E.awaitQuiescence();
    uint64_t Before = GAllocs.load(std::memory_order_relaxed);
    E.injectBatch(Inj.data(), Inj.size());
    E.awaitQuiescence();
    uint64_t After = GAllocs.load(std::memory_order_relaxed);
    E.finish();

    EXPECT_EQ(After - Before, 0u)
        << "shards=" << Shards << ": " << (After - Before)
        << " allocations over a storm of " << Inj.size()
        << " that fires the event";
    engine::Stats S = E.stats();
    EXPECT_EQ(S.EventsDetected, 1u) << "shards=" << Shards;
    EXPECT_EQ(S.PacketsDelivered, Inj.size()) << "shards=" << Shards;
    EXPECT_EQ(E.learnTimes().size(), A.Topo.switches().size())
        << "shards=" << Shards << ": not every switch learned the event";
  }
}

TEST(ClassifierProperty, CountingAllocatorSeesAllocations) {
  // Sanity-check the hook itself: a fresh vector must bump the counter.
  uint64_t Before = GAllocs.load(std::memory_order_relaxed);
  std::vector<int> *V = new std::vector<int>(100);
  uint64_t After = GAllocs.load(std::memory_order_relaxed);
  delete V;
  EXPECT_GE(After - Before, 1u);
}
