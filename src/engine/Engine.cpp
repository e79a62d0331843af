//===- engine/Engine.cpp - Sharded concurrent data-plane engine -----------===//

#include "engine/Engine.h"

#include "sim/Wire.h"

#include <algorithm>
#include <cassert>

using namespace eventnet;
using namespace eventnet::engine;
using eventnet::netkat::Packet;

namespace {

/// Longest sleep (microseconds) a worker's adaptive idle backoff asks
/// for. The kernel's timer slack (50 µs by default on Linux) stretches
/// every sleep_for(n µs) to about n + 55 µs, so the backoff's steps last
/// from about 56 µs (1 µs asked) to about 184 µs (this cap), as measured
/// on a 4-vCPU Xeon.
constexpr unsigned IdleSleepCapUs = 128;

/// Histogram snapshot -> report digest. \p Scale converts the recorded
/// unit into the digest's (1e-9 for nanosecond histograms, 1 for raw
/// counts like batch occupancy).
LatencyDigest digestFrom(const obs::HistogramSnapshot &H, double Scale) {
  LatencyDigest D;
  D.Samples = H.TotalCount;
  D.MeanSec = H.mean() * Scale;
  D.P50Sec = static_cast<double>(H.percentile(0.50)) * Scale;
  D.P90Sec = static_cast<double>(H.percentile(0.90)) * Scale;
  D.P99Sec = static_cast<double>(H.percentile(0.99)) * Scale;
  D.MaxSec = static_cast<double>(H.Max) * Scale;
  return D;
}

} // namespace

const char *engine::overloadPolicyName(OverloadPolicy P) {
  switch (P) {
  case OverloadPolicy::Block:
    return "block";
  case OverloadPolicy::ShedOldest:
    return "shed-oldest";
  case OverloadPolicy::ShedNewest:
    return "shed-newest";
  }
  return "?";
}

std::optional<OverloadPolicy>
engine::parseOverloadPolicy(const std::string &Name) {
  if (Name == "block")
    return OverloadPolicy::Block;
  if (Name == "shed-oldest")
    return OverloadPolicy::ShedOldest;
  if (Name == "shed-newest")
    return OverloadPolicy::ShedNewest;
  return std::nullopt;
}

Engine::Engine(const nes::Nes &N, const topo::Topology &Topo,
               EngineConfig Cfg)
    : N(N), Topo(Topo), C(Cfg), Idx(Topo),
      Part(partitionSwitches(Idx, std::max(1u, Cfg.NumShards), Cfg.Partition)),
      Compiled(N, Idx) {
  if (C.NumShards == 0)
    C.NumShards = 1;
  if (C.BatchSize == 0)
    C.BatchSize = 1;
  if (C.Faults && C.Faults->plan().QueueCapacityClamp)
    C.QueueCapacity = std::min(
        C.QueueCapacity,
        static_cast<size_t>(C.Faults->plan().QueueCapacityClamp));

  Slots = std::make_unique<SwitchSlot[]>(Idx.numSwitches());
  for (uint32_t D = 0; D != Idx.numSwitches(); ++D) {
    SwitchSlot &Sl = Slots[D];
    Sl.Id = Idx.idOf(D);
    Sl.Shard = Part.ShardOf[D];
    Sl.Tag = N.emptySet();
    Sl.Published.store(Sl.Tag); // version 0
  }

  // Every event set fits in this many words, so sets reserved to it never
  // grow: the SWITCH rule's scratch, the update fallback's and the
  // per-event contexts take their room here, not on the event path.
  size_t EventWords = (N.numEvents() + 63) / 64;
  EventCtx.resize(N.numEvents());
  for (DenseBitSet &Ctx : EventCtx)
    Ctx.reserve(EventWords);
  // A lane takes at most one delta per event from sendDeltas and
  // CtrlStormRepeat from sendStorm, both only from the event's one
  // detection.
  size_t LaneBound =
      static_cast<size_t>(N.numEvents()) *
      (1 + (C.Faults ? C.Faults->plan().CtrlStormRepeat : 0));

  // Pre-size the recycled pools to their steady-state working set (a
  // full dequeue batch can fill any one egress buffer, the classifier
  // emits at most a batch of outputs per packet chain, and injectBatch
  // stages at most one chunk per ingress shard), so the hot loop's and
  // the injector's freelists never grow after construction. Every
  // message slot also gets room for the widest ring record's header, so
  // unpacking a record, building a hop (which swaps buffers with a
  // classifier output slot) or building an echo reply never grows a
  // packet, not even on a fresh engine's first batch (each worker sizes
  // its classifier output slots itself; see workerLoop).
  auto PresizePool = [&](MsgBuf &B) {
    B.reserve(C.BatchSize);
    for (size_t I = 0; I != C.BatchSize; ++I)
      B[I].P.Pkt.reserve(MsgRecord::MaxFields);
  };
  InjStage.resize(C.BatchSize);
  for (unsigned I = 0; I != C.NumShards; ++I) {
    auto S = std::make_unique<Shard>();
    S->Index = I;
    S->Q = std::make_unique<BoundedMpscQueue<MsgRecord>>(C.QueueCapacity);
    S->Ctrl = std::make_unique<BoundedMpscQueue<uint32_t>>(LaneBound);
    for (DenseBitSet *B : {&S->ScratchKnown, &S->ScratchFresh, &S->ScratchExt,
                           &S->ScratchNew, &S->ScratchFan})
      B->reserve(EventWords);
    S->Group.reserve(Part.ShardSwitches[I]);
    S->Batch.resize(C.BatchSize);
    for (Msg &M : S->Batch)
      M.P.Pkt.reserve(MsgRecord::MaxFields);
    S->Stage.resize(C.BatchSize);
    S->OutBufs.resize(C.NumShards);
    for (MsgBuf &B : S->OutBufs)
      PresizePool(B);
    PresizePool(S->SelfProc);
    S->ClsOut.reserve(C.BatchSize);
    PresizePool(InjBufs.emplace_back());
    // Latency histograms are allocated only when asked for: a disabled
    // run carries a null pointer and the recording sites reduce to one
    // predictable branch.
    if (C.LatencyHistograms)
      S->Lat = std::make_unique<ShardLatency>();
    if (C.Faults) {
      if (const faults::StallRule *R = C.Faults->stallFor(I)) {
        S->StallEvery = R->EveryBatches;
        S->StallUs = R->StallUs;
      }
    }
    Shards.push_back(std::move(S));
  }

  // Per-switch fault gate, resolved once: the hot loop's hook is one
  // vector<bool> test instead of a rule scan.
  FaultArmed.assign(Idx.numSwitches(), false);
  if (C.Faults && C.Faults->hasLinkRules())
    for (uint32_t D = 0; D != Idx.numSwitches(); ++D)
      FaultArmed[D] = C.Faults->armsSwitch(Idx.idOf(D));

  DetectNs.reserve(N.numEvents());
  for (unsigned E = 0; E != N.numEvents(); ++E)
    DetectNs.push_back(std::make_unique<std::atomic<int64_t>>(-1));
  LearnNs.assign(static_cast<size_t>(Idx.numSwitches()) * N.numEvents(), -1);

  buildSubscriptions();

  // A sane clock base for stats() calls that precede run().
  StartNs.store(monotonicNs());

  // Intern the wire-format fields on this thread so workers never hit a
  // first-use interning path.
  sim::ipSrcField();
  sim::ipDstField();
  sim::kindField();
  sim::seqField();
  sim::probeField();
  sim::connField();
}

void Engine::buildSubscriptions() {
  unsigned NE = N.numEvents();
  SubSwitches.assign(static_cast<size_t>(NE) * C.NumShards, {});
  SubShards.assign(NE, {});

  // Does event E's arrival matter to dense switch D? Two ways:
  //  - config dependence: adding E to some family set changes D's
  //    table, so learning E sooner means reconfiguring sooner;
  //  - detection relevance: E shares a family set with an event
  //    detectable at D, so D's register content (enables/con inputs of
  //    the SWITCH rule) can gate a future local detection.
  // Under explicit broadcast every switch counts (the every-switch-
  // learns contract). The family and event counts are small (NESes
  // compiled from programs are tiny), so the quadratic sweep is
  // construction noise.
  std::vector<char> Sub(Idx.numSwitches());
  for (unsigned E = 0; E != NE; ++E) {
    std::fill(Sub.begin(), Sub.end(), C.CtrlBroadcast);
    for (nes::SetId S = 0; S != N.numSets(); ++S) {
      const DenseBitSet &Bits = N.setBits(S);
      if (Bits.test(E)) {
        // Detection relevance: every switch detecting a co-member.
        for (uint32_t D = 0; D != Idx.numSwitches(); ++D) {
          if (Sub[D])
            continue;
          for (nes::EventId F : Compiled.eventsAt(D))
            if (Bits.test(F)) {
              Sub[D] = 1;
              break;
            }
        }
        continue;
      }
      auto S2 = Compiled.next(S, E);
      if (!S2)
        continue;
      const topo::Configuration &A = N.configOf(S);
      const topo::Configuration &B = N.configOf(*S2);
      for (uint32_t D = 0; D != Idx.numSwitches(); ++D)
        if (!Sub[D] && !(A.tableFor(Slots[D].Id) == B.tableFor(Slots[D].Id)))
          Sub[D] = 1;
    }
    for (uint32_t D = 0; D != Idx.numSwitches(); ++D)
      if (Sub[D])
        SubSwitches[static_cast<size_t>(E) * C.NumShards + Slots[D].Shard]
            .push_back(D);
    for (uint32_t S = 0; S != C.NumShards; ++S)
      if (!SubSwitches[static_cast<size_t>(E) * C.NumShards + S].empty())
        SubShards[E].push_back(S);
  }
}

//===----------------------------------------------------------------------===//
// Trace recording
//===----------------------------------------------------------------------===//

int64_t Engine::appendEntry(Shard &S, const Packet &Lp, int64_t Parent,
                            bool IsDelivery, nes::SetId Tag) {
  // The time is taken only here, past logEntry's gate: with the log off
  // the hot loop reads no clock for it.
  uint64_t Ticket = Tickets.fetch_add(1);
  S.Log.push_back({StreamItem::Entry, Ticket, Parent, Lp, IsDelivery,
                   /*IsDup=*/false, Tag,
                   monotonicNs() - StartNs.load(std::memory_order_relaxed)});
  return static_cast<int64_t>(Ticket);
}

uint64_t Engine::drainTraceStream(std::vector<StreamItem> &Out) {
  // Watermarks first, buffers second: a shard flushes its pending items
  // *before* publishing a watermark, so every entry below the minimum
  // read here is already in some StreamBuf by the time we drain it —
  // the caller may commit up to W - 1 after this drain, never before.
  uint64_t W = UINT64_MAX;
  for (auto &S : Shards)
    W = std::min(W, S->StreamWatermark.load(std::memory_order_acquire));
  for (auto &S : Shards) {
    {
      std::lock_guard<std::mutex> Lock(S->StreamMu);
      Out.insert(Out.end(),
                 std::make_move_iterator(S->StreamBuf.begin()),
                 std::make_move_iterator(S->StreamBuf.end()));
      S->StreamBuf.clear();
    }
    {
      // Shed excusals are written by arbitrary producer threads under
      // the overflow lock; hand on the new ones as Excuse items, keeping
      // them for finish()'s merge when RecordTrace asks for it.
      std::lock_guard<std::mutex> Lock(S->OverflowMu);
      for (size_t I = S->ShedHanded; I != S->ShedExcuses.size(); ++I)
        Out.push_back({StreamItem::Excuse,
                       static_cast<uint64_t>(S->ShedExcuses[I]), -1,
                       Packet(), false, false, 0});
      if (C.RecordTrace)
        S->ShedHanded = S->ShedExcuses.size();
      else
        S->ShedExcuses.clear();
    }
  }
  return W == UINT64_MAX ? 0 : W;
}

uint64_t Engine::streamLagShed() {
  uint64_t Shed = 0;
  for (auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->StreamMu);
    Shed += S->StreamLagShed;
  }
  return Shed;
}

uint64_t Engine::streamBacklog() {
  uint64_t Backlog = 0;
  for (auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->StreamMu);
    Backlog += S->StreamBuf.size();
  }
  return Backlog;
}

//===----------------------------------------------------------------------===//
// The data path (owner-thread only)
//===----------------------------------------------------------------------===//

void Engine::applyRegister(Shard &S, uint32_t Dense, nes::SetId NewTag) {
  // The working tag moves at once, so the rest of the group and the data
  // path read the new register. Outside a group every working tag equals
  // its published one, and every move strictly grows the register, so a
  // switch whose tags still agree is not yet in this group.
  SwitchSlot &Sl = Slots[Dense];
  if (Sl.Tag ==
      static_cast<nes::SetId>(Sl.Published.load(std::memory_order_relaxed)))
    S.Group.push_back({Dense, Sl.Tag});
  Sl.Tag = NewTag;
}

void Engine::publishGroup(Shard &S) {
  if (S.Group.empty())
    return;
  // The atomic transitions: one release store of each moved switch's
  // view word, however many of the group's merges moved it. The owner is
  // its only writer, so the version is read back relaxed.
  for (const Shard::Moved &M : S.Group) {
    SwitchSlot &Sl = Slots[M.Dense];
    uint64_t Version =
        (Sl.Published.load(std::memory_order_relaxed) >> 32) + 1;
    Sl.Published.store(Version << 32 | Sl.Tag, std::memory_order_release);
  }
  // One clock read for the whole group, after its stores: each learn's
  // stamp is an upper bound on it and never precedes its view. DetectNs
  // and LearnNs are both raw monotonicNs(), so the Transition digest is
  // a pure difference on one time base. Registers only grow, so a bit
  // new to the register is a first learn and its slot is still unset;
  // every moved switch learns at least one event at this stamp, so a
  // switch's distinct learn stamps are its view stores (timeline()).
  int64_t Now = monotonicNs();
  for (const Shard::Moved &M : S.Group) {
    const DenseBitSet &Old = N.setBits(M.Old);
    int64_t *Learn = &LearnNs[static_cast<size_t>(M.Dense) * N.numEvents()];
    N.setBits(Slots[M.Dense].Tag).forEach([&](unsigned E) {
      if (!Old.test(E))
        Learn[E] = Now;
    });
  }
  S.Transitions.add(S.Group.size());
  S.Group.clear();
}

void Engine::pushDelta(uint32_t Target, unsigned E) {
  // A delta that queued behind a storm's worth of data packets would
  // defeat the update pipeline, so it never enters the ring at all — the
  // owner drains this lane ahead of every batch. It is counted into
  // Pending before it becomes visible, like every ring message.
  Pending.fetch_add(1);
  [[maybe_unused]] bool Pushed = Shards[Target]->Ctrl->tryPush(E);
  assert(Pushed && "a lane holds every delta of a run by construction");
}

void Engine::shedLocked(Shard &Dst, Msg &M) {
  // The message is retired unprocessed. Its Pending share is released
  // and it is tallied as a (shed) drop, so delivered + dropped ==
  // injected still holds and the audit can tell policy loss from
  // silent loss. An unstarted injection is counted injected-and-dropped
  // for the same reason; its emission was never trace-logged, so the
  // checker sees nothing to excuse. This runs on the producer's thread,
  // so it bumps the destination shard's counters (relaxed atomics, so
  // the owner's concurrent bumps are safe).
  Pending.fetch_sub(1);
  Dst.Shed.add();
  Dst.Dropped.add();
  FaultSheds.add();
  if (M.K == Msg::PacketIn) {
    if (M.P.FromDup)
      DupDropped.add();
    // The hop's egress entry is now a chain leaf; excuse it.
    if (M.P.Parent >= 0)
      Dst.ShedExcuses.push_back(M.P.Parent);
  } else {
    Dst.Injected.add();
  }
}

void Engine::overflowMsg(Shard &Dst, Msg &&M) {
  std::lock_guard<std::mutex> Lock(Dst.OverflowMu);
  if (C.Overload != OverloadPolicy::Block &&
      Dst.Overflow.size() >= Dst.Q->capacity()) {
    // Backlog bound reached: shed the incoming message or the oldest
    // buffered one. Update deltas ride the priority lane, never the
    // ring, so nothing here can wedge event propagation.
    if (C.Overload == OverloadPolicy::ShedNewest) {
      shedLocked(Dst, M);
      return;
    }
    shedLocked(Dst, Dst.Overflow.front());
    Dst.Overflow.pop_front();
  }
  Dst.Overflow.push_back(std::move(M));
  // The backlog is ring + overflow. The ring need not be full: a message
  // too wide for a record spills whatever the ring holds.
  Dst.QueueHighWater.raiseTo(Dst.Q->sizeApprox() + Dst.Overflow.size());
}

void Engine::forwardOut(Shard &S, const EnginePacket &P, uint32_t AtDense,
                        Packet &Out, nes::SetId OutDigest) {
  // A table's actions rewrite pt (and header fields), never sw, so the
  // output sits at the switch we just processed — whose dense index the
  // caller already knows. Fall back to the hash only if a table ever
  // does rewrite sw.
  Location At = Out.loc();
  uint32_t D = At.Sw == Slots[AtDense].Id ? AtDense : Idx.denseOf(At.Sw);
  const Egress *Eg = Idx.egressAt(D, At.Pt);
  if (!Eg) {
    // Dangling port: discarded, no occurrence logged (as in the
    // simulator).
    S.Dropped.add();
    if (P.FromDup)
      DupDropped.add();
    return;
  }

  if (Eg->IsHost) {
    logEntry(S, Out, P.Parent, /*IsDelivery=*/true, P.Tag);
    S.Delivered.add();
    if (P.FromDup)
      DupDelivered.add();
    HostId H = Eg->Host;
    if (C.DeliverySink)
      C.DeliverySink(H, Out);

    // Host application: answer echo requests addressed to us.
    if (C.EchoReplies &&
        Out.getOr(sim::kindField(), -1) == sim::KindRequest &&
        Out.getOr(sim::ipDstField(), -1) == static_cast<Value>(H)) {
      Value Src = Out.getOr(sim::ipSrcField(), -1);
      if (Src >= 0) {
        uint64_t Seq = static_cast<uint64_t>(Out.getOr(sim::seqField(), 0));
        // The reply is an injection by H, which is attached right here:
        // it enters at At on switch D (this shard), placed there like
        // injectBatch's injections. It rides the batched egress buffer
        // like any output (flushOut does the Pending accounting for the
        // whole batch), and its header is rebuilt in the recycled slot,
        // so a reply allocates nothing.
        Msg &R = S.OutBufs[Slots[D].Shard].next();
        R.K = Msg::Inject;
        R.From = H;
        sim::fillWireHeader(R.P.Pkt, H, static_cast<HostId>(Src),
                            sim::KindReply, Seq);
        // The session tag rides the round trip: the reply must route
        // back to the connection that emitted the request.
        Value Conn = Out.getOr(sim::connField(), -1);
        if (Conn >= 0)
          R.P.Pkt.set(sim::connField(), Conn);
        R.P.Pkt.setLoc(At);
        R.P.Dense = D;
      }
    }
    return;
  }

  // Fault hook: switch-to-switch links are the lossy medium. The
  // verdict is a pure content hash (faults/Injector.h), so the same
  // packet at the same egress faults identically in every run.
  faults::Action FA = faults::Action::None;
  if (C.Faults && FaultArmed[D])
    FA = C.Faults->decide(At.Sw, At.Pt, Out);

  if (FA == faults::Action::Drop) {
    // The egress occurrence never happens: the chain ends at P.Parent,
    // which the log excuses for the checker.
    S.FaultRecs.push_back(
        faults::Injector::recordAt(faults::FaultKind::Drop, At.Sw, At.Pt, Out));
    if (P.Parent >= 0)
      S.Log.push_back({StreamItem::Excuse, static_cast<uint64_t>(P.Parent),
                       -1, Packet(), false, false, 0});
    S.Dropped.add();
    FaultDrops.add();
    if (P.FromDup)
      DupDropped.add();
    return;
  }

  int64_t EgressTicket = logEntry(S, Out, P.Parent, false, P.Tag);
  uint32_t DstShard = Slots[Eg->DstDense].Shard;
  // Every field of a hop but its header; the caller has put the header
  // in M.P.Pkt, still at the egress location.
  auto FillHop = [&](Msg &M, int64_t ParentTicket, bool FromDup) {
    M.K = Msg::PacketIn;
    M.P.Pkt.setLoc(Eg->Dst);
    M.P.Tag = P.Tag;
    M.P.Digest = OutDigest;
    M.P.Parent = ParentTicket;
    M.P.Dense = Eg->DstDense;
    M.P.IngressLogged = false;
    M.P.FromDup = FromDup;
  };

  if (FA == faults::Action::Delay) {
    // Hold the hop back for DelayPolls drain iterations instead of
    // buffering it: later traffic overtakes it (reordering). Its
    // Pending share is taken here because flushOut will never see it.
    S.FaultRecs.push_back(faults::Injector::recordAt(faults::FaultKind::Delay,
                                                     At.Sw, At.Pt, Out));
    Shard::DelayedMsg DM;
    DM.Target = DstShard;
    DM.ReleaseAt =
        S.DrainPolls + std::max(1u, C.Faults->plan().DelayPolls);
    DM.M.P.Pkt.swap(Out);
    FillHop(DM.M, EgressTicket, P.FromDup);
    Pending.fetch_add(1);
    S.Delayed.push_back(std::move(DM));
    FaultDelays.add();
    S.Forwarded.add();
    return;
  }

  int64_t DupTicket = -1;
  if (FA == faults::Action::Dup) {
    // Second copy with its own egress entry (the trace stays a tree);
    // the log marks that entry so the checker prunes the duplicate
    // subtree before verifying Definition 6.
    DupTicket = logEntry(S, Out, P.Parent, false, P.Tag);
    if (DupTicket >= 0)
      S.Log.back().IsDup = true; // the entry just logged
    S.FaultRecs.push_back(
        faults::Injector::recordAt(faults::FaultKind::Dup, At.Sw, At.Pt, Out));
    FaultDups.add();
  }

  // Build the hop into a recycled egress slot. The last hop built takes
  // the classifier output's header by swap, and the output slot keeps the
  // egress slot's buffer in return, so only a duplicated hop copies its
  // header, into the first of its two slots; nothing here allocates.
  MsgBuf &Buf = S.OutBufs[DstShard];
  Msg &Hop = Buf.next();
  if (FA == faults::Action::Dup)
    Hop.P.Pkt = Out;
  else
    Hop.P.Pkt.swap(Out);
  FillHop(Hop, EgressTicket, P.FromDup);
  S.Forwarded.add();
  if (FA == faults::Action::Dup) {
    Msg &Twin = Buf.next(); // may grow Buf: Hop is not used past here
    Twin.P.Pkt.swap(Out);
    FillHop(Twin, DupTicket, /*FromDup=*/true);
    S.Forwarded.add();
  }
}

void Engine::processPacket(Shard &S, EnginePacket &P) {
  uint32_t D = P.Dense;
  SwitchSlot &Sl = Slots[D];
  assert(Sl.Id == P.Pkt.sw() && "stale dense index on an in-flight packet");

  if (!P.IngressLogged) {
    P.Parent = logEntry(S, P.Pkt, P.Parent, false, P.Tag);
    P.IngressLogged = true;
  }

  // SWITCH rule: learn the digest, then greedily-consistent fresh events
  // (the same sharpening as runtime::Machine and sim::Simulation). The
  // working sets live in shard-owned scratch bitsets whose capacity
  // survives across packets — the hot loop builds no fresh DenseBitSets.
  //
  // Steady state (the throughput regime): the digest carries nothing the
  // register lacks, so Known is the register itself. The digest is a
  // family index, usually the register's own (the sender had learned what
  // this switch has), so an index compare settles it before any bitset
  // is read, and a subset test the rest.
  const DenseBitSet &Reg = N.setBits(Sl.Tag);
  bool DigestKnown =
      P.Digest == Sl.Tag || N.setBits(P.Digest).isSubsetOf(Reg);
  const DenseBitSet *KnownP = &Reg;
  if (!DigestKnown) {
    S.ScratchKnown = Reg;
    S.ScratchKnown |= N.setBits(P.Digest);
    KnownP = &S.ScratchKnown;
  }
  const DenseBitSet &Known = *KnownP;
  DenseBitSet &Fresh = S.ScratchFresh;
  Fresh.clear();
  for (nes::EventId E : Compiled.eventsAt(D)) {
    if (Known.test(E) || Fresh.test(E))
      continue;
    if (!N.event(E).matches(P.Pkt))
      continue;
    DenseBitSet &Ext = S.ScratchExt;
    Ext = Known;
    Ext |= Fresh;
    Ext.set(E);
    if (N.enables(Known, E) && N.con(Ext)) {
      Fresh.set(E);
      // CTRLRECV: the first detection of E (the only one, as the event's
      // location is this switch) counts it.
      int64_t Expected = -1;
      bool First =
          DetectNs[E]->compare_exchange_strong(Expected, monotonicNs());
      // CTRLSEND without a controller. Ext (this detection's consistent
      // extension: register + digest + fresh events + E, all occurred) is
      // the causal context for switches whose registers lack E's causes;
      // the lanes' consumers read it from E's slot, which the push
      // publishes. Deltas go out first, so the other shards' workers
      // merge in parallel with the local fan-out; then every subscribed
      // switch this shard owns transitions, one function call after
      // detection (its view is stored with the SWITCH rule's, below).
      if (First) {
        EventCtx[E] = Ext;
        sendDeltas(S, E);
      }
      fanOutLocal(S, E, D, Ext);
      if (First) {
        Events.add();
        if (C.Faults && C.Faults->plan().CtrlStormRepeat)
          sendStorm(S, E);
      }
    }
  }

  // Forward with the *stamped* configuration (per-packet consistency).
  const MatchPipeline &Pipe = Compiled.pipe(P.Tag, D);

  // Merge from the *current* register, not the Known snapshot:
  // registers must only grow, whatever happened in between. In steady
  // state nothing was learned: the register stands — no unions, no
  // transition check.
  if (!DigestKnown || !Fresh.empty()) {
    // The common case, one fresh event on a known digest, is one read of
    // the single-event transition table: the register is still Reg (a
    // local fan-out skips the detecting switch), so the merge is
    // Reg ∪ {E}. Anything else, or a union that table lacks, builds the
    // union and looks it up in the family.
    std::optional<nes::SetId> Tag;
    if (DigestKnown && Fresh.count() == 1) {
      assert(&N.setBits(Sl.Tag) == &Reg && "register moved mid-rule");
      Fresh.forEach([&](unsigned E) { Tag = Compiled.next(Sl.Tag, E); });
    }
    if (!Tag) {
      const DenseBitSet &Cur = N.setBits(Sl.Tag);
      DenseBitSet &NewE = S.ScratchNew;
      NewE = Cur;
      NewE |= Known;
      NewE |= Fresh;
      if (NewE != Cur) {
        Tag = N.setIndex(NewE);
        assert(Tag && "switch register left the NES family (Lemma 3)");
      }
    }
    if (Tag)
      applyRegister(S, D, *Tag);
    // The merge group ends here: a detection's local fan-out and this
    // switch's learns publish together.
    publishGroup(S);
  }
  // The outgoing digest, P.Digest ∪ NewE, is NewE (P.Digest ⊆ Known ⊆
  // NewE): the register after the rule, sent on as its family index.
  nes::SetId OutDigest = Sl.Tag;

  S.Processed.add();
  // One contiguous classifier program, outputs emitted into the shard's
  // recycled packet buffer — allocation-free once warm. (The flattened-FDD
  // walk, MatchPipeline::apply, is the oracle the tests check it against.)
  S.ClsOut.reset();
  Pipe.applyClassifier(P.Pkt, S.ClsOut);
  if (S.ClsOut.size() == 0) {
    S.Dropped.add();
    if (P.FromDup)
      DupDropped.add();
    return;
  }
  for (size_t I = 0; I != S.ClsOut.size(); ++I)
    forwardOut(S, P, D, S.ClsOut[I], OutDigest);
}

void Engine::mergeEventInto(Shard &S, uint32_t Dense, unsigned E,
                            const DenseBitSet &Ctx) {
  nes::SetId Tag = Slots[Dense].Tag;
  if (N.setBits(Tag).test(E))
    return;
  if (auto Next = Compiled.next(Tag, E)) {
    applyRegister(S, Dense, *Next);
    return;
  }
  // The single-event union left the family: this switch has not yet
  // heard one of E's *causes* (detection checked enables() against the
  // detector's knowledge, not this register). Merge the sender's context
  // instead — a set of occurred events containing E's enabling chain, so
  // this is the same union a gossip digest carrying that context would
  // have applied.
  DenseBitSet &NewE = S.ScratchFan;
  NewE = N.setBits(Tag);
  NewE |= Ctx;
  auto Merged = N.setIndex(NewE);
  assert(Merged && "switch register left the NES family (Lemma 3)");
  if (Merged)
    applyRegister(S, Dense, *Merged);
}

void Engine::sendDeltas(Shard &S, unsigned E) {
  for (uint32_t T : SubShards[E]) {
    if (T == S.Index)
      continue; // fanOutLocal covers the detecting shard
    pushDelta(T, E);
    CtrlDeltas.add();
  }
}

void Engine::sendStorm(Shard &S, unsigned E) {
  // Fault-plan event storm: every shard's lane takes the same delta
  // CtrlStormRepeat more times. Semantically idempotent (registers only
  // grow, and a delta merges only what its first copy already did), so
  // the storm stresses the lanes and the drains without changing the
  // reachable configurations. The burst is one ledger record.
  uint32_t Reps = C.Faults->plan().CtrlStormRepeat;
  for (uint32_t R = 0; R != Reps; ++R)
    for (uint32_t T = 0; T != C.NumShards; ++T)
      pushDelta(T, E);
  FaultStorms.add(static_cast<uint64_t>(Reps) * C.NumShards);
  faults::FaultRecord SR;
  SR.K = faults::FaultKind::Storm;
  SR.Sw = static_cast<int64_t>(E);
  SR.Pt = static_cast<int64_t>(Reps);
  S.FaultRecs.push_back(SR);
}

void Engine::fanOutLocal(Shard &S, unsigned E, uint32_t DetectDense,
                         const DenseBitSet &Ctx) {
  const auto &Subs =
      SubSwitches[static_cast<size_t>(E) * C.NumShards + S.Index];
  for (uint32_t D : Subs) {
    if (D == DetectDense)
      continue; // the detector merges via its own Fresh set
    if (N.setBits(Slots[D].Tag).test(E))
      continue;
    mergeEventInto(S, D, E, Ctx);
    S.FastLearns.add();
  }
}

void Engine::handleInject(Shard &S, Msg &M) {
  // The sender placed the header at the host's ingress location and
  // resolved its dense index; the slot is recycled, so every other
  // Section 4 field is set afresh here.
  EnginePacket &P = M.P;
  SwitchSlot &Sl = Slots[P.Dense];
  P.Digest = N.emptySet();
  P.FromDup = false;
  // IN rule: stamp the ingress switch's current tag. The emission is
  // logged now, at stamping time, so the trace's per-switch order places
  // it against the register state it observed.
  P.Tag = Sl.Tag;
  P.Parent = logEntry(S, P.Pkt, -1, false, P.Tag);
  P.IngressLogged = true;
  S.Injected.add();
  processPacket(S, P);
}

//===----------------------------------------------------------------------===//
// Threads
//===----------------------------------------------------------------------===//

void Engine::processMsg(Shard &S, Msg &M) {
  // Every drain loop (ring batch, self-delivery, delayed release) runs
  // its messages through here, so a published delta merges before the
  // next hop instead of waiting out a batch or a self-delivery round;
  // an empty lane costs two loads.
  if (S.Ctrl->headReady())
    drainCtrlLane(S);
  if (M.K == Msg::PacketIn)
    processPacket(S, M.P);
  else
    handleInject(S, M);
  // Pending accounting happens per batch (drainBatch), not per message.
}

void Engine::prefetchMsg(const Msg &M) const {
  if (M.K != Msg::PacketIn)
    return;
  // Touch the next packet's classifier program (its first op) while the
  // current one executes — the arena line is the miss worth hiding.
  Compiled.pipe(M.P.Tag, M.P.Dense).classifier().prefetchRoot();
}

bool Engine::MsgRecord::pack(const Msg &M) {
  const auto &Fields = M.P.Pkt.fields();
  if (Fields.size() > MaxFields)
    return false;
  Parent = M.P.Parent;
  EnqNs = M.EnqNs;
  for (size_t I = 0; I != Fields.size(); ++I) {
    Ids[I] = Fields[I].first;
    Vals[I] = Fields[I].second;
  }
  Tag = M.P.Tag;
  Digest = M.P.Digest;
  From = M.From;
  Dense = M.P.Dense;
  NumFields = static_cast<uint8_t>(Fields.size());
  K = M.K;
  IngressLogged = M.P.IngressLogged;
  FromDup = M.P.FromDup;
  return true;
}

void Engine::MsgRecord::unpack(Msg &M) const {
  M.K = K;
  M.From = From;
  M.EnqNs = EnqNs;
  M.P.Pkt.assignSorted(Ids, Vals, NumFields);
  M.P.Tag = Tag;
  M.P.Digest = Digest;
  M.P.Parent = Parent;
  M.P.Dense = Dense;
  M.P.IngressLogged = IngressLogged;
  M.P.FromDup = FromDup;
}

void Engine::pushBatchToShard(uint32_t Target, Msg *Msgs, size_t N,
                              MsgRecord *Stage) {
  // The caller has already added the messages to Pending, so a message
  // may become visible as soon as it is packed or spilled.
  if (C.LatencyHistograms) {
    // One clock read covers the whole batch: dwell is measured from the
    // hand-off point, and the batch is handed off at once.
    int64_t Now = monotonicNs();
    for (size_t I = 0; I != N; ++I)
      Msgs[I].EnqNs = Now;
  }
  Shard &Dst = *Shards[Target];
  for (size_t First = 0; First < N; First += C.BatchSize) {
    size_t Last = std::min<size_t>(N, First + C.BatchSize);
    size_t Packed = 0;
    for (size_t I = First; I != Last; ++I) {
      if (Stage[Packed].pack(Msgs[I]))
        ++Packed;
      else // too wide for a record: copy it out of the recycled slot
        overflowMsg(Dst, Msg(Msgs[I]));
    }
    pushRecords(Dst, Stage, Packed);
  }
}

void Engine::pushRecords(Shard &Dst, const MsgRecord *Recs, size_t N) {
  // One tryPushBatch per retry (a single tail CAS covers the whole
  // claimed prefix); leftovers of a full ring go to the overflow deque —
  // producers never block.
  size_t Done = 0;
  while (Done != N) {
    size_t Pushed = Dst.Q->tryPushBatch(Recs + Done, N - Done);
    if (Pushed == 0)
      break;
    Done += Pushed;
  }
  if (Done != N && C.Overload == OverloadPolicy::Block) {
    // Bounded spin -> yield -> backoff retry before spilling: the
    // consumer usually frees cells quickly, and a short wait keeps the
    // backlog on the lock-free ring instead of the mutexed deque. The
    // bound matters — an unbounded wait on a cycle of full rings whose
    // owners are all producing would deadlock.
    uint32_t SleepUs = 1;
    for (unsigned Attempt = 1; Done != N && Attempt <= 320; ++Attempt) {
      if (Attempt > 256) {
        std::this_thread::sleep_for(std::chrono::microseconds(SleepUs));
        SleepUs = std::min(SleepUs * 2, 64u);
      } else if (Attempt > 64) {
        std::this_thread::yield();
      }
      Done += Dst.Q->tryPushBatch(Recs + Done, N - Done);
    }
  }
  for (; Done != N; ++Done) {
    // The overload policy decides the spilled message's fate.
    Msg Spill;
    Recs[Done].unpack(Spill);
    overflowMsg(Dst, std::move(Spill));
  }
}

void Engine::flushOut(Shard &S) {
  // Publish the batch's buffered egress, one batch push per target ring.
  //
  // One Pending increment covers every buffered message, and it happens
  // before any of them becomes visible — consumers can only drive
  // Pending through zero after *all* this batch's outputs are counted.
  // OutBufs[Index] is always empty here (drained in place by
  // drainBatch's self-delivery loop, which never touches Pending).
  uint64_t Buffered = 0;
  for (const MsgBuf &B : S.OutBufs)
    Buffered += B.size();
  if (Buffered)
    Pending.fetch_add(static_cast<int64_t>(Buffered));
  for (uint32_t T = 0; T != S.OutBufs.size(); ++T) {
    MsgBuf &B = S.OutBufs[T];
    if (B.size() == 0)
      continue;
    pushBatchToShard(T, B.data(), B.size(), S.Stage.data());
    B.reset();
  }
}

void Engine::drainSelf(Shard &S) {
  // Self-delivery: hops that stay on this shard never touch the MPSC
  // ring (no cell copies, no queue atomics, no Pending churn) — they
  // are drained in place until every chain ends or leaves the shard.
  // A chain can stay on the shard for many rounds; processMsg checks the
  // control lane before each hop, so a delta waits for one hop at most.
  MsgBuf &Self = S.OutBufs[S.Index];
  while (Self.size() != 0) {
    std::swap(S.SelfProc, Self);
    for (size_t I = 0; I != S.SelfProc.size(); ++I) {
      if (I + 1 != S.SelfProc.size())
        prefetchMsg(S.SelfProc[I + 1]);
      processMsg(S, S.SelfProc[I]);
    }
    S.SelfProc.reset();
  }
}

void Engine::releaseDelayed(Shard &S) {
  // DelayPolls is one constant per plan, so the stash is ordered by
  // ReleaseAt and the due prefix sits at the front. Releases can stash
  // new delayed hops (push_back with a strictly later deadline), which
  // the loop condition leaves alone.
  while (!S.Delayed.empty() && S.Delayed.front().ReleaseAt <= S.DrainPolls) {
    Shard::DelayedMsg DM = std::move(S.Delayed.front());
    S.Delayed.pop_front();
    if (DM.Target != S.Index) {
      // Pending was counted at stash time; hand the message over.
      pushBatchToShard(DM.Target, &DM.M, 1, S.Stage.data());
      continue;
    }
    // A held intra-shard hop: process in place. Outputs are counted
    // into Pending (flushOut) before this message's own share retires,
    // preserving the quiescence invariant.
    processMsg(S, DM.M);
    drainSelf(S);
    flushOut(S);
    Pending.fetch_sub(1);
  }
}

size_t Engine::drainCtrlLane(Shard &S) {
  // Each delta merges into this shard's subscribed switches as a
  // single-event transition in the common case; the event's context
  // slot (the detection's consistent extension, published by the push
  // this pop acquired) is the causal fallback for registers that lack
  // the event's enabling chain. Unsubscribed switches would not change
  // their table or detection behavior (under explicit broadcast every
  // switch subscribes). An empty lane costs one check of its head cell.
  size_t Drained = 0;
  uint32_t E;
  while (S.Ctrl->tryPop(E)) {
    for (uint32_t D :
         SubSwitches[static_cast<size_t>(E) * C.NumShards + S.Index])
      mergeEventInto(S, D, E, EventCtx[E]);
    ++Drained;
  }
  // The drain is one merge group: each moved switch's view is stored
  // once, and one clock read stamps every learn.
  publishGroup(S);
  if (Drained != 0)
    Pending.fetch_sub(static_cast<int64_t>(Drained));
  return Drained;
}

size_t Engine::drainBatch(Shard &S) {
  // Control deltas jump the data backlog: drain the priority lane
  // before touching the ring.
  size_t Ctrl = drainCtrlLane(S);

  if (C.Faults) {
    // The poll counter ticks on every call — including empty ones — so
    // a delayed message still releases when it is the only pending work
    // (the quiescence barrier would otherwise never clear).
    ++S.DrainPolls;
    if (!S.Delayed.empty())
      releaseDelayed(S);
  }

  size_t N = S.Q->tryPopBatch(S.Stage.data(), C.BatchSize);
  for (size_t I = 0; I != N; ++I)
    S.Stage[I].unpack(S.Batch[I]);
  if (N == 0) {
    // Ring empty: check the overflow (rare; only populated while the
    // ring was full, or by messages too wide for a record).
    std::unique_lock<std::mutex> Lock(S.OverflowMu);
    size_t Backlog = S.Overflow.size();
    size_t Max = std::min<size_t>(C.BatchSize, Backlog);
    for (; N != Max; ++N) {
      S.Batch[N] = std::move(S.Overflow.front());
      S.Overflow.pop_front();
    }
    Lock.unlock();
    if (N == 0)
      return Ctrl;
    S.QueueHighWater.raiseTo(Backlog + S.Q->sizeApprox());
  }

  // Queue-depth high-water mark: what was still pending after the pop,
  // plus what we just claimed.
  S.QueueHighWater.raiseTo(S.Q->sizeApprox() + N);

  if (ShardLatency *L = S.Lat.get()) {
    // One clock read per batch; each message's dwell is measured against
    // it. Self-delivered hops never ride the ring, so every message here
    // carries a stamp.
    int64_t Now = monotonicNs();
    for (size_t I = 0; I != N; ++I) {
      int64_t Dwell = Now - S.Batch[I].EnqNs;
      L->DwellNs.record(Dwell > 0 ? static_cast<uint64_t>(Dwell) : 0);
    }
    L->Occupancy.record(N);
  }

  for (size_t I = 0; I != N; ++I) {
    if (I + 1 != N)
      prefetchMsg(S.Batch[I + 1]);
    processMsg(S, S.Batch[I]);
  }

  // The inputs' Pending share (subtracted below) keeps the quiescence
  // count positive for the whole self-delivery drain.
  drainSelf(S);

  // Outputs are counted into Pending (flushOut) before the inputs are
  // retired, so Pending never dips to zero with work still in flight.
  flushOut(S);
  Pending.fetch_sub(static_cast<int64_t>(N));

  if (S.StallEvery && ++S.NonEmptyBatches % S.StallEvery == 0) {
    // Fault-plan stall: the worker goes dark for StallUs while its ring
    // keeps filling — backpressure for the overload policy to absorb.
    S.Stalls.add();
    FaultStalls.add();
    std::this_thread::sleep_for(std::chrono::microseconds(S.StallUs));
  }
  return N + Ctrl;
}

void Engine::workerLoop(unsigned ShardIdx) {
  Shard &S = *Shards[ShardIdx];
  // The classifier output slots take this worker's hottest writes (every
  // hop's header is copied into one, then swapped into its egress slot),
  // so the worker gives them their room for a header itself, from memory
  // its own thread allocates. Sized on the constructing thread instead,
  // update_storm read 1-3% lower throughput and 7% higher p50 latency
  // (10 alternating 20 s pairs on a 4-vCPU Xeon); the cause is not
  // located. start() counted this set-up into Pending, so it is done
  // before any awaitQuiescence() returns, and it precedes every packet
  // this worker classifies.
  for (size_t I = 0; I != C.BatchSize; ++I)
    S.ClsOut[I].reserve(MsgRecord::MaxFields);
  Pending.fetch_sub(1);

  uint64_t Spins = 0;
  unsigned SleepUs = 1;
  // Streaming sink: hand on this iteration's log records, then promise
  // a watermark. The order is load-bearing — the flush precedes the
  // store with no logging in between, and any future logEntry on this
  // thread draws a ticket >= the stored value, so "no entry below the
  // watermark is still unpublished by this shard" holds by construction.
  auto FlushStream = [&] {
    if (S.Log.size() != S.LogHanded) {
      std::lock_guard<std::mutex> Lock(S.StreamMu);
      // Bounded hand-off: a lagging collector must cost shed entries
      // (counted, verdict-degrading), never memory that grows with the
      // horizon or a data path blocked on verification. The watermark
      // below still advances over shed tickets — the checker prunes
      // their orphaned subtrees and reports inconclusive.
      size_t Room = S.StreamBuf.size() < C.StreamBufCap
                        ? C.StreamBufCap - S.StreamBuf.size()
                        : 0;
      size_t New = S.Log.size() - S.LogHanded;
      size_t Take = std::min(Room, New);
      auto First = S.Log.begin() + static_cast<ptrdiff_t>(S.LogHanded);
      auto Last = First + static_cast<ptrdiff_t>(Take);
      if (C.RecordTrace) {
        // finish() merges the whole log: hand on copies.
        S.StreamBuf.insert(S.StreamBuf.end(), First, Last);
        S.LogHanded = S.Log.size();
      } else {
        S.StreamBuf.insert(S.StreamBuf.end(), std::make_move_iterator(First),
                           std::make_move_iterator(Last));
        S.Log.clear();
      }
      S.StreamLagShed += New - Take;
    }
    uint64_t T = Tickets.load(std::memory_order_relaxed);
    if (T != S.StreamWatermark.load(std::memory_order_relaxed))
      S.StreamWatermark.store(T, std::memory_order_release);
  };
  while (true) {
    if (C.StreamTrace)
      FlushStream();
    size_t N = drainBatch(S);
    if (N != 0) {
      Spins = 0;
      SleepUs = 1;
      continue;
    }
    if (StopFlag.load())
      break;
    // Adaptive idle backoff: spin (cheap, catches back-to-back bursts),
    // then yield (lets co-scheduled shards run), then sleep, asking for
    // doubling lengths up to IdleSleepCapUs (timer slack adds ~55 µs to
    // each, so even the first sleep lasts ~56 µs) — an underloaded shard
    // under a good partition spends its life here instead of hammering
    // the queue's cache lines. Any drained work resets to the spin stage.
    ++Spins;
    if (Spins <= 64)
      continue;
    if (Spins <= 256) {
      std::this_thread::yield();
      continue;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(SleepUs));
    S.IdleSleeps.add();
    SleepUs = std::min(SleepUs * 2, IdleSleepCapUs);
  }
  if (C.StreamTrace) {
    // This shard will never log again: flush the tail and lift the
    // shard's watermark out of every future min.
    FlushStream();
    S.StreamWatermark.store(UINT64_MAX, std::memory_order_release);
  }
}

//===----------------------------------------------------------------------===//
// Orchestration
//===----------------------------------------------------------------------===//

void Engine::start() {
  assert(!Ran.load() && "an Engine runs once");
  assert(!Started && "start() already ran");
  StartNs.store(monotonicNs());
  StopFlag.store(false);

  // Each worker's set-up (workerLoop) is work in flight until it is done.
  Pending.fetch_add(C.NumShards);
  for (unsigned I = 0; I != C.NumShards; ++I)
    Shards[I]->Thread = std::thread([this, I] { workerLoop(I); });
  Started = true;
}

void Engine::injectBatch(const Injection *Inj, size_t N) {
  assert(Started && "injectBatch() before start()");
  // Injections are grouped by the shard owning each host's ingress
  // switch, and each group goes to its ring one BatchSize chunk at a
  // time (one batch push and one Pending add per chunk, counted before
  // it becomes visible; see quiescent() on Pending touching zero between
  // chunks): the workers forward the first chunks while the rest is
  // staged, and no staging buffer outgrows one chunk. Headers are
  // copy-assigned into recycled slots and placed at the host's ingress
  // here (the location is resolved for the grouping anyway), then packed
  // into plain ring records, so the injecting thread allocates nothing
  // per injection.
  auto Flush = [&](uint32_t T) {
    MsgBuf &B = InjBufs[T];
    Pending.fetch_add(static_cast<int64_t>(B.size()));
    pushBatchToShard(T, B.data(), B.size(), InjStage.data());
    B.reset();
  };
  for (size_t I = 0; I != N; ++I) {
    const Injection &In = Inj[I];
    Location At = Topo.hostLoc(In.From);
    uint32_t D = Idx.denseOf(At.Sw);
    uint32_t T = Slots[D].Shard;
    Msg &M = InjBufs[T].next();
    M.K = Msg::Inject;
    M.From = In.From;
    M.P.Pkt = In.Header;
    M.P.Pkt.setLoc(At);
    M.P.Dense = D;
    if (InjBufs[T].size() == C.BatchSize)
      Flush(T);
  }
  for (uint32_t T = 0; T != C.NumShards; ++T)
    if (InjBufs[T].size() != 0)
      Flush(T);
}

void Engine::awaitQuiescence() {
  // Every message (packets, replies, update deltas) drains, and every
  // worker's set-up finishes. Outputs and deltas are always counted into
  // Pending before their inputs retire, so zero really means quiet.
  while (Pending.load() != 0)
    std::this_thread::yield();
}

void Engine::mergeTrace() {
  // Under RecordTrace only logEntry draws tickets, so every ticket in
  // [0, Tickets) is exactly one entry in exactly one shard's log, and an
  // entry's merged index is its ticket: each entry is placed (its packet
  // moved) at its ticket, and parents, excusals and duplicates keep their
  // tickets as indices. Per-switch order equals each owner's processing
  // order (a switch's entries all come from one thread, ticketed in
  // program order) and a parent's ticket precedes its children's
  // (children are ticketed after the parent's enqueue), so the merged log
  // is a legal interleaving for the happens-before derivation.
  size_t NumEntries = Tickets.load();
  std::vector<consistency::TraceEntry> Entries(NumEntries);
  MergedTags.assign(NumEntries, 0);
  MergedTimes.assign(NumEntries, 0);
  std::vector<int> &Excused = Ledger.ExcusedEntries;
  [[maybe_unused]] size_t Placed = 0;
  for (auto &S : Shards) {
    for (StreamItem &It : S->Log) {
      assert(It.Ticket < NumEntries && "a logged ticket past the counter");
      int At = static_cast<int>(It.Ticket);
      if (It.K == StreamItem::Excuse) {
        Excused.push_back(At);
        continue;
      }
      consistency::TraceEntry &E = Entries[At];
      E.Lp = std::move(It.Lp);
      E.Parent = static_cast<int>(It.Parent);
      E.IsDelivery = It.IsDelivery;
      MergedTags[At] = It.Tag;
      MergedTimes[At] = It.TsNs;
      if (It.IsDup)
        Ledger.DupEntries.push_back(At);
      ++Placed;
    }
    // The log's records now live in the merged trace.
    std::vector<StreamItem>().swap(S->Log);
    S->LogHanded = 0;
  }
  assert(Placed == NumEntries && "a ticket with no log entry");
  MergedTrace = consistency::NetworkTrace(std::move(Entries));
  // Shed excusals are ledgered even without a fault plan: a shed overload
  // policy retires chains under plain pressure too. Every producer is
  // done (the workers joined; the injector is this thread), but a live
  // checker's collector is finalized only after finish() and may still
  // be draining, so read under its lock.
  for (auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->OverflowMu);
    for (int64_t T : S->ShedExcuses)
      Excused.push_back(static_cast<int>(T));
  }
  std::sort(Excused.begin(), Excused.end());
  Excused.erase(std::unique(Excused.begin(), Excused.end()), Excused.end());
  std::sort(Ledger.DupEntries.begin(), Ledger.DupEntries.end());
}

void Engine::finish() {
  if (!Started || Ran.load())
    return;
  ElapsedSec = nowSec();
  StopFlag.store(true);
  for (auto &S : Shards)
    S->Thread.join();

  mergeResults();
  Ran.store(true);
}

void Engine::run(const Workload &W) {
  start();
  for (const Phase &Ph : W.Phases) {
    injectBatch(Ph.Injections.data(), Ph.Injections.size());
    awaitQuiescence();
  }
  finish();
}

void Engine::mergeResults() {
  // Fault ledger records (owner-written, read post-join). The record
  // multiset is content-addressed, so its canonical form reproduces run
  // to run.
  if (C.Faults)
    for (auto &S : Shards)
      Ledger.Records.insert(Ledger.Records.end(), S->FaultRecs.begin(),
                            S->FaultRecs.end());
  // Without RecordTrace the logs were handed on and cleared as the run
  // went (stream-only mode): there is no trace to merge, and the stream
  // items carried the excusals already.
  if (C.RecordTrace)
    mergeTrace();

  // Final stats, including the transition-latency aggregates.
  FinalStats = Stats();
  FinalStats.ElapsedSec = ElapsedSec;
  FinalStats.EventsDetected = Events.get();
  FinalStats.CtrlDeltas = CtrlDeltas.get();
  FinalStats.BatchSize = C.BatchSize;
  fillPartitionStats(FinalStats);
  fillObsStats(FinalStats);
  fillFaultStats(FinalStats);
  for (auto &S : Shards) {
    ShardStats SS = baseShardStats(*S);
    SS.QueueDepth = 0;
    SS.FreelistGrowth = freelistGrowth(*S);
    addShardTotals(FinalStats, *S, SS);
  }
  if (ElapsedSec > 0) {
    FinalStats.PacketsPerSec = FinalStats.PacketsProcessed / ElapsedSec;
    FinalStats.DeliveredPerSec = FinalStats.PacketsDelivered / ElapsedSec;
  }
  // Learn times on the Figure 16(b) seconds-after-start clock, and the
  // update latency (detection -> each register learn) through an obs
  // histogram, so the digest carries percentiles, not just mean/max.
  // Post-run cost only: the samples are by-products of the protocol,
  // and both stamps come from monotonicNs() — no wall-clock skew.
  int64_t Base = StartNs.load();
  unsigned NE = N.numEvents();
  obs::LogHistogram UpdateNs;
  for (uint32_t D = 0; D != Idx.numSwitches(); ++D)
    for (unsigned E = 0; E != NE; ++E) {
      int64_t LearnAt = LearnNs[static_cast<size_t>(D) * NE + E];
      if (LearnAt < 0)
        continue;
      MergedLearnTimes.emplace(std::make_pair(Slots[D].Id, nes::EventId(E)),
                               static_cast<double>(LearnAt - Base) * 1e-9);
      int64_t Ns = DetectNs[E]->load();
      if (Ns < 0)
        continue;
      // A learn's group stamp is read after the learn, which follows the
      // detection's stamp (see publishGroup).
      int64_t Lat = LearnAt - Ns;
      assert(Lat >= 0 && "a learn stamped before its event's detection");
      TransitionNs.push_back(Lat);
      UpdateNs.record(static_cast<uint64_t>(Lat));
    }
  FinalStats.Transition = digestFrom(UpdateNs.snapshot(), 1e-9);
}

std::vector<obs::TraceEvent> Engine::timeline() const {
  using obs::TraceKind;
  std::vector<obs::TraceEvent> Out;
  auto ShardOf = [&](SwitchId Sw) { return Part.ShardOf[Idx.denseOf(Sw)]; };

  // Each merged entry's role, in one forward pass: parents precede
  // children, and a root is an injection, an egress's child is a link
  // arrival (a hop), and any other entry's child is a delivery or an
  // egress. A duplicate's egress is renamed after the pass.
  const std::vector<consistency::TraceEntry> &Entries = MergedTrace.entries();
  size_t NumEntries = Entries.size();
  std::vector<TraceKind> Role(NumEntries);
  std::vector<bool> HasChild(NumEntries, false), Excused(NumEntries, false);
  for (size_t I = 0; I != NumEntries; ++I) {
    int P = Entries[I].Parent;
    if (P >= 0)
      HasChild[P] = true;
    Role[I] = P < 0                          ? TraceKind::Inject
              : Role[P] == TraceKind::Egress ? TraceKind::Hop
              : Entries[I].IsDelivery        ? TraceKind::Deliver
                                             : TraceKind::Egress;
  }
  for (int I : Ledger.DupEntries) // at(): no trace after takeTrace()
    Role.at(I) = TraceKind::FaultDup;
  for (int I : Ledger.ExcusedEntries)
    Excused.at(I) = true;
  Out.reserve(NumEntries + Ledger.ExcusedEntries.size());
  for (size_t I = 0; I != NumEntries; ++I) {
    SwitchId Sw = Entries[I].Lp.sw();
    obs::TraceEvent Ev{MergedTimes[I], Sw, static_cast<uint32_t>(I), Role[I],
                       ShardOf(Sw)};
    Out.push_back(Ev);
    if (Excused[I]) {
      Ev.Kind = TraceKind::Excused;
      Out.push_back(Ev);
    } else if (!HasChild[I] && Role[I] != TraceKind::Deliver) {
      Ev.Kind = TraceKind::Drop;
      Out.push_back(Ev);
    }
  }

  // The update instants, from the first-detect and first-learn stamps.
  int64_t Base = StartNs.load();
  unsigned NE = N.numEvents();
  for (unsigned E = 0; E != NE; ++E)
    if (int64_t At = DetectNs[E]->load(); At >= 0) {
      SwitchId Sw = N.event(E).Loc.Sw;
      Out.push_back({At - Base, E, Sw, TraceKind::EventDetect, ShardOf(Sw)});
    }
  std::vector<int64_t> Swaps;
  for (uint32_t D = 0; D != Idx.numSwitches(); ++D) {
    SwitchId Sw = Slots[D].Id;
    Swaps.clear();
    for (unsigned E = 0; E != NE; ++E)
      if (int64_t At = LearnNs[static_cast<size_t>(D) * NE + E]; At >= 0) {
        Out.push_back(
            {At - Base, Sw, E, TraceKind::RegisterLearn, Part.ShardOf[D]});
        Swaps.push_back(At);
      }
    // One view store per distinct learn stamp (see applyRegister), with
    // the versions it published counting up from 1.
    std::sort(Swaps.begin(), Swaps.end());
    Swaps.erase(std::unique(Swaps.begin(), Swaps.end()), Swaps.end());
    for (size_t V = 0; V != Swaps.size(); ++V)
      Out.push_back({Swaps[V] - Base, Sw, static_cast<uint32_t>(V + 1),
                     TraceKind::ConfigSwap, Part.ShardOf[D]});
  }

  std::stable_sort(Out.begin(), Out.end(),
                   [](const obs::TraceEvent &A, const obs::TraceEvent &B) {
                     return A.TsNs < B.TsNs;
                   });
  return Out;
}

Stats Engine::stats() const {
  if (Ran.load())
    return FinalStats;
  Stats S;
  S.ElapsedSec = nowSec();
  S.EventsDetected = Events.get();
  S.CtrlDeltas = CtrlDeltas.get();
  S.BatchSize = C.BatchSize;
  fillPartitionStats(S);
  fillObsStats(S);
  fillFaultStats(S);
  for (const auto &Sh : Shards) {
    ShardStats SS = baseShardStats(*Sh);
    SS.QueueDepth = Sh->Q->sizeApprox();
    {
      std::lock_guard<std::mutex> Lock(Sh->OverflowMu);
      SS.QueueDepth += Sh->Overflow.size();
    }
    addShardTotals(S, *Sh, SS);
  }
  if (S.ElapsedSec > 0) {
    S.PacketsPerSec = S.PacketsProcessed / S.ElapsedSec;
    S.DeliveredPerSec = S.PacketsDelivered / S.ElapsedSec;
  }
  return S;
}

void Engine::fillPartitionStats(Stats &S) const {
  S.Partition.Strategy = Part.Strategy;
  S.Partition.CutWeight = Part.CutWeight;
  S.Partition.TotalWeight = Part.TotalWeight;
  S.Partition.MaxShardLoad = Part.MaxShardLoad;
  S.Partition.MinShardLoad = Part.MinShardLoad;
}

void Engine::fillFaultStats(Stats &S) const {
  S.FaultDrops = FaultDrops.get();
  S.FaultDups = FaultDups.get();
  S.FaultDelays = FaultDelays.get();
  S.FaultSheds = FaultSheds.get();
  S.FaultStalls = FaultStalls.get();
  S.FaultStorms = FaultStorms.get();
  S.DupDelivered = DupDelivered.get();
  S.DupDropped = DupDropped.get();
}

void Engine::fillObsStats(Stats &S) const {
  // Lock-free merge: histogram snapshots are relaxed copies, so this is
  // safe concurrently with run() (stats() live path) and exact once the
  // workers joined.
  obs::HistogramSnapshot Dwell, Occupancy;
  for (const auto &Sh : Shards) {
    if (Sh->Lat) {
      Dwell.merge(Sh->Lat->DwellNs.snapshot());
      Occupancy.merge(Sh->Lat->Occupancy.snapshot());
    }
  }
  S.QueueDwell = digestFrom(Dwell, 1e-9);
  S.BatchOccupancy = digestFrom(Occupancy, 1.0);
}

ShardStats Engine::baseShardStats(const Shard &Sh) const {
  ShardStats SS;
  SS.PacketsProcessed = Sh.Processed.get();
  SS.QueueHighWater = Sh.QueueHighWater.get();
  SS.Dropped = Sh.Dropped.get();
  SS.Transitions = Sh.Transitions.get();
  SS.Switches = Part.ShardSwitches[Sh.Index];
  SS.IdleSleeps = Sh.IdleSleeps.get();
  SS.Shed = Sh.Shed.get();
  SS.Stalls = Sh.Stalls.get();
  SS.FastLearns = Sh.FastLearns.get();
  return SS;
}

void Engine::addShardTotals(Stats &S, const Shard &Sh, const ShardStats &SS) {
  S.PacketsInjected += Sh.Injected.get();
  S.PacketsDelivered += Sh.Delivered.get();
  S.PacketsForwarded += Sh.Forwarded.get();
  S.PacketsDropped += SS.Dropped;
  S.PacketsProcessed += SS.PacketsProcessed;
  S.ConfigTransitions += SS.Transitions;
  S.FastPathLearns += SS.FastLearns;
  S.Shards.push_back(SS);
}

Engine::ViewSnapshot Engine::readView(SwitchId Sw) const {
  uint64_t View =
      Slots[Idx.denseOf(Sw)].Published.load(std::memory_order_acquire);
  auto Tag = static_cast<nes::SetId>(View);
  return ViewSnapshot{Tag, N.setBits(Tag), View >> 32};
}
