//===- engine/Engine.h - Sharded concurrent data-plane engine ---*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrent execution substrate for compiled NESes: N worker
/// threads each own a shard of the topology's switches and exchange
/// packets over lock-free MPSC queues. There is no controller thread:
/// the worker that detects an event plays the Figure 7 CTRLRECV and
/// CTRLSEND roles itself. It (a) pushes the event's id onto the
/// priority lane of every *other* shard that subscribes to the event
/// (the lane bypasses the data ring, so a delta never queues behind a
/// storm backlog, and the receiving worker checks the lane's head before
/// every message it processes), then (b) applies the transition to its
/// own subscribed switches. Merging a delta into a register is a union
/// with occurred events: one read of the precompiled single-event
/// transition table, or, when that union would leave the NES family (the
/// register lacks one of the event's causes), a merge of the detection's
/// consistent extension, so Definition 6 is unaffected. Per-switch event
/// registers are single-writer (the owning shard), so the Section 4
/// tag/digest protocol runs without locks:
///
///  - IN: an injected packet is stamped with the ingress switch's
///    current event-set tag by the owner, exactly the Figure 7 IN rule.
///  - SWITCH: the owner learns digest events and greedily-consistent
///    fresh events, forwards with the *stamped* tag's pipeline (packets
///    in flight never see a mixed configuration — the table a packet is
///    matched against is chosen by its immutable tag, and all lowered
///    pipelines are immutable), and sends its register on as the outgoing
///    digest (the digest it received is part of what it learned).
///  - A switch's register is always a member of the NES family, so it is
///    held as its family index (the tag), and a configuration transition
///    is one release store of the switch's view word (version << 32 |
///    tag), made once per switch per merge group: one detection's local
///    fan-out plus its SWITCH rule, or one lane drain. The group then
///    reads the clock once and stamps all its learns with that time. A
///    reader (stats, test monitors) takes one acquire load and reads the
///    register as the tag's family member, which lives as long as the
///    NES: a torn view cannot be formed, and nothing is retired.
///
/// Each shard records every occurrence once, in one trace log of entries
/// (ticketed from a global atomic counter and stamped with their time)
/// and excusals of ledgered drops. The live stream hand-off and the merge
/// at finish() read the same records; the merged consistency::NetworkTrace
/// places each entry at its ticket, so its log order is a legal global
/// interleaving (per-switch order is the owner's real processing order; a
/// parent's ticket always precedes its children's), and the Definition 6
/// checker applies to concurrent executions exactly as it does to the
/// sequential Machine and Simulation. The Perfetto timeline (timeline())
/// is derived from the same merged log, the fault ledger and the
/// first-detect and first-learn stamps: there is no second recording.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_ENGINE_ENGINE_H
#define EVENTNET_ENGINE_ENGINE_H

#include "consistency/Trace.h"
#include "engine/Compiled.h"
#include "engine/Partition.h"
#include "engine/Queue.h"
#include "engine/Stats.h"
#include "engine/TrafficGen.h"
#include "faults/Injector.h"
#include "nes/Nes.h"
#include "obs/Histogram.h"
#include "obs/Perfetto.h"
#include "support/BitSet.h"
#include "topo/Topology.h"

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace eventnet {
namespace engine {

/// What a producer does when a shard's bounded ring is full and the
/// backlog keeps growing.
enum class OverloadPolicy : uint8_t {
  /// Bounded spin -> yield -> exponential backoff retry on the ring,
  /// then spill to the unbounded overflow deque. Lossless; producers
  /// still never block indefinitely (a cycle of full rings with
  /// blocking producers-who-are-consumers would deadlock).
  Block,
  /// Bound the backlog at ring capacity; beyond it, shed the *oldest*
  /// buffered message to admit the new one. Update deltas ride their own
  /// lane and are never shed; every shed is accounted (per-shard counter,
  /// drop tally, excused trace ticket) so the audit stays exact.
  ShedOldest,
  /// Bound the backlog at ring capacity; beyond it, refuse the incoming
  /// message. Same accounting as ShedOldest.
  ShedNewest,
};

/// Stable lowercase name: "block", "shed-oldest", "shed-newest".
const char *overloadPolicyName(OverloadPolicy P);

/// Inverse of overloadPolicyName; nullopt for unknown names.
std::optional<OverloadPolicy> parseOverloadPolicy(const std::string &Name);

/// Engine construction parameters.
struct EngineConfig {
  /// Worker threads; switches are placed on shards by Partition.
  unsigned NumShards = 1;
  /// How switches map to shards (engine/Partition.h). The default grows
  /// contiguous regions and refines their boundaries so most hops stay
  /// on their owning worker; "modulo" is the historical round-robin
  /// placement, kept as the comparison baseline.
  PartitionStrategy Partition = PartitionStrategy::Refined;
  /// Per-shard queue capacity (rounded up to a power of two).
  size_t QueueCapacity = 1 << 15;
  /// Every switch learns every event (CTRLSEND to all), accelerating
  /// discovery beyond digest gossip: every switch subscribes to every
  /// event's deltas. Off by default, like the simulator; a switch then
  /// subscribes only to the events that change its table or can gate a
  /// detection at it (buildSubscriptions).
  bool CtrlBroadcast = false;
  /// Hosts answer echo requests in-engine (KindRequest -> KindReply).
  bool EchoReplies = true;
  /// Keep each shard's whole trace log for finish() to merge into trace()
  /// for the consistency checkers. Turn off for pure-throughput
  /// benchmarking.
  bool RecordTrace = true;
  /// Hand each shard's new log records to an external collector during
  /// the run (drainTraceStream) instead of — or, for differential
  /// testing, in addition to — keeping the log for the merged trace. The
  /// streaming Definition 6 checker rides this. With RecordTrace off a
  /// log holds only records not yet handed over, so verification memory
  /// stays O(window) however long the run is, and finish() merges no
  /// trace (the stream items carry the excusals).
  bool StreamTrace = false;
  /// Per-shard cap on buffered stream items awaiting the collector
  /// (StreamBuf). A collector that falls behind the data path (e.g. the
  /// single-threaded streaming checker on an oversubscribed machine)
  /// must not grow the buffer with the horizon: past the cap the shard
  /// sheds the overflow, counts it (streamLagShed), and the checker
  /// reports inconclusive — the run's memory and exit latency stay
  /// bounded, the verdict degrades honestly, and the data path never
  /// blocks on verification.
  size_t StreamBufCap = 1 << 16;
  /// No effect: the engine keeps no delivery log. The next benchmark
  /// change deletes it with its assignments in e2ebench/UpdateStorm.cpp
  /// and e2ebench/Serve.cpp.
  bool RecordDeliveries = true;
  /// Messages dequeued/enqueued per hot-loop iteration (amortizes the
  /// MPSC queue atomics; 1 degenerates to a message-at-a-time loop).
  /// Also the injection chunk: injectBatch() hands a shard's ring its
  /// injections BatchSize at a time.
  unsigned BatchSize = 32;
  /// Record per-hop queue-dwell and batch-occupancy histograms (obs/).
  /// Off by default: when off, the hot loop takes no timestamps and the
  /// recording calls reduce to a null-pointer test.
  bool LatencyHistograms = false;
  /// Behavior when a shard's ring overflows (see OverloadPolicy).
  OverloadPolicy Overload = OverloadPolicy::Block;
  /// Compiled fault plan, or null for no injection (the hooks then cost
  /// one predictable null/flag test, like the obs layer). The Injector
  /// must outlive the engine; it may clamp QueueCapacity.
  const faults::Injector *Faults = nullptr;
  /// Called on the *owning shard's worker thread* for every host
  /// delivery, after the delivery is trace-logged and counted. The sink
  /// must be fast and lock-light (it runs inside the hot loop) and
  /// thread-safe across shards. Empty = no sink, and the hook reduces
  /// to one predictable branch, like the obs layer.
  std::function<void(HostId, const netkat::Packet &)> DeliverySink;
};

/// A sharded multi-threaded data-plane engine executing one NES.
class Engine {
public:
  Engine(const nes::Nes &N, const topo::Topology &Topo,
         EngineConfig C = EngineConfig());

  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// Executes \p W phase by phase (quiescing between phases) and shuts
  /// the threads down. One workload per Engine. Implemented on the
  /// streaming surface below: start(); per phase injectBatch() +
  /// awaitQuiescence(); finish().
  void run(const Workload &W);

  //===--------------------------------------------------------------------===//
  // Streaming mode (the net backend's surface)
  //===--------------------------------------------------------------------===//
  //
  // An external driver — one thread at a time — can run the engine
  // open-ended instead of handing it a whole Workload: start() spins the
  // threads up, injectBatch() feeds traffic as it arrives (grouped by
  // ingress shard and handed over in chunks of BatchSize, one Pending add
  // per chunk), awaitQuiescence() blocks until everything in flight has
  // drained, and finish() joins the threads and merges results exactly as
  // run() does. start/injectBatch/awaitQuiescence/finish must all be
  // called from the same thread.

  /// Spins up the NumShards worker threads. Each first sizes its own
  /// buffers, which counts as work in flight: awaitQuiescence() waits for
  /// it. Call once.
  void start();
  /// Hands \p N injections to their ingress shards: a shard's ring gets
  /// each BatchSize-message chunk as soon as it is staged, so the workers
  /// forward the first chunks while the rest are still being staged, and
  /// the remainders go out at the end of the call. Caller must have
  /// called start(). Never blocks indefinitely (under Block, a full ring
  /// throttles each chunk with a bounded retry, then spills to the
  /// overflow deque; the shed policies shed instead).
  void injectBatch(const Injection *Inj, size_t N);
  /// Blocks until every in-flight message (packets, echo replies,
  /// update deltas) has drained and every worker has finished its
  /// set-up.
  void awaitQuiescence();
  /// Nonblocking quiescence probe. Monotone for the single external
  /// driver: once true, only the driver's own injectBatch() can make it
  /// false again. Inside an injectBatch() call Pending can touch zero
  /// between two chunks, but no one sees that: only the injecting thread
  /// probes, and it is still inside the call.
  bool quiescent() const { return Pending.load() == 0; }
  /// Stops and joins the threads, merges traces/stats. Idempotent; the
  /// engine is read-only afterwards.
  void finish();

  /// One record of a shard's trace log and of the streaming trace feed:
  /// either a trace entry or an excusal (a ledgered drop/shed whose chain
  /// may legitimately end at Ticket). Parent is the producing
  /// occurrence's ticket, -1 for a root; Tag is the packet's configuration
  /// tag; IsDup marks a fault-plan duplicate's egress entry; TsNs is the
  /// entry's time, in nanoseconds since start() (0 on an excusal).
  struct StreamItem {
    enum Kind : uint8_t { Entry, Excuse } K = Entry;
    uint64_t Ticket = 0;
    int64_t Parent = -1;
    netkat::Packet Lp;
    bool IsDelivery = false;
    bool IsDup = false;
    nes::SetId Tag = 0;
    int64_t TsNs = 0;
  };

  /// Drains every shard's buffered stream items into \p Out (appended;
  /// per-shard ticket order, unordered across shards) and returns the
  /// commit watermark W: no shard will ever again produce an entry with
  /// ticket < W, so a checker may commit everything <= W - 1. Returns 0
  /// until every shard has published a first watermark. One collector
  /// thread at a time; callable concurrently with the run.
  uint64_t drainTraceStream(std::vector<StreamItem> &Out);

  /// Stream items shed because a shard's StreamBuf sat at
  /// EngineConfig::StreamBufCap when the shard tried to flush (the
  /// collector was not keeping up). Nonzero means the streaming checker
  /// saw a gappy trace and its verdict must not be a clean pass.
  /// Callable concurrently with the run.
  uint64_t streamLagShed();

  /// Stream items currently buffered and awaiting the collector (sum of
  /// per-shard StreamBuf sizes; excludes worker-local pending items). A
  /// closed-loop producer can poll this between batches and yield until
  /// the checker catches up, keeping the hand-off below StreamBufCap so
  /// nothing is shed. Callable concurrently with the run.
  uint64_t streamBacklog();

  /// Counter snapshot; callable concurrently with run() from another
  /// thread (latency aggregates are only populated once run returned).
  Stats stats() const;

  /// The merged network trace (valid after run; empty if RecordTrace
  /// was off).
  const consistency::NetworkTrace &trace() const { return MergedTrace; }

  /// Moves the merged trace out (for report assembly on a dying engine;
  /// trace() is empty afterwards).
  consistency::NetworkTrace takeTrace() { return std::move(MergedTrace); }

  /// The configuration tag each trace entry's packet carried, parallel
  /// to trace().entries().
  const std::vector<nes::SetId> &traceTags() const { return MergedTags; }

  /// The fault ledger assembled by run(): the deterministic record
  /// multiset (drops/dups/delays/storms) plus the merged-trace indices
  /// the consistency checker needs to excuse ledgered damage. Empty
  /// when no plan was active.
  const faults::FaultLedger &faultLedger() const { return Ledger; }

  /// Moves the ledger out (for report assembly on a dying engine).
  faults::FaultLedger takeFaultLedger() { return std::move(Ledger); }

  /// The run's Perfetto timeline (obs/Perfetto.h), sorted by time: one
  /// instant per merged trace entry named by its role, excused and drop
  /// instants where chains end, and event_detect, register_learn and
  /// config_swap instants from the first-detect and first-learn stamps,
  /// each on the track of the shard owning its switch. Valid after
  /// finish() and before takeTrace()/takeFaultLedger(); the entry
  /// instants need RecordTrace.
  std::vector<obs::TraceEvent> timeline() const;

  /// Seconds after run() start at which each switch first learned each
  /// event (valid after run) — the Figure 16(b) measurement. Derived
  /// from the monotonic learn stamps at merge time. A learn's stamp is
  /// its merge group's one clock read, taken after the group's view
  /// stores: an upper bound on the learn, never earlier than its store,
  /// and never earlier than the event's detection.
  const std::map<std::pair<SwitchId, nes::EventId>, double> &
  learnTimes() const {
    return MergedLearnTimes;
  }

  /// Raw event-detection -> register-learn latencies in nanoseconds,
  /// one sample per (switch, event) learn (valid after run) — what the
  /// Transition digest summarizes. Exposed raw so benches can merge
  /// percentiles across repeated runs. Each runs from the detection
  /// stamp to the learn's group stamp (see learnTimes()), so none is
  /// negative.
  const std::vector<int64_t> &transitionLatenciesNs() const {
    return TransitionNs;
  }

  /// A read of a switch's published view: tag, register, and the
  /// monotonic version stamped at each transition. One acquire load of
  /// the switch's view word; the register is the tag's family member
  /// (structure().setBits(Tag)), valid as long as the NES. Lock-free;
  /// callable from any thread at any time.
  struct ViewSnapshot {
    nes::SetId Tag;
    const DenseBitSet &E;
    uint64_t Version;
  };
  ViewSnapshot readView(SwitchId Sw) const;

  const nes::Nes &structure() const { return N; }
  const topo::Topology &topology() const { return Topo; }

  /// The shard placement this engine runs under (chosen at
  /// construction; immutable afterwards).
  const PartitionResult &partition() const { return Part; }

private:
  /// Owner-private plus published per-switch state. The register is
  /// N.setBits(Tag), immutable for the NES's lifetime, so a transition
  /// changes one family index.
  struct SwitchSlot {
    SwitchId Id = 0;
    uint32_t Shard = 0;
    nes::SetId Tag = 0; ///< owner's working tag
    /// The published view, Version << 32 | Tag: stored with release at
    /// every transition (owner only), read with one acquire load.
    std::atomic<uint64_t> Published{0};
  };

  /// A packet in flight with its Section 4 metadata.
  struct EnginePacket {
    netkat::Packet Pkt;
    nes::SetId Tag = 0;
    /// The digest, as a family index: a hop's digest is its sender's
    /// register after the SWITCH rule (which has learned the digest the
    /// sender received, so it contains it, and is a family member by
    /// Lemma 3); an injection's is N.emptySet().
    nes::SetId Digest = 0;
    int64_t Parent = -1; ///< trace ticket of the producing occurrence
    uint32_t Dense = 0;  ///< dense index of Pkt.sw() (set by the sender,
                         ///< so the hot loop never hashes a SwitchId)
    bool IngressLogged = false;
    /// Descends from a fault-plan duplicate: its terminal outcome is
    /// tallied separately (DupDelivered/DupDropped) so the drop audit
    /// can net duplicates out of delivered + dropped == injected.
    bool FromDup = false;
  };

  /// A message carrying one packet: a hop in flight (PacketIn) or a host
  /// injection (Inject). An injection's header rides in P.Pkt, already
  /// placed at the host's ingress with P.Dense set; handleInject fills in
  /// the rest of P where the message sits, so a recycled slot keeps its
  /// packet's capacity. Msgs live in recycled slots (MsgBuf, the dequeue
  /// batch) and the overflow deque; a data ring carries each one as a
  /// MsgRecord.
  struct Msg {
    enum Kind : uint8_t { PacketIn, Inject } K = PacketIn;
    EnginePacket P;
    HostId From = 0;   ///< injecting host (Inject only)
    int64_t EnqNs = 0; ///< ring-enqueue stamp (only when LatencyHistograms)
  };

  /// A Msg flattened into plain data: the form it takes in a data ring's
  /// cell. The producer packs each Msg into one (pushBatchToShard) and the
  /// owner unpacks each into a recycled Batch slot whose packet keeps its
  /// capacity (drainBatch), so a push copies bytes and allocates nothing,
  /// on a ring's first lap or any later one. The digest is one family
  /// index, so it fits whatever the NES's event count; a Msg with more
  /// than MaxFields header fields does not fit and travels the overflow
  /// deque instead. Every sim/Wire.h packet fits (sw, pt, ip_src, ip_dst,
  /// kind, seq, probe and conn at most). A record fills two cache lines.
  struct alignas(64) MsgRecord {
    static constexpr unsigned MaxFields = 8;

    int64_t Parent;
    int64_t EnqNs;
    Value Vals[MaxFields]; ///< field values, parallel to Ids
    nes::SetId Tag;
    nes::SetId Digest;
    HostId From;
    uint32_t Dense;
    FieldId Ids[MaxFields]; ///< field ids, strictly increasing
    uint8_t NumFields;
    Msg::Kind K;
    bool IngressLogged : 1;
    bool FromDup : 1;

    /// Packs \p M; false (and nothing written) when it does not fit.
    bool pack(const Msg &M);
    /// Rebuilds the packed message in \p M, reusing its capacity.
    void unpack(Msg &M) const;
  };
  static_assert(sizeof(MsgRecord) == 128, "a record is two cache lines");

  /// The per-shard latency-histogram pair (heap-allocated only when
  /// EngineConfig::LatencyHistograms is on; ~15 KB each).
  struct ShardLatency {
    obs::LogHistogram DwellNs;    ///< ring enqueue -> owner dequeue, ns
    obs::LogHistogram Occupancy;  ///< messages per non-empty drain batch
  };

  /// A recycled message buffer for one target shard (a worker's egress,
  /// injectBatch's injections): slots keep their heap capacity across
  /// reset(), so batching allocates nothing; the flush packs each
  /// message into a plain MsgRecord for the target ring.
  using MsgBuf = RecyclePool<Msg>;

  struct Shard {
    uint32_t Index = 0; ///< own position in Shards
    /// Lock-free fast path: cells are plain MsgRecords, so no push
    /// allocates.
    std::unique_ptr<BoundedMpscQueue<MsgRecord>> Q;
    /// Overflow when the ring is full, and for messages too wide for a
    /// MsgRecord: producers never block (a cycle of full bounded queues
    /// would otherwise deadlock the workers); the owner drains the ring
    /// first, then the overflow.
    std::mutex OverflowMu;
    std::deque<Msg> Overflow;
    /// Priority update lane of event ids: deltas bypass the data ring
    /// entirely, so an update is never stuck behind a storm backlog of
    /// data packets — the owner drains this lane ahead of every ring
    /// batch and tests its head (headReady) before every message, so a
    /// delta waits for at most one hop of work, and an empty lane costs
    /// two loads. Many producers (whichever worker detected the event,
    /// including this one for fault-plan storms), single consumer (the
    /// owner). Each event is detected once, so over a run the lane takes
    /// at most NumEvents x (1 + CtrlStormRepeat) deltas, and it is sized
    /// to that bound: a push never fails, and shedding never touches the
    /// lane (dropping a delta would wedge event propagation, not degrade
    /// it).
    std::unique_ptr<BoundedMpscQueue<uint32_t>> Ctrl;
    std::thread Thread;
    /// Recycled classifier outputs; the worker sizes their headers
    /// itself before it takes work (workerLoop). A hop swaps its output
    /// into its egress slot (forwardOut), so these slots trade buffers
    /// with the message slots as the run goes.
    PacketBuf ClsOut;
    /// Recycled dequeue batch slots: drainBatch unpacks each popped
    /// record into one, and the slot's vectors keep their capacity.
    std::vector<Msg> Batch;
    /// BatchSize records of staging, private to the owner: drainBatch
    /// pops a ring batch into it before unpacking, and this shard's
    /// pushes (flushOut, delayed releases) pack each chunk into it. The
    /// two never overlap: a popped batch is unpacked before any push.
    std::vector<MsgRecord> Stage;
    std::vector<MsgBuf> OutBufs; ///< recycled egress, per target
    MsgBuf SelfProc; ///< swap space for draining OutBufs[Index] in place
    /// Scratch bitsets for the SWITCH rule, reserved to the NES's word
    /// count at construction: neither the hot loop nor a detection
    /// allocates for them.
    DenseBitSet ScratchKnown, ScratchFresh, ScratchExt, ScratchNew;
    /// Scratch register for the update paths' causal fallback (fan-out
    /// and delta merges whose single-event transition is not in the
    /// table); separate from the SWITCH-rule scratch so a mid-detection
    /// fan-out cannot clobber the Known/Fresh sets.
    DenseBitSet ScratchFan;
    /// Per-message counters live on the shard that bumps them, so no two
    /// workers ever write the same counter line; stats() and
    /// mergeResults() sum them over shards. Those only the owner bumps
    /// are single-writer (a plain increment). A shed runs on the
    /// producer's thread and bumps the destination shard's Injected,
    /// Dropped and Shed, and a producer that spills raises
    /// QueueHighWater, so those four take locked read-modify-writes.
    RelaxedCounter Injected;       ///< injections stamped (or shed) here
    SingleWriterCounter Delivered; ///< packets handed to hosts here
    SingleWriterCounter Forwarded; ///< link traversals sent from here
    SingleWriterCounter Processed;
    SingleWriterCounter Transitions; ///< view stores
    RelaxedCounter Dropped;
    RelaxedCounter QueueHighWater;
    SingleWriterCounter IdleSleeps;
    RelaxedCounter Shed; ///< messages shed here by the overload policy
    SingleWriterCounter Stalls;     ///< fault-plan stalls taken by this worker
    SingleWriterCounter FastLearns; ///< registers advanced by the local fast path
    /// The switches the current merge group moved, each with its tag at
    /// the group's start (applyRegister appends, publishGroup empties).
    /// Reserved to the shard's switch count, so a group never allocates.
    struct Moved {
      uint32_t Dense;
      nes::SetId Old;
    };
    std::vector<Moved> Group;

    /// Fault-injection state; only touched when a plan is active.
    /// Owner-thread unless noted.
    struct DelayedMsg {
      uint32_t Target = 0;   ///< destination shard
      uint64_t ReleaseAt = 0; ///< DrainPolls threshold for release
      Msg M;
    };
    std::deque<DelayedMsg> Delayed;        ///< held hops (delay faults)
    uint64_t DrainPolls = 0;               ///< drainBatch calls, incl. empty
    uint64_t NonEmptyBatches = 0;          ///< stall cadence counter
    uint64_t StallEvery = 0;               ///< resolved stall rule; 0 = none
    uint32_t StallUs = 0;
    /// Ledgered faults: link drops/dups/delays, plus one Storm record
    /// per event this shard detected under a storm plan.
    std::vector<faults::FaultRecord> FaultRecs;
    /// The owner-private trace log: entries in ticket order, fault-drop
    /// excusals between them. Under StreamTrace the owner hands the
    /// records past LogHanded to StreamBuf (StreamMu) once per loop
    /// iteration — copying them if RecordTrace keeps the log for finish(),
    /// else moving them and clearing the log — then publishes
    /// StreamWatermark: a promise that this shard will never again log a
    /// ticket below it.
    std::vector<StreamItem> Log;
    size_t LogHanded = 0;
    /// Shed excusals (parents of messages shed from this ring), written by
    /// producers under OverflowMu and handed on past ShedHanded likewise.
    std::vector<int64_t> ShedExcuses;
    size_t ShedHanded = 0;
    std::mutex StreamMu;
    std::vector<StreamItem> StreamBuf;
    uint64_t StreamLagShed = 0; ///< items shed at StreamBufCap (StreamMu)
    std::atomic<uint64_t> StreamWatermark{0};
    /// Latency histograms (obs/): null when EngineConfig::LatencyHistograms
    /// is off — recording then costs one predictable null test and the
    /// hot loop takes no timestamps.
    std::unique_ptr<ShardLatency> Lat;
  };

  /// Total growth events of a shard's recycled buffers (classifier
  /// output pool + egress slots). Non-atomic reads: only valid after the
  /// shard thread joined (mergeResults), not from concurrent stats().
  static uint64_t freelistGrowth(const Shard &S) {
    uint64_t G = S.ClsOut.grownCount() + S.SelfProc.grownCount();
    for (const MsgBuf &B : S.OutBufs)
      G += B.grownCount();
    return G;
  }

  void workerLoop(unsigned ShardIdx);
  /// Builds the event->switch subscription index: which dense switches
  /// care about each event, grouped by owning shard, plus the per-event
  /// list of shards with at least one subscriber.
  void buildSubscriptions();
  /// Pushes \p E onto the priority lane of every subscribed shard other
  /// than the detecting shard \p S. Only the worker that won
  /// DetectNs[E] calls it, after writing EventCtx[E].
  void sendDeltas(Shard &S, unsigned E);
  /// Fault-plan storm: re-sends \p E's delta to every shard's lane
  /// CtrlStormRepeat times (idempotent: registers only grow) and ledgers
  /// one Storm record in \p S's FaultRecs. Same caller as sendDeltas.
  void sendStorm(Shard &S, unsigned E);
  /// Counts one delta into Pending and pushes \p E onto \p Target's
  /// priority lane (the push's release publishes EventCtx[E]).
  void pushDelta(uint32_t Target, unsigned E);
  /// Shard-local fast path: the detecting shard applies \p E to its own
  /// subscribed switches immediately (one view store each). \p DetectDense
  /// learns via the SWITCH rule's own Fresh merge and is skipped here.
  /// \p Ctx is the detection's consistent extension — occurred events
  /// covering \p E's causes.
  void fanOutLocal(Shard &S, unsigned E, uint32_t DetectDense,
                   const DenseBitSet &Ctx);
  /// Merges the single event \p E into \p Dense's register if new: one
  /// read of the transition table. When the single-event union is not an
  /// NES family member (the register lacks one of \p E's causes), merges
  /// \p Ctx — a set of occurred events containing \p E's enabling chain
  /// — instead.
  void mergeEventInto(Shard &S, uint32_t Dense, unsigned E,
                      const DenseBitSet &Ctx);
  /// Drains \p S's priority update lane as one merge group, merging each
  /// delta into the shard's subscribed switches; returns how many deltas
  /// it processed. Called ahead of every ring batch, and by processMsg
  /// before every message whose turn finds the lane's head published.
  size_t drainCtrlLane(Shard &S);
  size_t drainBatch(Shard &S);
  /// Drains OutBufs[S.Index] in place (self-delivered hops never touch
  /// the ring or Pending) until every chain ends or leaves the shard.
  void drainSelf(Shard &S);
  /// Releases delay-held messages whose poll deadline passed.
  void releaseDelayed(Shard &S);
  /// Admits \p M to \p Dst's overflow under the configured overload
  /// policy (spill, or bounded-backlog shedding with full accounting).
  void overflowMsg(Shard &Dst, Msg &&M);
  /// Retires \p M unprocessed: Pending release, drop/shed tallies,
  /// excused-ticket ledgering. Caller holds Dst.OverflowMu.
  void shedLocked(Shard &Dst, Msg &M);
  void flushOut(Shard &S);
  void prefetchMsg(const Msg &M) const;
  /// Drains the control lane first if its head is published, so a delta
  /// merges before the next hop, then runs \p M.
  void processMsg(Shard &S, Msg &M);
  /// IN rule for an Inject message, applied in place: \p M's packet is
  /// stamped and processed from its slot.
  void handleInject(Shard &S, Msg &M);
  void processPacket(Shard &S, EnginePacket &P);
  /// Delivers, drops or forwards the classifier output \p Out of \p P at
  /// \p AtDense. A forwarded hop takes \p Out's buffer by swap, so \p Out
  /// is left holding a recycled one.
  void forwardOut(Shard &S, const EnginePacket &P, uint32_t AtDense,
                  netkat::Packet &Out, nes::SetId OutDigest);
  /// Moves \p Dense's working register to the family member \p NewTag
  /// (a strict superset of the current one) and enters the switch in the
  /// shard's merge group; publishGroup stores the view and stamps the
  /// learns.
  void applyRegister(Shard &S, uint32_t Dense, nes::SetId NewTag);
  /// Ends \p S's merge group: one view store per switch it moved, then
  /// one clock read that stamps every first learn of the group.
  void publishGroup(Shard &S);
  /// Pushes \p N already-Pending-counted messages into \p Target's ring,
  /// packing each BatchSize chunk into the producer's \p Stage records
  /// first. Messages too wide for a record go to the overflow deque.
  /// Stamps each message's EnqNs when latency histograms are on (hence
  /// non-const).
  void pushBatchToShard(uint32_t Target, Msg *Msgs, size_t N,
                        MsgRecord *Stage);
  /// Pushes \p N packed records into \p Dst's ring (batch CAS), retrying
  /// under Block, and spills what does not fit to the overflow deque.
  void pushRecords(Shard &Dst, const MsgRecord *Recs, size_t N);
  /// Logs one trace entry and returns its ticket, or -1 with the log
  /// off: the gate is inline, so an untraced hop makes no call here.
  int64_t logEntry(Shard &S, const netkat::Packet &Lp, int64_t Parent,
                   bool IsDelivery, nes::SetId Tag) {
    if (!C.RecordTrace && !C.StreamTrace)
      return -1;
    return appendEntry(S, Lp, Parent, IsDelivery, Tag);
  }
  int64_t appendEntry(Shard &S, const netkat::Packet &Lp, int64_t Parent,
                      bool IsDelivery, nes::SetId Tag);
  void mergeResults();
  /// Merges the logs into trace(), traceTags(), the entry times and the
  /// ledger's indices, then releases the logs.
  void mergeTrace();
  /// The partition summary and per-shard counters shared by stats() and
  /// mergeResults() (one source of truth for both report shapes).
  void fillPartitionStats(Stats &S) const;
  /// Fault-injection counter totals (relaxed reads; live-safe).
  void fillFaultStats(Stats &S) const;
  /// Latency-histogram digests (lock-free; exact after join,
  /// racy-but-consistent during run for the sampler).
  void fillObsStats(Stats &S) const;
  ShardStats baseShardStats(const Shard &Sh) const;
  /// Adds \p Sh's counters (with \p SS, its ShardStats) into \p S's
  /// engine-wide totals and appends \p SS to S.Shards.
  static void addShardTotals(Stats &S, const Shard &Sh, const ShardStats &SS);
  static int64_t monotonicNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  double nowSec() const {
    // StartNs is atomic: stats() may race run()'s clock reset.
    return static_cast<double>(monotonicNs() - StartNs.load()) * 1e-9;
  }

  const nes::Nes &N;
  const topo::Topology &Topo;
  EngineConfig C;

  SwitchIndex Idx;
  PartitionResult Part; ///< dense switch -> shard placement + quality
  CompiledNes Compiled;
  std::unique_ptr<SwitchSlot[]> Slots; ///< by dense switch index
  std::vector<std::unique_ptr<Shard>> Shards;

  // Update-pipeline routing (built once at construction; read-only
  // afterwards).
  /// Dense switches subscribed to event E and owned by shard S, at
  /// [E * NumShards + S]. A switch subscribes to an event iff adding it
  /// to some family set changes the switch's table, or the event shares
  /// a family set with an event detectable at the switch (so its arrival
  /// can gate a future local detection via enables/con). Under
  /// CtrlBroadcast every switch subscribes to every event.
  std::vector<std::vector<uint32_t>> SubSwitches;
  /// Shards with at least one subscriber, per event (delta routing).
  std::vector<std::vector<uint32_t>> SubShards;
  /// Per event, the detection's consistent extension: the causal
  /// fallback of its lane merges. Reserved to the NES's word count at
  /// construction and written once, by the worker that wins
  /// DetectNs[E], before its first delta push for the event; the push's
  /// release publishes it to every lane consumer.
  std::vector<DenseBitSet> EventCtx;

  std::atomic<uint64_t> Tickets{0};
  std::atomic<int64_t> Pending{0};
  std::atomic<bool> StopFlag{false};
  std::atomic<int64_t> StartNs{0}; ///< run() start, steady-clock ns
  bool Started = false; ///< start() ran (driver-thread private)
  /// Injection staging buffers, one per ingress shard, pre-sized to
  /// BatchSize slots and reset() after each chunk is pushed: headers are
  /// copy-assigned into slots that keep their capacity, so the injecting
  /// thread allocates nothing per injection however large a call is
  /// (private to the injecting thread).
  std::vector<MsgBuf> InjBufs;
  /// The injecting thread's BatchSize records of ring staging (see
  /// Shard::Stage).
  std::vector<MsgRecord> InjStage;

  // Engine-wide counters (cache-line padded, relaxed; see Stats.h). They
  // move per event or per fault; the per-message tallies live on the
  // Shard.
  /// Events counts detections that won their DetectNs compare-exchange
  /// (the Figure 7 CTRLRECV set, one per distinct event).
  RelaxedCounter Events;
  RelaxedCounter CtrlDeltas; ///< deltas detecting workers sent other shards

  // Fault injection. FaultArmed is per dense switch, read-only after
  // construction.
  std::vector<bool> FaultArmed;
  RelaxedCounter FaultDrops, FaultDups, FaultDelays, FaultSheds,
      FaultStalls, FaultStorms, DupDelivered, DupDropped;
  faults::FaultLedger Ledger; ///< assembled by mergeResults()
  /// First-detection stamp per event, raw monotonicNs(), -1 until
  /// detected; the compare-exchange that sets it elects the one worker
  /// that counts the event and sends its storm.
  std::vector<std::unique_ptr<std::atomic<int64_t>>> DetectNs;
  /// First-learn stamp per (dense switch D, event E) at
  /// [D * numEvents + E], raw monotonicNs(), -1 until learned — the same
  /// clock as DetectNs, so the Transition digest is a pure monotonic
  /// difference. Every learn of a merge group gets the group's one clock
  /// read (publishGroup). A slot is written only by its switch's owning
  /// shard and read after the join.
  std::vector<int64_t> LearnNs;
  double ElapsedSec = 0;
  std::atomic<bool> Ran{false};

  // Merged results (valid after run()).
  consistency::NetworkTrace MergedTrace;
  std::vector<nes::SetId> MergedTags;
  std::vector<int64_t> MergedTimes; ///< entry times, parallel to MergedTags
  std::map<std::pair<SwitchId, nes::EventId>, double> MergedLearnTimes;
  std::vector<int64_t> TransitionNs; ///< detect->learn samples, ns
  Stats FinalStats;
};

} // namespace engine
} // namespace eventnet

#endif // EVENTNET_ENGINE_ENGINE_H
