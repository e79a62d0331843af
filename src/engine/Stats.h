//===- engine/Stats.h - Engine statistics snapshot --------------*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A point-in-time snapshot of the concurrent engine's counters:
/// per-shard throughput, queue depth/high-water marks, drop counts,
/// freelist growth, configuration transitions, and latency digests from
/// the obs/ histograms — update latency (event detection to each
/// switch's register learning it, the engine analogue of the Figure
/// 16(b) discovery-time measurement), per-hop queue dwell, and hot-loop
/// batch occupancy, each surfaced as p50/p90/p99/max.
///
/// RelaxedCounter and SingleWriterCounter are the live-counter types
/// behind the snapshot: each counter owns a full cache line and every
/// access is a relaxed atomic — the counters carry no synchronization,
/// only tallies. Padding only separates *different* counters; a counter
/// that every worker bumps still bounces its one line between cores on
/// every bump. So every counter the hot loop bumps per message is owned
/// by a shard (the engine's Shard), and the snapshot sums them over
/// shards; the engine-wide counters left are bumped per event or per
/// fault.
///
/// A shard counter that only its worker bumps (processed, forwarded,
/// delivered, transitions, fast learns, idle sleeps, stalls) is a
/// SingleWriterCounter: a bump is a relaxed load plus a store, not a
/// locked read-modify-write. One that another thread also bumps stays a
/// RelaxedCounter: injected, dropped and shed (a producer sheds into the
/// destination shard's counters), the queue high-water mark (raised by
/// producers that spill), and the engine-wide and server counters.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_ENGINE_STATS_H
#define EVENTNET_ENGINE_STATS_H

#include <atomic>
#include <cassert>
#include <cstdint>
#include <thread>
#include <vector>

namespace eventnet {
namespace engine {

/// Defined in engine/Partition.h; declared opaquely here so the stats
/// snapshot can carry the enum without pulling the partitioner in.
enum class PartitionStrategy : uint8_t;

/// A monotone event counter padded to a cache line, accessed with
/// relaxed atomics only (it synchronizes nothing; readers get a racy but
/// individually-consistent tally).
struct alignas(64) RelaxedCounter {
  std::atomic<uint64_t> V{0};

  void add(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t get() const { return V.load(std::memory_order_relaxed); }

  /// Raises the counter to \p N if larger (high-water marks).
  void raiseTo(uint64_t N) {
    uint64_t Cur = V.load(std::memory_order_relaxed);
    while (N > Cur &&
           !V.compare_exchange_weak(Cur, N, std::memory_order_relaxed))
      ;
  }
};

/// A counter padded to a cache line that exactly one thread bumps: add()
/// is a relaxed load plus a relaxed store, so a bump costs no locked
/// instruction, and readers on other threads still get a racy but
/// individually-consistent tally. A second writer would lose updates
/// silently, and ThreadSanitizer cannot see that (relaxed atomics never
/// race), so debug builds assert that every bump comes from the thread
/// that made the first one.
struct alignas(64) SingleWriterCounter {
  std::atomic<uint64_t> V{0};
#ifndef NDEBUG
  std::atomic<std::thread::id> Writer{};
#endif

  void add(uint64_t N = 1) {
#ifndef NDEBUG
    std::thread::id Me = std::this_thread::get_id(), Seen{};
    if (!Writer.compare_exchange_strong(Seen, Me, std::memory_order_relaxed))
      assert(Seen == Me && "a single-writer counter bumped by two threads");
#endif
    V.store(V.load(std::memory_order_relaxed) + N, std::memory_order_relaxed);
  }
  uint64_t get() const { return V.load(std::memory_order_relaxed); }
};

/// Counters of one shard.
struct ShardStats {
  uint64_t PacketsProcessed = 0; ///< switch-hops executed by this shard
  uint64_t QueueDepth = 0;       ///< approximate pending messages
  uint64_t QueueHighWater = 0;   ///< max observed ring + overflow depth
  uint64_t Dropped = 0;          ///< drops attributed to this shard
  uint64_t Transitions = 0;      ///< view stores, per switch per merge group
  uint64_t FreelistGrowth = 0;   ///< recycled-buffer pool growth events
  uint32_t Switches = 0;         ///< switches placed on this shard
  uint64_t IdleSleeps = 0;       ///< idle-backoff sleeps taken by the worker
  uint64_t Shed = 0;             ///< messages shed by the overload policy
  uint64_t Stalls = 0;           ///< fault-plan stalls taken by the worker
  uint64_t FastLearns = 0;       ///< registers advanced by the local fast path
};

/// What the shard partitioner achieved for this run (see
/// engine/Partition.h); lets bench and CLI output attribute scaling
/// behavior to placement quality without a profiler.
struct PartitionSummary {
  /// Static strategy, rendered via partitionStrategyName(). Value-
  /// initialized to 0 == Modulo (the enum is opaque here).
  PartitionStrategy Strategy{};
  uint64_t CutWeight = 0;   ///< edge weight crossing shard boundaries
  uint64_t TotalWeight = 0; ///< total edge weight of the switch graph
  uint64_t MaxShardLoad = 0;
  uint64_t MinShardLoad = 0;
};

/// Percentile summary of one obs/Histogram.h latency histogram, in
/// seconds (percentile error is bounded by the histogram's sub-bucket
/// resolution, ~3%; Max is exact).
struct LatencyDigest {
  uint64_t Samples = 0;
  double MeanSec = 0;
  double P50Sec = 0;
  double P90Sec = 0;
  double P99Sec = 0;
  double MaxSec = 0;
};

/// Snapshot of the whole engine.
struct Stats {
  double ElapsedSec = 0;         ///< run() wall time (injection to drain)
  uint64_t PacketsInjected = 0;  ///< host emissions (incl. echo replies)
  uint64_t PacketsProcessed = 0; ///< total switch-hops
  uint64_t PacketsDelivered = 0; ///< packets handed to a host
  uint64_t PacketsDropped = 0;   ///< table miss / drop rule / dangling port
  uint64_t PacketsForwarded = 0; ///< link traversals
  uint64_t EventsDetected = 0;   ///< distinct NES events that occurred
  uint64_t ConfigTransitions = 0;

  /// Update-pipeline tallies: registers advanced by the detecting
  /// shard's local fan-out, and event-id deltas the detecting shard
  /// pushed onto other shards' priority lanes (never one back to itself,
  /// so a 1-shard run sends none; fault-plan storm re-sends are counted
  /// in FaultStorms instead).
  uint64_t FastPathLearns = 0;
  uint64_t CtrlDeltas = 0;

  unsigned BatchSize = 1; ///< hot-loop dequeue/enqueue batch size

  /// The shard placement this run executed under.
  PartitionSummary Partition;

  /// Switch-hops per wall-clock second (the headline throughput).
  double PacketsPerSec = 0;
  /// Delivered packets per wall-clock second.
  double DeliveredPerSec = 0;

  /// Event-detection to register-learn latency over all (switch, event)
  /// pairs that learned (tag/digest propagation plus queueing) — the
  /// update latency. Always populated after run() (the samples are
  /// by-products of the protocol, so no hot-path cost).
  LatencyDigest Transition;

  /// Per-hop queue dwell: enqueue on a producing shard to dequeue by the
  /// owner. Only populated when EngineConfig::LatencyHistograms is on.
  LatencyDigest QueueDwell;

  /// Messages per non-empty hot-loop drain batch. Dimensionless counts
  /// stored in the *Sec fields (no scaling); only populated when
  /// EngineConfig::LatencyHistograms is on.
  LatencyDigest BatchOccupancy;

  /// No effect: always 0. The engine records no second trace that could
  /// drop events (its timeline is derived from the trace log). The next
  /// benchmark change deletes it with its read in e2ebench/UpdateStorm.cpp.
  uint64_t TraceDropped = 0;

  /// Fault-injection tallies (all zero when no plan is active). Drops,
  /// dups, and delays are ledgered one record per packet; each detected
  /// event's storm burst is one ledger record (the event id and the
  /// repeat count, so it is deterministic too), while FaultStorms counts
  /// the deltas the burst re-sent. Sheds and stalls are timing-dependent
  /// and counted here only.
  uint64_t FaultDrops = 0;   ///< packets dropped by the fault plan
  uint64_t FaultDups = 0;    ///< packets duplicated by the fault plan
  uint64_t FaultDelays = 0;  ///< packets delayed by the fault plan
  uint64_t FaultSheds = 0;   ///< messages shed by the overload policy
  uint64_t FaultStalls = 0;  ///< worker stalls taken
  uint64_t FaultStorms = 0;  ///< storm delta re-sends (repeat x shards)
  uint64_t DupDelivered = 0; ///< deliveries descending from a duplicate
  uint64_t DupDropped = 0;   ///< drops descending from a duplicate

  std::vector<ShardStats> Shards;
};

} // namespace engine
} // namespace eventnet

#endif // EVENTNET_ENGINE_STATS_H
