//===- faults/FaultPlan.h - Deterministic fault-injection plans -*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A FaultPlan is a seeded, serializable schedule of adversity: per-link
/// drop/duplicate/delay probabilities with sequence windows, per-shard
/// stall intervals, a forced queue-capacity clamp, and update-delta
/// storms. The same plan runs on the engine and on the discrete-event
/// simulator, so the Definition 6 checker can be exercised against
/// provoked loss, duplication, and reordering on both substrates.
///
/// Determinism is the point. Engine thread interleavings vary run to
/// run, so "drop every Nth packet through this port" would produce a
/// different fault set each time. Instead every link-fault decision is
/// *content-addressed*: a pure hash of (plan seed, egress switch, egress
/// port, packet header fields). The same packet crossing the same link
/// gets the same verdict in every run and on every substrate, which
/// makes the fault ledger — the canonical record of what was injected —
/// byte-identical across repeat runs with the same seed and plan. Faults
/// whose *occurrence* is inherently timing-dependent (overload sheds,
/// shard stalls) are tallied in Stats but deliberately kept out of the
/// serialized ledger.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_FAULTS_FAULTPLAN_H
#define EVENTNET_FAULTS_FAULTPLAN_H

#include "api/Status.h"
#include "support/Ids.h"

#include <cstdint>
#include <string>
#include <vector>

namespace eventnet {
namespace faults {

/// Link-level fault probabilities for packets leaving switch `Sw` via
/// port `Pt` (-1 wildcards either). `FromSeq`/`ToSeq` window the rule to
/// a half-open range of the wire `seq` field (`ToSeq` < 0 = open), so a
/// plan can target the middle of a run — e.g. only packets emitted while
/// a network update is in flight.
struct LinkRule {
  int64_t Sw = -1;     ///< egress switch, -1 = every switch
  int64_t Pt = -1;     ///< egress port, -1 = every port
  double DropP = 0.0;  ///< P(packet is dropped on this link)
  double DupP = 0.0;   ///< P(packet is duplicated on this link)
  double DelayP = 0.0; ///< P(packet is delayed, hence reordered)
  int64_t FromSeq = 0; ///< rule active for seq >= FromSeq
  int64_t ToSeq = -1;  ///< ... and seq < ToSeq (negative = open)

  bool matchesSite(SwitchId Sw_, PortId Pt_) const {
    return (Sw < 0 || Sw == static_cast<int64_t>(Sw_)) &&
           (Pt < 0 || Pt == static_cast<int64_t>(Pt_));
  }
  bool inWindow(int64_t Seq) const {
    return Seq >= FromSeq && (ToSeq < 0 || Seq < ToSeq);
  }
};

/// Pauses an engine worker thread for `StallUs` microseconds after every
/// `EveryBatches`-th non-empty drain batch. Engine-only (the simulator
/// has no worker threads); timing-dependent, so stalls are counted but
/// never ledgered.
struct StallRule {
  int64_t Shard = -1;         ///< -1 = every shard
  uint64_t EveryBatches = 64; ///< stall cadence, in non-empty batches
  uint32_t StallUs = 100;     ///< pause length per stall
};

/// The full schedule. Round-trips through JSON (`fromJson`/`json`) so
/// plans can be committed under examples/faults/ and swept by
/// scripts/run_chaos.py.
struct FaultPlan {
  uint64_t Seed = 1;               ///< salt for every content-addressed decision
  std::vector<LinkRule> Links;     ///< link drop/dup/delay rules
  std::vector<StallRule> Stalls;   ///< engine worker stalls
  uint64_t QueueCapacityClamp = 0; ///< engine: min() with configured capacity
  /// Engine: extra rounds of each detected event's update delta the
  /// detecting worker pushes onto every shard's lane (0 = no storm).
  uint32_t CtrlStormRepeat = 0;
  uint32_t DelayPolls = 64;        ///< engine: drain polls a delayed msg is held
  double DelayExtraSec = 0.005;    ///< sim: added link latency when delayed

  /// True when the plan can actually perturb a run.
  bool enabled() const {
    return !Links.empty() || !Stalls.empty() || QueueCapacityClamp > 0 ||
           CtrlStormRepeat > 0;
  }

  /// Serializes the plan as a JSON object (stable key order).
  std::string json() const;

  /// Parses a plan from JSON text. Unknown keys are rejected so a typo
  /// in a chaos plan fails loudly instead of silently testing nothing.
  static api::Result<FaultPlan> fromJson(const std::string &Text);

  /// Reads and parses `Path`.
  static api::Result<FaultPlan> fromFile(const std::string &Path);
};

/// What kind of fault a ledger record describes.
enum class FaultKind : uint8_t {
  Drop = 0,  ///< packet removed at a link egress
  Dup = 1,   ///< packet duplicated at a link egress
  Delay = 2, ///< packet held back at a link egress (reordering)
  Storm = 3, ///< one event's burst of re-sent update deltas
};

/// Returns a stable lowercase name ("drop", "dup", ...).
const char *faultKindName(FaultKind K);

/// One injected fault, identified by its site and the content address of
/// the affected packet. Records carry no timestamps or run-local ids, so
/// the multiset of records for a (seed, plan, config) triple is a pure
/// function of the workload — the basis of ledger determinism.
struct FaultRecord {
  FaultKind K = FaultKind::Drop;
  int64_t Sw = -1;  ///< egress switch (Storm: the event id)
  int64_t Pt = -1;  ///< egress port (Storm: repeat count)
  int64_t Src = -1; ///< packet ip_src (-1 when absent)
  int64_t Dst = -1; ///< packet ip_dst
  int64_t Seq = -1; ///< packet seq
  int64_t Kind = -1; ///< packet wire kind (request/reply/...)

  /// Canonical ordering for byte-stable serialization.
  friend bool operator<(const FaultRecord &A, const FaultRecord &B);
  friend bool operator==(const FaultRecord &A, const FaultRecord &B);

  /// One-line text form, e.g. "drop sw=3 pt=1 src=0 dst=4 seq=7 kind=0".
  std::string line() const;
};

/// Everything a run learned about its injected faults: the deterministic
/// record multiset plus the run-local trace annotations the consistency
/// checker needs to excuse ledgered damage.
struct FaultLedger {
  std::vector<FaultRecord> Records;

  /// Merged-trace entry indices whose packet chains may be truncated
  /// (the last logged entry before a ledgered drop or an overload shed).
  /// Run-local: trace indices differ between substrates.
  std::vector<int> ExcusedEntries;

  /// Merged-trace entry indices of duplicate egress entries: each roots
  /// a subtree the checker deduplicates before verifying Definition 6.
  std::vector<int> DupEntries;

  bool empty() const {
    return Records.empty() && ExcusedEntries.empty() && DupEntries.empty();
  }

  /// Byte-stable serialization of the record multiset: records sorted
  /// canonically, one `line()` per row, '\n'-terminated. Same seed +
  /// same plan + same config => identical bytes across runs.
  std::string canonical() const;
};

} // namespace faults
} // namespace eventnet

#endif // EVENTNET_FAULTS_FAULTPLAN_H
