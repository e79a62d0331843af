//===- engine/MatchPipeline.h - Flat per-switch match pipeline --*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine's lowering of a flowtable::Table into contiguous arrays the
/// hot path can walk without pointer-chasing std::map nodes:
///
///  - the *classifier program* (default lookup): the flattened FDD is
///    lowered one step further into a single arena of multi-way dispatch
///    ops (engine/Classifier.h) — the zero-allocation batched fast path.
///
///  - the *FDD walk* (differential-testing oracle): the table is
///    recompiled into a forwarding decision diagram
///    (fdd::FddManager::fromTable) and the diagram is flattened into a
///    flat node array; a lookup follows hi/lo indices — at most one test
///    per (field, value) pair on the path — and lands on an interned
///    action list.
///
///  - the *bucket scan* (reference path, also used by the agreement
///    tests): rules in first-match order with their constraints and
///    actions in flat pools, pre-bucketed by the most-constrained field
///    (Table::constraintHistogram — the same root heuristic an FDD
///    applies) so a lookup scans only the rules compatible with the
///    packet's value of that field.
///
/// All three paths compute exactly Table::apply; MatchPipelineTest and
/// ClassifierPropertyTest check them against each other on random
/// packets.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_ENGINE_MATCHPIPELINE_H
#define EVENTNET_ENGINE_MATCHPIPELINE_H

#include "engine/Classifier.h"
#include "flowtable/FlowTable.h"
#include "netkat/Packet.h"
#include "support/Ids.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace eventnet {
namespace engine {

/// Sentinel: the pipeline has no dispatch field (no rule constrains any
/// field).
inline constexpr FieldId NoDispatchField = static_cast<FieldId>(-1);

/// Compact, immutable, thread-safe-for-reads lowering of one table.
class MatchPipeline {
public:
  MatchPipeline() = default;
  explicit MatchPipeline(const flowtable::Table &T);

  /// FDD-walk lookup: appends the matched rule's rewritten packets to
  /// \p Out (nothing on a miss/drop).
  void apply(const netkat::Packet &Pkt,
             std::vector<netkat::Packet> &Out) const;

  /// Classifier-program lookup, the engine's: same semantics as apply(),
  /// but a single-action leaf rewrites \p Pkt in place and any other leaf
  /// emits into the recycled buffer (Classifier::applyInPlace). Returns
  /// the number of outputs.
  size_t applyInPlace(netkat::Packet &Pkt, PacketBuf &Out) const {
    return Cls.applyInPlace(Pkt, Out);
  }
  /// Classifier-program lookup with apply()'s shape (tests).
  void applyClassifier(const netkat::Packet &Pkt,
                       std::vector<netkat::Packet> &Out) const {
    Cls.apply(Pkt, Out);
  }

  /// Bucket-scan lookup; same semantics as apply().
  void applyScan(const netkat::Packet &Pkt,
                 std::vector<netkat::Packet> &Out) const;

  /// The lowered classifier program (for prefetching and stats).
  const Classifier &classifier() const { return Cls; }

  size_t numRules() const { return Rules.size(); }
  size_t numNodes() const { return Flat.Nodes.size(); }
  size_t numLeaves() const { return Flat.Leaves.size(); }
  FieldId dispatchField() const { return Dispatch; }

private:
  /// One scan rule: a slice of Constraints plus its leaf.
  struct RuleRec {
    uint32_t CFirst, CCount;
    int32_t Leaf;
  };

  void emit(const netkat::Packet &Pkt, int32_t Leaf,
            std::vector<netkat::Packet> &Out) const;
  bool ruleMatches(const RuleRec &R, const netkat::Packet &Pkt) const;

  /// The flattened FDD (walk oracle) and its final lowering.
  FlatFdd Flat;
  Classifier Cls;

  std::vector<std::pair<FieldId, Value>> Constraints;
  std::vector<RuleRec> Rules; ///< first-match order
  FieldId Dispatch = NoDispatchField;
  /// Dispatch value -> rule indices (constrained-to-value rules merged
  /// with dispatch-wildcard rules, first-match order preserved).
  std::unordered_map<Value, std::vector<uint32_t>> Buckets;
  /// Rules with no dispatch constraint, for packets whose dispatch value
  /// hits no bucket (or is absent).
  std::vector<uint32_t> WildcardRules;
};

} // namespace engine
} // namespace eventnet

#endif // EVENTNET_ENGINE_MATCHPIPELINE_H
