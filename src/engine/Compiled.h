//===- engine/Compiled.h - Dense topology + lowered configurations -*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine's ahead-of-time lowering: a dense index over the topology
/// (switch ids to contiguous indices, per-port egress dispositions as
/// flat sorted arrays), for every reachable event-set of the NES every
/// switch's flow table lowered to a MatchPipeline, and every event-set's
/// single-event successors. After construction everything here is
/// immutable and read concurrently by all shards.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_ENGINE_COMPILED_H
#define EVENTNET_ENGINE_COMPILED_H

#include "engine/MatchPipeline.h"
#include "nes/Nes.h"
#include "topo/Topology.h"

#include <optional>
#include <unordered_map>
#include <vector>

namespace eventnet {
namespace engine {

/// What lies behind a (switch, port) egress.
struct Egress {
  bool IsHost = false;
  HostId Host = 0;       ///< valid when IsHost
  Location Dst;          ///< valid when !IsHost: the link's far end
  uint32_t DstDense = 0; ///< dense index of Dst.Sw
};

/// Dense mapping of a topology.
class SwitchIndex {
public:
  explicit SwitchIndex(const topo::Topology &Topo);

  // Direct holds interior pointers into Ports; a copy would point into
  // the source object's storage.
  SwitchIndex(const SwitchIndex &) = delete;
  SwitchIndex &operator=(const SwitchIndex &) = delete;

  uint32_t numSwitches() const { return static_cast<uint32_t>(Ids.size()); }
  SwitchId idOf(uint32_t Dense) const { return Ids[Dense]; }
  uint32_t denseOf(SwitchId Sw) const { return Dense.at(Sw); }

  /// The egress disposition at \p Pt of dense switch \p D, or nullptr
  /// for a dangling port (packet discarded).
  const Egress *egressAt(uint32_t D, PortId Pt) const;

  /// The whole egress table of dense switch \p D: (port, disposition)
  /// sorted by port. The shard partitioner walks these to build the
  /// switch adjacency graph (link multiplicities, host attachments).
  const std::vector<std::pair<PortId, Egress>> &portsOf(uint32_t D) const {
    return Ports[D];
  }

private:
  std::vector<SwitchId> Ids;
  std::unordered_map<SwitchId, uint32_t> Dense;
  /// Per dense switch: (port, egress), sorted by port.
  std::vector<std::vector<std::pair<PortId, Egress>>> Ports;
  /// Per dense switch: egress pointer indexed directly by port (into
  /// Ports' stable storage; null = dangling). The hot path's O(1)
  /// replacement for the sorted-array search; ports beyond DirectCap
  /// fall back to the binary search.
  std::vector<std::vector<const Egress *>> Direct;
  static constexpr size_t DirectCap = 4096;
};

/// Every event-set's configuration lowered to per-switch pipelines, the
/// per-switch event lists the runtime's learning step scans, and the
/// single-event transition table the update path reads.
class CompiledNes {
public:
  CompiledNes(const nes::Nes &N, const SwitchIndex &Idx);

  /// The pipeline executing g(\p S) at dense switch \p D.
  const MatchPipeline &pipe(nes::SetId S, uint32_t D) const {
    return Pipes[S * NumSwitches + D];
  }

  /// Ids of events located at dense switch \p D, ascending (the greedy
  /// SWITCH-rule order).
  const std::vector<nes::EventId> &eventsAt(uint32_t D) const {
    return Events[D];
  }

  /// The family index of setBits(\p S) ∪ {\p E}, or nullopt when that
  /// union is not a family member (the set lacks one of \p E's causes):
  /// a single-event transition as one table read.
  std::optional<nes::SetId> next(nes::SetId S, nes::EventId E) const {
    nes::SetId T = Next[static_cast<size_t>(S) * NumEvents + E];
    if (T == NoSet)
      return std::nullopt;
    return T;
  }

  size_t totalPipelines() const { return Pipes.size(); }

private:
  static constexpr nes::SetId NoSet = ~nes::SetId(0);

  uint32_t NumSwitches;
  unsigned NumEvents;
  std::vector<MatchPipeline> Pipes; ///< [SetId * NumSwitches + Dense]
  std::vector<std::vector<nes::EventId>> Events;
  std::vector<nes::SetId> Next; ///< [SetId * NumEvents + EventId], or NoSet
};

} // namespace engine
} // namespace eventnet

#endif // EVENTNET_ENGINE_COMPILED_H
