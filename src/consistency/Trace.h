//===- consistency/Trace.h - Network traces ---------------------*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Network traces (paper Section 2): a global interleaving of located
/// packets together with the tree structure that groups them into packet
/// traces (multicast forks a packet trace into a tree; each root-to-leaf
/// chain is one packet trace). The happens-before relation of Definition
/// 1 is derived from (a) the per-switch total processing order and (b)
/// the per-packet-trace order.
///
/// Entries are appended by the runtime/simulator at every located-packet
/// occurrence: host emission (at the ingress port), switch egress (at the
/// output port), link arrival (at the destination port), and delivery
/// (an egress at a host-facing port).
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_CONSISTENCY_TRACE_H
#define EVENTNET_CONSISTENCY_TRACE_H

#include "netkat/Packet.h"
#include "support/Ids.h"

#include <string>
#include <vector>

namespace eventnet {
namespace consistency {

/// One located-packet occurrence in the global interleaving.
struct TraceEntry {
  /// The located packet (its sw/pt fields are the location).
  netkat::Packet Lp;
  /// Index of the occurrence this one directly follows in its packet
  /// trace, or -1 for a root (host emission).
  int Parent = -1;
  /// True for an egress at a host-facing port (the packet left the
  /// network).
  bool IsDelivery = false;
};

/// The recorded network trace.
class NetworkTrace {
public:
  NetworkTrace() = default;
  /// Takes \p Entries as the whole log; every parent must precede its
  /// child.
  explicit NetworkTrace(std::vector<TraceEntry> Entries);

  /// Appends an entry; returns its index.
  int append(TraceEntry E);

  const std::vector<TraceEntry> &entries() const { return Entries; }
  size_t size() const { return Entries.size(); }

  /// All packet traces: root-to-leaf index chains of the parent forest.
  /// A root with no children is a single-entry trace.
  std::vector<std::vector<int>> packetTraces() const;

  /// happens-before: Definition 1's least partial order. True if entry
  /// \p A must precede entry \p B: a backward sweep from B to A over the
  /// per-trace and per-switch orders.
  bool happensBefore(int A, int B) const;

  /// The entries that happen-before one entry, and those it
  /// happens-before (both strict).
  struct Relatives {
    std::vector<bool> Before, After;
  };
  /// The Relatives of each entry \p K[I]. Both edge kinds of the order
  /// (parent to child, and an entry at a switch to the next entry there)
  /// point forward in log order, so one backward sweep from K[I] marks
  /// its ancestors and one forward sweep its descendants: O(N) time and
  /// 2N bits per K[I], where a full closure would take N^2 bits.
  std::vector<Relatives> relativesOf(const std::vector<int> &K) const;

  std::string str() const;

private:
  /// The previous entry at each entry's switch, -1 for the first.
  std::vector<int> switchPredecessors() const;
  /// Marks the strict ancestors of \p K among the entries above \p Stop.
  void markBefore(int K, int Stop, const std::vector<int> &Prev,
                  std::vector<bool> &Mark) const;

  std::vector<TraceEntry> Entries;
};

} // namespace consistency
} // namespace eventnet

#endif // EVENTNET_CONSISTENCY_TRACE_H
