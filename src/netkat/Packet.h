//===- netkat/Packet.h - Packet and located-packet model --------*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The packet model from Section 2 of the paper: a packet is a record of
/// numeric fields {f1; ...; fn}, and a located packet is a packet paired
/// with a location sw:pt. Following the standard NetKAT treatment, the
/// location is stored as two reserved fields ("sw" and "pt", see
/// support/Symbols.h), which lets the evaluator and the FDD compiler treat
/// location tests/updates uniformly with header fields.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_NETKAT_PACKET_H
#define EVENTNET_NETKAT_PACKET_H

#include "support/Ids.h"
#include "support/Symbols.h"

#include <cassert>
#include <string>
#include <vector>

namespace eventnet {
namespace netkat {

/// A packet: a record of numeric fields, stored as a sorted (by FieldId)
/// vector of (field, value) pairs. Sortedness makes equality, ordering,
/// and hashing structural, which the evaluator's packet sets rely on.
class Packet {
public:
  Packet() = default;

  /// Builds a packet from unsorted (field, value) pairs. Later duplicates
  /// overwrite earlier ones.
  explicit Packet(const std::vector<std::pair<FieldId, Value>> &Fields);

  /// Returns true if field \p F is present.
  bool has(FieldId F) const;

  /// Returns the value of field \p F; asserts that it is present. A
  /// location field of a located packet is read in place (see located()).
  Value get(FieldId F) const {
    if (F <= FieldPt && located())
      return Fields[F].second;
    return lookup(F);
  }

  /// Returns the value of field \p F, or \p Default if absent.
  Value getOr(FieldId F, Value Default) const;

  /// Sets field \p F to \p V (pkt[f <- n] in the paper). A location field
  /// of a located packet is written in place (see located()).
  void set(FieldId F, Value V) {
    if (F <= FieldPt && located()) {
      Fields[F].second = V;
      return;
    }
    insertOrAssign(F, V);
  }

  /// Removes field \p F if present.
  void erase(FieldId F);

  /// Removes every field, keeping the allocated capacity (the engine
  /// rebuilds headers in recycled slots).
  void clear() { Fields.clear(); }

  /// Makes room for \p N fields up front.
  void reserve(size_t N) { Fields.reserve(N); }

  /// Replaces the fields with the \p N pairs (Ids[i], Vals[i]), which must
  /// already be sorted by strictly increasing id, keeping the allocated
  /// capacity: the raw path that rebuilds a packet from a fixed-size
  /// record without a per-field search.
  void assignSorted(const FieldId *Ids, const Value *Vals, size_t N) {
    Fields.resize(N);
    for (size_t I = 0; I != N; ++I) {
      assert((I == 0 || Ids[I - 1] < Ids[I]) && "fields out of order");
      Fields[I] = {Ids[I], Vals[I]};
    }
  }

  /// Exchanges the fields with \p O, buffers included: the engine moves a
  /// classifier output into a recycled egress slot this way, and the
  /// output slot keeps the egress slot's capacity in return.
  void swap(Packet &O) noexcept { Fields.swap(O.Fields); }

  /// True when both location fields are present. FieldSw and FieldPt are
  /// the two smallest field ids, so a located packet holds them in
  /// Fields[0] and Fields[1], and get() and set() on either (so the
  /// location accessors below) read and write them there without a
  /// search; on any other packet they fall back to the search.
  bool located() const {
    return Fields.size() >= 2 && Fields[0].first == FieldSw &&
           Fields[1].first == FieldPt;
  }

  /// Location accessors (reserved sw/pt fields).
  SwitchId sw() const { return static_cast<SwitchId>(get(FieldSw)); }
  PortId pt() const { return static_cast<PortId>(get(FieldPt)); }
  Location loc() const { return Location{sw(), pt()}; }
  void setLoc(Location L) {
    set(FieldSw, static_cast<Value>(L.Sw));
    set(FieldPt, static_cast<Value>(L.Pt));
  }

  /// All fields, sorted by FieldId.
  const std::vector<std::pair<FieldId, Value>> &fields() const {
    return Fields;
  }

  /// Renders e.g. "{sw=1, pt=2, ip_dst=4}".
  std::string str() const;

  friend bool operator==(const Packet &A, const Packet &B) {
    return A.Fields == B.Fields;
  }
  friend bool operator!=(const Packet &A, const Packet &B) {
    return !(A == B);
  }
  friend bool operator<(const Packet &A, const Packet &B) {
    return A.Fields < B.Fields;
  }

  size_t hash() const;

private:
  static_assert(FieldSw == 0 && FieldPt == 1,
                "the location fields sort first");

  /// get() and set() by binary search (set() inserts an absent field in
  /// order).
  Value lookup(FieldId F) const;
  void insertOrAssign(FieldId F, Value V);

  std::vector<std::pair<FieldId, Value>> Fields;
};

/// Builds a located packet: header fields plus a location.
Packet makePacket(Location L,
                  const std::vector<std::pair<FieldId, Value>> &Hdr);

} // namespace netkat
} // namespace eventnet

template <> struct std::hash<eventnet::netkat::Packet> {
  size_t operator()(const eventnet::netkat::Packet &P) const {
    return P.hash();
  }
};

#endif // EVENTNET_NETKAT_PACKET_H
