//===- netkat/Packet.cpp - Packet and located-packet model ----------------===//

#include "netkat/Packet.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace eventnet;
using namespace eventnet::netkat;

Packet::Packet(const std::vector<std::pair<FieldId, Value>> &InFields) {
  for (const auto &[F, V] : InFields)
    set(F, V);
}

bool Packet::has(FieldId F) const {
  auto It = std::lower_bound(
      Fields.begin(), Fields.end(), F,
      [](const std::pair<FieldId, Value> &P, FieldId X) { return P.first < X; });
  return It != Fields.end() && It->first == F;
}

Value Packet::lookup(FieldId F) const {
  auto It = std::lower_bound(
      Fields.begin(), Fields.end(), F,
      [](const std::pair<FieldId, Value> &P, FieldId X) { return P.first < X; });
  assert(It != Fields.end() && It->first == F && "field absent from packet");
  return It->second;
}

Value Packet::getOr(FieldId F, Value Default) const {
  auto It = std::lower_bound(
      Fields.begin(), Fields.end(), F,
      [](const std::pair<FieldId, Value> &P, FieldId X) { return P.first < X; });
  if (It == Fields.end() || It->first != F)
    return Default;
  return It->second;
}

void Packet::insertOrAssign(FieldId F, Value V) {
  auto It = std::lower_bound(
      Fields.begin(), Fields.end(), F,
      [](const std::pair<FieldId, Value> &P, FieldId X) { return P.first < X; });
  if (It != Fields.end() && It->first == F) {
    It->second = V;
    return;
  }
  Fields.insert(It, {F, V});
}

void Packet::erase(FieldId F) {
  auto It = std::lower_bound(
      Fields.begin(), Fields.end(), F,
      [](const std::pair<FieldId, Value> &P, FieldId X) { return P.first < X; });
  if (It != Fields.end() && It->first == F)
    Fields.erase(It);
}

std::string Packet::str() const {
  std::ostringstream OS;
  OS << '{';
  for (size_t I = 0; I != Fields.size(); ++I) {
    if (I)
      OS << ", ";
    OS << fieldName(Fields[I].first) << '=' << Fields[I].second;
  }
  OS << '}';
  return OS.str();
}

size_t Packet::hash() const {
  size_t H = 0x1234;
  for (const auto &[F, V] : Fields) {
    H = hashCombine(H, std::hash<uint16_t>()(F));
    H = hashCombine(H, std::hash<int64_t>()(V));
  }
  return H;
}

Packet netkat::makePacket(Location L,
                          const std::vector<std::pair<FieldId, Value>> &Hdr) {
  Packet P(Hdr);
  P.setLoc(L);
  return P;
}
