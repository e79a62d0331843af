//===- engine/Compiled.cpp - Dense topology + lowered configurations ------===//

#include "engine/Compiled.h"

#include <algorithm>

using namespace eventnet;
using namespace eventnet::engine;

SwitchIndex::SwitchIndex(const topo::Topology &Topo) {
  for (SwitchId Sw : Topo.switches()) {
    Dense.emplace(Sw, static_cast<uint32_t>(Ids.size()));
    Ids.push_back(Sw);
  }
  Ports.resize(Ids.size());

  for (const auto &[Src, Dst] : Topo.links()) {
    Egress E;
    E.IsHost = false;
    E.Dst = Dst;
    E.DstDense = Dense.at(Dst.Sw);
    Ports[Dense.at(Src.Sw)].push_back({Src.Pt, E});
  }
  for (const auto &[Host, At] : Topo.hosts()) {
    Egress E;
    E.IsHost = true;
    E.Host = Host;
    Ports[Dense.at(At.Sw)].push_back({At.Pt, E});
  }
  for (auto &P : Ports)
    std::sort(P.begin(), P.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });

  // Direct port tables over Ports' now-stable storage.
  Direct.resize(Ports.size());
  for (size_t D = 0; D != Ports.size(); ++D) {
    size_t MaxPt = 0;
    for (const auto &[Pt, E] : Ports[D])
      if (static_cast<size_t>(Pt) < DirectCap && static_cast<size_t>(Pt) > MaxPt)
        MaxPt = static_cast<size_t>(Pt);
    if (!Ports[D].empty())
      Direct[D].assign(MaxPt + 1, nullptr);
    for (const auto &[Pt, E] : Ports[D])
      if (static_cast<size_t>(Pt) < Direct[D].size())
        Direct[D][static_cast<size_t>(Pt)] = &E;
  }
}

const Egress *SwitchIndex::egressAt(uint32_t D, PortId Pt) const {
  const auto &Dir = Direct[D];
  if (static_cast<size_t>(Pt) < Dir.size())
    return Dir[static_cast<size_t>(Pt)];
  if (static_cast<size_t>(Pt) < DirectCap)
    return nullptr; // within table range but beyond the largest port
  const auto &P = Ports[D];
  auto It = std::lower_bound(
      P.begin(), P.end(), Pt,
      [](const std::pair<PortId, Egress> &A, PortId B) { return A.first < B; });
  if (It == P.end() || It->first != Pt)
    return nullptr;
  return &It->second;
}

CompiledNes::CompiledNes(const nes::Nes &N, const SwitchIndex &Idx)
    : NumSwitches(Idx.numSwitches()), NumEvents(N.numEvents()) {
  Pipes.reserve(static_cast<size_t>(N.numSets()) * NumSwitches);
  for (nes::SetId S = 0; S != N.numSets(); ++S) {
    const topo::Configuration &C = N.configOf(S);
    for (uint32_t D = 0; D != NumSwitches; ++D)
      Pipes.emplace_back(C.tableFor(Idx.idOf(D)));
  }

  Events.resize(NumSwitches);
  for (nes::EventId E = 0; E != NumEvents; ++E)
    Events[Idx.denseOf(N.event(E).Loc.Sw)].push_back(E);

  Next.reserve(static_cast<size_t>(N.numSets()) * NumEvents);
  DenseBitSet With;
  for (nes::SetId S = 0; S != N.numSets(); ++S)
    for (nes::EventId E = 0; E != NumEvents; ++E) {
      With = N.setBits(S);
      With.set(E);
      Next.push_back(N.setIndex(With).value_or(NoSet));
    }
}
