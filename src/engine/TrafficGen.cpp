//===- engine/TrafficGen.cpp - Workload driver ----------------------------===//

#include "engine/TrafficGen.h"

#include "sim/Wire.h"

#include <cassert>

using namespace eventnet;
using namespace eventnet::engine;
using eventnet::netkat::Packet;

TrafficGen::TrafficGen(const topo::Topology &Topo, uint64_t Seed) : R(Seed) {
  for (const auto &[Host, At] : Topo.hosts()) {
    (void)At;
    Hosts.push_back(Host);
  }
  assert(!Hosts.empty() && "topology has no hosts");
}

HostId TrafficGen::randomHost() {
  return Hosts[R.below(Hosts.size())];
}

std::pair<HostId, HostId> TrafficGen::randomPair() {
  HostId From = randomHost();
  if (Hosts.size() == 1)
    return {From, From};
  HostId To = From;
  while (To == From)
    To = randomHost();
  return {From, To};
}

Workload TrafficGen::pings(unsigned Phases, unsigned PerPhase) {
  Workload W;
  for (unsigned P = 0; P != Phases; ++P) {
    Phase Ph;
    for (unsigned I = 0; I != PerPhase; ++I) {
      auto [From, To] = randomPair();
      Ph.Injections.push_back(
          {From, sim::makeWireHeader(From, To, sim::KindRequest, NextSeq++)});
    }
    W.Phases.push_back(std::move(Ph));
  }
  return W;
}

Workload TrafficGen::probes(unsigned Phases, unsigned PerPhase, HostId To) {
  Workload W;
  for (unsigned P = 0; P != Phases; ++P) {
    Phase Ph;
    for (unsigned I = 0; I != PerPhase; ++I) {
      HostId From = randomHost();
      Ph.Injections.push_back(
          {From, sim::makeWireHeader(From, To, sim::KindProbe, NextSeq++)});
    }
    W.Phases.push_back(std::move(Ph));
  }
  return W;
}

Workload TrafficGen::churn(unsigned Phases, unsigned PerPhase,
                           unsigned ChurnRate) {
  Workload W;
  size_t NextProbeDst = 0;
  for (unsigned P = 0; P != Phases; ++P) {
    Phase Ph;
    Ph.Injections.reserve(PerPhase + ChurnRate);
    for (unsigned I = 0; I != PerPhase; ++I) {
      auto [From, To] = randomPair();
      Ph.Injections.push_back(
          {From, sim::makeWireHeader(From, To, sim::KindData, NextSeq++)});
    }
    for (unsigned I = 0; I != ChurnRate; ++I) {
      // Rotate probe destinations over every host so location-guarded
      // events fire wherever they live, not just at one lucky switch.
      HostId To = Hosts[NextProbeDst++ % Hosts.size()];
      HostId From = randomHost();
      Packet H = sim::makeWireHeader(From, To, sim::KindProbe, NextSeq++);
      // Scatter the triggers through the storm instead of appending
      // them after it, so transitions race sustained traffic.
      size_t At = Ph.Injections.empty()
                      ? 0
                      : R.below(Ph.Injections.size() + 1);
      Ph.Injections.insert(Ph.Injections.begin() + At, {From, std::move(H)});
    }
    W.Phases.push_back(std::move(Ph));
  }
  return W;
}

Workload TrafficGen::bulk(HostId From, HostId To, uint64_t Packets,
                          unsigned PerPhase) {
  assert(PerPhase > 0 && "empty bulk phase");
  Workload W;
  while (Packets > 0) {
    Phase Ph;
    uint64_t This = Packets < PerPhase ? Packets : PerPhase;
    for (uint64_t I = 0; I != This; ++I)
      Ph.Injections.push_back(
          {From, sim::makeWireHeader(From, To, sim::KindData, NextSeq++)});
    Packets -= This;
    W.Phases.push_back(std::move(Ph));
  }
  return W;
}

Workload TrafficGen::randomBulk(unsigned Pairs, uint64_t PacketsPerPair,
                                unsigned PerPhase) {
  assert(PerPhase > 0 && "empty bulk phase");
  std::vector<std::pair<HostId, HostId>> Flows;
  for (unsigned I = 0; I != Pairs; ++I)
    Flows.push_back(randomPair());
  Workload W;
  uint64_t Remaining = PacketsPerPair;
  while (Remaining > 0) {
    Phase Ph;
    uint64_t This = Remaining < PerPhase ? Remaining : PerPhase;
    for (uint64_t I = 0; I != This; ++I)
      for (auto [From, To] : Flows)
        Ph.Injections.push_back(
            {From, sim::makeWireHeader(From, To, sim::KindData, NextSeq++)});
    Remaining -= This;
    W.Phases.push_back(std::move(Ph));
  }
  return W;
}

Workload TrafficGen::ping(HostId From, HostId To) {
  Workload W;
  W.Phases.push_back(
      {{{From, sim::makeWireHeader(From, To, sim::KindRequest, NextSeq++)}}});
  return W;
}

Workload TrafficGen::probe(HostId From, HostId To) {
  Workload W;
  W.Phases.push_back(
      {{{From, sim::makeWireHeader(From, To, sim::KindProbe, NextSeq++)}}});
  return W;
}
