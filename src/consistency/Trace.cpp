//===- consistency/Trace.cpp - Network traces ------------------------------===//

#include "consistency/Trace.h"

#include <cassert>
#include <map>
#include <sstream>
#include <utility>

using namespace eventnet;
using namespace eventnet::consistency;

NetworkTrace::NetworkTrace(std::vector<TraceEntry> Es)
    : Entries(std::move(Es)) {
  for (size_t I = 0; I != Entries.size(); ++I)
    assert(Entries[I].Parent < static_cast<int>(I) &&
           "parent must precede child");
}

int NetworkTrace::append(TraceEntry E) {
  assert(E.Parent < static_cast<int>(Entries.size()) &&
         "parent must precede child");
  Entries.push_back(std::move(E));
  return static_cast<int>(Entries.size()) - 1;
}

std::vector<std::vector<int>> NetworkTrace::packetTraces() const {
  // Children lists.
  std::vector<std::vector<int>> Children(Entries.size());
  std::vector<int> Roots;
  for (size_t I = 0; I != Entries.size(); ++I) {
    if (Entries[I].Parent < 0)
      Roots.push_back(static_cast<int>(I));
    else
      Children[Entries[I].Parent].push_back(static_cast<int>(I));
  }

  std::vector<std::vector<int>> Out;
  std::vector<int> Chain;
  struct Rec {
    const std::vector<std::vector<int>> &Children;
    std::vector<std::vector<int>> &Out;
    void go(int Node, std::vector<int> &Chain) {
      Chain.push_back(Node);
      if (Children[Node].empty())
        Out.push_back(Chain);
      for (int C : Children[Node])
        go(C, Chain);
      Chain.pop_back();
    }
  };
  Rec R{Children, Out};
  for (int Root : Roots)
    R.go(Root, Chain);
  return Out;
}

std::vector<int> NetworkTrace::switchPredecessors() const {
  std::vector<int> Prev(Entries.size(), -1);
  std::map<SwitchId, int> LastAtSwitch;
  for (size_t I = 0; I != Entries.size(); ++I) {
    auto It = LastAtSwitch.try_emplace(Entries[I].Lp.sw(), -1).first;
    Prev[I] = std::exchange(It->second, static_cast<int>(I));
  }
  return Prev;
}

void NetworkTrace::markBefore(int K, int Stop, const std::vector<int> &Prev,
                              std::vector<bool> &Mark) const {
  // Sweeping down from K, each reached entry (K itself first) reaches
  // its parent and its switch predecessor, both earlier in the log.
  Mark.assign(Entries.size(), false);
  auto Reach = [&](int I) {
    for (int J : {Entries[I].Parent, Prev[I]})
      if (J >= 0)
        Mark[J] = true;
  };
  Reach(K);
  for (int I = K - 1; I > Stop; --I)
    if (Mark[I])
      Reach(I);
}

bool NetworkTrace::happensBefore(int A, int B) const {
  assert(A >= 0 && B >= 0 && A < static_cast<int>(Entries.size()) &&
         B < static_cast<int>(Entries.size()) && "entry index out of range");
  if (A >= B)
    return false;
  std::vector<bool> Mark;
  markBefore(B, A, switchPredecessors(), Mark);
  return Mark[A];
}

std::vector<NetworkTrace::Relatives>
NetworkTrace::relativesOf(const std::vector<int> &K) const {
  std::vector<int> Prev = switchPredecessors();
  std::vector<Relatives> Out(K.size());
  for (size_t I = 0; I != K.size(); ++I) {
    markBefore(K[I], -1, Prev, Out[I].Before);
    // Sweeping up from K[I], an entry is reached when its parent or its
    // switch predecessor is K[I] or already reached.
    std::vector<bool> &After = Out[I].After;
    After.assign(Entries.size(), false);
    auto Reached = [&](int J) { return J >= 0 && (J == K[I] || After[J]); };
    for (size_t J = K[I] + 1; J < Entries.size(); ++J)
      After[J] = Reached(Entries[J].Parent) || Reached(Prev[J]);
  }
  return Out;
}

std::string NetworkTrace::str() const {
  std::ostringstream OS;
  for (size_t I = 0; I != Entries.size(); ++I) {
    OS << I << ": " << Entries[I].Lp.str();
    if (Entries[I].Parent >= 0)
      OS << " <- " << Entries[I].Parent;
    if (Entries[I].IsDelivery)
      OS << " (delivered)";
    OS << '\n';
  }
  return OS.str();
}
