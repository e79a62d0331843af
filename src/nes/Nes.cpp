//===- nes/Nes.cpp - Network event structures ------------------------------===//

#include "nes/Nes.h"

#include <cassert>
#include <sstream>

using namespace eventnet;
using namespace eventnet::nes;

Nes::Nes(std::vector<netkat::Event> InEvents,
         std::vector<DenseBitSet> InFamily,
         std::vector<topo::Configuration> InConfigs,
         std::vector<stateful::StateVec> InStates)
    : Events(std::move(InEvents)), Family(std::move(InFamily)),
      Configs(std::move(InConfigs)), States(std::move(InStates)) {
  assert(Family.size() == Configs.size() && Family.size() == States.size() &&
         "family/config/state arity mismatch");
  [[maybe_unused]] bool FoundEmpty = false;
  for (SetId I = 0; I != Family.size(); ++I) {
    [[maybe_unused]] bool Inserted = Index.emplace(Family[I], I).second;
    assert(Inserted && "duplicate event-set in family");
    if (Family[I].empty()) {
      EmptyIdx = I;
      FoundEmpty = true;
    }
  }
  assert(FoundEmpty && "family must contain the empty event-set");
}

bool Nes::con(const DenseBitSet &X) const {
  for (const DenseBitSet &F : Family)
    if (X.isSubsetOf(F))
      return true;
  return false;
}

bool Nes::enables(const DenseBitSet &X, EventId E) const {
  if (!con(X))
    return false;
  // S \ {e} ⊆ X, word by word: e's bit is masked out of S's word instead
  // of copying S, so the test allocates nothing (the engine runs it on
  // every detection).
  const uint64_t *XW = X.words();
  size_t XN = X.numWords();
  size_t EWord = E / 64;
  uint64_t EBit = uint64_t(1) << (E % 64);
  for (const DenseBitSet &S : Family) {
    if (!S.test(E))
      continue;
    const uint64_t *SW = S.words();
    bool Sub = true;
    for (size_t I = 0; Sub && I != S.numWords(); ++I) {
      uint64_t Rest = I == EWord ? SW[I] & ~EBit : SW[I];
      Sub = (Rest & ~(I < XN ? XW[I] : 0)) == 0;
    }
    if (Sub)
      return true;
  }
  return false;
}

std::vector<EventId> Nes::enabledEvents(const DenseBitSet &X) const {
  std::vector<EventId> Out;
  for (EventId E = 0; E != numEvents(); ++E) {
    if (X.test(E))
      continue;
    DenseBitSet Ext = X;
    Ext.set(E);
    if (enables(X, E) && con(Ext))
      Out.push_back(E);
  }
  return Out;
}

std::optional<SetId> Nes::setIndex(const DenseBitSet &X) const {
  auto It = Index.find(X);
  if (It == Index.end())
    return std::nullopt;
  return It->second;
}

std::vector<std::vector<EventId>> Nes::allowedSequences() const {
  std::vector<std::vector<EventId>> Out;
  std::vector<EventId> Cur;

  // DFS over extensions; every prefix is recorded.
  struct Rec {
    const Nes &N;
    std::vector<std::vector<EventId>> &Out;

    void go(std::vector<EventId> &Cur, const DenseBitSet &X) {
      Out.push_back(Cur);
      assert(Out.size() < 100000 && "allowed-sequence explosion");
      for (EventId E : N.enabledEvents(X)) {
        DenseBitSet Ext = X;
        Ext.set(E);
        Cur.push_back(E);
        go(Cur, Ext);
        Cur.pop_back();
      }
    }
  };
  Rec R{*this, Out};
  R.go(Cur, DenseBitSet());
  return Out;
}

std::vector<DenseBitSet> Nes::minimallyInconsistentSets() const {
  std::vector<DenseBitSet> Out;

  // Enumerate consistent sets depth-first, in ascending event order;
  // each single-event extension that breaks consistency is a candidate
  // minimally-inconsistent set (its other subsets still need checking).
  struct Rec {
    const Nes &N;
    std::vector<DenseBitSet> &Out;

    bool isMinimal(const DenseBitSet &Y) {
      bool Minimal = true;
      Y.forEach([&](unsigned E) {
        DenseBitSet Sub = Y;
        Sub.reset(E);
        if (!N.con(Sub))
          Minimal = false;
      });
      return Minimal;
    }

    void go(const DenseBitSet &Cur, EventId From) {
      // Prune: if the current set plus every event still available is
      // consistent, no inconsistent set exists in this subtree. Without
      // this the walk visits every subset of all-compatible structures
      // (e.g. the bandwidth cap's chain) — exponential in the number of
      // events.
      DenseBitSet Full = Cur;
      for (EventId E = From; E != N.numEvents(); ++E)
        Full.set(E);
      if (N.con(Full))
        return;
      for (EventId E = From; E != N.numEvents(); ++E) {
        DenseBitSet Ext = Cur;
        Ext.set(E);
        if (N.con(Ext)) {
          go(Ext, E + 1);
          continue;
        }
        if (isMinimal(Ext)) {
          bool Dup = false;
          for (const DenseBitSet &Seen : Out)
            if (Seen == Ext)
              Dup = true;
          if (!Dup)
            Out.push_back(Ext);
        }
      }
    }
  };
  Rec R{*this, Out};
  R.go(DenseBitSet(), 0);
  return Out;
}

bool Nes::isLocallyDetermined() const {
  for (const DenseBitSet &Y : minimallyInconsistentSets()) {
    std::optional<SwitchId> Sw;
    bool Local = true;
    Y.forEach([&](unsigned E) {
      SwitchId S = Events[E].Loc.Sw;
      if (!Sw)
        Sw = S;
      else if (*Sw != S)
        Local = false;
    });
    if (!Local)
      return false;
  }
  return true;
}

std::string Nes::str() const {
  std::ostringstream OS;
  OS << "events:\n";
  for (EventId E = 0; E != numEvents(); ++E)
    OS << "  e" << E << " = " << Events[E].str() << '\n';
  OS << "event-sets:\n";
  for (SetId S = 0; S != numSets(); ++S) {
    OS << "  E" << S << " = {";
    bool First = true;
    Family[S].forEach([&](unsigned E) {
      if (!First)
        OS << ", ";
      First = false;
      OS << 'e' << E;
    });
    OS << "}  g -> state " << stateful::stateVecStr(States[S]) << '\n';
  }
  return OS.str();
}
