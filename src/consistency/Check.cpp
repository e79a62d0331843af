//===- consistency/Check.cpp - Consistency checkers -----------------------===//

#include "consistency/Check.h"

#include <cassert>
#include <sstream>

using namespace eventnet;
using namespace eventnet::consistency;
using eventnet::netkat::Event;
using eventnet::netkat::Packet;

namespace {

/// True if event \p E (id \p Id in the ambient set) is a *fresh, enabled*
/// match for \p Lp given the already-occurred set. Without a structure,
/// any non-occurred event counts as enabled.
bool freshMatch(const Packet &Lp, unsigned Id, const Event &E,
                const DenseBitSet &Occurred, const nes::Nes *N) {
  if (Occurred.test(Id) || !E.matches(Lp))
    return false;
  if (!N)
    return true;
  DenseBitSet Ext = Occurred;
  Ext.set(Id);
  return N->enables(Occurred, Id) && N->con(Ext);
}

/// Materializes the located-packet sequence of a packet trace.
std::vector<Packet> chainPackets(const NetworkTrace &Tr,
                                 const std::vector<int> &Chain) {
  std::vector<Packet> Out;
  Out.reserve(Chain.size());
  for (int I : Chain)
    Out.push_back(Tr.entries()[I].Lp);
  return Out;
}

} // namespace

namespace {

/// True if every consecutive pair of \p Lps is related under \p C — the
/// chain is a (not necessarily maximal) trace prefix of the
/// configuration. Used for chains a ledgered fault cut short.
bool isTracePrefix(const topo::Configuration &C, const topo::Topology &Topo,
                   const std::vector<Packet> &Lps) {
  if (Lps.empty())
    return false;
  for (size_t I = 0; I + 1 < Lps.size(); ++I)
    if (!C.related(Topo, Lps[I], Lps[I + 1]))
      return false;
  return true;
}

} // namespace

CheckResult consistency::checkUpdateSequence(
    const NetworkTrace &Tr, const topo::Topology &Topo,
    const UpdateSequence &U, const std::vector<Event> &AllEvents,
    const nes::Nes *EnablingNes, const std::vector<bool> *ExcusedLeaves) {
  size_t N = U.EventIds.size();
  assert(U.Configs.size() == N + 1 && "update sequence arity mismatch");
  const auto &Entries = Tr.entries();

  // --- FO(ntr, U): first occurrences k0 < k1 < ... < k(n-1). ---
  std::vector<int> K(N, -1);
  int Prev = -1;
  for (size_t I = 0; I != N; ++I) {
    const Event &E = AllEvents[U.EventIds[I]];
    for (int J = Prev + 1; J < static_cast<int>(Entries.size()); ++J)
      if (E.matches(Entries[J].Lp)) {
        K[I] = J;
        break;
      }
    if (K[I] < 0)
      return CheckResult::fail("FO does not exist: event " + E.str() +
                               " never occurs after index " +
                               std::to_string(Prev));
    Prev = K[I];
  }

  // Trailing condition (operational form; see header): after the last
  // first-occurrence, no entry freshly matches an enabled event outside
  // the sequence.
  DenseBitSet Occurred;
  for (unsigned Id : U.EventIds)
    Occurred.set(Id);
  for (int J = Prev + 1; J < static_cast<int>(Entries.size()); ++J)
    for (unsigned Id = 0; Id != AllEvents.size(); ++Id)
      if (freshMatch(Entries[J].Lp, Id, AllEvents[Id], Occurred, EnablingNes))
        return CheckResult::fail(
            "trace continues past the update sequence: entry " +
            std::to_string(J) + " freshly matches " + AllEvents[Id].str());

  // Packet traces and their single-configuration memberships. A chain
  // whose leaf is excused (a ledgered fault ended it) is held to prefix
  // membership: the surviving hops must follow one configuration, but
  // maximality is waived because the fault, not the table, stopped it.
  std::vector<std::vector<int>> Chains = Tr.packetTraces();
  std::vector<std::vector<size_t>> Memberships(Chains.size());
  for (size_t C = 0; C != Chains.size(); ++C) {
    std::vector<Packet> Lps = chainPackets(Tr, Chains[C]);
    bool Excused = ExcusedLeaves && !Chains[C].empty() &&
                   static_cast<size_t>(Chains[C].back()) <
                       ExcusedLeaves->size() &&
                   (*ExcusedLeaves)[Chains[C].back()];
    for (size_t Ci = 0; Ci != U.Configs.size(); ++Ci) {
      bool In = Excused ? isTracePrefix(*U.Configs[Ci], Topo, Lps)
                        : U.Configs[Ci]->isCompleteTrace(Topo, Lps);
      if (In)
        Memberships[C].push_back(Ci);
    }
  }

  // FO bullet 3: each event must be triggered by a packet processed in
  // the immediately preceding configuration.
  for (size_t I = 0; I != N; ++I) {
    bool Found = false;
    for (size_t C = 0; C != Chains.size() && !Found; ++C) {
      bool Contains = false;
      for (int Idx : Chains[C])
        Contains |= (Idx == K[I]);
      if (!Contains)
        continue;
      for (size_t Ci : Memberships[C])
        Found |= (Ci == I);
    }
    if (!Found)
      return CheckResult::fail(
          "event " + AllEvents[U.EventIds[I]].str() +
          " (entry " + std::to_string(K[I]) +
          ") was not triggered by a packet of the preceding configuration");
  }

  // --- Definition 2's three per-packet-trace conditions. ---
  std::vector<NetworkTrace::Relatives> Rel = Tr.relativesOf(K);
  for (size_t C = 0; C != Chains.size(); ++C) {
    const std::vector<int> &Chain = Chains[C];
    const std::vector<size_t> &Member = Memberships[C];
    if (Member.empty()) {
      std::ostringstream OS;
      OS << "packet trace";
      for (int Idx : Chain)
        OS << ' ' << Idx;
      OS << " is not processed by any single configuration";
      return CheckResult::fail(OS.str());
    }

    for (size_t I = 0; I != N; ++I) {
      bool AllBefore = true, AllAfter = true;
      for (int Idx : Chain) {
        AllBefore &= Rel[I].Before[Idx];
        AllAfter &= Rel[I].After[Idx];
      }
      if (AllBefore) {
        bool HasEarly = false;
        for (size_t Ci : Member)
          HasEarly |= (Ci <= I);
        if (!HasEarly) {
          std::ostringstream OS;
          OS << "update happened too early: a packet trace entirely before "
             << AllEvents[U.EventIds[I]].str()
             << " is only consistent with a later configuration";
          return CheckResult::fail(OS.str());
        }
      }
      if (AllAfter) {
        bool HasLate = false;
        for (size_t Ci : Member)
          HasLate |= (Ci >= I + 1);
        if (!HasLate) {
          std::ostringstream OS;
          OS << "update happened too late: a packet trace entirely after "
             << AllEvents[U.EventIds[I]].str()
             << " is only consistent with an earlier configuration";
          return CheckResult::fail(OS.str());
        }
      }
    }
  }

  return CheckResult::ok();
}

namespace {

CheckResult checkAgainstNesImpl(const NetworkTrace &Tr,
                                const topo::Topology &Topo,
                                const nes::Nes &N,
                                const std::vector<bool> *ExcusedLeaves);

} // namespace

CheckResult consistency::checkAgainstNes(const NetworkTrace &Tr,
                                         const topo::Topology &Topo,
                                         const nes::Nes &N,
                                         const FaultContext *Faults) {
  if (!Faults || Faults->empty())
    return checkAgainstNesImpl(Tr, Topo, N, nullptr);

  // Prune injected-duplicate subtrees: a dup entry and everything that
  // descends from it are the fault's copies, not the program's behavior.
  // Parents always precede children, so one forward pass suffices.
  const auto &Entries = Tr.entries();
  std::vector<bool> Pruned(Entries.size(), false);
  for (int I : Faults->DupEntries)
    if (I >= 0 && static_cast<size_t>(I) < Pruned.size())
      Pruned[I] = true;
  for (size_t I = 0; I != Entries.size(); ++I)
    if (!Pruned[I] && Entries[I].Parent >= 0 && Pruned[Entries[I].Parent])
      Pruned[I] = true;

  NetworkTrace Surviving;
  std::vector<int> Remap(Entries.size(), -1);
  for (size_t I = 0; I != Entries.size(); ++I) {
    if (Pruned[I])
      continue;
    TraceEntry E = Entries[I];
    E.Parent = E.Parent >= 0 ? Remap[E.Parent] : -1;
    Remap[I] = Surviving.append(std::move(E));
  }

  std::vector<bool> Excused(Surviving.size(), false);
  for (int I : Faults->ExcusedEntries)
    if (I >= 0 && static_cast<size_t>(I) < Remap.size() && Remap[I] >= 0)
      Excused[Remap[I]] = true;

  return checkAgainstNesImpl(Surviving, Topo, N, &Excused);
}

namespace {

CheckResult checkAgainstNesImpl(const NetworkTrace &Tr,
                                const topo::Topology &Topo,
                                const nes::Nes &N,
                                const std::vector<bool> *ExcusedLeaves) {
  // Operational extraction: replay the trace against the structure to
  // find the sequence of fresh enabled matches; this is the sequence the
  // Figure 7 machine would produce and almost always the witness.
  std::vector<unsigned> Extracted;
  DenseBitSet Occurred;
  for (const TraceEntry &E : Tr.entries())
    for (unsigned Id = 0; Id != N.numEvents(); ++Id)
      if (freshMatch(E.Lp, Id, N.event(Id), Occurred, &N)) {
        Occurred.set(Id);
        Extracted.push_back(Id);
      }

  auto BuildUpdate = [&](const std::vector<unsigned> &Seq,
                         UpdateSequence &U) -> bool {
    DenseBitSet Bits;
    auto S0 = N.setIndex(Bits);
    if (!S0)
      return false;
    U.Configs.push_back(&N.configOf(*S0));
    for (unsigned Id : Seq) {
      Bits.set(Id);
      auto S = N.setIndex(Bits);
      if (!S)
        return false;
      U.Configs.push_back(&N.configOf(*S));
      U.EventIds.push_back(Id);
    }
    return true;
  };

  UpdateSequence Primary;
  CheckResult PrimaryResult = CheckResult::fail("no candidate sequence");
  if (BuildUpdate(Extracted, Primary)) {
    PrimaryResult = checkUpdateSequence(Tr, Topo, Primary, N.events(), &N,
                                        ExcusedLeaves);
    if (PrimaryResult.Correct)
      return PrimaryResult;
  }

  // Definition 6 is existential over allowed sequences: try the rest.
  for (const std::vector<unsigned> &Seq : N.allowedSequences()) {
    if (Seq == Extracted)
      continue;
    UpdateSequence U;
    if (!BuildUpdate(Seq, U))
      continue;
    if (checkUpdateSequence(Tr, Topo, U, N.events(), &N, ExcusedLeaves)
            .Correct)
      return CheckResult::ok();
  }

  return CheckResult::fail("no allowed event sequence makes the trace an "
                           "event-driven consistent update; nearest "
                           "witness failed with: " +
                           PrimaryResult.Reason);
}

} // namespace
