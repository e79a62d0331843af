//===- engine/Classifier.cpp - Contiguous classifier programs -------------===//

#include "engine/Classifier.h"

#include <algorithm>
#include <cassert>

using namespace eventnet;
using namespace eventnet::engine;
using eventnet::netkat::Packet;

namespace {

// Op header word: [kind:2][field:16][pad][count-or-span:32].
constexpr uint64_t KindSparse = 0;
constexpr uint64_t KindDense = 1;
constexpr uint64_t KindLeaf = 2;

constexpr uint64_t header(uint64_t Kind, FieldId F, uint64_t Count) {
  return Kind | (static_cast<uint64_t>(F) << 2) | (Count << 32);
}

/// A dense jump table pays (span - 2N) extra words over sorted values but
/// replaces the binary search with one index; worth it while the value
/// range stays within a few cache lines of the sparse size.
bool preferDense(uint64_t Span, size_t N) {
  return Span <= 2 * N + 8 && Span <= 1024;
}

} // namespace

uint32_t Classifier::lowerLeaf(const FlatFdd &F, int32_t LeafIdx,
                               std::vector<int64_t> &Memo) {
  if (Memo[LeafIdx] >= 0)
    return static_cast<uint32_t>(Memo[LeafIdx]);
  uint32_t Off = static_cast<uint32_t>(Code.size());
  const FlatFdd::Leaf &L = F.Leaves[LeafIdx];
  Code.push_back(header(KindLeaf, 0, L.Count));
  for (uint32_t A = L.First; A != L.First + L.Count; ++A) {
    const FlatFdd::Action &AR = F.Actions[A];
    Code.push_back(AR.Count);
    for (uint32_t W = AR.First; W != AR.First + AR.Count; ++W) {
      // apply()'s merge emission needs each action's writes sorted by
      // field; normalized ActionSeqs guarantee it.
      assert((W == AR.First || F.Writes[W - 1].F < F.Writes[W].F) &&
             "action writes not sorted by field");
      Code.push_back(F.Writes[W].F);
      Code.push_back(static_cast<uint64_t>(F.Writes[W].V));
    }
  }
  Memo[LeafIdx] = Off;
  return Off;
}

Classifier::Classifier(const FlatFdd &F) {
  std::vector<int64_t> NodeMemo(F.Nodes.size(), -1);
  std::vector<int64_t> LeafMemo(F.Leaves.size(), -1);

  if (F.Root < 0) {
    Root = lowerLeaf(F, ~F.Root, LeafMemo);
    return;
  }

  // The maximal same-field lo-chain starting at a node: the multi-way
  // dispatch one op will encode. The canonical FDD ordering makes the
  // chain's values strictly increasing, i.e. already sorted.
  struct ChainEntry {
    Value V;
    int32_t Hi;
  };
  std::vector<ChainEntry> Chain;
  std::vector<uint32_t> Targets;
  auto collectChain = [&F, &Chain](int32_t N) -> int32_t {
    Chain.clear();
    FieldId Fld = F.Nodes[N].F;
    int32_t Cur = N;
    while (Cur >= 0 && F.Nodes[Cur].F == Fld) {
      assert((Chain.empty() || Chain.back().V < F.Nodes[Cur].V) &&
             "lo-chain values not increasing");
      Chain.push_back({F.Nodes[Cur].V, F.Nodes[Cur].Hi});
      Cur = F.Nodes[Cur].Lo;
    }
    return Cur; // the chain's fall-through (different field, or ~leaf)
  };

  // Iterative post-order over chain heads: children (hi targets and the
  // fall-through) are lowered before the op that jumps to them, so every
  // emitted target is a known arena offset.
  struct Frame {
    int32_t N;
    bool Expanded;
  };
  std::vector<Frame> Stack{{F.Root, false}};
  while (!Stack.empty()) {
    Frame Fr = Stack.back();
    Stack.pop_back();
    if (NodeMemo[Fr.N] >= 0)
      continue;
    int32_t Fallthrough = collectChain(Fr.N);
    if (!Fr.Expanded) {
      Stack.push_back({Fr.N, true});
      if (Fallthrough >= 0 && NodeMemo[Fallthrough] < 0)
        Stack.push_back({Fallthrough, false});
      for (const ChainEntry &E : Chain)
        if (E.Hi >= 0 && NodeMemo[E.Hi] < 0)
          Stack.push_back({E.Hi, false});
      continue;
    }

    auto target = [&](int32_t T) -> uint32_t {
      if (T < 0)
        return lowerLeaf(F, ~T, LeafMemo);
      assert(NodeMemo[T] >= 0 && "child not lowered before parent");
      return static_cast<uint32_t>(NodeMemo[T]);
    };

    // Resolve every branch target BEFORE emitting the op: resolving a
    // leaf target appends the leaf's block to the arena, which must not
    // interleave with the op's own contiguous words.
    uint32_t Default = target(Fallthrough);
    Targets.clear();
    for (const ChainEntry &E : Chain)
      Targets.push_back(target(E.Hi));

    FieldId Fld = F.Nodes[Fr.N].F;
    size_t N = Chain.size();
    uint32_t Off = static_cast<uint32_t>(Code.size());
    // Two's-complement distance is exact for Vmax >= Vmin even when the
    // int64 subtraction would overflow.
    uint64_t Span = static_cast<uint64_t>(Chain.back().V) -
                    static_cast<uint64_t>(Chain.front().V) + 1;
    if (preferDense(Span, N)) {
      Code.push_back(header(KindDense, Fld, Span));
      Code.push_back(Default);
      Code.push_back(static_cast<uint64_t>(Chain.front().V));
      Code.resize(Code.size() + Span, Default);
      for (size_t I = 0; I != N; ++I)
        Code[Off + 3 +
             (static_cast<uint64_t>(Chain[I].V) -
              static_cast<uint64_t>(Chain.front().V))] = Targets[I];
      ++DenseOps;
    } else {
      Code.push_back(header(KindSparse, Fld, N));
      Code.push_back(Default);
      for (const ChainEntry &E : Chain)
        Code.push_back(static_cast<uint64_t>(E.V));
      for (uint32_t T : Targets)
        Code.push_back(T);
    }
    ++Ops;
    NodeMemo[Fr.N] = Off;
  }
  Root = static_cast<uint32_t>(NodeMemo[F.Root]);
}

// Forced inline into each entry point: the walk is the lookup's whole
// cost, and a call per hop would add to it.
[[gnu::always_inline]] inline const uint64_t *
Classifier::leafFor(const Packet &Pkt) const {
  const uint64_t *Base = Code.data();
  const uint64_t *PC = Base + Root;
  const auto &Fs = Pkt.fields();
  const size_t NF = Fs.size();
  size_t FI = 0; // monotone cursor: fields are tested in increasing order

  for (;;) {
    uint64_t H = *PC;
    uint64_t Kind = H & 3;
    if (Kind == KindLeaf)
      return PC;

    FieldId Fld = static_cast<FieldId>((H >> 2) & 0xFFFF);
    uint32_t N = static_cast<uint32_t>(H >> 32);
    while (FI != NF && Fs[FI].first < Fld)
      ++FI;
    uint32_t Target = static_cast<uint32_t>(PC[1]); // fall-through
    if (FI != NF && Fs[FI].first == Fld) {
      Value V = Fs[FI].second;
      if (Kind == KindSparse) {
        const uint64_t *Vals = PC + 2;
        uint32_t Lo = 0, Hi = N;
        while (Lo != Hi) {
          uint32_t Mid = (Lo + Hi) / 2;
          if (static_cast<Value>(Vals[Mid]) < V)
            Lo = Mid + 1;
          else
            Hi = Mid;
        }
        if (Lo != N && static_cast<Value>(Vals[Lo]) == V)
          Target = static_cast<uint32_t>(PC[2 + N + Lo]);
      } else {
        uint64_t D = static_cast<uint64_t>(V) - PC[2];
        if (D < N)
          Target = static_cast<uint32_t>(PC[3 + D]);
      }
    }
    PC = Base + Target;
  }
}

const uint64_t *Classifier::rewrite(const uint64_t *Action, Packet &Pkt) {
  // An engine packet is located, so its pt write is one store into
  // Fields[1] (Packet::set), not a search.
  uint32_t NumWrites = static_cast<uint32_t>(*Action++);
  for (uint32_t W = 0; W != NumWrites; ++W) {
    Pkt.set(static_cast<FieldId>(Action[0]), static_cast<Value>(Action[1]));
    Action += 2;
  }
  return Action;
}

size_t Classifier::applyInPlace(Packet &Pkt, PacketBuf &Out) const {
  const uint64_t *Leaf = leafFor(Pkt);
  uint32_t NumActs = static_cast<uint32_t>(*Leaf >> 32);
  const uint64_t *P = Leaf + 1;
  if (NumActs == 1) {
    rewrite(P, Pkt);
    return 1;
  }
  // Copy-assign into each recycled slot (one memcpy on a warmed buffer —
  // measured faster than a field-by-field merge), then rewrite it there.
  for (uint32_t A = 0; A != NumActs; ++A) {
    Packet &O = Out.next();
    O = Pkt;
    P = rewrite(P, O);
  }
  return NumActs;
}

void Classifier::apply(const Packet &Pkt, std::vector<Packet> &Out) const {
  const uint64_t *Leaf = leafFor(Pkt);
  uint32_t NumActs = static_cast<uint32_t>(*Leaf >> 32);
  const uint64_t *P = Leaf + 1;
  for (uint32_t A = 0; A != NumActs; ++A) {
    Out.push_back(Pkt);
    P = rewrite(P, Out.back());
  }
}
