//===- engine/Classifier.h - Contiguous classifier programs -----*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine's final lowering: a flattened FDD is compiled one step
/// further into a *classifier program* — a contiguous arena of
/// fixed-layout ops a lookup executes by walking forward through one
/// allocation instead of chasing heap-scattered diagram nodes.
///
/// The canonical FDD ordering invariants (fields never decrease along a
/// path; lo-chain tests on one field have strictly increasing values)
/// mean every maximal lo-chain on a single field is a sorted multi-way
/// dispatch. The lowering collapses each such chain into one op:
///
///   OpSparse  field, default target, N sorted values + N targets
///             (binary search over a contiguous value array);
///   OpDense   field, default target, base value, N-entry jump table
///             (direct index when the chain's value range is small);
///   OpLeaf    terminal action block: the matched rule's action list
///             (write sequences) inlined into the arena.
///
/// Targets are word offsets into the same arena, so a lookup is a loop
/// over sequential cache lines with no pointer indirection. Because
/// fields are tested in nondecreasing order, the packet's sorted field
/// vector is consumed with a monotone cursor — the whole lookup touches
/// each packet field at most once.
///
/// Every lookup runs the same walk to its leaf (leafFor); the entry
/// points differ only in where the leaf's writes land. The engine's
/// (applyInPlace) rewrites the packet where it sits when the leaf has
/// exactly one action, so a unicast hop copies no header, and emits a
/// copy per action into a recycled pool otherwise.
///
/// RecyclePool (PacketBuf here, the engine's MsgBuf) is the freelist
/// side of the zero-allocation hot path: emission writes into recycled
/// packets whose field vectors retain their capacity, so forwarding
/// performs no heap allocations (ClassifierPropertyTest asserts this
/// with a counting allocator).
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_ENGINE_CLASSIFIER_H
#define EVENTNET_ENGINE_CLASSIFIER_H

#include "netkat/Packet.h"
#include "support/Ids.h"

#include <cstdint>
#include <vector>

namespace eventnet {
namespace flowtable {
class Table;
}

namespace engine {

/// A flattened FDD: the diagram's nodes, leaves, actions and writes in
/// flat pools. Built by MatchPipeline from fdd::FddManager::fromTable;
/// apply() is the pointer-free walk (the engine's differential-testing
/// oracle), and Classifier lowers it to the batched fast path.
struct FlatFdd {
  struct Write {
    FieldId F;
    Value V;
  };
  /// One action: a slice of Writes.
  struct Action {
    uint32_t First, Count;
  };
  /// One leaf payload: a slice of Actions (empty = drop).
  struct Leaf {
    uint32_t First, Count;
  };
  /// One flattened test node; child < 0 encodes leaf ~child.
  struct Node {
    FieldId F;
    Value V;
    int32_t Hi, Lo;
  };

  std::vector<Write> Writes;
  std::vector<Action> Actions;
  std::vector<Leaf> Leaves;
  std::vector<Node> Nodes;
  int32_t Root = 0; ///< node index, or ~leaf when negative
};

/// A bump-pointer pool of recycled slots: elements keep their heap
/// capacity across reset(), so once warm a pool serves steady-state
/// traffic without allocation. The engine uses it for multi-action
/// classifier outputs (PacketBuf) and buffered egress messages alike.
template <typename T> class RecyclePool {
public:
  /// The next slot (grows the pool on first use only).
  T &next() {
    if (Used == Slots.size()) {
      ++Grown;
      Slots.emplace_back();
    }
    return Slots[Used++];
  }

  /// Forgets the contents but keeps every slot's capacity.
  void reset() { Used = 0; }

  /// Pre-sizes the pool to \p N slots up front (construction-time, not
  /// counted as growth): a pool sized to its steady-state working set —
  /// e.g. a full dequeue batch of egress messages — never grows on the
  /// hot path, so grownCount() stays 0 for the whole run.
  void reserve(size_t N) {
    if (Slots.size() < N)
      Slots.resize(N);
  }

  size_t size() const { return Used; }
  T &operator[](size_t I) { return Slots[I]; }
  const T &operator[](size_t I) const { return Slots[I]; }
  T *data() { return Slots.data(); }

  /// Times the pool had to grow (an allocation); stable once warm.
  uint64_t grownCount() const { return Grown; }

private:
  std::vector<T> Slots;
  size_t Used = 0;
  uint64_t Grown = 0;
};

/// Recycled classifier output packets of multi-action leaves: emission
/// copy-assigns into slots whose field vectors retain capacity.
using PacketBuf = RecyclePool<netkat::Packet>;

/// One compiled classifier program in a single contiguous arena.
class Classifier {
public:
  Classifier() = default;

  /// Lowers a flattened FDD into the arena.
  explicit Classifier(const FlatFdd &F);

  /// The engine's lookup: runs the program on \p Pkt and returns how many
  /// packets the matched leaf emits. A leaf with exactly one action
  /// rewrites \p Pkt where it sits, so a unicast hop copies nothing; any
  /// other leaf leaves \p Pkt as it was and emits a rewritten copy per
  /// action into \p Out (nothing on drop). Allocation-free once \p Out is
  /// warm.
  size_t applyInPlace(netkat::Packet &Pkt, PacketBuf &Out) const;

  /// Appends each action's rewritten copy of \p Pkt to \p Out: the same
  /// walk in the reference's shape, for the tests.
  void apply(const netkat::Packet &Pkt,
             std::vector<netkat::Packet> &Out) const;

  /// Prefetches the first op (the batched loop calls this one packet
  /// ahead).
  void prefetchRoot() const {
    __builtin_prefetch(Code.data() + Root);
  }

  /// Arena size in 64-bit words (compile-stats reporting).
  size_t codeWords() const { return Code.size(); }
  /// Number of dispatch ops (sparse + dense) in the program.
  size_t numOps() const { return Ops; }
  /// Number of dense jump-table ops.
  size_t numDenseOps() const { return DenseOps; }

private:
  /// The one walk every lookup shares: the leaf op \p Pkt reaches.
  const uint64_t *leafFor(const netkat::Packet &Pkt) const;
  /// Applies the writes of the action at \p Action (its write count, then
  /// its field/value pairs) to \p Pkt; returns the next action.
  static const uint64_t *rewrite(const uint64_t *Action, netkat::Packet &Pkt);

  uint32_t lowerLeaf(const FlatFdd &F, int32_t LeafIdx,
                     std::vector<int64_t> &Memo);
  uint32_t lowerNode(const FlatFdd &F, int32_t NodeIdx,
                     std::vector<int64_t> &NodeMemo,
                     std::vector<int64_t> &LeafMemo);

  /// The op arena. Layouts (all offsets are word indices into Code):
  ///   Sparse: [kind|field|count] [default] [v0..vN-1] [t0..tN-1]
  ///   Dense:  [kind|field|span]  [default] [base]     [t0..tSpan-1]
  ///   Leaf:   [kind|actions] then per action [writes] ([field] [value])*
  std::vector<uint64_t> Code;
  uint32_t Root = 0;
  size_t Ops = 0;
  size_t DenseOps = 0;
};

} // namespace engine
} // namespace eventnet

#endif // EVENTNET_ENGINE_CLASSIFIER_H
