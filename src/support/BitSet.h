//===- support/BitSet.h - Dense dynamic bit set ----------------*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// DenseBitSet: a small, value-semantics bit set used to represent sets of
/// NES events throughout the runtime (switch registers, packet digests,
/// event-set tags). Event ids are dense small integers, so a word-packed
/// representation keeps set union -- the hot operation in the Figure 7
/// SWITCH rule -- branch-free per word.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_SUPPORT_BITSET_H
#define EVENTNET_SUPPORT_BITSET_H

#include "support/Ids.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace eventnet {

/// A dynamically-sized dense bit set with value semantics.
///
/// Trailing zero words are kept normalized away so that equality and
/// hashing are structural regardless of how a set was built.
class DenseBitSet {
public:
  DenseBitSet() = default;

  /// Returns the singleton set {Bit}.
  static DenseBitSet single(unsigned Bit) {
    DenseBitSet S;
    S.set(Bit);
    return S;
  }

  /// Inserts \p Bit.
  void set(unsigned Bit) {
    unsigned Word = Bit / 64;
    if (Word >= Words.size())
      Words.resize(Word + 1, 0);
    Words[Word] |= (uint64_t(1) << (Bit % 64));
  }

  /// Removes every member, keeping the allocated capacity (the engine's
  /// hot loop reuses scratch sets across packets).
  void clear() { Words.clear(); }

  /// Makes room for members below 64 * \p NumWords up front.
  void reserve(size_t NumWords) { Words.reserve(NumWords); }

  /// The packed words, lowest members first, with trailing zero words
  /// normalized away (Nes::enables tests subsets word by word on them).
  size_t numWords() const { return Words.size(); }
  const uint64_t *words() const { return Words.data(); }

  /// Removes \p Bit.
  void reset(unsigned Bit) {
    unsigned Word = Bit / 64;
    if (Word >= Words.size())
      return;
    Words[Word] &= ~(uint64_t(1) << (Bit % 64));
    normalize();
  }

  /// Returns true if \p Bit is a member.
  bool test(unsigned Bit) const {
    unsigned Word = Bit / 64;
    if (Word >= Words.size())
      return false;
    return (Words[Word] >> (Bit % 64)) & 1;
  }

  /// Set union, in place.
  DenseBitSet &operator|=(const DenseBitSet &O) {
    if (O.Words.size() > Words.size())
      Words.resize(O.Words.size(), 0);
    for (size_t I = 0; I != O.Words.size(); ++I)
      Words[I] |= O.Words[I];
    return *this;
  }

  /// Set intersection, in place.
  DenseBitSet &operator&=(const DenseBitSet &O) {
    if (Words.size() > O.Words.size())
      Words.resize(O.Words.size());
    for (size_t I = 0; I != Words.size(); ++I)
      Words[I] &= O.Words[I];
    normalize();
    return *this;
  }

  friend DenseBitSet operator|(DenseBitSet A, const DenseBitSet &B) {
    A |= B;
    return A;
  }
  friend DenseBitSet operator&(DenseBitSet A, const DenseBitSet &B) {
    A &= B;
    return A;
  }

  /// Returns true if this set is a subset of \p O (improper subsets count).
  bool isSubsetOf(const DenseBitSet &O) const {
    if (Words.size() > O.Words.size())
      return false;
    for (size_t I = 0; I != Words.size(); ++I)
      if (Words[I] & ~O.Words[I])
        return false;
    return true;
  }

  /// Returns true if no bit is set.
  bool empty() const { return Words.empty(); }

  /// Number of set bits.
  unsigned count() const {
    unsigned N = 0;
    for (uint64_t W : Words)
      N += __builtin_popcountll(W);
    return N;
  }

  /// Invokes \p Fn(bit) for every member, in increasing order.
  template <typename FnT> void forEach(FnT Fn) const {
    for (size_t I = 0; I != Words.size(); ++I) {
      uint64_t W = Words[I];
      while (W) {
        unsigned Bit = static_cast<unsigned>(I * 64) + __builtin_ctzll(W);
        Fn(Bit);
        W &= W - 1;
      }
    }
  }

  /// Members as a sorted vector (convenience for tests and printing).
  std::vector<unsigned> toVector() const {
    std::vector<unsigned> V;
    forEach([&V](unsigned B) { V.push_back(B); });
    return V;
  }

  friend bool operator==(const DenseBitSet &A, const DenseBitSet &B) {
    return A.Words == B.Words;
  }
  friend bool operator!=(const DenseBitSet &A, const DenseBitSet &B) {
    return !(A == B);
  }
  friend bool operator<(const DenseBitSet &A, const DenseBitSet &B) {
    return A.Words < B.Words;
  }

  size_t hash() const {
    size_t H = 0x42;
    for (uint64_t W : Words)
      H = hashCombine(H, std::hash<uint64_t>()(W));
    return H;
  }

private:
  void normalize() {
    while (!Words.empty() && Words.back() == 0)
      Words.pop_back();
  }

  std::vector<uint64_t> Words;
};

} // namespace eventnet

template <> struct std::hash<eventnet::DenseBitSet> {
  size_t operator()(const eventnet::DenseBitSet &S) const { return S.hash(); }
};

#endif // EVENTNET_SUPPORT_BITSET_H
