//===- tests/engine/QueueTest.cpp - MPSC queue + RCU epoch tests ----------===//

#include "engine/Queue.h"
#include "engine/Rcu.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>
#include <vector>

using namespace eventnet::engine;

TEST(Queue, FifoSingleThread) {
  BoundedMpscQueue<int> Q(8);
  for (int I = 0; I != 5; ++I)
    EXPECT_TRUE(Q.tryPush(int(I)));
  int V;
  for (int I = 0; I != 5; ++I) {
    ASSERT_TRUE(Q.tryPop(V));
    EXPECT_EQ(V, I);
  }
  EXPECT_FALSE(Q.tryPop(V));
}

TEST(Queue, FullAndCapacity) {
  BoundedMpscQueue<int> Q(4);
  EXPECT_EQ(Q.capacity(), 4u);
  for (int I = 0; I != 4; ++I)
    EXPECT_TRUE(Q.tryPush(int(I)));
  EXPECT_FALSE(Q.tryPush(99));
  int V;
  ASSERT_TRUE(Q.tryPop(V));
  EXPECT_TRUE(Q.tryPush(99));
}

TEST(Queue, CapacityRoundsUp) {
  BoundedMpscQueue<int> Q(5);
  EXPECT_EQ(Q.capacity(), 8u);
}

TEST(Queue, MpscStress) {
  // Several producers, one consumer: every element arrives exactly once
  // and each producer's elements arrive in its program order.
  constexpr unsigned Producers = 4;
  constexpr uint64_t PerProducer = 20000;
  BoundedMpscQueue<uint64_t> Q(1024);

  std::vector<std::thread> Ts;
  for (unsigned P = 0; P != Producers; ++P)
    Ts.emplace_back([&Q, P] {
      for (uint64_t I = 0; I != PerProducer; ++I)
        Q.pushBlocking((uint64_t(P) << 32) | I);
    });

  std::map<unsigned, uint64_t> NextExpected;
  uint64_t Got = 0, V;
  while (Got != Producers * PerProducer) {
    if (!Q.tryPop(V)) {
      std::this_thread::yield();
      continue;
    }
    unsigned P = static_cast<unsigned>(V >> 32);
    uint64_t Seq = V & 0xffffffffu;
    EXPECT_EQ(Seq, NextExpected[P]) << "producer " << P << " reordered";
    NextExpected[P] = Seq + 1;
    ++Got;
  }
  for (auto &T : Ts)
    T.join();
  EXPECT_FALSE(Q.tryPop(V));
}

namespace {
/// An element that counts its live instances, to observe when the ring
/// constructs and destroys cell elements.
struct Tracked {
  static int Live;
  int V = 0;
  Tracked() { ++Live; }
  explicit Tracked(int X) : V(X) { ++Live; }
  Tracked(const Tracked &O) : V(O.V) { ++Live; }
  Tracked(Tracked &&O) noexcept : V(O.V) { ++Live; }
  Tracked &operator=(const Tracked &) = default;
  Tracked &operator=(Tracked &&) = default;
  ~Tracked() { --Live; }
};
int Tracked::Live = 0;
} // namespace

TEST(Queue, CellsAreBuiltOnFirstUse) {
  Tracked Out, Batch[8]; // the consumer's slots, live outside the ring
  int Base = Tracked::Live;
  {
    BoundedMpscQueue<Tracked> Q(8);
    EXPECT_EQ(Tracked::Live - Base, 0) << "construction built elements";

    for (int K = 1; K <= 3; ++K) {
      ASSERT_TRUE(Q.tryPush(Tracked(K)));
      EXPECT_EQ(Tracked::Live - Base, K) << "after " << K << " pushes";
    }
    for (int K = 1; K <= 3; ++K) {
      ASSERT_TRUE(Q.tryPop(Out));
      EXPECT_EQ(Out.V, K);
    }
    // Popping leaves the cells built (they are the freelist).
    EXPECT_EQ(Tracked::Live - Base, 3);

    // Several laps through single and batch operations: every cell gets
    // built once, and later laps reuse the built elements.
    int Next = 4;
    for (int Lap = 0; Lap != 5; ++Lap) {
      for (int I = 0; I != 5; ++I)
        ASSERT_TRUE(Q.tryPush(Tracked(Next + I)));
      for (int I = 0; I != 5; ++I)
        Batch[I].V = Next + 5 + I;
      ASSERT_EQ(Q.tryPushBatch(Batch, 5), 3u); // capacity 8: 3 fit
      ASSERT_EQ(Q.tryPopBatch(Batch, 8), 8u);
      for (int I = 0; I != 8; ++I)
        EXPECT_EQ(Batch[I].V, Next + I);
      Next += 10;
    }
    EXPECT_EQ(Tracked::Live - Base, 8);
  }
  EXPECT_EQ(Tracked::Live - Base, 0) << "destruction leaked elements";
}

TEST(Queue, PartialFirstLapDestroysOnlyBuiltCells) {
  int Base = Tracked::Live;
  {
    BoundedMpscQueue<Tracked> Q(8);
    Tracked Vals[5];
    ASSERT_EQ(Q.tryPushBatch(Vals, 5), 5u);
    EXPECT_EQ(Tracked::Live - Base, 10);
  }
  EXPECT_EQ(Tracked::Live - Base, 0);
}

TEST(Queue, MpscStressHeapElements) {
  // Heap-backed elements through the batch operations across many laps
  // of a small ring: first-lap cells are constructed, later laps assign
  // into warm elements of other sizes, and every element arrives intact
  // and in its producer's order (sanitizer builds check the lifetimes).
  constexpr unsigned Producers = 4;
  constexpr uint64_t PerProducer = 20000;
  static constexpr size_t BatchMax = 16;
  BoundedMpscQueue<std::vector<uint64_t>> Q(64);

  auto Make = [](unsigned P, uint64_t I) {
    std::vector<uint64_t> V(1 + (I % 7), (uint64_t(P) << 32) | I);
    return V;
  };
  std::vector<std::thread> Ts;
  for (unsigned P = 0; P != Producers; ++P)
    Ts.emplace_back([&Q, &Make, P] {
      std::vector<std::vector<uint64_t>> Slots(BatchMax);
      uint64_t I = 0;
      while (I != PerProducer) {
        size_t N = std::min<uint64_t>(BatchMax, PerProducer - I);
        for (size_t K = 0; K != N; ++K)
          Slots[K] = Make(P, I + K);
        size_t Done = 0;
        while (Done != N) {
          size_t Pushed = Q.tryPushBatch(Slots.data() + Done, N - Done);
          if (Pushed == 0)
            std::this_thread::yield();
          Done += Pushed;
        }
        I += N;
      }
    });

  std::map<unsigned, uint64_t> NextExpected;
  std::vector<std::vector<uint64_t>> Out(BatchMax);
  uint64_t Got = 0;
  while (Got != Producers * PerProducer) {
    size_t N = Q.tryPopBatch(Out.data(), BatchMax);
    if (N == 0) {
      std::this_thread::yield();
      continue;
    }
    for (size_t K = 0; K != N; ++K) {
      ASSERT_FALSE(Out[K].empty());
      unsigned P = static_cast<unsigned>(Out[K][0] >> 32);
      uint64_t Seq = Out[K][0] & 0xffffffffu;
      EXPECT_EQ(Out[K], Make(P, Seq)) << "element corrupted";
      EXPECT_EQ(Seq, NextExpected[P]) << "producer " << P << " reordered";
      NextExpected[P] = Seq + 1;
    }
    Got += N;
  }
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Q.tryPopBatch(Out.data(), BatchMax), 0u);
}

namespace {
struct Counted {
  static int Live;
  Counted() { ++Live; }
  ~Counted() { --Live; }
};
int Counted::Live = 0;
} // namespace

TEST(Rcu, RetireWaitsForActiveReaders) {
  EpochDomain D(2);
  RetireList<Counted> RL;

  unsigned Slot = D.acquireSlot();
  D.enter(Slot); // reader active in the current epoch

  const Counted *Obj = new Counted();
  EXPECT_EQ(Counted::Live, 1);
  uint64_t E = D.retireEpoch();
  RL.retire(Obj, E);

  // The reader entered before the retirement: must not reclaim.
  RL.tryReclaim(D.minActiveEpoch());
  EXPECT_EQ(Counted::Live, 1);
  EXPECT_EQ(RL.pending(), 1u);

  D.exit(Slot);
  D.releaseSlot(Slot);

  RL.tryReclaim(D.minActiveEpoch());
  EXPECT_EQ(Counted::Live, 0);
  EXPECT_EQ(RL.pending(), 0u);
}

TEST(Rcu, LateReaderDoesNotBlockReclaim) {
  EpochDomain D(2);
  RetireList<Counted> RL;

  RL.retire(new Counted(), D.retireEpoch());

  // A reader entering *after* the retirement epoch observes the new
  // state; it must not pin the retired object.
  unsigned Slot = D.acquireSlot();
  D.enter(Slot);
  RL.tryReclaim(D.minActiveEpoch());
  EXPECT_EQ(Counted::Live, 0);
  D.exit(Slot);
  D.releaseSlot(Slot);
}

TEST(Rcu, GuardRoundTrip) {
  EpochDomain D(1);
  {
    EpochDomain::ReadGuard G(D);
    // One slot: a second guard would spin; just check the epoch pins.
    EXPECT_LE(D.minActiveEpoch(), D.retireEpoch());
  }
  // Released: the slot is reusable.
  EpochDomain::ReadGuard G2(D);
}
