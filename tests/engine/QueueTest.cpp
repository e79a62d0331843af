//===- tests/engine/QueueTest.cpp - Bounded MPSC queue tests --------------===//

#include "engine/Queue.h"

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

TEST(Queue, HeadReadyTracksThePublishedHead) {
  // The engine tests its update lane's head before every message, so the
  // test must read exactly "tryPop would succeed": false on an empty
  // lane, true once a push publishes the head, false again once the pop
  // consumes it, on every lap of the ring and for batch operations too.
  BoundedMpscQueue<uint32_t> Q(4);
  uint32_t Out = 0, Batch[4] = {};
  EXPECT_FALSE(Q.headReady());
  for (uint32_t Lap = 0; Lap != 6; ++Lap) {
    ASSERT_TRUE(Q.tryPush(Lap));
    EXPECT_TRUE(Q.headReady()) << "lap " << Lap;
    ASSERT_TRUE(Q.tryPop(Out));
    EXPECT_EQ(Out, Lap);
    EXPECT_FALSE(Q.headReady()) << "lap " << Lap;
  }
  uint32_t Vals[3] = {7, 8, 9};
  ASSERT_EQ(Q.tryPushBatch(Vals, 3), 3u);
  EXPECT_TRUE(Q.headReady());
  ASSERT_TRUE(Q.tryPop(Out));
  EXPECT_TRUE(Q.headReady()); // two left
  ASSERT_EQ(Q.tryPopBatch(Batch, 4), 2u);
  EXPECT_FALSE(Q.headReady());
  EXPECT_FALSE(Q.tryPop(Out));
}

TEST(Queue, BatchOpsKeepFifoAcrossLaps) {
  // Single and batch operations over several laps of a small ring: a
  // batch push claims only the free prefix, and every lap hands the
  // elements out in push order.
  BoundedMpscQueue<int> Q(8);
  int Out = 0, Batch[8] = {};
  for (int K = 1; K <= 3; ++K)
    ASSERT_TRUE(Q.tryPush(K));
  for (int K = 1; K <= 3; ++K) {
    ASSERT_TRUE(Q.tryPop(Out));
    EXPECT_EQ(Out, K);
  }

  int Next = 4;
  for (int Lap = 0; Lap != 5; ++Lap) {
    for (int I = 0; I != 5; ++I)
      ASSERT_TRUE(Q.tryPush(Next + I));
    for (int I = 0; I != 5; ++I)
      Batch[I] = Next + 5 + I;
    ASSERT_EQ(Q.tryPushBatch(Batch, 5), 3u); // capacity 8: 3 fit
    ASSERT_EQ(Q.tryPopBatch(Batch, 8), 8u);
    for (int I = 0; I != 8; ++I)
      EXPECT_EQ(Batch[I], Next + I);
    Next += 10;
  }
  EXPECT_FALSE(Q.tryPop(Out));
}

namespace {
/// A multi-word record like the engine's ring cells: a length and up to
/// 8 words, all derived from (producer, sequence).
struct Record {
  uint32_t Len;
  uint64_t Words[8];
};

Record makeRecord(unsigned P, uint64_t I) {
  Record R{};
  R.Len = 1 + static_cast<uint32_t>(I % 8);
  R.Words[0] = (uint64_t(P) << 32) | I;
  for (uint32_t K = 1; K != R.Len; ++K)
    R.Words[K] = R.Words[0] * 0x9e3779b97f4a7c15ull + K;
  return R;
}

bool sameRecord(const Record &A, const Record &B) {
  return A.Len == B.Len && std::equal(A.Words, A.Words + 8, B.Words);
}
} // namespace

TEST(Queue, MpscStressRecordElements) {
  // Multi-word records through the batch operations across about 1,250
  // laps of a small ring: every record arrives intact and in its
  // producer's order, whatever cell and lap carried it.
  constexpr unsigned Producers = 4;
  constexpr uint64_t PerProducer = 20000;
  static constexpr size_t BatchMax = 16;
  BoundedMpscQueue<Record> Q(64);

  std::vector<std::thread> Ts;
  for (unsigned P = 0; P != Producers; ++P)
    Ts.emplace_back([&Q, P] {
      Record Slots[BatchMax];
      uint64_t I = 0;
      while (I != PerProducer) {
        size_t N = std::min<uint64_t>(BatchMax, PerProducer - I);
        for (size_t K = 0; K != N; ++K)
          Slots[K] = makeRecord(P, I + K);
        size_t Done = 0;
        while (Done != N) {
          size_t Pushed = Q.tryPushBatch(Slots + Done, N - Done);
          if (Pushed == 0)
            std::this_thread::yield();
          Done += Pushed;
        }
        I += N;
      }
    });

  std::map<unsigned, uint64_t> NextExpected;
  Record Out[BatchMax];
  uint64_t Got = 0;
  while (Got != Producers * PerProducer) {
    size_t N = Q.tryPopBatch(Out, BatchMax);
    if (N == 0) {
      std::this_thread::yield();
      continue;
    }
    for (size_t K = 0; K != N; ++K) {
      unsigned P = static_cast<unsigned>(Out[K].Words[0] >> 32);
      uint64_t Seq = Out[K].Words[0] & 0xffffffffu;
      ASSERT_LT(P, Producers) << "record corrupted";
      EXPECT_TRUE(sameRecord(Out[K], makeRecord(P, Seq)))
          << "record corrupted";
      EXPECT_EQ(Seq, NextExpected[P]) << "producer " << P << " reordered";
      NextExpected[P] = Seq + 1;
    }
    Got += N;
  }
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Q.tryPopBatch(Out, BatchMax), 0u);
}
