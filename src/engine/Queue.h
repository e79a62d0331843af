//===- engine/Queue.h - Bounded lock-free MPSC queue ------------*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inter-shard packet channel: a bounded multi-producer queue after
/// Vyukov's array-based MPMC design. Each cell has a sequence number
/// (kept in an array of its own) so producers claim cells with one
/// compare-exchange and consumers observe fully-written elements
/// without locks. The engine uses one queue per shard (any shard or the
/// injecting thread produces; only the owner consumes — MPSC), which
/// degenerates to SPSC wait-free hand-off when exactly one producer is
/// active, and a second one per shard, of event ids, as its priority
/// update lane (the owner tests its head, headReady(), before every
/// message).
///
/// Elements are trivially copyable: a cell is raw storage that producers
/// write and the consumer reads with plain byte copies, so a push never
/// runs a constructor or allocates, on the first lap or any later one.
/// Construction touches only the sequence numbers, never capacity x
/// sizeof(T) bytes of cells.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_ENGINE_QUEUE_H
#define EVENTNET_ENGINE_QUEUE_H

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <type_traits>

namespace eventnet {
namespace engine {

/// Bounded lock-free queue (Vyukov bounded MPMC; used MPSC here).
template <typename T> class BoundedMpscQueue {
  static_assert(std::is_trivially_copyable_v<T>,
                "ring cells are written and read by plain byte copies");

public:
  /// \p Capacity is rounded up to a power of two. Only the sequence
  /// numbers are initialized here; cell storage stays untouched until a
  /// producer first writes each cell.
  explicit BoundedMpscQueue(size_t Capacity) {
    size_t Cap = 2;
    while (Cap < Capacity)
      Cap <<= 1;
    Seqs = std::make_unique<std::atomic<size_t>[]>(Cap);
    for (size_t I = 0; I != Cap; ++I)
      Seqs[I].store(I, std::memory_order_relaxed);
    Cells.reset(new Storage[Cap]);
    Mask = Cap - 1;
  }

  BoundedMpscQueue(const BoundedMpscQueue &) = delete;
  BoundedMpscQueue &operator=(const BoundedMpscQueue &) = delete;

  /// Attempts to enqueue; returns false when full.
  bool tryPush(const T &V) {
    size_t Pos = Tail.load(std::memory_order_relaxed);
    for (;;) {
      size_t Seq = Seqs[Pos & Mask].load(std::memory_order_acquire);
      intptr_t Diff =
          static_cast<intptr_t>(Seq) - static_cast<intptr_t>(Pos);
      if (Diff == 0) {
        if (Tail.compare_exchange_weak(Pos, Pos + 1,
                                       std::memory_order_relaxed))
          break;
      } else if (Diff < 0) {
        return false; // full
      } else {
        Pos = Tail.load(std::memory_order_relaxed);
      }
    }
    put(Pos, V);
    Seqs[Pos & Mask].store(Pos + 1, std::memory_order_release);
    return true;
  }

  /// Enqueues, retrying while the queue is full. \p WhileFull (if
  /// non-null) is invoked once per failed attempt so a worker can drain
  /// its own queue instead of deadlocking on a cycle of full queues.
  template <typename FnT> void pushBlocking(const T &V, FnT WhileFull) {
    while (!tryPush(V))
      WhileFull();
  }

  /// Default retry discipline: a short spin (the consumer usually frees
  /// a cell within nanoseconds), then yields, then exponentially longer
  /// sleeps capped at 256µs. A saturated consumer costs the producer
  /// scheduler-visible sleeps instead of a core-burning busy loop, and
  /// the cap bounds added latency once the queue drains.
  void pushBlocking(const T &V) {
    unsigned Attempt = 0;
    uint32_t SleepUs = 1;
    pushBlocking(V, [&] {
      ++Attempt;
      if (Attempt <= 64)
        return; // spin: full window is transient in the common case
      if (Attempt <= 256) {
        std::this_thread::yield();
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(SleepUs));
      if (SleepUs < 256)
        SleepUs <<= 1;
    });
  }

  /// Enqueues up to \p N elements with a single tail CAS; returns how
  /// many were pushed (a prefix of \p Vals). Cell availability is
  /// monotone in consumer progress, so probing forward from the tail
  /// finds the largest claimable prefix. Each element is a byte copy
  /// into its cell: no lap of the ring allocates.
  size_t tryPushBatch(const T *Vals, size_t N) {
    for (;;) {
      size_t Pos = Tail.load(std::memory_order_relaxed);
      size_t Claim = 0;
      for (size_t K = 1; K <= N; ++K) {
        intptr_t Diff = static_cast<intptr_t>(
                            Seqs[(Pos + K - 1) & Mask].load(
                                std::memory_order_acquire)) -
                        static_cast<intptr_t>(Pos + K - 1);
        if (Diff != 0)
          break; // occupied (<0) or claimed by a racing producer (>0)
        Claim = K;
      }
      if (Claim == 0) {
        intptr_t Diff = static_cast<intptr_t>(
                            Seqs[Pos & Mask].load(std::memory_order_acquire)) -
                        static_cast<intptr_t>(Pos);
        if (Diff < 0)
          return 0; // full
        continue;   // stale tail; retry
      }
      if (!Tail.compare_exchange_weak(Pos, Pos + Claim,
                                      std::memory_order_relaxed))
        continue;
      for (size_t K = 0; K != Claim; ++K) {
        put(Pos + K, Vals[K]);
        Seqs[(Pos + K) & Mask].store(Pos + K + 1, std::memory_order_release);
      }
      return Claim;
    }
  }

  /// Dequeues up to \p Max elements into \p Out with one head update,
  /// a byte copy out of each cell. Returns the count. Single consumer.
  size_t tryPopBatch(T *Out, size_t Max) {
    size_t Pos = Head.load(std::memory_order_relaxed);
    size_t N = 0;
    while (N != Max) {
      size_t Seq = Seqs[(Pos + N) & Mask].load(std::memory_order_acquire);
      if (static_cast<intptr_t>(Seq) -
              static_cast<intptr_t>(Pos + N + 1) <
          0)
        break; // not yet published
      get((Pos + N) & Mask, Out[N]);
      Seqs[(Pos + N) & Mask].store(Pos + N + Mask + 1,
                                   std::memory_order_release);
      ++N;
    }
    if (N)
      Head.store(Pos + N, std::memory_order_relaxed);
    return N;
  }

  /// Attempts to dequeue; returns false when empty. Single consumer.
  bool tryPop(T &Out) {
    size_t Pos = Head.load(std::memory_order_relaxed);
    size_t Seq = Seqs[Pos & Mask].load(std::memory_order_acquire);
    intptr_t Diff =
        static_cast<intptr_t>(Seq) - static_cast<intptr_t>(Pos + 1);
    if (Diff < 0)
      return false; // empty
    assert(Diff == 0 && "single consumer violated");
    Head.store(Pos + 1, std::memory_order_relaxed);
    get(Pos & Mask, Out);
    Seqs[Pos & Mask].store(Pos + Mask + 1, std::memory_order_release);
    return true;
  }

  /// Whether the element tryPop would return next is published: one
  /// relaxed load of Head and one acquire load of the head cell's
  /// sequence number. Cheap enough to test before every message, so a
  /// consumer can check an otherwise empty lane at that rate. Single
  /// consumer.
  bool headReady() const {
    size_t Pos = Head.load(std::memory_order_relaxed);
    size_t Seq = Seqs[Pos & Mask].load(std::memory_order_acquire);
    return static_cast<intptr_t>(Seq) - static_cast<intptr_t>(Pos + 1) >= 0;
  }

  /// Approximate number of queued elements (racy snapshot; for stats).
  size_t sizeApprox() const {
    size_t Ta = Tail.load(std::memory_order_relaxed);
    size_t Hd = Head.load(std::memory_order_relaxed);
    return Ta >= Hd ? Ta - Hd : 0;
  }

  size_t capacity() const { return Mask + 1; }

private:
  /// Raw, uninitialized room for one element.
  struct alignas(T) Storage {
    unsigned char Bytes[sizeof(T)];
  };

  /// Writes \p V into the cell of claimed position \p Pos.
  void put(size_t Pos, const T &V) {
    std::memcpy(Cells[Pos & Mask].Bytes, &V, sizeof(T));
  }

  /// Reads cell \p I, which a producer wrote and published, into \p Out.
  void get(size_t I, T &Out) const {
    std::memcpy(&Out, Cells[I].Bytes, sizeof(T));
  }

  std::unique_ptr<std::atomic<size_t>[]> Seqs;
  std::unique_ptr<Storage[]> Cells;
  size_t Mask = 0;
  alignas(64) std::atomic<size_t> Tail{0};
  alignas(64) std::atomic<size_t> Head{0};
};

} // namespace engine
} // namespace eventnet

#endif // EVENTNET_ENGINE_QUEUE_H
