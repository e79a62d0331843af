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
/// compare-exchange and consumers observe fully-constructed elements
/// without locks. The engine uses one queue per shard (any shard or the
/// injecting thread produces; only the owner consumes — MPSC), which
/// degenerates to SPSC wait-free hand-off when exactly one producer is
/// active.
///
/// A cell's element is built on first use: the first lap constructs it
/// in place, later laps assign into it, and the destructor destroys only
/// the cells that were built. Construction therefore touches only the
/// sequence numbers, never capacity x sizeof(T) bytes of elements, and
/// after its first lap the ring doubles as a freelist of warm elements.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_ENGINE_QUEUE_H
#define EVENTNET_ENGINE_QUEUE_H

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <thread>
#include <utility>

namespace eventnet {
namespace engine {

/// Bounded lock-free queue (Vyukov bounded MPMC; used MPSC here).
template <typename T> class BoundedMpscQueue {
public:
  /// \p Capacity is rounded up to a power of two. Only the sequence
  /// numbers are initialized here; element storage stays untouched until
  /// a producer first writes each cell.
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

  /// Destroys the elements of the cells that were built: a cell is built
  /// by the first push that lands on it, so those are the first
  /// min(Tail, capacity) cells.
  ~BoundedMpscQueue() {
    size_t Built = std::min(Tail.load(std::memory_order_relaxed), Mask + 1);
    for (size_t I = 0; I != Built; ++I)
      elem(I).~T();
  }

  BoundedMpscQueue(const BoundedMpscQueue &) = delete;
  BoundedMpscQueue &operator=(const BoundedMpscQueue &) = delete;

  /// Attempts to enqueue; returns false when full.
  bool tryPush(T &&V) {
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
    put(Pos, std::move(V));
    Seqs[Pos & Mask].store(Pos + 1, std::memory_order_release);
    return true;
  }

  /// Enqueues, retrying while the queue is full. \p WhileFull (if
  /// non-null) is invoked once per failed attempt so a worker can drain
  /// its own queue instead of deadlocking on a cycle of full queues.
  template <typename FnT> void pushBlocking(T &&V, FnT WhileFull) {
    while (!tryPush(std::move(V)))
      WhileFull();
  }

  /// Default retry discipline: a short spin (the consumer usually frees
  /// a cell within nanoseconds), then yields, then exponentially longer
  /// sleeps capped at 256µs. A saturated consumer costs the producer
  /// scheduler-visible sleeps instead of a core-burning busy loop, and
  /// the cap bounds added latency once the queue drains.
  void pushBlocking(T &&V) {
    unsigned Attempt = 0;
    uint32_t SleepUs = 1;
    pushBlocking(std::move(V), [&] {
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
  /// finds the largest claimable prefix.
  ///
  /// Elements are *copied* into the cells (and tryPopBatch copy-assigns
  /// them out). The first lap copy-constructs each cell's element; every
  /// later lap copy-assigns into the element the cell already holds, so
  /// for heap-backed T the ring is a freelist after its first lap —
  /// steady-state traffic reuses every cell's capacity and performs no
  /// allocations. Callers likewise keep \p Vals as recycled slots.
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
  /// copy-assigning so the cells keep their heap capacity (see
  /// tryPushBatch). Returns the count. Single consumer.
  size_t tryPopBatch(T *Out, size_t Max) {
    size_t Pos = Head.load(std::memory_order_relaxed);
    size_t N = 0;
    while (N != Max) {
      size_t Seq = Seqs[(Pos + N) & Mask].load(std::memory_order_acquire);
      if (static_cast<intptr_t>(Seq) -
              static_cast<intptr_t>(Pos + N + 1) <
          0)
        break; // not yet published
      Out[N] = elem((Pos + N) & Mask);
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
    Out = std::move(elem(Pos & Mask));
    Seqs[Pos & Mask].store(Pos + Mask + 1, std::memory_order_release);
    return true;
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

  T &elem(size_t I) {
    return *std::launder(reinterpret_cast<T *>(Cells[I].Bytes));
  }

  /// Writes \p V into the cell of claimed position \p Pos: positions
  /// below the capacity are the cell's first lap, so its element is
  /// constructed there; every later position assigns into it.
  template <typename U> void put(size_t Pos, U &&V) {
    if (Pos <= Mask)
      ::new (static_cast<void *>(Cells[Pos].Bytes)) T(std::forward<U>(V));
    else
      elem(Pos & Mask) = std::forward<U>(V);
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
