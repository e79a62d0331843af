//===- e2ebench/Collect.h - Timed stream collector --------------*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced runs' copy of api::detail::StreamCollector: the same poll
/// loop (drainTraceStream, then feedEntry/feedExcuse, then advance, and
/// a 200 us sleep after an empty drain), with each call into the engine
/// and the checker timed so the per-layer numbers split verification
/// into hand-off, ingest and retirement.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_E2EBENCH_COLLECT_H
#define EVENTNET_E2EBENCH_COLLECT_H

#include "consistency/StreamCheck.h"
#include "engine/Engine.h"

#include <atomic>
#include <cstdint>
#include <thread>

namespace eventnet {
namespace e2ebench {

/// Call counts and busy time of the collector loop. Written by the
/// collector thread; read after finalize() joined it.
struct CollectTimes {
  uint64_t Drains = 0;  ///< drainTraceStream calls that returned items
  uint64_t Items = 0;   ///< items those drains returned
  int64_t DrainNs = 0;  ///< time in those drains
  int64_t FeedNs = 0;   ///< time in feedEntry + feedExcuse
  int64_t AdvanceNs = 0; ///< time in advance
};

class TimedCollector {
public:
  TimedCollector(engine::Engine &E, const nes::Nes &N,
                 const topo::Topology &Topo, consistency::StreamOptions SO);
  ~TimedCollector();

  TimedCollector(const TimedCollector &) = delete;
  TimedCollector &operator=(const TimedCollector &) = delete;

  /// Stops the loop, drains the tail, and returns the verdict, degraded
  /// exactly as StreamCollector::finalize degrades it. Call once, after
  /// Engine::finish().
  consistency::StreamResult finalize(uint64_t TraceDropped);

  const CollectTimes &times() const { return T; }

private:
  void loop();
  void feed(const std::vector<engine::Engine::StreamItem> &Buf);

  engine::Engine &E;
  consistency::StreamChecker Chk;
  CollectTimes T;
  std::atomic<bool> Stop{false};
  std::thread Th;
};

} // namespace e2ebench
} // namespace eventnet

#endif // EVENTNET_E2EBENCH_COLLECT_H
