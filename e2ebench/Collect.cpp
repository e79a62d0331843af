//===- e2ebench/Collect.cpp - Timed stream collector ----------------------===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//

#include "Collect.h"
#include "Workloads.h"

#include <chrono>

using namespace eventnet;
using namespace eventnet::e2ebench;

TimedCollector::TimedCollector(engine::Engine &E, const nes::Nes &N,
                               const topo::Topology &Topo,
                               consistency::StreamOptions SO)
    : E(E), Chk(N, Topo, SO) {
  Th = std::thread([this] { loop(); });
}

TimedCollector::~TimedCollector() {
  Stop.store(true, std::memory_order_release);
  if (Th.joinable())
    Th.join();
}

void TimedCollector::feed(
    const std::vector<engine::Engine::StreamItem> &Buf) {
  int64_t T0 = nowNs();
  for (const engine::Engine::StreamItem &It : Buf) {
    if (It.K == engine::Engine::StreamItem::Excuse)
      Chk.feedExcuse(It.Ticket);
    else
      Chk.feedEntry(It.Ticket, It.Parent, It.Lp, It.IsDelivery, It.IsDup);
  }
  T.FeedNs += nowNs() - T0;
}

void TimedCollector::loop() {
  std::vector<engine::Engine::StreamItem> Buf;
  bool SawGap = false;
  while (!Stop.load(std::memory_order_acquire)) {
    Buf.clear();
    int64_t T0 = nowNs();
    uint64_t W = E.drainTraceStream(Buf);
    if (!Buf.empty()) {
      T.DrainNs += nowNs() - T0;
      ++T.Drains;
      T.Items += Buf.size();
    }
    if (!SawGap && E.streamLagShed() > 0) {
      SawGap = true;
      Chk.noteGap("stream_backlog");
    }
    feed(Buf);
    if (W > 0) {
      int64_t T1 = nowNs();
      Chk.advance(W - 1);
      T.AdvanceNs += nowNs() - T1;
    }
    if (Buf.empty())
      std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

consistency::StreamResult TimedCollector::finalize(uint64_t TraceDropped) {
  Stop.store(true, std::memory_order_release);
  if (Th.joinable())
    Th.join();
  std::vector<engine::Engine::StreamItem> Buf;
  E.drainTraceStream(Buf);
  feed(Buf);
  if (TraceDropped > 0)
    Chk.noteCause("trace_dropped");
  if (E.streamLagShed() > 0)
    Chk.noteGap("stream_backlog");
  return Chk.finish();
}
