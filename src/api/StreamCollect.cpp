//===- api/StreamCollect.cpp - Live trace collector ------------------------===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//

#include "api/StreamCollect.h"

#include <chrono>

using namespace eventnet;
using namespace eventnet::api::detail;

StreamCollector::StreamCollector(engine::Engine &E, const nes::Nes &N,
                                 const topo::Topology &Topo,
                                 consistency::StreamOptions SO)
    : E(E), Chk(N, Topo, SO) {
  Th = std::thread([this] { loop(); });
}

StreamCollector::~StreamCollector() {
  Stop.store(true, std::memory_order_release);
  if (Th.joinable())
    Th.join();
}

void StreamCollector::feed(std::vector<engine::Engine::StreamItem> &Buf) {
  for (const engine::Engine::StreamItem &It : Buf) {
    if (It.K == engine::Engine::StreamItem::Excuse)
      Chk.feedExcuse(It.Ticket);
    else
      Chk.feedEntry(It.Ticket, It.Parent, It.Lp, It.IsDelivery, It.IsDup);
  }
}

void StreamCollector::loop() {
  std::vector<engine::Engine::StreamItem> Buf;
  bool SawGap = false;
  while (!Stop.load(std::memory_order_acquire)) {
    Buf.clear();
    uint64_t W = E.drainTraceStream(Buf);
    // The gap must be declared before feeding anything logged after it:
    // from the first shed item on, the checker may only degrade, never
    // report a violation a truncated chain could have faked.
    if (!SawGap && E.streamLagShed() > 0) {
      SawGap = true;
      Chk.noteGap("stream_backlog");
    }
    feed(Buf);
    if (W > 0)
      Chk.advance(W - 1);
    if (Buf.empty())
      std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

consistency::StreamResult StreamCollector::finalize() {
  Stop.store(true, std::memory_order_release);
  if (Th.joinable())
    Th.join();
  // The workers have exited (watermarks at their terminal value); one
  // last drain picks up whatever the loop's final iteration raced past.
  std::vector<engine::Engine::StreamItem> Buf;
  E.drainTraceStream(Buf);
  feed(Buf);
  // Entries the shards shed because this collector lagged behind the
  // data path (EngineConfig::StreamBufCap): the checker saw a gappy
  // trace, so a clean pass would be a lie — and finish()'s strict
  // retirement must not mistake shed tails for violations (noteGap, not
  // just noteCause, before finishing).
  LagShed = E.streamLagShed();
  if (LagShed > 0)
    Chk.noteGap("stream_backlog");
  return Chk.finish();
}
