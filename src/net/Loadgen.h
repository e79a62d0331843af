//===- net/Loadgen.h - The socket client ------------------------*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one client of the sim/Wire.h protocol: one poller-driven thread
/// that emulates up to tens of thousands of client hosts over loopback
/// or a real NIC. Each connection handshakes (Hello/HelloAck gives it a
/// source host, a destination host, and a conn id), then sends its
/// Inject frames in bursts, fences each phase with a Barrier, samples
/// echo round-trip times into an obs histogram, and validates the
/// echoed deliveries (every reply's sequence number must have been
/// sent; replies and request deliveries are counted per kind).
///
/// Two sources of Inject frames share every other step:
///   - the open loop (eventnet_loadgen, bench/net_throughput): each
///     connection synthesizes FramesPerConn echo requests to its
///     HelloAck's hosts, split evenly over Phases;
///   - replay (the "net" backend): LoadgenConfig::Replay's phased
///     workload, injection I of each phase on connection
///     I % Connections, so the socket path runs the same seeded
///     workload as every other substrate.
///
/// TCP by default; Udp swaps every connection for a connected UDP
/// socket speaking the same framing, one-or-more whole frames per
/// datagram.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_NET_LOADGEN_H
#define EVENTNET_NET_LOADGEN_H

#include "obs/Histogram.h"

#include <atomic>
#include <cstdint>
#include <string>

namespace eventnet {
namespace engine {
struct Workload;
} // namespace engine

namespace net {

struct LoadgenConfig {
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;
  /// Concurrent connections (client hosts emulated).
  unsigned Connections = 8;
  /// UDP instead of TCP (one connected socket per connection).
  bool Udp = false;
  /// Open loop: echo requests each connection sends, total across all
  /// phases.
  uint64_t FramesPerConn = 128;
  /// Inject frames queued per connection per loop pass (the burst); a
  /// connection keeps at most two bursts queued locally.
  unsigned Burst = 32;
  /// Open loop: Barrier-fenced rounds the requests are split into.
  unsigned Phases = 1;
  /// Seeds the Hello nonces (seed + connection index; the server ignores
  /// them).
  uint64_t Seed = 1;
  /// Sample the round trip of every Nth Inject frame (1 = all; 0
  /// disables) that is an echo request; other kinds get no reply.
  unsigned RttSampleEvery = 16;
  /// Abort (TimedOut) if the run has not finished within this budget.
  unsigned TimeoutMs = 60000;
  /// Per-run budget for establishing connections. A refused or failed
  /// connect is retried with exponential backoff (25 ms doubling to a
  /// 800 ms cap) until this deadline; only then does the connection
  /// count as ConnectFailed. Absorbs the race of starting the load
  /// generator before the server's listener is up.
  unsigned ConnectTimeoutMs = 5000;
  /// Replays this workload instead of the open loop (null: open loop).
  /// Its phases replace Phases and FramesPerConn; each injection goes
  /// out as an Inject frame with A = ip_src (or the injecting host),
  /// B = ip_dst, and the header's kind and seq. Must outlive the run.
  const engine::Workload *Replay = nullptr;
};

struct LoadgenStats {
  uint64_t Connected = 0;
  uint64_t ConnectFailed = 0;  ///< gave up after the connect budget
  uint64_t ConnectRetries = 0; ///< backoff retries taken (any outcome)
  uint64_t InjectsSent = 0; ///< Inject frames sent
  uint64_t FramesSent = 0;  ///< all frames (injects + barriers + byes...)
  uint64_t Delivers = 0;    ///< Deliver frames received (any kind)
  uint64_t Replies = 0;     ///< of those, echo replies (KindReply)
  uint64_t BarrierAcks = 0;
  uint64_t SeqMismatches = 0; ///< replies whose seq was never sent
  uint64_t ProtocolErrors = 0;
  uint64_t BytesSent = 0;
  uint64_t BytesReceived = 0;
  double ElapsedSec = 0;
  bool TimedOut = false;
  bool Stopped = false; ///< cut short by the caller's stop flag
  /// Round-trip samples, nanoseconds.
  obs::HistogramSnapshot RttNs;

  bool ok() const {
    return !TimedOut && !Stopped && ProtocolErrors == 0 &&
           SeqMismatches == 0 && ConnectFailed == 0;
  }
};

/// Runs the workload to completion (or \p Stop / timeout) and returns
/// the aggregate stats. Blocking; single-threaded.
LoadgenStats runLoadgen(const LoadgenConfig &C,
                        const std::atomic<bool> *Stop = nullptr);

} // namespace net
} // namespace eventnet

#endif // EVENTNET_NET_LOADGEN_H
