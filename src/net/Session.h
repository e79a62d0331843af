//===- net/Session.h - Per-connection framing state machine -----*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One client connection's protocol state, independent of any fd so the
/// tests can drive it with byte arrays:
///
///  - ingest(): incremental reassembly of the sim/Wire.h length-prefixed
///    framing from arbitrary read() chunks (a frame may arrive one byte
///    at a time, or fifty frames in one chunk), with handshake ordering
///    enforced (Hello first, exactly once; nothing after Bye) and
///    malformed prefixes treated as fatal protocol errors.
///  - enqueue()/fillTx(): a bounded egress queue of outgoing frames
///    under the engine's overload-policy semantics (Block = unbounded
///    growth i.e. backpressure belongs upstream; ShedOldest/ShedNewest
///    = bound the backlog and count every shed), serialized into a
///    reusable tx byte buffer that tolerates partial writes.
///
/// The Server owns the fd, the engine hookup, and the Hello/HelloAck
/// host assignment; the Session owns bytes, frames, and counters.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_NET_SESSION_H
#define EVENTNET_NET_SESSION_H

#include "engine/Engine.h"
#include "sim/Wire.h"

#include <cstdint>
#include <deque>
#include <vector>

namespace eventnet {
namespace net {

/// Which side of the protocol this session speaks — it decides the
/// inbound handshake ordering ingest() enforces.
enum class SessionRole : uint8_t {
  Server, ///< first inbound frame must be Hello; nothing after Bye
  Client, ///< first inbound frame must be HelloAck; deliveries may
          ///< still arrive while draining (after our own Bye)
};

struct SessionConfig {
  /// Egress-queue bound (frames, counting those already serialized but
  /// unwritten). Under ShedOldest/ShedNewest the backlog never exceeds
  /// this; under Block the queue itself may grow but wantsBackpressure
  /// turns on at the bound, and the server parks the connection's read
  /// side until the backlog drains (TCP flow control absorbs the rest).
  size_t EgressCapacity = 4096;
  engine::OverloadPolicy Overload = engine::OverloadPolicy::Block;
  SessionRole Role = SessionRole::Server;
};

struct SessionCounters {
  uint64_t FramesIn = 0;  ///< complete frames decoded
  uint64_t FramesOut = 0; ///< frames fully serialized toward the socket
  uint64_t BytesIn = 0;
  uint64_t BytesOut = 0;
  uint64_t ReassemblyPartial = 0; ///< ingest calls ending mid-frame
  uint64_t EgressShed = 0;        ///< frames shed by the overload policy
};

class Session {
public:
  enum class State : uint8_t {
    AwaitHello, ///< nothing but a Hello is legal
    Open,       ///< handshake done; traffic flows
    Draining,   ///< Bye received; flush egress, then close
    Closed,     ///< protocol error or torn down
  };

  /// Receives each completed frame during ingest(). Return false to
  /// reject the frame as a protocol error (the session closes).
  class FrameHandler {
  public:
    virtual ~FrameHandler() = default;
    virtual bool onFrame(Session &S, const sim::WireFrame &F) = 0;
  };

  Session(uint64_t Conn, SessionConfig C);

  uint64_t conn() const { return Conn; }
  State state() const { return St; }
  const SessionCounters &counters() const { return Ct; }

  /// The server's Hello/HelloAck assignment, stored here so the
  /// delivery router can sanity-check and tests can observe it.
  HostId assignedHost() const { return Assigned; }
  void assign(HostId H) { Assigned = H; }

  /// Marks the handshake complete (server sent the HelloAck).
  void open() { St = State::Open; }
  /// Marks the session draining (Bye seen) or closed.
  void drain() { St = State::Draining; }
  void close() { St = State::Closed; }

  /// Feeds \p Len raw bytes; every completed frame is handed to \p H in
  /// arrival order. Returns false on a protocol error (malformed frame,
  /// handshake violation, or handler rejection) — the session is Closed
  /// and the caller should tear the transport down after flushing.
  bool ingest(const uint8_t *Data, size_t Len, FrameHandler &H);

  /// Queues \p F for transmission under the overload policy. Returns
  /// false if the frame was shed instead (counted in EgressShed).
  bool enqueue(const sim::WireFrame &F);

  /// Frames queued but not yet serialized.
  size_t egressDepth() const { return Egress.size(); }
  /// Block policy only: the backlog has passed the advisory bound, so
  /// the caller should stop feeding this session (stop draining the
  /// delivery ring) until writes catch up.
  bool wantsBackpressure() const;

  /// Serializes queued frames into the tx buffer (bounded per call).
  /// True if any bytes are now pending.
  bool fillTx();
  const uint8_t *txData() const { return TxBuf.data() + TxOff; }
  size_t txPending() const { return TxBuf.size() - TxOff; }
  /// Consumes \p N bytes after a successful write.
  void txConsume(size_t N);
  /// Anything left to write (or serialize)?
  bool wantsWrite() const { return txPending() != 0 || !Egress.empty(); }

  /// Bytes of a frame begun but not yet complete: read (and counted in
  /// BytesIn) but not decoded.
  size_t partialBytes() const { return Rx.size(); }

private:
  uint64_t Conn;
  SessionConfig C;
  State St = State::AwaitHello;
  HostId Assigned = 0;
  SessionCounters Ct;

  std::vector<uint8_t> Rx; ///< unconsumed partial-frame bytes
  std::deque<sim::WireFrame> Egress;
  std::vector<uint8_t> TxBuf;
  size_t TxOff = 0;
};

} // namespace net
} // namespace eventnet

#endif // EVENTNET_NET_SESSION_H
