//===- net/Server.h - Socket front-end over the engine ----------*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The real-socket backend's server half: a single-threaded event loop
/// (net/Poller.h — epoll on Linux, poll elsewhere) accepting TCP
/// connections and UDP peers that speak the sim/Wire.h length-prefixed
/// framing, bridged to the sharded engine's streaming surface:
///
///  - Ingest: completed Inject frames become engine::Injections, built
///    in recycled slots (the header stamped with the session's conn tag,
///    which rides every hop untouched), batched and handed to
///    Engine::injectBatch on the loop thread — the engine's single
///    external injector.
///  - Delivery: the engine's DeliverySink (shard threads) pushes each
///    conn-tagged delivery into one bounded MPSC ring; the loop routes
///    frames to the owning session's bounded egress queue under the
///    engine's overload-policy semantics, with every shed counted so
///    conservation is checkable end to end.
///  - Wake: a sink writes the self-pipe only when the loop has parked.
///    Before each blocking wait the loop sets Parked, fences and
///    re-checks the ring; a sink fences after its push and takes Parked
///    with an exchange, so at most one sink per park writes one byte,
///    and a busy loop costs its sinks no syscall. The wait's timeout
///    (20 ms idle) is only a backstop.
///  - Barriers: a client's Barrier frame is acked only after all
///    buffered ingest is flushed, the engine is quiescent, and the
///    delivery ring is drained — TCP ordering then guarantees the
///    client saw every delivery of the fenced traffic before the ack.
///  - Shutdown: a stop flag (e.g. net/Signal.h) closes the listeners,
///    drains sessions and the engine, flushes egress, and returns; the
///    caller still gets complete stats, trace, and drop audit.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_NET_SERVER_H
#define EVENTNET_NET_SERVER_H

#include "engine/Engine.h"
#include "net/Poller.h"
#include "net/Session.h"
#include "net/Socket.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace eventnet {
namespace net {

struct ServerConfig {
  /// Bind address for both listeners ("0.0.0.0" to serve off-box).
  std::string BindAddr = "127.0.0.1";
  /// TCP listen port; 0 binds an ephemeral port (see Server::port).
  uint16_t Port = 0;
  /// Also bind a UDP socket on the same port number.
  bool EnableUdp = true;
  /// Inject frames buffered before an Engine::injectBatch hand-off.
  unsigned IngestBatch = 256;
  /// Delivery MPSC ring capacity (frames; rounded to a power of two).
  size_t DeliveryRingCapacity = 1 << 16;
  /// Per-session egress bound and overload policy.
  SessionConfig Session;
  /// Accept no more than this many live sessions.
  size_t MaxSessions = 1 << 16;
  /// After a stop request, force-close whatever has not drained within
  /// this budget (ServerStats::UnreadAtStopBytes counts the client bytes
  /// it discards).
  unsigned DrainTimeoutMs = 2000;
};

/// Aggregated server counters (loop-thread written; read after serve()
/// returns, or from the loop thread itself).
struct ServerStats {
  uint64_t Accepted = 0;          ///< TCP accepts + distinct UDP peers
  uint64_t Closed = 0;            ///< sessions torn down
  uint64_t Rejected = 0;          ///< accepts refused (MaxSessions)
  uint64_t ProtocolErrors = 0;    ///< sessions killed by bad frames
  uint64_t FramesIn = 0;          ///< complete frames decoded
  uint64_t FramesOut = 0;         ///< frames serialized toward sockets
  uint64_t BytesIn = 0;
  uint64_t BytesOut = 0;
  uint64_t FramesInjected = 0;    ///< Inject frames handed to the engine
  uint64_t DeliveryFrames = 0;    ///< deliveries routed into an egress
  uint64_t RepliesOut = 0;        ///< of those, echo replies (KindReply)
  uint64_t ReassemblyPartial = 0; ///< reads that ended mid-frame
  uint64_t BackpressureShed = 0;  ///< egress + delivery-ring sheds
  uint64_t RingShed = 0;          ///< of those, shed at the delivery ring
  uint64_t DeliveryUnroutable = 0; ///< conn tag of a dead session
  uint64_t NonNetDeliveries = 0;  ///< deliveries without a conn tag
  uint64_t BarriersAcked = 0;
  uint64_t UdpDatagrams = 0;
  /// Client bytes the final teardown discarded undecoded: each live TCP
  /// session's unread socket data (FIONREAD) plus its partial frame
  /// (which BytesIn already counts). Nonzero means the drain stopped
  /// with client frames still in flight, not that the clients stopped.
  uint64_t UnreadAtStopBytes = 0;
};

class Server : private Session::FrameHandler {
public:
  explicit Server(ServerConfig C);
  ~Server() override;

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the listeners. Returns false and fills \p Err on failure.
  bool open(std::string &Err);
  /// The bound TCP port (after open; resolves an ephemeral request).
  uint16_t port() const { return TcpPort; }

  /// The delivery hook to install as EngineConfig::DeliverySink *before*
  /// constructing the engine. Thread-safe; called from shard threads.
  std::function<void(HostId, const netkat::Packet &)> deliverySink();

  /// Binds the (constructed, not yet started) engine this server feeds.
  void attach(engine::Engine &E);

  /// The event loop: runs until \p Stop is set, then drains gracefully.
  /// Caller sequence: open(); build engine with deliverySink();
  /// attach(); Engine::start(); serve(); Engine::finish().
  void serve(const std::atomic<bool> &Stop);

  /// Counter snapshot (includes torn-down sessions' counts).
  ServerStats stats() const;

private:
  struct TcpConn {
    Fd Sock;
    std::unique_ptr<Session> S;
    bool WriteArmed = false;
    bool ReadArmed = true; ///< false while Block-policy backpressure parks
                           ///< the read side (no new Injects accepted)
    bool Dirty = false;    ///< egress touched since the last flush pass
  };
  struct UdpPeer {
    uint32_t Ip = 0; ///< network order
    uint16_t Prt = 0;
    std::unique_ptr<Session> S;
    bool Dirty = false;
  };
  /// One delivery in flight from a shard thread to the loop.
  struct Delivery {
    uint64_t Conn = 0;
    sim::WireFrame F;
  };

  // Session::FrameHandler
  bool onFrame(Session &S, const sim::WireFrame &F) override;

  void sinkPush(const netkat::Packet &P);
  void wake();
  void drainWakePipe();
  void acceptReady();
  void udpReady();
  void tcpReady(uint64_t Conn, const Ready &Ev);
  void flushIngest();
  /// Routes ring deliveries into session egress queues. Returns frames
  /// routed this pass.
  size_t drainDeliveries();
  void ackBarriers();
  void flushWrites();
  void flushTcp(uint64_t Conn, TcpConn &T);
  void flushUdp(UdpPeer &P);
  void teardownTcp(uint64_t Conn, bool CountClosed);
  void teardownTcpFlushing(uint64_t Conn);
  void sendFrame(Session &S, const sim::WireFrame &F);
  void markDirty(uint64_t Conn);
  Session *sessionOf(uint64_t Conn);
  bool validHost(uint32_t H) const;
  bool anyPendingWrites() const;

  ServerConfig C;
  engine::Engine *E = nullptr;
  Poller Poll;
  Fd TcpListen, UdpSock, WakeR, WakeW;
  uint16_t TcpPort = 0;

  std::vector<HostId> Hosts; ///< round-robin Hello assignment order
  size_t NextHost = 0;
  std::vector<bool> HostValid; ///< by host id (dense ids in practice)

  uint64_t NextConn = 1;
  std::unordered_map<uint64_t, TcpConn> Tcp;      ///< by conn id
  std::unordered_map<uint64_t, uint64_t> UdpByKey; ///< addr key -> conn
  std::unordered_map<uint64_t, UdpPeer> Udp;       ///< by conn id

  /// Buffered ingest: recycled slots whose headers keep their capacity.
  engine::RecyclePool<engine::Injection> InjBuf;
  std::vector<std::pair<uint64_t, uint64_t>> PendingBarriers; ///< conn, seq
  std::vector<uint64_t> DirtyConns;
  std::vector<uint64_t> FlushWork; ///< flushWrites' swap partner (empty)

  // Shard-thread -> loop-thread delivery path.
  std::unique_ptr<engine::BoundedMpscQueue<Delivery>> Ring;
  /// The loop is (about to be) blocked in Poll.wait: set by the loop
  /// before it parks, taken by the one sink that writes the self-pipe.
  /// On its own line: every sink reads it after every push.
  alignas(64) std::atomic<bool> Parked{false};
  engine::RelaxedCounter RingShed;      ///< sink-side sheds (shed policies)
  engine::RelaxedCounter NonNetSink;    ///< sink calls without a conn tag

  ServerStats Totals; ///< loop-thread accumulator (+ closed sessions)
  std::vector<Ready> Events;
};

} // namespace net
} // namespace eventnet

#endif // EVENTNET_NET_SERVER_H
