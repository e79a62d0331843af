//===- net/Server.cpp - Socket front-end over the engine ------------------===//

#include "net/Server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace eventnet;
using namespace eventnet::net;
using eventnet::netkat::Packet;
using sim::WireFrame;

namespace {

// Poller tokens: small constants for the shared fds, conn ids offset by
// TokBase for sessions.
constexpr uint64_t TokTcpListen = 1;
constexpr uint64_t TokUdp = 2;
constexpr uint64_t TokWake = 3;
constexpr uint64_t TokBase = 8;

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t udpKey(uint32_t Ip, uint16_t Port) {
  return (static_cast<uint64_t>(Ip) << 16) | Port;
}

/// Whole frames per UDP datagram: stay under a conservative MTU.
constexpr size_t UdpFramesPerDatagram = 48;

/// Folds one session's frame and byte counters into \p Into.
void addCounters(ServerStats &Into, const Session &S) {
  const SessionCounters &Ct = S.counters();
  Into.FramesIn += Ct.FramesIn;
  Into.FramesOut += Ct.FramesOut;
  Into.BytesIn += Ct.BytesIn;
  Into.BytesOut += Ct.BytesOut;
  Into.ReassemblyPartial += Ct.ReassemblyPartial;
  Into.BackpressureShed += Ct.EgressShed;
}

} // namespace

Server::Server(ServerConfig Cfg) : C(std::move(Cfg)) {
  if (C.IngestBatch == 0)
    C.IngestBatch = 1;
  Ring = std::make_unique<engine::BoundedMpscQueue<Delivery>>(
      std::max<size_t>(2, C.DeliveryRingCapacity));
  InjBuf.reserve(C.IngestBatch);
}

Server::~Server() = default;

bool Server::open(std::string &Err) {
  if (!Poll.valid()) {
    Err = "poller initialization failed";
    return false;
  }
  int L = listenTcp(C.BindAddr, C.Port, Err);
  if (L < 0)
    return false;
  TcpListen.reset(L);
  TcpPort = localPort(L);
  if (C.EnableUdp) {
    int U = bindUdp(C.BindAddr, TcpPort, Err);
    if (U < 0)
      return false;
    UdpSock.reset(U);
  }
  int Pipe[2];
  if (::pipe(Pipe) != 0) {
    Err = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  WakeR.reset(Pipe[0]);
  WakeW.reset(Pipe[1]);
  setNonBlocking(WakeR.get());
  setNonBlocking(WakeW.get());

  Poll.add(TcpListen.get(), TokTcpListen, /*Read=*/true, /*Write=*/false);
  if (UdpSock.valid())
    Poll.add(UdpSock.get(), TokUdp, true, false);
  Poll.add(WakeR.get(), TokWake, true, false);
  return true;
}

void Server::attach(engine::Engine &Eng) {
  E = &Eng;
  Hosts.clear();
  HostId MaxH = 0;
  for (const auto &[H, At] : Eng.topology().hosts()) {
    (void)At;
    Hosts.push_back(H);
    MaxH = std::max(MaxH, H);
  }
  HostValid.assign(static_cast<size_t>(MaxH) + 1, false);
  for (HostId H : Hosts)
    HostValid[H] = true;
}

bool Server::validHost(uint32_t H) const {
  return H < HostValid.size() && HostValid[H];
}

//===----------------------------------------------------------------------===//
// Delivery path (shard threads -> loop thread)
//===----------------------------------------------------------------------===//

std::function<void(HostId, const Packet &)> Server::deliverySink() {
  return [this](HostId, const Packet &P) { sinkPush(P); };
}

void Server::sinkPush(const Packet &P) {
  Value Conn = P.getOr(sim::connField(), -1);
  if (Conn < 0) {
    // Engine-internal traffic (workload probes, non-socket injections):
    // nothing to echo.
    NonNetSink.add();
    return;
  }
  Delivery D;
  D.Conn = static_cast<uint64_t>(Conn);
  D.F = sim::deliverFrame(P);
  if (C.Session.Overload == engine::OverloadPolicy::Block) {
    // Lossless: a full ring backpressures the shard thread. The loop
    // always drains the ring, so waking it first makes progress certain.
    unsigned Att = 0;
    Ring->pushBlocking(std::move(D), [&] {
      wake();
      if (++Att > 64)
        std::this_thread::yield();
    });
  } else if (!Ring->tryPush(std::move(D))) {
    RingShed.add();
    return;
  }
  wake();
}

void Server::wake() {
  // Called after a push. The fence pairs with the one the loop issues
  // between setting Parked and re-checking the ring (serve): either that
  // re-check sees this push, or this load sees the loop parked. Only a
  // parked loop gets a self-pipe byte, and the exchange lets one sink
  // per park through, so a loop that is busy anyway costs its sinks no
  // syscall.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (Parked.load(std::memory_order_relaxed) &&
      Parked.exchange(false, std::memory_order_acq_rel)) {
    uint8_t B = 1;
    ssize_t R = ::write(WakeW.get(), &B, 1);
    (void)R; // a full pipe already guarantees a pending wakeup
  }
}

void Server::drainWakePipe() {
  // One read: each park lets one byte in, so the pipe holds a byte or
  // two, and any left over only makes the next wait return at once.
  uint8_t Buf[64];
  ssize_t R = ::read(WakeR.get(), Buf, sizeof(Buf));
  (void)R;
}

size_t Server::drainDeliveries() {
  Delivery Batch[256];
  size_t Routed = 0;
  for (;;) {
    size_t N = Ring->tryPopBatch(Batch, 256);
    if (N == 0)
      break;
    for (size_t I = 0; I != N; ++I) {
      Delivery &D = Batch[I];
      Session *S = sessionOf(D.Conn);
      if (!S || S->state() == Session::State::Closed) {
        ++Totals.DeliveryUnroutable;
        continue;
      }
      ++Totals.DeliveryFrames;
      if (S->enqueue(D.F) && D.F.Kind == static_cast<uint32_t>(sim::KindReply))
        ++Totals.RepliesOut;
      markDirty(D.Conn);
    }
    Routed += N;
  }
  return Routed;
}

//===----------------------------------------------------------------------===//
// Frame handling (loop thread, via Session::ingest)
//===----------------------------------------------------------------------===//

bool Server::onFrame(Session &S, const WireFrame &F) {
  switch (F.T) {
  case WireFrame::Hello: {
    if (F.A != sim::WireProtoVersion || Hosts.empty())
      return false;
    // Round-robin host assignment so clients need no topology knowledge;
    // the suggested destination is the next host over (echo traffic then
    // exercises distinct source/destination pairs).
    HostId From = Hosts[NextHost % Hosts.size()];
    HostId To = Hosts[(NextHost + 1) % Hosts.size()];
    ++NextHost;
    S.assign(From);
    S.open();
    WireFrame Ack;
    Ack.T = WireFrame::HelloAck;
    Ack.A = From;
    Ack.B = To;
    Ack.Seq = S.conn();
    sendFrame(S, Ack);
    return true;
  }
  case WireFrame::Inject: {
    if (!validHost(F.A) || !validHost(F.B))
      return false;
    // The header (sim::frameHeader's, plus the conn tag) is rebuilt in a
    // recycled slot that keeps its capacity: ingest allocates nothing
    // per frame.
    engine::Injection &In = InjBuf.next();
    In.From = static_cast<HostId>(F.A);
    sim::fillWireHeader(In.Header, In.From, static_cast<HostId>(F.B),
                        static_cast<Value>(F.Kind), F.Seq);
    In.Header.set(sim::connField(), static_cast<Value>(S.conn()));
    if (InjBuf.size() >= C.IngestBatch)
      flushIngest();
    return true;
  }
  case WireFrame::Barrier:
    PendingBarriers.push_back({S.conn(), F.Seq});
    return true;
  case WireFrame::Bye:
    return true; // the session state machine moves to Draining
  default:
    // HelloAck / Deliver / BarrierAck only flow server -> client.
    return false;
  }
}

void Server::flushIngest() {
  if (InjBuf.size() == 0 || !E)
    return;
  E->injectBatch(InjBuf.data(), InjBuf.size());
  Totals.FramesInjected += InjBuf.size();
  InjBuf.reset();
}

void Server::ackBarriers() {
  if (PendingBarriers.empty())
    return;
  if (InjBuf.size() != 0 || !E || !E->quiescent())
    return;
  // Quiescent + flushed: every delivery the fenced traffic produced has
  // already been pushed into the ring (the sink runs before a message's
  // Pending share retires). Drain once more, then ack — per-connection
  // TCP ordering puts the ack after those deliveries on the wire.
  drainDeliveries();
  for (const auto &[Conn, Seq] : PendingBarriers) {
    Session *S = sessionOf(Conn);
    if (!S || S->state() == Session::State::Closed)
      continue;
    WireFrame Ack;
    Ack.T = WireFrame::BarrierAck;
    Ack.Seq = Seq;
    sendFrame(*S, Ack);
    ++Totals.BarriersAcked;
  }
  PendingBarriers.clear();
}

void Server::sendFrame(Session &S, const WireFrame &F) {
  S.enqueue(F);
  markDirty(S.conn());
}

//===----------------------------------------------------------------------===//
// Session bookkeeping
//===----------------------------------------------------------------------===//

Session *Server::sessionOf(uint64_t Conn) {
  auto It = Tcp.find(Conn);
  if (It != Tcp.end())
    return It->second.S.get();
  auto Iu = Udp.find(Conn);
  if (Iu != Udp.end())
    return Iu->second.S.get();
  return nullptr;
}

void Server::markDirty(uint64_t Conn) {
  auto It = Tcp.find(Conn);
  if (It != Tcp.end()) {
    if (!It->second.Dirty) {
      It->second.Dirty = true;
      DirtyConns.push_back(Conn);
    }
    return;
  }
  auto Iu = Udp.find(Conn);
  if (Iu != Udp.end() && !Iu->second.Dirty) {
    Iu->second.Dirty = true;
    DirtyConns.push_back(Conn);
  }
}

void Server::teardownTcp(uint64_t Conn, bool CountClosed) {
  auto It = Tcp.find(Conn);
  if (It == Tcp.end())
    return;
  Poll.del(It->second.Sock.get());
  addCounters(Totals, *It->second.S);
  Tcp.erase(It);
  if (CountClosed)
    ++Totals.Closed;
}

//===----------------------------------------------------------------------===//
// Socket events
//===----------------------------------------------------------------------===//

void Server::acceptReady() {
  for (;;) {
    int Fd = ::accept(TcpListen.get(), nullptr, nullptr);
    if (Fd < 0)
      return; // EAGAIN (or a transient error): back to the poller
    if (Tcp.size() + Udp.size() >= C.MaxSessions) {
      ::close(Fd);
      ++Totals.Rejected;
      continue;
    }
    setNonBlocking(Fd);
    setNoDelay(Fd);
    uint64_t Conn = NextConn++;
    TcpConn T;
    T.Sock.reset(Fd);
    T.S = std::make_unique<Session>(Conn, C.Session);
    Poll.add(Fd, TokBase + Conn, /*Read=*/true, /*Write=*/false);
    Tcp.emplace(Conn, std::move(T));
    ++Totals.Accepted;
  }
}

void Server::udpReady() {
  uint8_t Buf[65536];
  for (int Round = 0; Round != 256; ++Round) {
    sockaddr_in Sa;
    socklen_t Len = sizeof(Sa);
    ssize_t N = ::recvfrom(UdpSock.get(), Buf, sizeof(Buf), 0,
                           reinterpret_cast<sockaddr *>(&Sa), &Len);
    if (N < 0)
      return;
    ++Totals.UdpDatagrams;
    uint64_t Key = udpKey(Sa.sin_addr.s_addr, ntohs(Sa.sin_port));
    auto KeyIt = UdpByKey.find(Key);
    uint64_t Conn;
    if (KeyIt == UdpByKey.end()) {
      if (Tcp.size() + Udp.size() >= C.MaxSessions) {
        ++Totals.Rejected;
        continue;
      }
      Conn = NextConn++;
      UdpPeer P;
      P.Ip = Sa.sin_addr.s_addr;
      P.Prt = ntohs(Sa.sin_port);
      P.S = std::make_unique<Session>(Conn, C.Session);
      Udp.emplace(Conn, std::move(P));
      UdpByKey.emplace(Key, Conn);
      ++Totals.Accepted;
    } else {
      Conn = KeyIt->second;
    }
    auto It = Udp.find(Conn);
    if (It == Udp.end())
      continue;
    if (!It->second.S->ingest(Buf, static_cast<size_t>(N), *this)) {
      ++Totals.ProtocolErrors;
      addCounters(Totals, *It->second.S);
      Udp.erase(It);
      UdpByKey.erase(Key);
      ++Totals.Closed;
    }
  }
}

void Server::tcpReady(uint64_t Conn, const Ready &Ev) {
  auto It = Tcp.find(Conn);
  if (It == Tcp.end())
    return;
  TcpConn &T = It->second;
  if (Ev.Readable) {
    uint8_t Buf[65536];
    for (int Round = 0; Round != 8; ++Round) {
      ssize_t N = ::read(T.Sock.get(), Buf, sizeof(Buf));
      if (N > 0) {
        if (!T.S->ingest(Buf, static_cast<size_t>(N), *this)) {
          ++Totals.ProtocolErrors;
          teardownTcp(Conn, true);
          return;
        }
        if (static_cast<size_t>(N) < sizeof(Buf))
          break;
        continue;
      }
      if (N == 0) { // peer closed
        teardownTcpFlushing(Conn);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break;
      teardownTcp(Conn, true);
      return;
    }
  }
  if (Ev.Error) {
    teardownTcp(Conn, true);
    return;
  }
  if (Ev.Writable)
    flushTcp(Conn, T);
}

void Server::teardownTcpFlushing(uint64_t Conn) {
  // EOF from the peer: flush whatever egress we can synchronously (the
  // common case — a client that sent Bye and shut down its write side
  // still wants its last deliveries), then close.
  auto It = Tcp.find(Conn);
  if (It == Tcp.end())
    return;
  flushTcp(Conn, It->second);
  teardownTcp(Conn, true);
}

void Server::flushTcp(uint64_t Conn, TcpConn &T) {
  Session &S = *T.S;
  bool Fatal = false;
  for (;;) {
    S.fillTx();
    size_t P = S.txPending();
    if (P == 0)
      break;
    ssize_t N = ::write(T.Sock.get(), S.txData(), P);
    if (N > 0) {
      S.txConsume(static_cast<size_t>(N));
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break;
    Fatal = true;
    break;
  }
  T.Dirty = false;
  if (Fatal) {
    teardownTcp(Conn, true);
    return;
  }
  // Under the Block policy a saturated egress queue parks the read side
  // — the client stops being able to push new Injects until its own
  // reply backlog drains — which is what makes Block lossless instead
  // of unbounded: the TCP window, not this process's memory, absorbs
  // the overload.
  bool Want = S.wantsWrite();
  bool ReadWant = !S.wantsBackpressure();
  if (Want != T.WriteArmed || ReadWant != T.ReadArmed) {
    Poll.mod(T.Sock.get(), TokBase + Conn, /*Read=*/ReadWant,
             /*Write=*/Want);
    T.WriteArmed = Want;
    T.ReadArmed = ReadWant;
  }
  if (!Want && S.state() == Session::State::Draining)
    teardownTcp(Conn, true);
}

void Server::flushUdp(UdpPeer &P) {
  Session &S = *P.S;
  sockaddr_in Sa;
  std::memset(&Sa, 0, sizeof(Sa));
  Sa.sin_family = AF_INET;
  Sa.sin_addr.s_addr = P.Ip;
  Sa.sin_port = htons(P.Prt);
  for (;;) {
    S.fillTx();
    size_t Pend = S.txPending();
    if (Pend == 0)
      break;
    // TxBuf holds whole frames only; one datagram carries a prefix of
    // them (stays under a conservative MTU).
    size_t Chunk =
        std::min(Pend, UdpFramesPerDatagram * sim::WireFrameBytes);
    Chunk -= Chunk % sim::WireFrameBytes;
    ssize_t N = ::sendto(UdpSock.get(), S.txData(), Chunk, 0,
                         reinterpret_cast<sockaddr *>(&Sa), sizeof(Sa));
    if (N < 0)
      break; // full socket buffer: retry next pass (stay dirty)
    S.txConsume(static_cast<size_t>(N));
  }
  P.Dirty = S.wantsWrite();
}

void Server::flushWrites() {
  if (DirtyConns.empty())
    return;
  // flushTcp can tear a session down and a UDP retry re-marks its
  // connection, so iterate a swapped-out list. FlushWork is empty
  // between passes, and both vectors keep their capacity.
  FlushWork.swap(DirtyConns);
  for (uint64_t Conn : FlushWork) {
    auto It = Tcp.find(Conn);
    if (It != Tcp.end()) {
      flushTcp(Conn, It->second);
      continue;
    }
    auto Iu = Udp.find(Conn);
    if (Iu == Udp.end())
      continue;
    flushUdp(Iu->second);
    if (Iu->second.Dirty) {
      DirtyConns.push_back(Conn); // UDP buffer was full: retry
    } else if (Iu->second.S->state() == Session::State::Draining) {
      UdpByKey.erase(udpKey(Iu->second.Ip, Iu->second.Prt));
      addCounters(Totals, *Iu->second.S);
      Udp.erase(Iu);
      ++Totals.Closed;
    }
  }
  FlushWork.clear();
}

bool Server::anyPendingWrites() const {
  for (const auto &[Conn, T] : Tcp) {
    (void)Conn;
    if (T.S->wantsWrite())
      return true;
  }
  for (const auto &[Conn, P] : Udp) {
    (void)Conn;
    if (P.S->wantsWrite())
      return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// The loop
//===----------------------------------------------------------------------===//

void Server::serve(const std::atomic<bool> &Stop) {
  bool Stopping = false;
  int64_t Deadline = 0;
  for (;;) {
    if (!Stopping && Stop.load(std::memory_order_relaxed)) {
      // Graceful drain: stop accepting, finish what is in flight.
      Stopping = true;
      Deadline = nowNs() + static_cast<int64_t>(C.DrainTimeoutMs) * 1000000;
      if (TcpListen.valid()) {
        Poll.del(TcpListen.get());
        TcpListen.reset();
      }
    }
    bool Busy = InjBuf.size() != 0 || !DirtyConns.empty();
    // Barrier waits poll at 1ms so the engine gets the cores; pure idle
    // sleeps longer (deliveries wake us via the self-pipe, the timeout is
    // only a backstop).
    int TimeoutMs =
        Busy ? 0 : (!PendingBarriers.empty() || Stopping) ? 1 : 20;
    if (TimeoutMs != 0) {
      // Park: announce it, fence, and look at the ring once more. With
      // the sinks' fence (wake), either this check sees a delivery pushed
      // before it, or that delivery's sink sees Parked and writes the
      // self-pipe, so no delivery waits out the timeout.
      Parked.store(true, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (Ring->headReady()) {
        Parked.store(false, std::memory_order_relaxed);
        TimeoutMs = 0;
      }
    }
    int N = Poll.wait(Events, TimeoutMs);
    Parked.store(false, std::memory_order_relaxed);
    for (int I = 0; I < N; ++I) {
      const Ready &Ev = Events[static_cast<size_t>(I)];
      if (Ev.Token == TokTcpListen)
        acceptReady();
      else if (Ev.Token == TokUdp)
        udpReady();
      else if (Ev.Token == TokWake)
        drainWakePipe();
      else
        tcpReady(Ev.Token - TokBase, Ev);
    }
    flushIngest();
    drainDeliveries();
    ackBarriers();
    flushWrites();

    if (Stopping) {
      bool Quiet = InjBuf.size() == 0 && PendingBarriers.empty() &&
                   (!E || E->quiescent());
      if (Quiet && drainDeliveries() == 0 && !anyPendingWrites())
        break;
      flushWrites();
      if (nowNs() > Deadline)
        break;
    }
  }

  // Tear everything down; counters of live sessions fold into Totals.
  // A session torn down here may still hold client frames: what its
  // socket has not handed over yet, and a partial frame already read.
  // Both are discarded, so both are counted.
  std::vector<uint64_t> Conns;
  Conns.reserve(Tcp.size());
  for (const auto &[Conn, T] : Tcp) {
    int Unread = 0;
    if (::ioctl(T.Sock.get(), FIONREAD, &Unread) == 0 && Unread > 0)
      Totals.UnreadAtStopBytes += static_cast<uint64_t>(Unread);
    Totals.UnreadAtStopBytes += T.S->partialBytes();
    Conns.push_back(Conn);
  }
  for (uint64_t Conn : Conns)
    teardownTcp(Conn, true);
  for (auto &[Conn, P] : Udp) {
    (void)Conn;
    addCounters(Totals, *P.S);
    ++Totals.Closed;
  }
  Udp.clear();
  UdpByKey.clear();
}

ServerStats Server::stats() const {
  ServerStats S = Totals;
  for (const auto &[Conn, T] : Tcp) {
    (void)Conn;
    addCounters(S, *T.S);
  }
  for (const auto &[Conn, P] : Udp) {
    (void)Conn;
    addCounters(S, *P.S);
  }
  uint64_t RS = RingShed.get();
  S.RingShed = RS;
  S.BackpressureShed += RS;
  S.NonNetDeliveries = NonNetSink.get();
  return S;
}
