//===- e2ebench/Serve.cpp - The serve workload ----------------------------===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
//
// net::Server on loopback TCP in front of a 1-shard engine, all in this
// process: the server loop runs on the main thread, and a single-threaded
// closed-loop client on a second thread keeps 4 echo requests outstanding
// on each of 4 connections, sending the next request as each reply comes
// back. Closed loop, because an open-loop flood's round trip measures how
// long a backlog takes to drain, not latency. The client speaks the wire
// framing over plain sockets, so the program's own net code runs only on
// the server side.
//
//===----------------------------------------------------------------------===//

#include "Measure.h"
#include "Workloads.h"

#include "net/Server.h"
#include "sim/Wire.h"
#include "topo/Builders.h"

#include <atomic>
#include <cerrno>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace eventnet;
using namespace eventnet::e2ebench;
using sim::WireFrame;

namespace {

constexpr unsigned Conns = 4;
constexpr unsigned Outstanding = 4;
/// Round trips sampled: every SampleEvery-th reply, so the samples stay
/// a small, steady share of the process's memory.
constexpr unsigned SampleEvery = 32;
/// Windows a session is cut into; throughput is the median window's rate.
constexpr unsigned Windows = 10;
/// Echo requests the server-side engine takes before the socket traffic.
constexpr unsigned WarmupPackets = 256;
constexpr int IoTimeoutMs = 5000;

engine::EngineConfig serveConfig(bool Traced) {
  engine::EngineConfig C;
  C.NumShards = 1;
  C.RecordTrace = false;
  C.RecordDeliveries = false;
  C.LatencyHistograms = Traced;
  return C;
}

struct ClientStats {
  uint64_t Sent = 0, Replies = 0, RequestDelivers = 0;
  uint64_t SeqMismatches = 0, Unanswered = 0;
  std::vector<std::string> Problems;
  std::vector<double> WindowRates; ///< replies per second
  std::vector<double> RttUs;       ///< sampled round trips
  int64_t WriteNs = 0, ReadNs = 0;
  uint64_t Reads = 0;
  int64_t ReadyNs = 0; ///< every connection finished its handshake
};

/// The closed-loop client. One thread; blocking handshakes, then poll(2)
/// over nonblocking sockets.
class Client {
public:
  Client(uint16_t Port, uint64_t Seed, bool Timed)
      : Port(Port), Timed(Timed), Cs(Conns) {
    std::mt19937_64 R(Seed);
    for (Conn &C : Cs)
      C.NextSeq = 1 + (R() & 0xffffff);
  }
  ~Client() {
    for (Conn &C : Cs)
      if (C.Fd >= 0)
        ::close(C.Fd);
  }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  bool connectAll();
  void closedLoop(double Seconds);
  void bye();

  ClientStats St;

private:
  struct Conn {
    int Fd = -1;
    HostId From = 0, To = 0;
    uint64_t NextSeq = 1;
    std::vector<std::pair<uint64_t, int64_t>> Inflight; ///< seq, sent at
    std::vector<uint8_t> Rx, Tx;
    size_t TxOff = 0;
  };

  bool fail(const std::string &Why) {
    St.Problems.push_back(Why);
    return false;
  }
  void push(Conn &C, const WireFrame &F) {
    uint8_t Buf[sim::WireFrameBytes];
    size_t N = sim::encodeFrame(F, Buf);
    C.Tx.insert(C.Tx.end(), Buf, Buf + N);
  }
  void request(Conn &C);
  bool flush(Conn &C);
  bool receive(Conn &C, bool Sending);
  bool awaitFrame(Conn &C, WireFrame &F);

  uint16_t Port;
  bool Timed;
  std::vector<Conn> Cs;
  uint64_t WinReplies = 0;
  int64_t WinStart = 0;
};

void Client::request(Conn &C) {
  WireFrame F;
  F.T = WireFrame::Inject;
  F.A = C.From;
  F.B = C.To;
  F.Kind = static_cast<uint32_t>(sim::KindRequest);
  F.Seq = C.NextSeq++;
  push(C, F);
  C.Inflight.push_back({F.Seq, nowNs()});
  ++St.Sent;
}

/// Writes what the connection has queued; false on a socket error.
bool Client::flush(Conn &C) {
  while (C.TxOff != C.Tx.size()) {
    int64_t T0 = Timed ? nowNs() : 0;
    ssize_t N = ::write(C.Fd, C.Tx.data() + C.TxOff, C.Tx.size() - C.TxOff);
    if (Timed)
      St.WriteNs += nowNs() - T0;
    if (N > 0) {
      C.TxOff += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return true;
    return fail("serve: client write failed");
  }
  C.Tx.clear();
  C.TxOff = 0;
  return true;
}

/// Reads and handles what the socket holds. Each reply retires its
/// request and, while \p Sending, queues the next one.
bool Client::receive(Conn &C, bool Sending) {
  uint8_t Buf[65536];
  for (;;) {
    int64_t T0 = Timed ? nowNs() : 0;
    ssize_t N = ::read(C.Fd, Buf, sizeof(Buf));
    if (Timed)
      St.ReadNs += nowNs() - T0;
    if (N == 0)
      return fail("serve: server closed a connection");
    if (N < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break;
      return fail("serve: client read failed");
    }
    ++St.Reads;
    C.Rx.insert(C.Rx.end(), Buf, Buf + N);
    if (static_cast<size_t>(N) < sizeof(Buf))
      break;
  }
  size_t Off = 0;
  int64_t Now = nowNs();
  for (;;) {
    WireFrame F;
    size_t Used = 0;
    sim::FrameDecode D =
        sim::decodeFrame(C.Rx.data() + Off, C.Rx.size() - Off, F, Used);
    if (D == sim::FrameDecode::NeedMore)
      break;
    if (D == sim::FrameDecode::Malformed || F.T != WireFrame::Deliver)
      return fail("serve: unexpected frame from the server");
    Off += Used;
    if (F.Kind != static_cast<uint32_t>(sim::KindReply)) {
      ++St.RequestDelivers; // the request itself, delivered at the far host
      continue;
    }
    auto It = std::find_if(C.Inflight.begin(), C.Inflight.end(),
                           [&](const auto &P) { return P.first == F.Seq; });
    if (It == C.Inflight.end()) {
      ++St.SeqMismatches;
      continue;
    }
    if (St.Replies % SampleEvery == 0)
      St.RttUs.push_back(static_cast<double>(Now - It->second) * 1e-3);
    C.Inflight.erase(It);
    ++St.Replies;
    ++WinReplies;
    if (Sending)
      request(C);
  }
  C.Rx.erase(C.Rx.begin(), C.Rx.begin() + static_cast<ptrdiff_t>(Off));
  return flush(C);
}

/// Blocks (up to IoTimeoutMs) for one frame during the handshake.
bool Client::awaitFrame(Conn &C, WireFrame &F) {
  for (;;) {
    size_t Used = 0;
    sim::FrameDecode D = sim::decodeFrame(C.Rx.data(), C.Rx.size(), F, Used);
    if (D == sim::FrameDecode::Ok) {
      C.Rx.erase(C.Rx.begin(), C.Rx.begin() + static_cast<ptrdiff_t>(Used));
      return true;
    }
    if (D == sim::FrameDecode::Malformed)
      return fail("serve: malformed handshake frame");
    pollfd P{C.Fd, POLLIN, 0};
    if (::poll(&P, 1, IoTimeoutMs) <= 0)
      return fail("serve: handshake timed out");
    uint8_t Buf[256];
    ssize_t N = ::read(C.Fd, Buf, sizeof(Buf));
    if (N <= 0)
      return fail("serve: handshake read failed");
    C.Rx.insert(C.Rx.end(), Buf, Buf + N);
  }
}

bool Client::connectAll() {
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  for (size_t I = 0; I != Cs.size(); ++I) {
    Conn &C = Cs[I];
    C.Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    int One = 1;
    if (C.Fd < 0 ||
        ::setsockopt(C.Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One)) ||
        ::connect(C.Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)))
      return fail("serve: connect failed");
    WireFrame Hello;
    Hello.T = WireFrame::Hello;
    Hello.A = sim::WireProtoVersion;
    Hello.Seq = C.NextSeq; // a nonce; the server ignores it
    push(C, Hello);
    if (!flush(C))
      return false;
    WireFrame Ack;
    if (!awaitFrame(C, Ack))
      return false;
    if (Ack.T != WireFrame::HelloAck)
      return fail("serve: expected HelloAck");
    C.From = static_cast<HostId>(Ack.A);
    C.To = static_cast<HostId>(Ack.B);
    if (::fcntl(C.Fd, F_SETFL, ::fcntl(C.Fd, F_GETFL) | O_NONBLOCK) != 0)
      return fail("serve: fcntl failed");
  }
  St.ReadyNs = nowNs();
  return true;
}

void Client::closedLoop(double Seconds) {
  int64_t Start = nowNs();
  int64_t End = Start + static_cast<int64_t>(Seconds * 1e9);
  int64_t WindowNs = static_cast<int64_t>(Seconds * 1e9 / Windows);
  WinStart = Start;
  for (Conn &C : Cs) {
    for (unsigned K = 0; K != Outstanding; ++K)
      request(C);
    if (!flush(C))
      return;
  }
  std::vector<pollfd> Ps(Cs.size());
  int64_t Drained = 0; // deadline for the last replies once sending stops
  for (;;) {
    int64_t Now = nowNs();
    bool Sending = Now < End;
    if (!Sending && !Drained)
      Drained = Now + static_cast<int64_t>(IoTimeoutMs) * 1000000;
    size_t Left = 0;
    for (const Conn &C : Cs)
      Left += C.Inflight.size();
    if (!Sending && (Left == 0 || Now > Drained)) {
      St.Unanswered = Left;
      return;
    }
    if (Sending && Now - WinStart >= WindowNs) {
      St.WindowRates.push_back(static_cast<double>(WinReplies) /
                               (static_cast<double>(Now - WinStart) * 1e-9));
      WinReplies = 0;
      WinStart = Now;
    }
    for (size_t I = 0; I != Cs.size(); ++I)
      Ps[I] = {Cs[I].Fd,
               static_cast<short>(POLLIN |
                                  (Cs[I].Tx.empty() ? 0 : POLLOUT)),
               0};
    if (::poll(Ps.data(), Ps.size(), 100) < 0 && errno != EINTR) {
      fail("serve: poll failed");
      return;
    }
    for (size_t I = 0; I != Cs.size(); ++I) {
      if (Ps[I].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        fail("serve: connection error");
        return;
      }
      if ((Ps[I].revents & POLLIN) && !receive(Cs[I], Sending))
        return;
      if ((Ps[I].revents & POLLOUT) && !flush(Cs[I]))
        return;
    }
  }
}

void Client::bye() {
  for (Conn &C : Cs) {
    if (C.Fd < 0)
      continue;
    WireFrame F;
    F.T = WireFrame::Bye;
    push(C, F);
    flush(C); // 25 bytes into an idle socket buffer
    ::close(C.Fd);
    C.Fd = -1;
  }
}

/// What one server session produced.
struct SessionOut {
  double ConstructMs = 0, StartMs = 0, FinishMs = 0;
  double InjectMs = 0, QuiesceMs = 0;
  ClientStats Client;
  net::ServerStats Server;
  engine::Stats Engine;
};

/// One server + engine + client session. \p Seconds 0 stops after the
/// handshakes (a set-up); otherwise the engine is warmed up with direct
/// injections and the client runs its closed loop for \p Seconds.
bool session(const Program &P, bool Traced, double Seconds, uint64_t Seed,
             SessionOut &Out, Outcome &Res) {
  net::ServerConfig SC;
  SC.EnableUdp = false;
  net::Server Srv(SC);
  std::string Err;
  if (!Srv.open(Err)) {
    Res.fail("serve: " + Err);
    return false;
  }
  engine::EngineConfig Cfg = serveConfig(Traced);
  Cfg.DeliverySink = Srv.deliverySink();
  int64_t T0 = nowNs();
  engine::Engine E(P.nes(), P.topo(), Cfg);
  int64_t T1 = nowNs();
  Srv.attach(E);
  E.start();
  int64_t T2 = nowNs();
  Out.ConstructMs = static_cast<double>(T1 - T0) * 1e-6;
  Out.StartMs = static_cast<double>(T2 - T1) * 1e-6;

  std::atomic<bool> Stop{false};
  Client C(Srv.port(), Seed, Traced);
  std::thread Th([&] {
    if (C.connectAll() && Seconds > 0)
      C.closedLoop(Seconds);
    C.bye();
    Stop.store(true);
  });
  if (Seconds > 0) {
    // Warm-up on this thread, the engine's only injector until serve()
    // runs; the client's Hellos wait in the listen backlog meanwhile.
    std::vector<engine::Injection> Warm;
    for (unsigned I = 0; I != WarmupPackets; ++I)
      Warm.push_back({topo::HostH1,
                      sim::makeWireHeader(topo::HostH1, topo::HostH2,
                                          sim::KindRequest, I + 1)});
    int64_t W0 = nowNs();
    E.injectBatch(Warm.data(), Warm.size());
    int64_t W1 = nowNs();
    E.awaitQuiescence();
    Out.InjectMs = static_cast<double>(W1 - W0) * 1e-6;
    Out.QuiesceMs = msSince(W1);
  }
  Srv.serve(Stop);
  Th.join();
  int64_t T3 = nowNs();
  E.finish();
  Out.FinishMs = msSince(T3);
  Out.Client = std::move(C.St);
  Out.Server = Srv.stats();
  Out.Engine = E.stats();
  for (const std::string &Pr : Out.Client.Problems)
    Res.fail(Pr);
  return Out.Client.Problems.empty();
}

SetupTimes serveSetup(uint64_t Seed, Outcome &Res) {
  SetupTimes T;
  int64_t T0 = nowNs();
  Program P = compileRing(&T.CompileMs);
  SessionOut S;
  if (session(P, false, 0, Seed, S, Res))
    T.TotalS = static_cast<double>(S.Client.ReadyNs - T0) * 1e-9;
  T.ConstructMs = S.ConstructMs;
  T.StartMs = S.StartMs;
  T.FinishMs = S.FinishMs;
  return T;
}

void checkSession(const SessionOut &S, Outcome &Res) {
  const ClientStats &C = S.Client;
  const net::ServerStats &N = S.Server;
  Res.Attempted += C.Sent;
  Res.Failed += C.Unanswered + C.SeqMismatches;
  if (C.Unanswered)
    Res.fail("serve: " + std::to_string(C.Unanswered) +
             " requests got no reply");
  if (C.SeqMismatches)
    Res.fail("serve: " + std::to_string(C.SeqMismatches) +
             " replies with a sequence number never sent");
  if (C.RequestDelivers != C.Sent || C.Replies != C.Sent)
    Res.fail("serve: deliveries do not match requests");
  if (N.DeliveryFrames + N.RingShed + N.DeliveryUnroutable +
          N.NonNetDeliveries !=
      S.Engine.PacketsDelivered)
    Res.fail("serve: server delivery conservation broken");
}

} // namespace

Outcome e2ebench::runServe(const Options &O) {
  Outcome Res;
  Program P = compileRing();
  SessionOut Warm;
  session(P, false, WarmupSeconds, O.Seed, Warm, Res);

  // The set-ups need the main thread, which a session's server loop
  // holds, so the timed part runs as two halves with set-ups before,
  // between and after them. A traced run traces the second half only;
  // the first is its untraced baseline.
  SetupSampler Setups([&] { return serveSetup(O.Seed, Res); }, O.Seconds);
  Setups.take(SetupReps / 3);
  SessionOut First, Main;
  session(P, false, O.Seconds / 2, O.Seed, First, Res);
  Setups.take(SetupReps / 3);
  session(P, O.Trace, O.Seconds / 2, O.Seed + 1, Main, Res);
  Setups.finish(Res);
  checkSession(First, Res);
  checkSession(Main, Res);

  std::vector<double> Rates = First.Client.WindowRates;
  std::vector<double> Rtt = First.Client.RttUs;
  Rates.insert(Rates.end(), Main.Client.WindowRates.begin(),
               Main.Client.WindowRates.end());
  Rtt.insert(Rtt.end(), Main.Client.RttUs.begin(), Main.Client.RttUs.end());
  Res.E2E.ThroughputPerS = medianOr0(Rates);
  Res.E2E.LatencyP50Us = percentile(Rtt, 0.5).value_or(0);
  Res.E2E.LatencyP90Us = percentile(Rtt, 0.9).value_or(0);
  if (Rtt.size() < samplesNeeded(0.9))
    Res.fail("serve: too few round trips for the percentiles");
  Res.E2E.PeakRssMb = peakRssMiB();
  if (!O.Trace)
    return Res;

  double Untraced = medianOr0(First.Client.WindowRates);
  Res.L.TracedThroughputPerS = medianOr0(Main.Client.WindowRates);
  if (Untraced > 0)
    Res.L.TracingOverheadPct =
        (1 - Res.L.TracedThroughputPerS / Untraced) * 100;
  const ClientStats &C = Main.Client;
  Layers &L = Res.L;
  L.InjectMs = Main.InjectMs;
  L.QuiesceMs = Main.QuiesceMs;
  foldEngineSamples({engineLayerSample(Main.Engine)}, L);
  const net::ServerStats &N = Main.Server;
  L.FramesIn = static_cast<double>(N.FramesIn);
  L.FramesOut = static_cast<double>(N.FramesOut);
  if (N.FramesIn)
    L.PartialReadShare =
        static_cast<double>(N.ReassemblyPartial) / N.FramesIn;
  if (C.Sent) {
    L.ClientWriteUs = static_cast<double>(C.WriteNs) * 1e-3 / C.Sent;
    L.ClientReadUs = static_cast<double>(C.ReadNs) * 1e-3 / C.Sent;
  }
  if (C.Reads)
    L.RepliesPerRead = static_cast<double>(C.Replies) / C.Reads;
  L.BackpressureShed = static_cast<double>(N.BackpressureShed);
  L.RingShed = static_cast<double>(N.RingShed);
  return Res;
}
