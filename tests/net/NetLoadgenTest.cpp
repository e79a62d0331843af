//===- tests/net/NetLoadgenTest.cpp - Loopback server + load generator ----===//
//
// The full socket pipeline in-process: a net::Server bound to an
// ephemeral loopback port, fed by a real engine through its
// DeliverySink, driven by the multi-connection load generator over TCP
// and UDP. Asserts the generator's own validation (every reply's seq was
// sent, no protocol errors, no timeout), frame-level agreement between
// the two ends of the wire, delivery conservation on the server, byte
// conservation at a stop that cuts the drain short, and Definition 6 on
// the engine's recorded trace.
//
//===----------------------------------------------------------------------===//

#include "api/Api.h"

#include "apps/Programs.h"
#include "consistency/Check.h"
#include "net/Loadgen.h"
#include "net/Server.h"
#include "net/Socket.h"
#include "sim/Wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace eventnet;

namespace {

/// One assembled loopback pipeline: compile firewall, bind an ephemeral
/// server, attach a 2-shard engine, serve on a background thread.
struct Loopback {
  api::Result<api::Compilation> C;
  net::Server Srv;
  std::unique_ptr<engine::Engine> E;
  std::atomic<bool> Stop{false};
  std::thread Thread;
  bool Opened = false;

  explicit Loopback(net::ServerConfig SC = net::ServerConfig())
      : C(api::compile(api::CompileOptions()
                           .programSource(apps::firewallSource())
                           .topology(topo::firewallTopology()))),
        Srv((SC.Port = 0, SC)) {
    if (!C.ok())
      return;
    std::string Err;
    Opened = Srv.open(Err);
    if (!Opened)
      return;
    engine::EngineConfig Cfg;
    Cfg.NumShards = 2;
    Cfg.DeliverySink = Srv.deliverySink();
    E = std::make_unique<engine::Engine>(C->structure(), C->topology(), Cfg);
    Srv.attach(*E);
    E->start();
    Thread = std::thread([this] { Srv.serve(Stop); });
  }

  ~Loopback() { shutdown(); }

  void shutdown() {
    if (Thread.joinable()) {
      Stop = true;
      Thread.join();
    }
    if (E)
      E->finish();
  }

  net::LoadgenStats drive(net::LoadgenConfig LC) {
    LC.Port = Srv.port();
    return net::runLoadgen(LC);
  }
};

} // namespace

TEST(NetLoadgen, TcpEndToEnd) {
  Loopback L;
  ASSERT_TRUE(L.C.ok()) << L.C.status().str();
  ASSERT_TRUE(L.Opened);

  net::LoadgenConfig LC;
  LC.Connections = 8;
  LC.FramesPerConn = 64;
  LC.Burst = 16;
  LC.Phases = 2;
  LC.RttSampleEvery = 4;
  net::LoadgenStats S = L.drive(LC);
  L.shutdown();

  EXPECT_TRUE(S.ok()) << S.ProtocolErrors << " protocol errors, "
                      << S.SeqMismatches << " seq mismatches, timed_out="
                      << S.TimedOut;
  EXPECT_EQ(S.Connected, 8u);
  EXPECT_EQ(S.InjectsSent, 8u * 64u);
  EXPECT_EQ(S.BarrierAcks, 8u * 2u); // one fence per conn per phase
  EXPECT_GT(S.Replies, 0u);
  EXPECT_LE(S.Replies, S.InjectsSent);
  EXPECT_GE(S.Delivers, S.Replies);
  EXPECT_GT(S.RttNs.TotalCount, 0u);

  // Both ends of the wire agree frame for frame (Block policy, clean
  // drain: nothing shed, nothing unread).
  net::ServerStats SS = L.Srv.stats();
  EXPECT_EQ(SS.Accepted, 8u);
  EXPECT_EQ(SS.Closed, 8u);
  EXPECT_EQ(SS.ProtocolErrors, 0u);
  EXPECT_EQ(SS.FramesInjected, S.InjectsSent);
  EXPECT_EQ(SS.FramesIn, S.FramesSent);
  EXPECT_EQ(SS.BytesIn, S.BytesSent);
  EXPECT_EQ(SS.DeliveryFrames, S.Delivers);
  EXPECT_EQ(SS.RepliesOut, S.Replies);
  EXPECT_EQ(SS.BackpressureShed, 0u);
  EXPECT_EQ(SS.BarriersAcked, S.BarrierAcks);

  // Delivery conservation: every engine delivery is routed, shed,
  // unroutable, or non-net — never silently gone.
  engine::Stats ES = L.E->stats();
  EXPECT_EQ(SS.DeliveryFrames + SS.RingShed + SS.DeliveryUnroutable +
                SS.NonNetDeliveries,
            ES.PacketsDelivered);

  // The trace recorded through the socket path satisfies Definition 6.
  consistency::CheckResult D6 = consistency::checkAgainstNes(
      L.E->trace(), L.C->topology(), L.C->structure());
  EXPECT_TRUE(D6.Correct) << D6.Reason;
}

TEST(NetLoadgen, UdpEndToEnd) {
  Loopback L;
  ASSERT_TRUE(L.C.ok()) << L.C.status().str();
  ASSERT_TRUE(L.Opened);

  net::LoadgenConfig LC;
  LC.Udp = true;
  LC.Connections = 4;
  LC.FramesPerConn = 32;
  LC.Burst = 8;
  LC.Phases = 1;
  net::LoadgenStats S = L.drive(LC);
  L.shutdown();

  EXPECT_TRUE(S.ok()) << S.ProtocolErrors << " protocol errors, "
                      << S.SeqMismatches << " seq mismatches, timed_out="
                      << S.TimedOut;
  EXPECT_EQ(S.Connected, 4u);
  EXPECT_EQ(S.InjectsSent, 4u * 32u);
  EXPECT_EQ(S.BarrierAcks, 4u);

  net::ServerStats SS = L.Srv.stats();
  EXPECT_EQ(SS.Accepted, 4u); // four distinct UDP peers
  EXPECT_GT(SS.UdpDatagrams, 0u);
  EXPECT_EQ(SS.FramesInjected, S.InjectsSent);

  engine::Stats ES = L.E->stats();
  EXPECT_EQ(SS.DeliveryFrames + SS.RingShed + SS.DeliveryUnroutable +
                SS.NonNetDeliveries,
            ES.PacketsDelivered);
}

TEST(NetLoadgen, BlockPolicyParksReadsInsteadOfShedding) {
  // A deliberately tiny egress bound under Block: the server must park
  // each saturated connection's read side and let TCP flow control
  // absorb the burst — losing nothing — rather than shed or balloon.
  net::ServerConfig SC;
  SC.Session.EgressCapacity = 4;
  SC.Session.Overload = engine::OverloadPolicy::Block;
  Loopback L(SC);
  ASSERT_TRUE(L.C.ok()) << L.C.status().str();
  ASSERT_TRUE(L.Opened);

  net::LoadgenConfig LC;
  LC.Connections = 4;
  LC.FramesPerConn = 256;
  LC.Burst = 64; // far past the 4-frame egress bound
  LC.Phases = 1;
  net::LoadgenStats S = L.drive(LC);
  L.shutdown();

  EXPECT_TRUE(S.ok()) << S.ProtocolErrors << " protocol errors, "
                      << S.SeqMismatches << " seq mismatches, timed_out="
                      << S.TimedOut;
  EXPECT_EQ(S.InjectsSent, 4u * 256u);

  net::ServerStats SS = L.Srv.stats();
  EXPECT_EQ(SS.FramesInjected, S.InjectsSent);
  EXPECT_EQ(SS.BackpressureShed, 0u); // Block never sheds
  EXPECT_EQ(SS.DeliveryFrames, S.Delivers);

  engine::Stats ES = L.E->stats();
  EXPECT_EQ(SS.DeliveryFrames + SS.RingShed + SS.DeliveryUnroutable +
                SS.NonNetDeliveries,
            ES.PacketsDelivered);
}

TEST(NetLoadgen, ManyConnections) {
  // The fd-heavy shape: more sessions than hosts, every one handshakes,
  // fences, and drains.
  Loopback L;
  ASSERT_TRUE(L.C.ok()) << L.C.status().str();
  ASSERT_TRUE(L.Opened);

  net::LoadgenConfig LC;
  LC.Connections = 64;
  LC.FramesPerConn = 16;
  LC.Burst = 8;
  LC.Phases = 1;
  LC.RttSampleEvery = 0; // throughput shape, no sampling
  net::LoadgenStats S = L.drive(LC);
  L.shutdown();

  EXPECT_TRUE(S.ok()) << S.ProtocolErrors << " protocol errors, "
                      << S.SeqMismatches << " seq mismatches, timed_out="
                      << S.TimedOut;
  EXPECT_EQ(S.Connected, 64u);
  EXPECT_EQ(S.InjectsSent, 64u * 16u);
  EXPECT_EQ(S.BarrierAcks, 64u);
  EXPECT_EQ(S.RttNs.TotalCount, 0u);

  net::ServerStats SS = L.Srv.stats();
  EXPECT_EQ(SS.Accepted, 64u);
  EXPECT_EQ(SS.Closed, 64u);
  EXPECT_EQ(SS.FramesInjected, S.InjectsSent);
}

TEST(NetLoadgen, StoppedRunIsNotOk) {
  // A run the caller's stop flag cut short did not do its work: it is
  // neither a timeout nor ok.
  Loopback L;
  ASSERT_TRUE(L.C.ok()) << L.C.status().str();
  ASSERT_TRUE(L.Opened);

  net::LoadgenConfig LC;
  LC.Port = L.Srv.port();
  LC.Connections = 4;
  std::atomic<bool> Stop{true};
  net::LoadgenStats S = net::runLoadgen(LC, &Stop);
  L.shutdown();

  EXPECT_TRUE(S.Stopped);
  EXPECT_FALSE(S.TimedOut);
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.InjectsSent, 0u);
}

TEST(NetLoadgen, StopCountsUnreadClientBytes) {
  // A drain that runs out of time tears its sessions down with client
  // frames still unread. They were neither injected nor shed, so they are
  // counted instead: every byte the client wrote was read (BytesIn) or
  // discarded at the stop (UnreadAtStopBytes). The frames go out in one
  // write smaller than a loopback segment, so the server reads all of
  // them or none, and the stop cannot split one.
  net::ServerConfig SC;
  SC.DrainTimeoutMs = 0;
  Loopback L(SC);
  ASSERT_TRUE(L.C.ok()) << L.C.status().str();
  ASSERT_TRUE(L.Opened);

  net::Fd Sock(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(Sock.valid());
  sockaddr_in Sa{};
  Sa.sin_family = AF_INET;
  Sa.sin_port = htons(L.Srv.port());
  Sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(Sock.get(), reinterpret_cast<sockaddr *>(&Sa),
                      sizeof(Sa)),
            0);
  timeval Timeout{5, 0};
  ::setsockopt(Sock.get(), SOL_SOCKET, SO_RCVTIMEO, &Timeout,
               sizeof(Timeout));
  auto WriteAll = [&](const std::vector<uint8_t> &Buf) {
    for (size_t Off = 0; Off != Buf.size();) {
      ssize_t N = ::write(Sock.get(), Buf.data() + Off, Buf.size() - Off);
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  };

  // The handshake first: the server has accepted the session before the
  // stop, so its bytes are the session's to count.
  sim::WireFrame Hello;
  Hello.T = sim::WireFrame::Hello;
  Hello.A = sim::WireProtoVersion;
  std::vector<uint8_t> Out(sim::WireFrameBytes);
  Out.resize(sim::encodeFrame(Hello, Out.data()));
  ASSERT_TRUE(WriteAll(Out));
  uint64_t Written = Out.size();
  uint8_t In[sim::WireFrameBytes];
  for (size_t Got = 0; Got != sizeof(In);) {
    ssize_t N = ::read(Sock.get(), In + Got, sizeof(In) - Got);
    ASSERT_GT(N, 0) << "no HelloAck";
    Got += static_cast<size_t>(N);
  }
  sim::WireFrame Ack;
  size_t Used = 0;
  ASSERT_EQ(sim::decodeFrame(In, sizeof(In), Ack, Used), sim::FrameDecode::Ok);
  ASSERT_EQ(Ack.T, sim::WireFrame::HelloAck);

  constexpr unsigned K = 64;
  Out.assign(K * sim::WireFrameBytes, 0);
  size_t Len = 0;
  for (unsigned I = 0; I != K; ++I) {
    sim::WireFrame F;
    F.T = sim::WireFrame::Inject;
    F.A = Ack.A;
    F.B = Ack.B;
    F.Kind = sim::KindData;
    F.Seq = I + 1;
    Len += sim::encodeFrame(F, Out.data() + Len);
  }
  Out.resize(Len);
  ASSERT_TRUE(WriteAll(Out));
  Written += Out.size();
  // Stop only once the server's socket has acknowledged every byte.
  int Queued = -1;
  for (int I = 0; I != 5000 && Queued != 0; ++I) {
    ASSERT_EQ(::ioctl(Sock.get(), TIOCOUTQ, &Queued), 0);
    if (Queued != 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(Queued, 0) << "the server never acknowledged the frames";
  L.shutdown();

  net::ServerStats SS = L.Srv.stats();
  EXPECT_EQ(SS.BytesIn + SS.UnreadAtStopBytes, Written)
      << SS.BytesIn << " bytes read, " << SS.UnreadAtStopBytes
      << " discarded unread";
}

TEST(NetLoadgen, SpacedRequestsWakeTheParkedLoop) {
  // One request at a time, each sent after the loop has had time to
  // park in its 20 ms idle wait: the request's delivery and its echo
  // reply reach the loop only through the delivery ring, so each round
  // trip needs the sink's self-pipe wake. A wake lost between the loop's
  // last look at the ring and its wait costs the whole backstop timeout,
  // about 20 ms, so the median round trip must sit far below it.
  Loopback L;
  ASSERT_TRUE(L.C.ok()) << L.C.status().str();
  ASSERT_TRUE(L.Opened);

  net::Fd Sock(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(Sock.valid());
  net::setNoDelay(Sock.get());
  sockaddr_in Sa{};
  Sa.sin_family = AF_INET;
  Sa.sin_port = htons(L.Srv.port());
  Sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(Sock.get(), reinterpret_cast<sockaddr *>(&Sa),
                      sizeof(Sa)),
            0);
  timeval Timeout{5, 0};
  ::setsockopt(Sock.get(), SOL_SOCKET, SO_RCVTIMEO, &Timeout,
               sizeof(Timeout));
  auto Send = [&](const sim::WireFrame &F) {
    uint8_t Buf[sim::WireFrameBytes];
    size_t Len = sim::encodeFrame(F, Buf);
    return ::write(Sock.get(), Buf, Len) == static_cast<ssize_t>(Len);
  };
  auto Recv = [&](sim::WireFrame &F) {
    uint8_t Buf[sim::WireFrameBytes];
    for (size_t Got = 0; Got != sizeof(Buf);) {
      ssize_t N = ::read(Sock.get(), Buf + Got, sizeof(Buf) - Got);
      if (N <= 0)
        return false;
      Got += static_cast<size_t>(N);
    }
    size_t Used = 0;
    return sim::decodeFrame(Buf, sizeof(Buf), F, Used) ==
           sim::FrameDecode::Ok;
  };

  sim::WireFrame Hello;
  Hello.T = sim::WireFrame::Hello;
  Hello.A = sim::WireProtoVersion;
  ASSERT_TRUE(Send(Hello));
  sim::WireFrame Ack;
  ASSERT_TRUE(Recv(Ack)) << "no HelloAck";
  ASSERT_EQ(Ack.T, sim::WireFrame::HelloAck);

  // H1 -> H4 is the firewall's always-allowed direction, and H4 echoes.
  constexpr unsigned Requests = 20;
  std::vector<int64_t> RttUs;
  for (unsigned I = 1; I <= Requests; ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    sim::WireFrame Req;
    Req.T = sim::WireFrame::Inject;
    Req.A = topo::HostH1;
    Req.B = topo::HostH4;
    Req.Kind = sim::KindRequest;
    Req.Seq = I;
    auto T0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(Send(Req));
    sim::WireFrame F;
    do {
      ASSERT_TRUE(Recv(F)) << "request " << I << " got no reply";
    } while (F.T != sim::WireFrame::Deliver ||
             F.Kind != static_cast<uint32_t>(sim::KindReply) || F.Seq != I);
    RttUs.push_back(std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - T0)
                        .count());
  }
  L.shutdown();

  std::sort(RttUs.begin(), RttUs.end());
  int64_t MedianUs = RttUs[Requests / 2];
  EXPECT_LT(MedianUs, 5000) << "median round trip " << MedianUs
                            << " us: the parked loop slept through wakes";
  net::ServerStats SS = L.Srv.stats();
  EXPECT_EQ(SS.RepliesOut, Requests);
}
