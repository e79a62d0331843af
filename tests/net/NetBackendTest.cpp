//===- tests/net/NetBackendTest.cpp - The "net" backend via the façade ----===//
//
// The fourth backend end to end: run() with "net" compiles nothing new —
// it binds a loopback server on an ephemeral port, replays the shared
// seeded workload through real sockets (TCP by default, UDP on request),
// and still produces a RunReport whose trace passes Definition 6 and
// whose drop audit balances. The net-specific counters must conserve:
// every engine delivery is either routed to a session, shed at the ring,
// unroutable, or non-net.
//
//===----------------------------------------------------------------------===//

#include "api/Api.h"

#include "apps/Programs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

using namespace eventnet;
using namespace eventnet::api;

namespace {

Result<Compilation> compileFirewall() {
  return compile(CompileOptions()
                     .programSource(apps::firewallSource())
                     .topology(topo::firewallTopology()));
}

/// Every engine delivery must be accounted for somewhere on the socket
/// path.
void expectConservation(const RunReport &R) {
  EXPECT_EQ(R.Net.DeliveryFrames + R.Net.RingShed +
                R.Net.DeliveryUnroutable + R.Net.NonNetDeliveries,
            R.PacketsDelivered);
}

} // namespace

TEST(NetBackend, RegistryListsNet) {
  std::vector<std::string> Names = backendNames();
  EXPECT_NE(std::find(Names.begin(), Names.end(), "net"), Names.end());
}

TEST(NetBackend, TcpRunIsConsistentAndConserving) {
  Result<Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();

  Result<RunReport> R =
      run(*C, "net",
          RunOptions().seed(7).shards(2).phases(3).pingsPerPhase(4)
              .netConnections(3));
  ASSERT_TRUE(R.ok()) << R.status().str();

  EXPECT_EQ(R->Backend, "net");
  EXPECT_TRUE(R->Net.Enabled);
  EXPECT_FALSE(R->Net.Poller.empty());
  EXPECT_FALSE(R->Net.Udp);
  EXPECT_GT(R->Net.Port, 0u);

  // Every connection handshook, injected, and drained cleanly.
  EXPECT_EQ(R->Net.Accepted, 3u);
  EXPECT_EQ(R->Net.Closed, 3u);
  EXPECT_EQ(R->Net.ProtocolErrors, 0u);
  EXPECT_GT(R->Net.FramesInjected, 0u);
  // Inject frames are a strict subset of inbound traffic (Hello,
  // Barrier, Bye ride the same stream).
  EXPECT_GT(R->Net.FramesIn, R->Net.FramesInjected);
  // One barrier per connection per phase, all acked.
  EXPECT_EQ(R->Net.BarriersAcked, 3u * 3u);

  // Block policy + clean drain: the replay client saw every frame the
  // server routed, and frames_in never undercounts the echoes.
  EXPECT_EQ(R->Net.BackpressureShed, 0u);
  EXPECT_EQ(R->Net.ClientDelivers, R->Net.DeliveryFrames);
  EXPECT_EQ(R->Net.ClientReplies, R->Net.RepliesOut);
  EXPECT_GE(R->Net.FramesIn, R->Net.RepliesOut);
  expectConservation(*R);

  // The engine's injected count is the socket-ingested workload plus
  // the in-engine echo replies.
  EXPECT_GE(R->PacketsInjected, R->Net.FramesInjected + R->Net.RepliesOut);

  // Round trips were sampled through the real socket path.
  EXPECT_GT(R->Net.Rtt.Samples, 0u);
  EXPECT_GE(R->Net.Rtt.MaxSec, R->Net.Rtt.P50Sec);

  // The same acceptance bar every backend meets.
  ASSERT_TRUE(R->Checked);
  EXPECT_TRUE(R->Consistency.Correct) << R->Consistency.Reason;
  EXPECT_TRUE(R->Audit.Ok) << R->Audit.SilentLoss << " silently lost";
  EXPECT_EQ(R->Audit.SilentLoss, 0u);

  // The report renders the net block in both formats.
  EXPECT_NE(R->str().find("net:"), std::string::npos);
  EXPECT_NE(R->str().find("net frames:"), std::string::npos);
  EXPECT_NE(R->json().find("\"frames_injected\""), std::string::npos);
  EXPECT_NE(R->json().find("\"rtt_samples\""), std::string::npos);
}

TEST(NetBackend, UdpRunIsConsistentAndConserving) {
  Result<Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();

  Result<RunReport> R =
      run(*C, "net",
          RunOptions().seed(11).shards(2).phases(2).pingsPerPhase(4)
              .netConnections(2).netUdp(true));
  ASSERT_TRUE(R.ok()) << R.status().str();

  EXPECT_TRUE(R->Net.Udp);
  EXPECT_GT(R->Net.UdpDatagrams, 0u);
  EXPECT_EQ(R->Net.Accepted, 2u);
  EXPECT_EQ(R->Net.ProtocolErrors, 0u);
  EXPECT_GT(R->Net.FramesInjected, 0u);
  expectConservation(*R);

  ASSERT_TRUE(R->Checked);
  EXPECT_TRUE(R->Consistency.Correct) << R->Consistency.Reason;
  EXPECT_TRUE(R->Audit.Ok);
}

TEST(NetBackend, WorkloadRealizationIsDeterministic) {
  // The socket path adds timing nondeterminism to delivery interleaving
  // (exactly what Definition 6 quantifies over), but the realized
  // workload itself — frames pushed through the wire — is a pure
  // function of the seed.
  Result<Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();

  RunOptions O = RunOptions().seed(21).phases(3).pingsPerPhase(3)
                     .netConnections(2);
  Result<RunReport> A = run(*C, "net", O);
  Result<RunReport> B = run(*C, "net", O);
  ASSERT_TRUE(A.ok() && B.ok());
  EXPECT_EQ(A->Net.FramesInjected, B->Net.FramesInjected);
  EXPECT_EQ(A->Net.BarriersAcked, B->Net.BarriersAcked);
}

TEST(NetBackend, MetricsSamplerWritesJsonLines) {
  // The net backend runs the same engine set-up as the engine backend,
  // metrics sampler included: the keys CI's observability smoke reads.
  Result<Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();
  std::string Path = ::testing::TempDir() + "net_backend_metrics.jsonl";
  std::remove(Path.c_str());

  Result<RunReport> R =
      run(*C, "net",
          RunOptions().seed(7).shards(2).phases(3).pingsPerPhase(4)
              .netConnections(2).metricsIntervalMs(5).metricsPath(Path));
  ASSERT_TRUE(R.ok()) << R.status().str();

  std::ifstream In(Path);
  ASSERT_TRUE(In) << Path;
  std::string Line;
  size_t Lines = 0;
  while (std::getline(In, Line)) {
    ++Lines;
    EXPECT_EQ(Line.front(), '{') << Line;
    EXPECT_NE(Line.find("\"ts\""), std::string::npos) << Line;
    EXPECT_NE(Line.find("\"queue_depth\""), std::string::npos) << Line;
  }
  EXPECT_GE(Lines, 2u);
  std::remove(Path.c_str());
}

TEST(NetBackend, RejectsSillyConnectionCounts) {
  Result<Compilation> C = compileFirewall();
  ASSERT_TRUE(C.ok()) << C.status().str();

  Result<RunReport> R = run(*C, "net", RunOptions().netConnections(0));
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), Code::InvalidArgument);

  R = run(*C, "net", RunOptions().netConnections(1u << 20));
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), Code::InvalidArgument);
}

TEST(NetBackend, ChurnProbesFireEventsLikeTheEngine) {
  // The churn workload's triggers are KindProbe packets, which the
  // program's events match by probe = 1. An Inject frame carries only
  // hosts, kind and seq, so the server's rebuilt header must stamp the
  // bit from the kind, or no replayed probe fires an event.
  apps::App A = apps::ringApp(8, 3);
  Result<Compilation> C =
      compile(CompileOptions().programAst(A.Ast).topology(A.Topo));
  ASSERT_TRUE(C.ok()) << C.status().str();

  RunOptions O = RunOptions().seed(3).phases(4).pingsPerPhase(16)
                     .workload("churn").churnRate(2);
  Result<RunReport> Eng = run(*C, "engine", O);
  Result<RunReport> Net = run(*C, "net", O);
  ASSERT_TRUE(Eng.ok()) << Eng.status().str();
  ASSERT_TRUE(Net.ok()) << Net.status().str();

  EXPECT_GE(Eng->EventsDetected, 1u);
  EXPECT_EQ(Net->EventsDetected, Eng->EventsDetected);
  EXPECT_EQ(Net->Net.ProtocolErrors, 0u);
  ASSERT_TRUE(Net->Checked);
  EXPECT_TRUE(Net->Consistency.Correct) << Net->Consistency.Reason;
}
