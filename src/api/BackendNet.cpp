//===- api/BackendNet.cpp - "net" backend ---------------------------------===//
//
// The engine behind a real socket front-end: a net::Server event loop
// bridges loopback TCP/UDP clients to the engine's streaming surface,
// and the shared workload is replayed through net::runLoadgen, the one
// socket client, on its own thread — every injection crosses a real
// socket, the session layer and the delivery ring, and comes back as a
// framed echo. The engine-side counters land in the uniform RunReport
// shape; the socket layer's, server and client side, in RunReport::Net.
//
//===----------------------------------------------------------------------===//

#include "api/EngineRun.h"

#include "net/Loadgen.h"
#include "net/Poller.h"
#include "net/Server.h"
#include "net/Socket.h"
#include "obs/Histogram.h"

#include <chrono>
#include <thread>

using namespace eventnet;
using namespace eventnet::api;

namespace {

/// Socket-side report fields from the server's counter snapshot.
void fillNetSide(NetReport &N, const net::ServerStats &NS, bool Udp) {
  N.Enabled = true;
  N.Poller = net::Poller::backendName();
  N.Udp = Udp;
  N.Accepted = NS.Accepted;
  N.Closed = NS.Closed;
  N.ProtocolErrors = NS.ProtocolErrors;
  N.FramesIn = NS.FramesIn;
  N.FramesOut = NS.FramesOut;
  N.BytesIn = NS.BytesIn;
  N.BytesOut = NS.BytesOut;
  N.FramesInjected = NS.FramesInjected;
  N.DeliveryFrames = NS.DeliveryFrames;
  N.RepliesOut = NS.RepliesOut;
  N.ReassemblyPartial = NS.ReassemblyPartial;
  N.BackpressureShed = NS.BackpressureShed;
  N.RingShed = NS.RingShed;
  N.DeliveryUnroutable = NS.DeliveryUnroutable;
  N.NonNetDeliveries = NS.NonNetDeliveries;
  N.BarriersAcked = NS.BarriersAcked;
  N.UdpDatagrams = NS.UdpDatagrams;
  N.UnreadAtStopBytes = NS.UnreadAtStopBytes;
}

LatencyReport rttReport(const obs::HistogramSnapshot &H) {
  LatencyReport L;
  L.Samples = H.TotalCount;
  L.MeanSec = H.mean() * 1e-9;
  L.P50Sec = static_cast<double>(H.percentile(0.5)) * 1e-9;
  L.P90Sec = static_cast<double>(H.percentile(0.9)) * 1e-9;
  L.P99Sec = static_cast<double>(H.percentile(0.99)) * 1e-9;
  L.MaxSec = static_cast<double>(H.Max) * 1e-9;
  return L;
}

class NetBackend : public Backend {
public:
  const char *name() const override { return "net"; }

  Result<RunReport> execute(const Compilation &C, const RunOptions &O,
                            const engine::Workload &W) override {
    Result<detail::EngineChoice> EC = detail::parseEngineOptions(O);
    if (!EC.ok())
      return EC.status();
    if (O.NetConnections < 1 || O.NetConnections > (1u << 16))
      return Status::error(Code::InvalidArgument,
                           "net connections must be in [1, 65536], got " +
                               std::to_string(O.NetConnections));

    net::ServerConfig SC;
    SC.BindAddr = "127.0.0.1";
    SC.Port = 0; // ephemeral; never collides with a parallel test
    SC.EnableUdp = O.NetUdp;
    SC.Session.Overload = EC->Overload;
    net::Server Srv(SC);
    std::string Err;
    if (!Srv.open(Err))
      return Status::error(Code::RunError, "net backend: " + Err);

    net::LoadgenConfig LC;
    LC.Port = Srv.port();
    LC.Udp = O.NetUdp;
    LC.Connections = O.NetConnections;
    LC.Seed = O.Seed;
    LC.Replay = &W;
    LC.RttSampleEvery = 1;
    LC.TimeoutMs = 120000;
    net::LoadgenStats LS;
    Result<RunReport> R = detail::runEngine(
        C, O, *EC, Srv.deliverySink(), [&](engine::Engine &E) {
          Srv.attach(E);
          E.start();
          // The client runs on its own thread; the server loop owns this
          // one. The client requests the server's shutdown when the last
          // connection has said Bye (or the caller's stop flag fires).
          std::atomic<bool> StopServe{false};
          std::thread ClientThread([&] {
            LS = net::runLoadgen(LC, O.StopFlag);
            StopServe.store(true, std::memory_order_release);
          });
          Srv.serve(StopServe);
          ClientThread.join();
        });
    if (!R.ok())
      return R;
    if (LS.TimedOut)
      return Status::error(Code::RunError,
                           "net backend: workload replay timed out");
    fillNetSide(R->Net, Srv.stats(), O.NetUdp);
    R->Net.Port = Srv.port();
    R->Net.Connections = LS.Connected;
    R->Net.ProtocolErrors +=
        LS.ConnectFailed + LS.ProtocolErrors + LS.SeqMismatches;
    R->Net.ClientDelivers = LS.Delivers;
    R->Net.ClientReplies = LS.Replies;
    R->Net.Rtt = rttReport(LS.RttNs);
    return R;
  }
};

} // namespace

namespace eventnet {
namespace api {

std::unique_ptr<Backend> makeNetBackend() {
  return std::make_unique<NetBackend>();
}

Result<RunReport> serveNet(const Compilation &C, const RunOptions &O,
                           const ServeNetOptions &S) {
  Result<detail::EngineChoice> EC = detail::parseEngineOptions(O);
  if (!EC.ok())
    return EC.status();

  net::ServerConfig SC;
  SC.BindAddr = S.BindAddr;
  SC.Port = S.Port;
  SC.EnableUdp = S.Udp;
  SC.Session.Overload = EC->Overload;
  net::Server Srv(SC);
  std::string Err;
  if (!Srv.open(Err))
    return Status::error(Code::RunError, "serve: " + Err);
  net::raiseFdLimit();
  if (S.OnListening)
    S.OnListening(Srv.port());

  Result<RunReport> R = detail::runEngine(
      C, O, *EC, Srv.deliverySink(), [&](engine::Engine &E) {
        Srv.attach(E);
        E.start();
        // Without a stop flag the loop runs until the process dies; with
        // one (net/Signal.h) a SIGINT/SIGTERM drains sessions and the
        // engine before we get here. A duration composes with the flag:
        // a watchdog thread trips the serve loop at the deadline or when
        // the caller's flag fires, whichever is first — the soak
        // harness's bounded-run mode.
        static const std::atomic<bool> Never{false};
        const std::atomic<bool> &UserStop = O.StopFlag ? *O.StopFlag : Never;
        if (S.DurationSec == 0) {
          Srv.serve(UserStop);
          return;
        }
        std::atomic<bool> StopServe{false};
        std::thread Watchdog([&] {
          auto Deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(S.DurationSec);
          while (std::chrono::steady_clock::now() < Deadline &&
                 !UserStop.load(std::memory_order_relaxed))
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          StopServe.store(true, std::memory_order_release);
        });
        Srv.serve(StopServe);
        Watchdog.join();
      });
  if (!R.ok())
    return R;
  R->Backend = "net";
  R->Seed = O.Seed;
  fillNetSide(R->Net, Srv.stats(), S.Udp);
  R->Net.Port = Srv.port();
  R->Net.Connections = R->Net.Accepted;
  detail::auditAndCheck(*R, C, O);
  return R;
}

} // namespace api
} // namespace eventnet
