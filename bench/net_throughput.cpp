//===- bench/net_throughput.cpp - Socket backend throughput --------------===//
//
// Packets/sec of the real-socket net backend over loopback: an
// in-process net::Server (epoll on Linux) fed by the sharded engine's
// DeliverySink, driven by the multi-connection load generator. Rows
// sweep transport x connection count — including the 1000-connection
// shape the acceptance bar measures — with the engine's trace recording
// off (pure throughput). Every row's conservation is checked inline
// (loadgen validation + server delivery accounting + engine drop
// audit); a final small traced run per transport replays the recorded
// trace through the Definition 6 oracle, so the fast path is shown to
// still be the correct protocol.
//
//   injects_per_sec_M  echo requests the clients pushed through the
//                      socket wall per second (the offered load that
//                      completed);
//   hops_per_sec_M     engine switch-hops per second during the run
//                      (the number the acceptance bar gates).
//
// Flags: --json (suppress the human table; emit only the JSON object),
//        --smoke (tiny loads for CI), --seed N.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "consistency/Check.h"
#include "engine/Engine.h"
#include "net/Loadgen.h"
#include "net/Server.h"
#include "net/Socket.h"

#include <atomic>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

using namespace eventnet;
using namespace eventnet::bench;

namespace {

struct BenchOpts {
  uint64_t Seed = 1;
  bool JsonOnly = false;
  bool Smoke = false;
};

struct RowResult {
  net::LoadgenStats Client;
  net::ServerStats Server;
  engine::Stats Engine;
  bool Conserved = false;
  bool Def6Ok = true; ///< only meaningful on traced rows
};

/// One measured loopback run: bind, attach a fresh engine, serve on a
/// background thread, drive the load generator, tear down.
RowResult runOnce(const nes::Nes &N, const topo::Topology &Topo, bool Udp,
                  unsigned Conns, uint64_t FramesPerConn, unsigned Burst,
                  uint64_t Seed, bool Traced) {
  RowResult R;
  net::ServerConfig SC;
  SC.Port = 0;
  net::Server Srv(SC);
  std::string Err;
  if (!Srv.open(Err)) {
    fprintf(stderr, "net_throughput: cannot bind loopback: %s\n",
            Err.c_str());
    exit(1);
  }
  engine::EngineConfig Cfg;
  Cfg.NumShards = 2;
  Cfg.RecordTrace = Traced;
  Cfg.DeliverySink = Srv.deliverySink();
  engine::Engine E(N, Topo, Cfg);
  Srv.attach(E);
  E.start();
  std::atomic<bool> Stop{false};
  std::thread Loop([&] { Srv.serve(Stop); });

  net::LoadgenConfig LC;
  LC.Port = Srv.port();
  LC.Udp = Udp;
  LC.Connections = Conns;
  LC.FramesPerConn = FramesPerConn;
  LC.Burst = Burst;
  LC.Phases = 1;
  LC.Seed = Seed;
  LC.RttSampleEvery = 16;
  R.Client = net::runLoadgen(LC);

  Stop = true;
  Loop.join();
  E.finish();
  R.Server = Srv.stats();
  R.Engine = E.stats();
  R.Conserved = R.Server.DeliveryFrames + R.Server.RingShed +
                    R.Server.DeliveryUnroutable +
                    R.Server.NonNetDeliveries ==
                R.Engine.PacketsDelivered;
  if (Traced)
    R.Def6Ok = consistency::checkAgainstNes(E.trace(), Topo, N).Correct;
  return R;
}

void benchTransport(const char *Transport, const nes::Nes &N,
                    const topo::Topology &Topo, bool Udp,
                    const BenchOpts &O, TextTable &T) {
  struct Shape {
    unsigned Conns;
    uint64_t Frames;
    unsigned Burst;
  };
  std::vector<Shape> Shapes;
  auto shape = [&Shapes](unsigned Conns, uint64_t Frames, unsigned Burst) {
    Shapes.push_back({Conns, Frames, Burst});
  };
  if (O.Smoke) {
    shape(8, 50, 16);
    shape(32, 25, 8);
  } else if (Udp) {
    shape(16, 500, 16);
    shape(64, 250, 16);
  } else {
    shape(64, 2000, 64);
    shape(1000, 200, 32);
  }

  // The correctness sidecar: a small traced run through the Definition 6
  // oracle, so the table can attest the measured path is the protocol.
  RowResult Checked =
      runOnce(N, Topo, Udp, 4, 32, 8, O.Seed + 99, /*Traced=*/true);
  bool Def6 = Checked.Def6Ok && Checked.Conserved && Checked.Client.ok();

  for (const Shape &S : Shapes) {
    RowResult R = runOnce(N, Topo, Udp, S.Conns, S.Frames, S.Burst, O.Seed,
                          /*Traced=*/false);
    double Sec = R.Client.ElapsedSec > 0 ? R.Client.ElapsedSec : 1;
    uint64_t Audit = R.Engine.PacketsInjected - R.Engine.PacketsDelivered -
                     R.Engine.PacketsDropped;
    bool Ok = Def6 && R.Conserved && R.Client.ok() && Audit == 0;
    T.addRow({Transport, std::to_string(S.Conns),
              std::to_string(S.Frames),
              std::to_string(R.Client.InjectsSent),
              std::to_string(R.Client.Replies),
              formatDouble(Sec * 1e3, 1),
              formatDouble(R.Client.InjectsSent / Sec / 1e6, 3),
              formatDouble(R.Engine.PacketsProcessed / Sec / 1e6, 3),
              formatDouble(R.Client.RttNs.percentile(0.5) / 1e3, 1),
              formatDouble(R.Client.RttNs.percentile(0.99) / 1e3, 1),
              std::to_string(Audit), Ok ? "ok" : "VIOLATION"});
  }
}

} // namespace

int main(int argc, char **argv) {
  BenchOpts O;
  for (int I = 1; I != argc; ++I) {
    if (!strcmp(argv[I], "--json")) {
      O.JsonOnly = true;
    } else if (!strcmp(argv[I], "--smoke")) {
      O.Smoke = true;
    } else if (!strcmp(argv[I], "--seed") && I + 1 != argc) {
      O.Seed = strtoull(argv[++I], nullptr, 10);
    } else {
      fprintf(stderr, "usage: net_throughput [--json] [--smoke] "
                      "[--seed N]\n");
      return 2;
    }
  }

  // The 1000-connection row needs more fds than the default soft limit.
  net::raiseFdLimit();

  if (!O.JsonOnly)
    banner("net_throughput",
           "loopback socket backend: loadgen -> epoll server -> engine");

  TextTable T({"transport", "connections", "frames_per_conn", "injects",
               "replies", "elapsed_ms", "injects_per_sec_M",
               "hops_per_sec_M", "rtt_p50_us", "rtt_p99_us", "silent_loss",
               "definition6"});

  {
    apps::App A = apps::ringApp(16, 8);
    nes::CompiledProgram C = compileApp(A);
    benchTransport("tcp", *C.N, A.Topo, /*Udp=*/false, O, T);
    benchTransport("udp", *C.N, A.Topo, /*Udp=*/true, O, T);
  }

  if (!O.JsonOnly)
    T.print(std::cout);
  printResultJson("net_throughput", T,
                  "\"faults\": \"off\", \"hw_threads\": " +
                      std::to_string(std::thread::hardware_concurrency()));
  return 0;
}
