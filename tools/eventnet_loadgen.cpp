//===- tools/eventnet_loadgen.cpp - Socket load generator -----------------===//
//
// Drives an `eventnetc serve` instance (or any net::Server) with many
// concurrent Wire-framed connections: open-loop bursts of echo requests,
// Barrier-fenced phases, RTT sampling, and validation of the echoed
// deliveries. Prints a summary (or --json) and exits nonzero if the run
// failed (connect failures, protocol errors, sequence mismatches, a
// timeout, or a SIGINT/SIGTERM that cut it short: "stopped" in --json).
//
// Usage:
//   eventnet_loadgen --port N [--host H] [--udp] [--connections N]
//                    [--frames N] [--burst N] [--phases N]
//                    [--rtt-every N] [--timeout-ms N] [--json]
//
//===----------------------------------------------------------------------===//

#include "net/Loadgen.h"
#include "net/Signal.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace eventnet;

namespace {

int usage() {
  fprintf(stderr,
          "usage: eventnet_loadgen --port N [options]\n"
          "  --host H         server address (default 127.0.0.1)\n"
          "  --port N         server TCP/UDP port (required)\n"
          "  --udp            speak UDP instead of TCP\n"
          "  --connections N  concurrent connections (default 8)\n"
          "  --frames N       echo requests per connection (default 128)\n"
          "  --burst N        frames queued per connection per pass "
          "(default 32)\n"
          "  --phases N       barrier-fenced rounds (default 1)\n"
          "  --seed S         workload seed (default 1)\n"
          "  --rtt-every N    sample every Nth round trip (default 16, "
          "0 off)\n"
          "  --timeout-ms N   abort after N ms (default 60000)\n"
          "  --connect-timeout-ms N  retry refused connects with backoff\n"
          "                   for up to N ms before failing (default 5000)\n"
          "  --json           machine-readable output\n");
  return 2;
}

bool parseU64(const char *V, uint64_t &Out) {
  if (!V || *V == '\0' || *V == '-')
    return false;
  char *End = nullptr;
  Out = strtoull(V, &End, 10);
  return *End == '\0';
}

} // namespace

int main(int argc, char **argv) {
  net::LoadgenConfig C;
  bool Json = false;
  bool HavePort = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Val = [&]() -> const char * { return ++I < argc ? argv[I] : nullptr; };
    uint64_t N = 0;
    if (Arg == "--host") {
      const char *V = Val();
      if (!V)
        return usage();
      C.Host = V;
    } else if (Arg == "--port" && parseU64(Val(), N) && N <= 65535) {
      C.Port = static_cast<uint16_t>(N);
      HavePort = true;
    } else if (Arg == "--udp") {
      C.Udp = true;
    } else if (Arg == "--connections" && parseU64(Val(), N) && N >= 1) {
      C.Connections = static_cast<unsigned>(N);
    } else if (Arg == "--frames" && parseU64(Val(), N) && N >= 1) {
      C.FramesPerConn = N;
    } else if (Arg == "--burst" && parseU64(Val(), N) && N >= 1) {
      C.Burst = static_cast<unsigned>(N);
    } else if (Arg == "--phases" && parseU64(Val(), N) && N >= 1) {
      C.Phases = static_cast<unsigned>(N);
    } else if (Arg == "--seed" && parseU64(Val(), N)) {
      C.Seed = N;
    } else if (Arg == "--rtt-every" && parseU64(Val(), N)) {
      C.RttSampleEvery = static_cast<unsigned>(N);
    } else if (Arg == "--timeout-ms" && parseU64(Val(), N) && N >= 1) {
      C.TimeoutMs = static_cast<unsigned>(N);
    } else if (Arg == "--connect-timeout-ms" && parseU64(Val(), N) &&
               N >= 1) {
      C.ConnectTimeoutMs = static_cast<unsigned>(N);
    } else if (Arg == "--json") {
      Json = true;
    } else {
      return usage();
    }
  }
  if (!HavePort)
    return usage();

  // SIGINT aborts the run (a failure) but still prints what was
  // measured.
  net::installShutdownHandlers();
  net::LoadgenStats S = net::runLoadgen(C, &net::shutdownRequested());

  double Rate = S.ElapsedSec > 0 ? S.InjectsSent / S.ElapsedSec : 0;
  if (Json) {
    printf("{\"connections\": %llu, \"connect_retries\": %llu, "
           "\"connect_failed\": %llu, "
           "\"injects_sent\": %llu, \"frames_sent\": %llu, "
           "\"delivers\": %llu, \"replies\": %llu, "
           "\"barrier_acks\": %llu, \"seq_mismatches\": %llu, "
           "\"protocol_errors\": %llu, \"bytes_sent\": %llu, "
           "\"bytes_received\": %llu, \"elapsed_sec\": %.6f, "
           "\"injects_per_sec\": %.0f, \"timed_out\": %s, "
           "\"stopped\": %s, "
           "\"rtt_samples\": %llu, \"rtt_p50_us\": %.3f, "
           "\"rtt_p99_us\": %.3f, \"rtt_max_us\": %.3f, \"ok\": %s}\n",
           (unsigned long long)S.Connected,
           (unsigned long long)S.ConnectRetries,
           (unsigned long long)S.ConnectFailed,
           (unsigned long long)S.InjectsSent,
           (unsigned long long)S.FramesSent, (unsigned long long)S.Delivers,
           (unsigned long long)S.Replies, (unsigned long long)S.BarrierAcks,
           (unsigned long long)S.SeqMismatches,
           (unsigned long long)S.ProtocolErrors,
           (unsigned long long)S.BytesSent,
           (unsigned long long)S.BytesReceived, S.ElapsedSec, Rate,
           S.TimedOut ? "true" : "false", S.Stopped ? "true" : "false",
           (unsigned long long)S.RttNs.TotalCount,
           S.RttNs.percentile(0.5) / 1e3, S.RttNs.percentile(0.99) / 1e3,
           S.RttNs.Max / 1e3, S.ok() ? "true" : "false");
  } else {
    printf("loadgen: %llu/%u connections %s, %u phase(s)\n",
           (unsigned long long)S.Connected, C.Connections,
           C.Udp ? "udp" : "tcp", C.Phases);
    if (S.ConnectRetries)
      printf("  connect:  %llu retr%s with backoff (budget %u ms)\n",
             (unsigned long long)S.ConnectRetries,
             S.ConnectRetries == 1 ? "y" : "ies", C.ConnectTimeoutMs);
    printf("  sent:     %llu injects (%llu frames, %llu bytes)\n",
           (unsigned long long)S.InjectsSent,
           (unsigned long long)S.FramesSent,
           (unsigned long long)S.BytesSent);
    printf("  received: %llu delivers (%llu replies), %llu barrier acks, "
           "%llu bytes\n",
           (unsigned long long)S.Delivers, (unsigned long long)S.Replies,
           (unsigned long long)S.BarrierAcks,
           (unsigned long long)S.BytesReceived);
    printf("  rate:     %.0f injects/s over %.3f s\n", Rate, S.ElapsedSec);
    if (S.RttNs.TotalCount)
      printf("  rtt:      p50 %.1f us, p99 %.1f us, max %.1f us "
             "(%llu samples)\n",
             S.RttNs.percentile(0.5) / 1e3, S.RttNs.percentile(0.99) / 1e3,
             S.RttNs.Max / 1e3, (unsigned long long)S.RttNs.TotalCount);
    if (!S.ok())
      printf("  FAILED:   %llu connect failures (after %llu retries over "
             "%u ms), %llu protocol errors, %llu seq mismatches%s%s\n",
             (unsigned long long)S.ConnectFailed,
             (unsigned long long)S.ConnectRetries, C.ConnectTimeoutMs,
             (unsigned long long)S.ProtocolErrors,
             (unsigned long long)S.SeqMismatches,
             S.TimedOut ? ", timed out" : "", S.Stopped ? ", stopped" : "");
  }
  return S.ok() ? 0 : 1;
}
