//===- tools/eventnetc.cpp - Stateful NetKAT compiler driver --------------===//
//
// Subcommand front end over the eventnet::api façade. The moral
// equivalent of the paper's prototype tool (minus the Mininet script
// generation, which the simulator replaces).
//
// Usage:
//   eventnetc compile <program.snk> --topo <topo.txt>
//             [--dump-ets] [--dump-nes] [--dump-tables] [--share]
//             [--stats] [--json]
//   eventnetc run <program.snk> --topo <topo.txt>
//             [--backend machine|sim|engine|net] [--seed S] [--shards N]
//             [--workload ping|churn] [--churn-rate N]
//             [--phases N] [--per-phase N]
//             [--net-connections N] [--net-udp]
//             [--batch N] [--partition modulo|contiguous|refined]
//             [--no-check] [--json]
//             [--stream-check] [--check-window N] [--check-differential]
//             [--trace out.json] [--latency-hist]
//             [--metrics-interval MS] [--metrics-out FILE]
//             [--faults plan.json] [--overload block|shed-oldest|shed-newest]
//             [--fail-on-drop]
//   eventnetc check <program.snk> --topo <topo.txt>
//             (run's options; reports only the Definition 6 verdict and
//              exits 8 on violation)
//   eventnetc serve <program.snk> --topo <topo.txt>
//             [--port N] [--bind ADDR] [--udp on|off] [--shards N]
//             [--duration SEC] [--stream-check] [--check-window N]
//             (engine options; serves real Wire-framed TCP/UDP clients
//              until SIGINT/SIGTERM — or for --duration seconds — then
//              drains and reports — exit 0 on a clean drain, 10 on
//              silent loss)
//   eventnetc backends
//
// --quiet suppresses stderr notes/warnings; -v adds progress notes.
//
// Every failure class has a distinct exit code (api::Status::exitCode):
//   0 ok, 2 usage/invalid argument, 3 unreadable file, 4 program parse
//   error, 5 topology parse error, 6 compile error (incl. locality),
//   7 backend run error, 8 Definition 6 violation, 10 silent loss under
//   --fail-on-drop.
//
//===----------------------------------------------------------------------===//

#include "api/Api.h"
#include "engine/Engine.h"
#include "engine/Partition.h"
#include "faults/FaultPlan.h"
#include "net/Signal.h"
#include "obs/Perfetto.h"

#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

using namespace eventnet;

namespace {

int usage() {
  fprintf(stderr,
          "usage: eventnetc <command> <program.snk> --topo <topo.txt> "
          "[options]\n"
          "commands:\n"
          "  compile   compile and print artifacts\n"
          "            [--dump-ets] [--dump-nes] [--dump-tables] [--share]\n"
          "            [--stats] [--json]\n"
          "  run       compile, execute a seeded workload, report\n"
          "            [--backend machine|sim|engine|net] [--seed S]\n"
          "            [--workload ping|churn] [--churn-rate N]\n"
          "            [--shards N] [--phases N] [--per-phase N]\n"
          "            [--net-connections N] [--net-udp]\n"
          "            [--batch N] [--partition modulo|contiguous|refined]\n"
          "            [--no-check] [--json]\n"
          "            [--stream-check] [--check-window N]\n"
          "            [--check-differential]\n"
          "            [--trace out.json] [--latency-hist]\n"
          "            [--metrics-interval MS] [--metrics-out FILE]\n"
          "            [--faults plan.json]\n"
          "            [--overload block|shed-oldest|shed-newest]\n"
          "            [--fail-on-drop]\n"
          "  check     like run, but print only the Definition 6 verdict\n"
          "  serve     serve real Wire-framed TCP/UDP clients until\n"
          "            SIGINT/SIGTERM (or --duration SEC), then drain\n"
          "            and report\n"
          "            [--port N] [--bind ADDR] [--udp on|off]\n"
          "            [--duration SEC] [--stream-check] [--check-window N]\n"
          "            (+ run's engine options; exit 10 on silent loss)\n"
          "  backends  list registered backends\n"
          "global: --quiet (no stderr notes), -v (progress notes)\n");
  return 2;
}

/// Stderr verbosity: 0 with --quiet, 1 by default, 2 with -v. Level-1
/// notes are warnings worth seeing unprompted (an empty --trace
/// timeline); level-2 notes narrate progress.
int Verbosity = 1;

void note(int Level, const char *Fmt, ...) {
  if (Verbosity < Level)
    return;
  va_list Ap;
  va_start(Ap, Fmt);
  fprintf(stderr, "eventnetc: ");
  vfprintf(stderr, Fmt, Ap);
  fprintf(stderr, "\n");
  va_end(Ap);
}

int fail(const api::Status &St) {
  fprintf(stderr, "error: %s\n", St.str().c_str());
  return St.exitCode();
}

/// Options shared by every compile-then-act command.
struct CliArgs {
  std::string ProgramPath, TopoPath;
  // compile artifacts
  bool DumpEts = false, DumpNes = false, DumpTables = false, Share = false;
  bool Stats = false, Json = false;
  // run workload
  std::string Backend = "engine";
  api::RunOptions Run;
  // serve listeners
  api::ServeNetOptions Serve;
  // observability outputs
  std::string TracePath; ///< Perfetto JSON destination ("" = no trace)
  // fault injection / robustness gates
  std::string FaultsPath; ///< fault plan JSON ("" = no plan)
  bool FailOnDrop = false; ///< exit 10 if the drop audit finds silent loss
};

/// Parses argv[2..]; returns an InvalidArgument Status on malformed
/// input. One parser serves every command (shared positional/--topo/
/// --json handling), but artifact flags are only accepted by `compile`
/// and workload flags only by `run`/`check` — a flag for the wrong
/// command is an error, not a silent no-op.
api::Status parseArgs(int argc, char **argv, const std::string &Cmd,
                      CliArgs &A) {
  bool IsCompile = Cmd == "compile";
  bool IsServe = Cmd == "serve";
  auto Bad = [](std::string Msg) {
    return api::Status::error(api::Code::InvalidArgument, std::move(Msg));
  };
  for (int I = 2; I < argc; ++I) {
    std::string Arg = argv[I];
    auto TakeValue = [&]() -> const char * {
      return ++I < argc ? argv[I] : nullptr;
    };
    auto WrongCommand = [&]() {
      return Bad(Arg + " does not apply to the " + Cmd + " command");
    };
    if (Arg == "--topo") {
      const char *V = TakeValue();
      if (!V)
        return Bad("--topo needs a file argument");
      A.TopoPath = V;
    } else if (Arg == "--dump-ets" || Arg == "--dump-nes" ||
               Arg == "--dump-tables" || Arg == "--share" ||
               Arg == "--stats") {
      if (!IsCompile)
        return WrongCommand();
      A.DumpEts |= Arg == "--dump-ets";
      A.DumpNes |= Arg == "--dump-nes";
      A.DumpTables |= Arg == "--dump-tables";
      A.Share |= Arg == "--share";
      A.Stats |= Arg == "--stats";
    } else if (Arg == "--json") {
      A.Json = true;
    } else if (Arg == "--no-check") {
      if (IsCompile)
        return WrongCommand();
      if (Cmd == "check")
        return Bad("--no-check contradicts the check command");
      A.Run.checkConsistency(false);
    } else if (Arg == "--backend") {
      if (IsCompile || IsServe)
        return WrongCommand();
      const char *V = TakeValue();
      if (!V)
        return Bad("--backend needs a name argument");
      A.Backend = V;
    } else if (Arg == "--net-udp") {
      if (IsCompile || IsServe)
        return WrongCommand();
      A.Run.netUdp(true);
    } else if (Arg == "--net-connections") {
      if (IsCompile || IsServe)
        return WrongCommand();
      const char *V = TakeValue();
      char *End = nullptr;
      unsigned long long N = V ? strtoull(V, &End, 10) : 0;
      if (!V || *V == '\0' || *V == '-' || *End != '\0' || N < 1 ||
          N > 65536)
        return Bad("--net-connections needs a count in [1, 65536]");
      A.Run.netConnections(static_cast<unsigned>(N));
    } else if (Arg == "--port") {
      if (!IsServe)
        return WrongCommand();
      const char *V = TakeValue();
      char *End = nullptr;
      unsigned long long N = V ? strtoull(V, &End, 10) : 0;
      if (!V || *V == '\0' || *V == '-' || *End != '\0' || N > 65535)
        return Bad("--port needs a port number in [0, 65535]");
      A.Serve.Port = static_cast<uint16_t>(N);
    } else if (Arg == "--bind") {
      if (!IsServe)
        return WrongCommand();
      const char *V = TakeValue();
      if (!V)
        return Bad("--bind needs an address argument");
      A.Serve.BindAddr = V;
    } else if (Arg == "--udp") {
      if (!IsServe)
        return WrongCommand();
      const char *V = TakeValue();
      if (!V || (strcmp(V, "on") != 0 && strcmp(V, "off") != 0))
        return Bad("--udp needs 'on' or 'off'");
      A.Serve.Udp = strcmp(V, "on") == 0;
    } else if (Arg == "--stream-check") {
      if (IsCompile)
        return WrongCommand();
      A.Run.streamingCheck(true);
    } else if (Arg == "--check-differential") {
      if (IsCompile)
        return WrongCommand();
      A.Run.checkDifferential(true);
    } else if (Arg == "--check-window") {
      if (IsCompile)
        return WrongCommand();
      const char *V = TakeValue();
      char *End = nullptr;
      unsigned long long N = V ? strtoull(V, &End, 10) : 0;
      if (!V || *V == '\0' || *V == '-' || *End != '\0' || N < 1 ||
          N > (1ull << 30))
        return Bad("--check-window needs an entry count in [1, 2^30]");
      A.Run.checkWindow(static_cast<size_t>(N));
    } else if (Arg == "--duration") {
      if (!IsServe)
        return WrongCommand();
      const char *V = TakeValue();
      char *End = nullptr;
      unsigned long long N = V ? strtoull(V, &End, 10) : 0;
      if (!V || *V == '\0' || *V == '-' || *End != '\0' ||
          N > 0xFFFFFFFFull)
        return Bad("--duration needs a seconds count in [0, 2^32)");
      A.Serve.DurationSec = static_cast<unsigned>(N);
    } else if (Arg == "--partition") {
      if (IsCompile)
        return WrongCommand();
      const char *V = TakeValue();
      // One source of truth for the strategy names: the engine's parser
      // (the backend re-validates the same way).
      if (!V || !engine::parsePartitionStrategy(V))
        return Bad("--partition needs 'modulo', 'contiguous', or 'refined'");
      A.Run.partition(V);
    } else if (Arg == "--quiet") {
      Verbosity = 0;
    } else if (Arg == "-v") {
      Verbosity = 2;
    } else if (Arg == "--trace") {
      if (IsCompile)
        return WrongCommand();
      const char *V = TakeValue();
      if (!V)
        return Bad("--trace needs an output file argument");
      A.TracePath = V;
      A.Run.timeline(true);
    } else if (Arg == "--latency-hist") {
      if (IsCompile)
        return WrongCommand();
      A.Run.latencyHistograms(true);
    } else if (Arg == "--faults") {
      if (IsCompile)
        return WrongCommand();
      const char *V = TakeValue();
      if (!V)
        return Bad("--faults needs a plan file argument");
      A.FaultsPath = V;
    } else if (Arg == "--overload") {
      if (IsCompile)
        return WrongCommand();
      const char *V = TakeValue();
      // One source of truth for the policy names: the engine's parser
      // (the backend re-validates the same way).
      if (!V || !engine::parseOverloadPolicy(V))
        return Bad("--overload needs 'block', 'shed-oldest', or "
                   "'shed-newest'");
      A.Run.overload(V);
    } else if (Arg == "--workload") {
      if (IsCompile || IsServe)
        return WrongCommand();
      const char *V = TakeValue();
      if (!V || (strcmp(V, "ping") != 0 && strcmp(V, "churn") != 0))
        return Bad("--workload needs 'ping' or 'churn'");
      A.Run.workload(V);
    } else if (Arg == "--churn-rate") {
      if (IsCompile || IsServe)
        return WrongCommand();
      const char *V = TakeValue();
      char *End = nullptr;
      unsigned long long N = V ? strtoull(V, &End, 10) : 0;
      if (!V || *V == '\0' || *V == '-' || *End != '\0' ||
          N > 0xFFFFFFFFull)
        return Bad("--churn-rate needs a non-negative numeric argument");
      A.Run.churnRate(static_cast<unsigned>(N));
    } else if (Arg == "--fail-on-drop") {
      if (IsCompile)
        return WrongCommand();
      A.FailOnDrop = true;
    } else if (Arg == "--metrics-out") {
      if (IsCompile)
        return WrongCommand();
      const char *V = TakeValue();
      if (!V)
        return Bad("--metrics-out needs a file argument");
      A.Run.metricsPath(V);
    } else if (Arg == "--seed" || Arg == "--shards" || Arg == "--phases" ||
               Arg == "--per-phase" || Arg == "--batch" ||
               Arg == "--metrics-interval") {
      if (IsCompile)
        return WrongCommand();
      // serve has no generated workload, so the workload knobs are
      // rejected rather than silently ignored.
      if (IsServe && (Arg == "--seed" || Arg == "--phases" ||
                      Arg == "--per-phase"))
        return WrongCommand();
      const char *V = TakeValue();
      char *End = nullptr;
      unsigned long long N = V ? strtoull(V, &End, 10) : 0;
      // strtoull accepts a leading '-' and wraps; reject it up front.
      if (!V || *V == '\0' || *V == '-' || *End != '\0')
        return Bad(Arg + " needs a non-negative numeric argument");
      if (Arg == "--seed") {
        A.Run.seed(N);
      } else {
        // The unsigned options must survive the narrowing intact.
        if (N > 0xFFFFFFFFull)
          return Bad(Arg + " value " + V + " is out of range");
        if (Arg == "--shards")
          A.Run.shards(static_cast<unsigned>(N));
        else if (Arg == "--phases")
          A.Run.phases(static_cast<unsigned>(N));
        else if (Arg == "--batch")
          A.Run.batch(static_cast<unsigned>(N));
        else if (Arg == "--metrics-interval")
          A.Run.metricsIntervalMs(static_cast<unsigned>(N));
        else
          A.Run.pingsPerPhase(static_cast<unsigned>(N));
      }
    } else if (Arg.size() && Arg[0] == '-') {
      return Bad("unknown option '" + Arg + "'");
    } else if (A.ProgramPath.empty()) {
      A.ProgramPath = Arg;
    } else {
      return Bad("unexpected argument '" + Arg + "'");
    }
  }
  if (A.ProgramPath.empty())
    return Bad("no program file given");
  if (A.TopoPath.empty())
    return Bad("no topology file given (--topo <file>)");
  if (A.Json && (A.DumpEts || A.DumpNes || A.DumpTables || A.Share))
    return Bad("--json emits a single JSON object; it cannot be combined "
               "with --dump-* or --share");
  return api::Status::success();
}

int cmdCompile(const CliArgs &A, const api::Compilation &C) {
  bool Default = !A.DumpEts && !A.DumpNes && !A.DumpTables && !A.Share;
  if (A.Json) {
    printf("%s\n", C.summaryJson().c_str());
  } else if (A.Stats || Default) {
    printf("%s", C.summary().c_str());
  }
  if (A.DumpEts)
    printf("=== ETS ===\n%s", C.etsText().c_str());
  if (A.DumpNes)
    printf("=== NES ===\n%s", C.nesText().c_str());
  if (A.DumpTables)
    printf("%s", C.tablesText().c_str());
  if (A.Share) {
    opt::NesShareStats S = C.shareStats();
    printf("rule sharing: %zu -> %zu rules (%.1f%% saved)\n", S.Before,
           S.After, S.savings() * 100);
  }
  return 0;
}

/// Writes \p R's timeline to the --trace file, if one was asked for. The
/// timeline keeps the whole recorded trace, so it suits bounded runs.
api::Status writeTimeline(const CliArgs &A, const api::RunReport &R) {
  if (A.TracePath.empty())
    return api::Status::success();
  if (R.ObsTrace.empty())
    note(1, "--trace: the %s run recorded no timeline; writing an empty "
            "trace", R.Backend.c_str());
  std::ofstream OS(A.TracePath);
  if (!OS)
    return api::Status::error(api::Code::RunError,
                              "cannot open trace file '" + A.TracePath + "'");
  obs::writePerfettoTrace(OS, R.ObsTrace, R.Shards);
  note(2, "wrote %zu trace events to %s", R.ObsTrace.size(),
       A.TracePath.c_str());
  return api::Status::success();
}

int cmdRun(const CliArgs &A, const api::Compilation &C, bool VerdictOnly) {
  note(2, "running backend %s (seed %llu, %u shards)", A.Backend.c_str(),
       static_cast<unsigned long long>(A.Run.Seed), A.Run.Shards);
  api::Result<api::RunReport> R = api::run(C, A.Backend, A.Run);
  if (!R.ok())
    return fail(R.status());

  if (api::Status St = writeTimeline(A, *R); !St.ok())
    return fail(St);
  if (!R->Audit.Ok)
    note(1, "drop audit FAILED: %llu packet(s) silently lost",
         static_cast<unsigned long long>(R->Audit.SilentLoss));
  if (R->Faults.Enabled)
    note(2, "fault plan: %llu dropped, %llu duplicated, %llu delayed, "
            "%llu shed (%llu ledger entries)",
         static_cast<unsigned long long>(R->Faults.Drops),
         static_cast<unsigned long long>(R->Faults.Dups),
         static_cast<unsigned long long>(R->Faults.Delays),
         static_cast<unsigned long long>(R->Faults.Shed),
         static_cast<unsigned long long>(R->Faults.LedgerEntries));

  if (A.Json) {
    printf("%s\n", R->json().c_str());
  } else if (VerdictOnly) {
    printf("definition 6: %s\n",
           !R->Checked ? "not checked"
                       : (R->Consistency.Correct ? "consistent"
                                                 : "VIOLATED"));
    if (R->StreamCheck.Enabled)
      printf("streaming: %s\n",
             consistency::streamVerdictName(R->StreamCheck.Result.Verdict));
  } else {
    printf("%s", R->str().c_str());
  }

  if (R->Checked && !R->Consistency.Correct) {
    if (VerdictOnly && !A.Json)
      printf("  %s\n", R->Consistency.Reason.c_str());
    return api::Status::error(api::Code::ConsistencyViolation,
                              R->Consistency.Reason)
        .exitCode();
  }
  if (R->StreamCheck.Enabled && R->StreamCheck.Result.violated())
    return api::Status::error(api::Code::ConsistencyViolation,
                              R->StreamCheck.Result.Reason)
        .exitCode();
  if (R->StreamCheck.DifferentialRan && !R->StreamCheck.DifferentialMatched)
    return api::Status::error(api::Code::ConsistencyViolation,
                              "streaming and batch Definition 6 verdicts "
                              "disagree")
        .exitCode();
  if (A.FailOnDrop && !R->Audit.Ok)
    return fail(api::Status::error(
        api::Code::DropAuditFailure,
        std::to_string(R->Audit.SilentLoss) +
            " packet(s) silently lost (--fail-on-drop)"));
  return 0;
}

int cmdServe(CliArgs &A, const api::Compilation &C) {
  // SIGINT/SIGTERM request a graceful drain; a second signal kills.
  net::installShutdownHandlers();
  A.Run.stopFlag(&net::shutdownRequested());
  A.Serve.OnListening = [&A](uint16_t Port) {
    if (A.Serve.DurationSec > 0)
      note(1, "serving %s on %s:%u (udp %s, %u shards) for %u s — SIGINT "
              "drains early",
           A.ProgramPath.c_str(), A.Serve.BindAddr.c_str(), Port,
           A.Serve.Udp ? "on" : "off", A.Run.Shards, A.Serve.DurationSec);
    else
      note(1, "serving %s on %s:%u (udp %s, %u shards) — SIGINT drains",
           A.ProgramPath.c_str(), A.Serve.BindAddr.c_str(), Port,
           A.Serve.Udp ? "on" : "off", A.Run.Shards);
  };

  api::Result<api::RunReport> R = api::serveNet(C, A.Run, A.Serve);
  if (!R.ok())
    return fail(R.status());
  if (api::Status St = writeTimeline(A, *R); !St.ok())
    return fail(St);

  if (A.Json)
    printf("%s\n", R->json().c_str());
  else
    printf("%s", R->str().c_str());

  if (R->Checked && !R->Consistency.Correct)
    return api::Status::error(api::Code::ConsistencyViolation,
                              R->Consistency.Reason)
        .exitCode();
  if (R->StreamCheck.Enabled && R->StreamCheck.Result.violated())
    return api::Status::error(api::Code::ConsistencyViolation,
                              R->StreamCheck.Result.Reason)
        .exitCode();
  // A drain that lost packets is not a clean shutdown: exit 10 so
  // supervisors can tell "stopped" from "stopped and dropped traffic".
  if (!R->Audit.Ok)
    return fail(api::Status::error(
        api::Code::DropAuditFailure,
        std::to_string(R->Audit.SilentLoss) +
            " packet(s) silently lost during serve/drain"));
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();
  std::string Cmd = argv[1];

  if (Cmd == "backends") {
    for (const std::string &Name : api::backendNames())
      printf("%s\n", Name.c_str());
    return 0;
  }
  if (Cmd != "compile" && Cmd != "run" && Cmd != "check" &&
      Cmd != "serve") {
    fprintf(stderr, "error: unknown command '%s'\n", Cmd.c_str());
    return usage();
  }

  CliArgs A;
  api::Status ArgSt = parseArgs(argc, argv, Cmd, A);
  if (!ArgSt.ok()) {
    fprintf(stderr, "error: %s\n", ArgSt.message().c_str());
    return usage();
  }

  if (!A.FaultsPath.empty()) {
    api::Result<faults::FaultPlan> Plan =
        faults::FaultPlan::fromFile(A.FaultsPath);
    if (!Plan.ok())
      return fail(Plan.status());
    A.Run.faults(std::make_shared<faults::FaultPlan>(std::move(*Plan)));
    note(2, "loaded fault plan %s (%zu link rules, %zu stall rules)",
         A.FaultsPath.c_str(), A.Run.Faults->Links.size(),
         A.Run.Faults->Stalls.size());
  }

  api::Result<api::Compilation> C =
      api::compile(api::CompileOptions()
                       .programFile(A.ProgramPath)
                       .topologyFile(A.TopoPath));
  if (!C.ok())
    return fail(C.status());

  if (Cmd == "compile")
    return cmdCompile(A, *C);
  if (Cmd == "serve")
    return cmdServe(A, *C);
  return cmdRun(A, *C, /*VerdictOnly=*/Cmd == "check");
}
