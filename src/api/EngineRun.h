//===- api/EngineRun.h - Shared engine run ----------------------*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three engine-backed entry points (the "engine" and "net"
/// backends and serveNet) share: one check of RunOptions' engine knobs,
/// one engine run with its streaming collector and metrics sampler, and
/// one report assembly. Each entry point keeps only its own work — the
/// engine backend injects the workload, the net front-ends run their
/// socket loops. The audit-and-check replay that Run::execute applies to
/// every backend's report is here too, because serveNet applies it as
/// well.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_API_ENGINERUN_H
#define EVENTNET_API_ENGINERUN_H

#include "api/Run.h"
#include "engine/Engine.h"

#include <functional>

namespace eventnet {
namespace api {
namespace detail {

/// RunOptions' engine knobs, checked and parsed.
struct EngineChoice {
  engine::PartitionStrategy Partition;
  engine::OverloadPolicy Overload;
};

/// InvalidArgument unless \p O's shard count, partition strategy and
/// overload policy are valid.
Result<EngineChoice> parseEngineOptions(const RunOptions &O);

/// Builds an engine from \p O and \p EC (with \p Sink as its delivery
/// sink), attaches the streaming collector and the metrics sampler \p O
/// asks for, calls \p Drive — which starts the engine and does the entry
/// point's own work — then finishes the engine and returns the engine
/// half of the report: counters, latency digests, fault summary and
/// checker context, timeline, network trace and streaming verdict.
Result<RunReport>
runEngine(const Compilation &C, const RunOptions &O, const EngineChoice &EC,
          std::function<void(HostId, const netkat::Packet &)> Sink,
          const std::function<void(engine::Engine &)> &Drive);

/// The packet-conservation audit, then — when \p O asks for it and the
/// run recorded a trace — the Definition 6 batch replay and its
/// comparison with the streaming verdict.
void auditAndCheck(RunReport &R, const Compilation &C, const RunOptions &O);

} // namespace detail
} // namespace api
} // namespace eventnet

#endif // EVENTNET_API_ENGINERUN_H
