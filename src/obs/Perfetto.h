//===- obs/Perfetto.h - Chrome/Perfetto trace_event export ------*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes an engine timeline into the Chrome trace_event JSON format
/// (the "JSON Array Format" with a top-level traceEvents member), loadable
/// by chrome://tracing and ui.perfetto.dev: one timeline track per shard
/// (thread metadata events name them), one instant event per TraceEvent,
/// and a trailing metadata object with the event count.
///
/// The engine derives the timeline after a run (engine::Engine::timeline)
/// from records it keeps anyway: one instant per entry of the merged
/// trace log, plus the fault ledger's excusals and duplicates and the
/// first-detect and first-learn stamps. So the export shows exactly the
/// records Definition 6 is judged on.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_OBS_PERFETTO_H
#define EVENTNET_OBS_PERFETTO_H

#include <cstdint>
#include <ostream>
#include <vector>

namespace eventnet {
namespace obs {

/// What a timeline instant marks. The exported names (traceKindName) are
/// the stable part; the numeric values never leave the process.
enum class TraceKind : uint8_t {
  Inject,        ///< a root entry: a host emission (A=switch, B=entry)
  Hop,           ///< a link arrival at a switch (A=switch, B=entry)
  Egress,        ///< a switch output onto a link (A=switch, B=entry)
  Deliver,       ///< a delivery to a host (A=switch, B=entry)
  FaultDup,      ///< a fault-plan duplicate's egress (A=switch, B=entry)
  Excused,       ///< a fault drop or shed ended the entry's chain (ditto)
  Drop,          ///< a leaf neither delivered nor excused (ditto)
  EventDetect,   ///< first detection of an NES event (A=event, B=switch)
  RegisterLearn, ///< a switch register learned an event (A=switch, B=event)
  ConfigSwap,    ///< a switch's view swapped (A=switch, B=version)
};

/// Canonical lowercase name for exports ("inject", "hop", ...).
const char *traceKindName(TraceKind K);

/// One instant. TsNs is nanoseconds since the run's start (the engine's
/// steady clock), so every shard's instants share one time base; Shard
/// owns the instant's switch.
struct TraceEvent {
  int64_t TsNs = 0;
  uint32_t A = 0;
  uint32_t B = 0;
  TraceKind Kind = TraceKind::Hop;
  uint32_t Shard = 0;
};

/// Writes \p Events (typically ts-sorted) as Chrome/Perfetto trace JSON.
/// \p NumShards names that many timeline tracks.
void writePerfettoTrace(std::ostream &OS,
                        const std::vector<TraceEvent> &Events,
                        unsigned NumShards);

} // namespace obs
} // namespace eventnet

#endif // EVENTNET_OBS_PERFETTO_H
