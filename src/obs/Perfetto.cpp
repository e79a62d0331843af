//===- obs/Perfetto.cpp - Chrome/Perfetto trace_event export --------------===//

#include "obs/Perfetto.h"

#include <cinttypes>
#include <cstdio>
#include <iterator>

using namespace eventnet;
using namespace eventnet::obs;

namespace {

/// Per kind, in enum order: the exported name, and the names of the two
/// payload words so the Perfetto "args" pane reads as facts, not tuples.
struct KindInfo {
  const char *Name, *A, *B;
};
constexpr KindInfo Kinds[] = {
    {"inject", "switch", "entry"},
    {"hop", "switch", "entry"},
    {"egress", "switch", "entry"},
    {"deliver", "switch", "entry"},
    {"fault_dup", "switch", "entry"},
    {"excused", "switch", "entry"},
    {"drop", "switch", "entry"},
    {"event_detect", "event", "switch"},
    {"register_learn", "switch", "event"},
    {"config_swap", "switch", "version"},
};
static_assert(std::size(Kinds) == size_t(TraceKind::ConfigSwap) + 1,
              "one entry per TraceKind");

const KindInfo &info(TraceKind K) { return Kinds[static_cast<size_t>(K)]; }

} // namespace

const char *obs::traceKindName(TraceKind K) { return info(K).Name; }

void obs::writePerfettoTrace(std::ostream &OS,
                             const std::vector<TraceEvent> &Events,
                             unsigned NumShards) {
  OS << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  bool First = true;
  char Buf[256];

  // Thread metadata: one named track per shard, all under one process.
  for (unsigned S = 0; S != NumShards; ++S) {
    snprintf(Buf, sizeof(Buf),
             "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
             "\"tid\": %u, \"args\": {\"name\": \"shard %u\"}}",
             First ? "" : ", ", S, S);
    OS << Buf;
    First = false;
  }
  snprintf(Buf, sizeof(Buf),
           "%s{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"args\": {\"name\": \"eventnet engine\"}}",
           First ? "" : ", ");
  OS << Buf;
  First = false;

  for (const TraceEvent &E : Events) {
    const KindInfo &K = info(E.Kind);
    // Instant events on the owning shard's track; ts is microseconds
    // (the trace_event unit), kept fractional so ns resolution survives.
    snprintf(Buf, sizeof(Buf),
             ", {\"name\": \"%s\", \"ph\": \"i\", \"s\": \"t\", "
             "\"ts\": %.3f, \"pid\": 1, \"tid\": %u, "
             "\"args\": {\"%s\": %" PRIu32 ", \"%s\": %" PRIu32 "}}",
             K.Name, static_cast<double>(E.TsNs) * 1e-3, E.Shard, K.A, E.A,
             K.B, E.B);
    OS << Buf;
  }
  OS << "], \"otherData\": {\"recorded_events\": " << Events.size()
     << "}}\n";
}
