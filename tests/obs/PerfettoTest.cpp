//===- tests/obs/PerfettoTest.cpp - Perfetto timeline export --------------===//
//
// The exporter's contract: the timeline kinds keep their exported names,
// and the export renders the required trace_event keys.
//
//===----------------------------------------------------------------------===//

#include "obs/Perfetto.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

using namespace eventnet::obs;

TEST(Perfetto, KindNamesAreStable) {
  // The names appear in exported traces; renames are breaking.
  EXPECT_STREQ(traceKindName(TraceKind::Inject), "inject");
  EXPECT_STREQ(traceKindName(TraceKind::Hop), "hop");
  EXPECT_STREQ(traceKindName(TraceKind::Egress), "egress");
  EXPECT_STREQ(traceKindName(TraceKind::Deliver), "deliver");
  EXPECT_STREQ(traceKindName(TraceKind::FaultDup), "fault_dup");
  EXPECT_STREQ(traceKindName(TraceKind::Excused), "excused");
  EXPECT_STREQ(traceKindName(TraceKind::Drop), "drop");
  EXPECT_STREQ(traceKindName(TraceKind::EventDetect), "event_detect");
  EXPECT_STREQ(traceKindName(TraceKind::RegisterLearn), "register_learn");
  EXPECT_STREQ(traceKindName(TraceKind::ConfigSwap), "config_swap");
}

TEST(Perfetto, PerfettoExportHasRequiredShape) {
  std::vector<TraceEvent> Events = {
      {1000, 1, 2, TraceKind::Inject, 0},
      {2000, 2, 7, TraceKind::Hop, 1},
      {3000, 0, 2, TraceKind::EventDetect, 1},
  };
  std::ostringstream OS;
  writePerfettoTrace(OS, Events, /*NumShards=*/2);
  std::string J = OS.str();

  // Chrome trace_event essentials: the traceEvents array, instant
  // events with a scope, per-shard thread-name metadata, microsecond
  // timestamps, and the event count.
  EXPECT_NE(J.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(J.find("\"s\": \"t\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(J.find("thread_name"), std::string::npos);
  EXPECT_NE(J.find("\"name\": \"inject\""), std::string::npos);
  EXPECT_NE(J.find("\"name\": \"event_detect\""), std::string::npos);
  EXPECT_NE(J.find("\"recorded_events\": 3"), std::string::npos);
  // 2000 ns -> 2 us.
  EXPECT_NE(J.find("\"ts\": 2"), std::string::npos);
}
