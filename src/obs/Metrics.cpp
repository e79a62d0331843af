//===- obs/Metrics.cpp - Counter-snapshot JSON lines ----------------------===//

#include "obs/Metrics.h"

#include "engine/Stats.h"

#include <sstream>

using namespace eventnet;

std::string obs::metricsJsonLine(const engine::Stats &S) {
  std::ostringstream OS;
  OS << "{\"injected\": " << S.PacketsInjected
     << ", \"processed\": " << S.PacketsProcessed
     << ", \"delivered\": " << S.PacketsDelivered
     << ", \"dropped\": " << S.PacketsDropped
     << ", \"forwarded\": " << S.PacketsForwarded
     << ", \"events_detected\": " << S.EventsDetected
     << ", \"config_transitions\": " << S.ConfigTransitions;

  OS << ", \"queue_depth\": [";
  for (size_t I = 0; I != S.Shards.size(); ++I)
    OS << (I ? ", " : "") << S.Shards[I].QueueDepth;
  OS << "], \"queue_high_water\": [";
  for (size_t I = 0; I != S.Shards.size(); ++I)
    OS << (I ? ", " : "") << S.Shards[I].QueueHighWater;
  OS << "], \"shard_processed\": [";
  for (size_t I = 0; I != S.Shards.size(); ++I)
    OS << (I ? ", " : "") << S.Shards[I].PacketsProcessed;
  OS << "], \"shard_dropped\": [";
  for (size_t I = 0; I != S.Shards.size(); ++I)
    OS << (I ? ", " : "") << S.Shards[I].Dropped;
  OS << "], \"idle_sleeps\": [";
  for (size_t I = 0; I != S.Shards.size(); ++I)
    OS << (I ? ", " : "") << S.Shards[I].IdleSleeps;
  OS << "]}";
  return OS.str();
}
