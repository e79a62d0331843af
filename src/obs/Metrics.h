//===- obs/Metrics.h - Counter-snapshot JSON lines --------------*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders one engine::Stats snapshot as a single JSON object on one
/// line — the sample format the obs::MetricsSampler emits periodically
/// (JSON-lines: one snapshot per line, greppable and tail -f friendly).
/// The sampler prepends a "ts" wall-clock field; everything else comes
/// from here so the line format has exactly one owner.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_OBS_METRICS_H
#define EVENTNET_OBS_METRICS_H

#include <string>

namespace eventnet {
namespace engine {
struct Stats;
} // namespace engine

namespace obs {

/// One engine counter snapshot as a single-line JSON object (no
/// trailing newline): global packet counters and per-shard queue depth /
/// high-water / processed / dropped / idle-sleep arrays.
std::string metricsJsonLine(const engine::Stats &S);

} // namespace obs
} // namespace eventnet

#endif // EVENTNET_OBS_METRICS_H
