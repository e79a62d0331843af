//===- e2ebench/Measure.h - The benchmark's own arithmetic ------*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reductions the end-to-end benchmark applies to its raw samples,
/// kept apart from the workloads so Measure_test.cpp can pin them:
///
///  - the percentile rule: a percentile is reported only when at least
///    ten samples lie beyond it;
///  - the calmest-stretch reduction behind update_storm's latencies;
///  - the fastest-set-up reduction behind setup_s;
///  - per-rep convergence (the slowest learn of a rep's event);
///  - the local/remote learn split (learns on the detecting shard vs the
///    others, from Engine::learnTimes() and the shard placement);
///  - peak RSS of the benchmark's own process.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_E2EBENCH_MEASURE_H
#define EVENTNET_E2EBENCH_MEASURE_H

#include "nes/Nes.h"
#include "support/Ids.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

namespace eventnet {
namespace e2ebench {

/// Samples that must lie beyond a reported percentile.
inline constexpr size_t MinTailSamples = 10;

/// Smallest sample count at which percentile \p Q may be reported.
inline size_t samplesNeeded(double Q) {
  return static_cast<size_t>(
      std::ceil(static_cast<double>(MinTailSamples) / (1.0 - Q) - 1e-9));
}

/// The \p Q quantile of \p V (linear interpolation between closest
/// ranks), or nullopt when fewer than MinTailSamples samples lie beyond
/// it. Reorders \p V.
inline std::optional<double> percentile(std::vector<double> &V, double Q) {
  if (V.empty() || Q < 0 || Q >= 1 ||
      static_cast<double>(V.size()) * (1.0 - Q) <
          static_cast<double>(MinTailSamples) - 1e-9)
    return std::nullopt;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

/// The lowest \p Q percentile over consecutive chunks of \p Chunk
/// samples of \p V, taken in arrival order (a short last chunk is
/// dropped): the run's calmest stretch. Contention from outside the
/// program only ever adds latency, so on a shared host this reading
/// moves with the code and far less with the neighbours. Nullopt when no
/// chunk satisfies the percentile rule.
inline std::optional<double> calmestPercentile(const std::vector<double> &V,
                                               size_t Chunk, double Q) {
  std::optional<double> Best;
  for (size_t At = 0; Chunk && At + Chunk <= V.size(); At += Chunk) {
    std::vector<double> C(V.begin() + At, V.begin() + At + Chunk);
    std::optional<double> P = percentile(C, Q);
    if (P && (!Best || *P < *Best))
      Best = P;
  }
  return Best;
}

/// The median of \p V, no tail requirement (used for per-layer medians
/// and for the median across a run's windows). Reorders \p V.
inline std::optional<double> median(std::vector<double> &V) {
  if (V.empty())
    return std::nullopt;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// setup_s: the fastest of a run's set-ups. A single set-up (or a sum of
/// many) carries the scheduler's and allocator's moods; the minimum is
/// what the code needs when nothing interferes.
inline std::optional<double> fastest(const std::vector<double> &V) {
  if (V.empty())
    return std::nullopt;
  return *std::min_element(V.begin(), V.end());
}

/// Per-rep convergence: detection until the last switch learned, i.e.
/// the largest of a rep's Engine::transitionLatenciesNs(). Nullopt when
/// the rep's event never fired.
inline std::optional<double>
convergenceUs(const std::vector<int64_t> &TransitionNs) {
  if (TransitionNs.empty())
    return std::nullopt;
  return static_cast<double>(
             *std::max_element(TransitionNs.begin(), TransitionNs.end())) *
         1e-3;
}

/// Learn lags of one engine run, split by where the learn happened.
struct LearnSplit {
  std::vector<double> LocalUs;  ///< on the detecting shard
  std::vector<double> RemoteUs; ///< on every other shard
};

/// Splits Engine::learnTimes() per event: the switch that learned first
/// is the detecting switch (the SWITCH rule learns at detection), its
/// shard is the detecting shard, and every other learn's lag is measured
/// from that first learn. The detecting switch itself contributes no
/// sample. \p ShardOf maps a switch to its shard.
inline LearnSplit
splitLearns(const std::map<std::pair<SwitchId, nes::EventId>, double> &Learn,
            const std::function<uint32_t(SwitchId)> &ShardOf) {
  // Per event: (first learn time, its switch).
  std::map<nes::EventId, std::pair<double, SwitchId>> First;
  for (const auto &[Key, At] : Learn) {
    auto It = First.find(Key.second);
    if (It == First.end() || At < It->second.first)
      First[Key.second] = {At, Key.first};
  }
  LearnSplit Out;
  for (const auto &[Key, At] : Learn) {
    const auto &[T0, Detector] = First.at(Key.second);
    if (Key.first == Detector)
      continue;
    double LagUs = (At - T0) * 1e6;
    if (ShardOf(Key.first) == ShardOf(Detector))
      Out.LocalUs.push_back(LagUs);
    else
      Out.RemoteUs.push_back(LagUs);
  }
  return Out;
}

/// Peak resident set of this process so far, in MiB: the kernel's
/// high-water mark of this address space (VmHWM in /proc/self/status),
/// 0 if unreadable. Not getrusage's ru_maxrss: Linux carries that across
/// execve, so a child of a larger parent would report the parent's peak.
inline double peakRssMiB() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  long Kb = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %ld kB", &Kb) == 1)
      break;
  std::fclose(F);
  return static_cast<double>(Kb) / 1024.0;
}

} // namespace e2ebench
} // namespace eventnet

#endif // EVENTNET_E2EBENCH_MEASURE_H
