//===- e2ebench/Measure_test.cpp - Tests of the benchmark's arithmetic ----===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
// Run through `python3 e2ebench/run.py --self-test`.
//
//===----------------------------------------------------------------------===//

#include "Measure.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

using namespace eventnet;
using namespace eventnet::e2ebench;

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_EQ(samplesNeeded(0.5), 20u);
  EXPECT_EQ(samplesNeeded(0.9), 100u);
  EXPECT_EQ(samplesNeeded(0.99), 1000u);

  std::vector<double> V(99);
  for (size_t I = 0; I != V.size(); ++I)
    V[I] = static_cast<double>(I);
  EXPECT_FALSE(percentile(V, 0.9)) << "99 samples leave 9.9 beyond p90";
  V.push_back(99);
  EXPECT_TRUE(percentile(V, 0.9));

  std::vector<double> Few(19, 1.0);
  EXPECT_FALSE(percentile(Few, 0.5));
  std::vector<double> Empty;
  EXPECT_FALSE(percentile(Empty, 0.5));
}

TEST(PercentileRule, InterpolatesBetweenRanks) {
  std::vector<double> V;
  for (int I = 100; I >= 1; --I) // unsorted on purpose
    V.push_back(I);
  // Rank position q * (n - 1): p50 sits between 50 and 51.
  EXPECT_DOUBLE_EQ(*percentile(V, 0.5), 50.5);
  EXPECT_DOUBLE_EQ(*percentile(V, 0.9), 90.1);
  EXPECT_DOUBLE_EQ(*median(V), 50.5);
  std::vector<double> Odd = {3, 1, 2};
  EXPECT_DOUBLE_EQ(*median(Odd), 2);
}

TEST(CalmestPercentile, TakesTheLowestChunk) {
  // Chunks of 100: 101..200, then 1..100 (the calmest), then 2..200.
  std::vector<double> V;
  for (int I = 1; I <= 100; ++I)
    V.push_back(I + 100);
  for (int I = 1; I <= 100; ++I)
    V.push_back(I);
  for (int I = 1; I <= 100; ++I)
    V.push_back(2 * I);
  V.push_back(0); // a short last chunk is dropped
  EXPECT_DOUBLE_EQ(*calmestPercentile(V, 100, 0.9), 90.1);
  EXPECT_DOUBLE_EQ(*calmestPercentile(V, 100, 0.5), 50.5);
  EXPECT_FALSE(calmestPercentile(V, 99, 0.9)) << "99 leave 9.9 beyond p90";
  EXPECT_FALSE(calmestPercentile(V, 400, 0.5)) << "no whole chunk";
  EXPECT_FALSE(calmestPercentile(V, 0, 0.5));
}

TEST(FastestSetup, TakesTheMinimum) {
  EXPECT_FALSE(fastest({}));
  EXPECT_DOUBLE_EQ(*fastest({0.0062, 0.0049, 0.0113, 0.0050}), 0.0049);
  EXPECT_DOUBLE_EQ(*fastest({0.004}), 0.004);
}

TEST(Convergence, IsTheSlowestLearnOfTheRep) {
  EXPECT_FALSE(convergenceUs({})) << "an event that never fired";
  EXPECT_DOUBLE_EQ(*convergenceUs({0, 5200, 81900, 12000}), 81.9);
}

TEST(LearnSplit, SeparatesDetectingShardFromTheRest) {
  // Switches 1-4 on shard 0, 5-8 on shard 1; event 0 first learned at
  // switch 3 (t = 1.000000 s), so shard 0 detected it.
  std::map<std::pair<SwitchId, nes::EventId>, double> Learn = {
      {{3, 0}, 1.000000}, {{1, 0}, 1.000005}, {{2, 0}, 1.000007},
      {{5, 0}, 1.000070}, {{8, 0}, 1.000090},
  };
  auto ShardOf = [](SwitchId Sw) { return Sw <= 4 ? 0u : 1u; };
  LearnSplit S = splitLearns(Learn, ShardOf);
  ASSERT_EQ(S.LocalUs.size(), 2u) << "the detecting switch adds no sample";
  ASSERT_EQ(S.RemoteUs.size(), 2u);
  std::sort(S.LocalUs.begin(), S.LocalUs.end());
  std::sort(S.RemoteUs.begin(), S.RemoteUs.end());
  EXPECT_NEAR(S.LocalUs[0], 5, 1e-3);
  EXPECT_NEAR(S.LocalUs[1], 7, 1e-3);
  EXPECT_NEAR(S.RemoteUs[0], 70, 1e-3);
  EXPECT_NEAR(S.RemoteUs[1], 90, 1e-3);
}

TEST(LearnSplit, EachEventHasItsOwnDetector) {
  // Event 1 is detected on shard 1 (switch 6 learns first), so for it
  // switch 2 is remote and switch 7 local.
  std::map<std::pair<SwitchId, nes::EventId>, double> Learn = {
      {{1, 0}, 0.5},   {{6, 0}, 0.5001}, {{6, 1}, 2.0},
      {{2, 1}, 2.001}, {{7, 1}, 2.0002},
  };
  LearnSplit S =
      splitLearns(Learn, [](SwitchId Sw) { return Sw <= 4 ? 0u : 1u; });
  ASSERT_EQ(S.LocalUs.size(), 1u);
  ASSERT_EQ(S.RemoteUs.size(), 2u);
  EXPECT_NEAR(S.LocalUs[0], 200, 1e-3);
  std::sort(S.RemoteUs.begin(), S.RemoteUs.end());
  EXPECT_NEAR(S.RemoteUs[0], 100, 1e-3);
  EXPECT_NEAR(S.RemoteUs[1], 1000, 1e-3);
}

TEST(PeakRss, GrowsWithTouchedMemory) {
  double Before = peakRssMiB();
  EXPECT_GT(Before, 0);
  constexpr size_t Bytes = size_t(64) << 20;
  std::unique_ptr<char[]> Block(new char[Bytes]);
  std::memset(Block.get(), 1, Bytes);
  volatile char Sink = Block[Bytes - 1];
  (void)Sink;
  EXPECT_GE(peakRssMiB(), Before + 60);
}
