//===- tests/obs/HistogramTest.cpp - Log-bucket histogram properties ------===//
//
// Property tests for the obs/Histogram.h HDR-style histogram: bucket
// geometry invariants over the full uint64 range, the bounded-relative-
// error percentile guarantee against exact sorted-order percentiles on
// adversarial distributions, exact mean/max, additive merge, and
// concurrent recording totals.
//
//===----------------------------------------------------------------------===//

#include "obs/Histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

using namespace eventnet::obs;

namespace {

/// Deterministic xorshift so the "random" distributions are stable.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed ? Seed : 1) {}
  uint64_t next() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  }
};

/// Exact percentile by sorted order, same rank rule as the snapshot:
/// the ceil(Q*N)-th value, 1-based.
uint64_t exactPercentile(std::vector<uint64_t> V, double Q) {
  std::sort(V.begin(), V.end());
  double R = Q * static_cast<double>(V.size());
  size_t Rank = static_cast<size_t>(R);
  if (static_cast<double>(Rank) < R)
    ++Rank;
  if (Rank == 0)
    Rank = 1;
  return V[Rank - 1];
}

} // namespace

TEST(Histogram, BucketGeometryInvariants) {
  // Every value lands in a bucket whose inclusive upper edge is >= the
  // value and within the relative-error bound; edges are monotone.
  std::vector<uint64_t> Probes = {0, 1, 31, 32, 33, 63, 64, 65, 100, 1000};
  Rng R(42);
  for (int I = 0; I != 2000; ++I)
    Probes.push_back(R.next() >> (R.next() % 64));
  Probes.push_back(UINT64_MAX);
  Probes.push_back(1ull << 62);
  Probes.push_back((1ull << 63) - 1);

  for (uint64_t V : Probes) {
    unsigned B = LogHistogram::bucketIndex(V);
    ASSERT_LT(B, LogHistogram::NumBuckets) << V;
    uint64_t Edge = LogHistogram::bucketUpperEdge(B);
    if (V < (1ull << 63)) { // int64-range values: the designed domain
      EXPECT_GE(Edge, V) << "bucket " << B;
      // Edge overshoot is at most one sub-bucket width: edge <= v + v/32.
      double Bound = static_cast<double>(V) * (1.0 + 1.0 / 32.0) + 1;
      EXPECT_LE(static_cast<double>(Edge), Bound) << V;
    }
    if (B > 0) {
      EXPECT_LT(LogHistogram::bucketUpperEdge(B - 1), Edge);
    }
  }
}

TEST(Histogram, PercentilesWithinBoundedRelativeError) {
  // Adversarial spreads: tight cluster, uniform, heavy-tailed.
  Rng R(7);
  std::vector<std::vector<uint64_t>> Sets;
  Sets.push_back({});
  for (int I = 0; I != 5000; ++I)
    Sets.back().push_back(1000 + R.next() % 50); // tight cluster
  Sets.push_back({});
  for (int I = 0; I != 5000; ++I)
    Sets.back().push_back(R.next() % 1000000); // uniform
  Sets.push_back({});
  for (int I = 0; I != 5000; ++I) // heavy tail within the designed
    Sets.back().push_back((R.next() >> 1) >> (R.next() % 50)); // domain

  for (const std::vector<uint64_t> &Values : Sets) {
    LogHistogram H;
    uint64_t Sum = 0, Max = 0;
    for (uint64_t V : Values) {
      H.record(V);
      Sum += V;
      Max = std::max(Max, V);
    }
    HistogramSnapshot S = H.snapshot();
    EXPECT_EQ(S.TotalCount, Values.size());
    EXPECT_EQ(S.Sum, Sum);
    EXPECT_EQ(S.Max, Max);
    EXPECT_DOUBLE_EQ(S.mean(),
                     static_cast<double>(Sum) / Values.size());
    EXPECT_EQ(S.percentile(1.0), Max); // p100 is exact

    for (double Q : {0.5, 0.9, 0.99}) {
      uint64_t Exact = exactPercentile(Values, Q);
      uint64_t Est = S.percentile(Q);
      // The estimate is the containing bucket's upper edge: never below
      // the true value, above it by at most one sub-bucket width.
      EXPECT_GE(Est, Exact) << "q" << Q;
      double Bound = static_cast<double>(Exact) * (1.0 + 1.0 / 32.0) + 1;
      EXPECT_LE(static_cast<double>(Est), Bound) << "q" << Q;
    }
  }
}

TEST(Histogram, EmptySnapshotIsZero) {
  LogHistogram H;
  HistogramSnapshot S = H.snapshot();
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(S.percentile(0.5), 0u);
  EXPECT_EQ(S.mean(), 0.0);
}

TEST(Histogram, MergeIsAdditive) {
  // Recording a+b into one histogram equals recording a and b into two
  // and merging the snapshots (buckets are positional).
  Rng R(11);
  std::vector<uint64_t> A, B;
  for (int I = 0; I != 1000; ++I) {
    A.push_back(R.next() % 100000);
    B.push_back(R.next() >> 40);
  }
  LogHistogram HA, HB, HAll;
  for (uint64_t V : A) {
    HA.record(V);
    HAll.record(V);
  }
  for (uint64_t V : B) {
    HB.record(V);
    HAll.record(V);
  }
  HistogramSnapshot M = HA.snapshot();
  M.merge(HB.snapshot());
  HistogramSnapshot All = HAll.snapshot();
  EXPECT_EQ(M.Counts, All.Counts);
  EXPECT_EQ(M.TotalCount, All.TotalCount);
  EXPECT_EQ(M.Sum, All.Sum);
  EXPECT_EQ(M.Max, All.Max);
  for (double Q : {0.5, 0.9, 0.99, 1.0})
    EXPECT_EQ(M.percentile(Q), All.percentile(Q));
}

TEST(Histogram, ConcurrentRecordingLosesNothing) {
  // Relaxed increments on positional counters: N threads x M records
  // must all be visible after join (run under TSan in CI).
  constexpr unsigned Threads = 4;
  constexpr uint64_t PerThread = 20000;
  LogHistogram H;
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T != Threads; ++T)
    Ts.emplace_back([&H, T] {
      Rng R(T + 1);
      for (uint64_t I = 0; I != PerThread; ++I)
        H.record(R.next() % 1000000);
    });
  for (std::thread &T : Ts)
    T.join();
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.TotalCount, Threads * PerThread);
  uint64_t BucketSum = 0;
  for (uint64_t C : S.Counts)
    BucketSum += C;
  EXPECT_EQ(BucketSum, Threads * PerThread);
}
