//===- tests/support/BitSetTest.cpp - DenseBitSet unit tests --------------===//

#include "support/BitSet.h"

#include <gtest/gtest.h>

using eventnet::DenseBitSet;

TEST(DenseBitSet, EmptyByDefault) {
  DenseBitSet S;
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(S.count(), 0u);
  EXPECT_FALSE(S.test(0));
  EXPECT_FALSE(S.test(1000));
}

TEST(DenseBitSet, SetAndTest) {
  DenseBitSet S;
  S.set(0);
  S.set(63);
  S.set(64);
  S.set(200);
  EXPECT_TRUE(S.test(0));
  EXPECT_TRUE(S.test(63));
  EXPECT_TRUE(S.test(64));
  EXPECT_TRUE(S.test(200));
  EXPECT_FALSE(S.test(1));
  EXPECT_FALSE(S.test(199));
  EXPECT_EQ(S.count(), 4u);
}

TEST(DenseBitSet, ResetNormalizes) {
  DenseBitSet S;
  S.set(5);
  S.set(300);
  S.reset(300);
  DenseBitSet T;
  T.set(5);
  // Equality must be structural regardless of construction history.
  EXPECT_EQ(S, T);
  EXPECT_EQ(S.hash(), T.hash());
}

TEST(DenseBitSet, UnionIntersection) {
  DenseBitSet A = DenseBitSet::single(1);
  A.set(70);
  DenseBitSet B = DenseBitSet::single(70);
  B.set(2);

  DenseBitSet U = A | B;
  EXPECT_TRUE(U.test(1));
  EXPECT_TRUE(U.test(2));
  EXPECT_TRUE(U.test(70));
  EXPECT_EQ(U.count(), 3u);

  DenseBitSet I = A & B;
  EXPECT_EQ(I, DenseBitSet::single(70));
}

TEST(DenseBitSet, IntersectionNormalizesTrailingZeros) {
  DenseBitSet A = DenseBitSet::single(200);
  DenseBitSet B = DenseBitSet::single(3);
  DenseBitSet I = A & B;
  EXPECT_TRUE(I.empty());
  EXPECT_EQ(I, DenseBitSet());
}

TEST(DenseBitSet, SubsetReflexiveAndStrict) {
  DenseBitSet A;
  A.set(3);
  A.set(99);
  DenseBitSet B = A;
  B.set(150);
  EXPECT_TRUE(A.isSubsetOf(A));
  EXPECT_TRUE(A.isSubsetOf(B));
  EXPECT_FALSE(B.isSubsetOf(A));
  EXPECT_TRUE(DenseBitSet().isSubsetOf(A));
}

TEST(DenseBitSet, SubsetWithLongerLhsTrailingBits) {
  DenseBitSet A = DenseBitSet::single(130);
  DenseBitSet B = DenseBitSet::single(1);
  EXPECT_FALSE(A.isSubsetOf(B));
}

TEST(DenseBitSet, ForEachAscending) {
  DenseBitSet S;
  S.set(64);
  S.set(2);
  S.set(129);
  std::vector<unsigned> Got = S.toVector();
  EXPECT_EQ(Got, (std::vector<unsigned>{2, 64, 129}));
}

TEST(DenseBitSet, OrderingIsDeterministic) {
  DenseBitSet A = DenseBitSet::single(1);
  DenseBitSet B = DenseBitSet::single(2);
  EXPECT_TRUE(A < B || B < A);
  EXPECT_FALSE(A < A);
}

TEST(DenseBitSet, WordsViewIsNormalized) {
  DenseBitSet A;
  A.set(3);
  A.set(70);
  ASSERT_EQ(A.numWords(), 2u);
  EXPECT_EQ(A.words()[0], uint64_t(1) << 3);
  EXPECT_EQ(A.words()[1], uint64_t(1) << 6);
  // Trailing zero words are normalized away, so equality stays structural.
  A.reset(70);
  EXPECT_EQ(A.numWords(), 1u);
  EXPECT_EQ(A, DenseBitSet::single(3));
}
