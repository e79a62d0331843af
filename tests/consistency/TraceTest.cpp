//===- tests/consistency/TraceTest.cpp - happens-before tests -------------===//

#include "consistency/Trace.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace eventnet;
using namespace eventnet::consistency;
using eventnet::netkat::makePacket;

namespace {
TraceEntry at(SwitchId Sw, PortId Pt, int Parent = -1) {
  TraceEntry E;
  E.Lp = makePacket({Sw, Pt}, {});
  E.Parent = Parent;
  return E;
}
} // namespace

TEST(NetworkTrace, SameSwitchOrder) {
  NetworkTrace T;
  int A = T.append(at(1, 1));
  int B = T.append(at(1, 2));
  int C = T.append(at(2, 1));
  EXPECT_TRUE(T.happensBefore(A, B));
  EXPECT_FALSE(T.happensBefore(B, A));
  // Different switches, no packet relation: incomparable.
  EXPECT_FALSE(T.happensBefore(A, C));
  EXPECT_FALSE(T.happensBefore(C, A));
  // Irreflexive.
  EXPECT_FALSE(T.happensBefore(A, A));
}

TEST(NetworkTrace, PacketTraceOrder) {
  NetworkTrace T;
  int A = T.append(at(1, 2));
  int B = T.append(at(1, 1, A));
  int C = T.append(at(4, 1, B));
  EXPECT_TRUE(T.happensBefore(A, B));
  EXPECT_TRUE(T.happensBefore(B, C));
  EXPECT_TRUE(T.happensBefore(A, C)); // transitivity
}

TEST(NetworkTrace, CrossSwitchViaPacketThenSwitchOrder) {
  // A packet carries the order from switch 1 to switch 4: an entry at
  // switch 4 logged after the packet's arrival is after everything that
  // preceded the packet at switch 1.
  NetworkTrace T;
  int Emit1 = T.append(at(1, 2));        // at s1
  int Arr4 = T.append(at(4, 1, Emit1));  // the packet reaches s4
  int Later4 = T.append(at(4, 2));       // an unrelated packet at s4
  EXPECT_TRUE(T.happensBefore(Emit1, Arr4));
  EXPECT_TRUE(T.happensBefore(Arr4, Later4));
  EXPECT_TRUE(T.happensBefore(Emit1, Later4));
}

TEST(NetworkTrace, PacketTracesLinearChain) {
  NetworkTrace T;
  int A = T.append(at(1, 2));
  int B = T.append(at(1, 1, A));
  auto Chains = T.packetTraces();
  ASSERT_EQ(Chains.size(), 1u);
  EXPECT_EQ(Chains[0], (std::vector<int>{A, B}));
}

TEST(NetworkTrace, PacketTracesMulticastTree) {
  NetworkTrace T;
  int Root = T.append(at(4, 2));
  int L = T.append(at(4, 1, Root));
  int R = T.append(at(4, 3, Root));
  int LL = T.append(at(1, 1, L));
  auto Chains = T.packetTraces();
  ASSERT_EQ(Chains.size(), 2u);
  EXPECT_EQ(Chains[0], (std::vector<int>{Root, L, LL}));
  EXPECT_EQ(Chains[1], (std::vector<int>{Root, R}));
}

TEST(NetworkTrace, SingleEntryIsItsOwnTrace) {
  NetworkTrace T;
  T.append(at(1, 2));
  auto Chains = T.packetTraces();
  ASSERT_EQ(Chains.size(), 1u);
  EXPECT_EQ(Chains[0].size(), 1u);
}

TEST(NetworkTrace, ClosureRebuildsAfterAppend) {
  NetworkTrace T;
  int A = T.append(at(1, 1));
  int B = T.append(at(1, 2));
  EXPECT_TRUE(T.happensBefore(A, B));
  int C = T.append(at(1, 3));
  EXPECT_TRUE(T.happensBefore(B, C)); // closure refreshed lazily
}

/// The sweeps against a brute-force transitive closure of the two edge
/// kinds (parent to child; an entry at a switch to the next entry there),
/// on every pair of many random small traces.
TEST(NetworkTrace, SweepsMatchBruteForceClosure) {
  for (uint64_t Seed = 1; Seed != 201; ++Seed) {
    Rng R(Seed);
    int N = 1 + static_cast<int>(R.below(64));
    NetworkTrace T;
    for (int I = 0; I != N; ++I) {
      int Parent = I == 0 || R.below(4) == 0
                       ? -1
                       : static_cast<int>(R.below(static_cast<uint64_t>(I)));
      T.append(at(static_cast<SwitchId>(1 + R.below(3)), 1, Parent));
    }

    std::vector<std::vector<bool>> Reach(N, std::vector<bool>(N, false));
    std::vector<int> Last(4, -1);
    for (int I = 0; I != N; ++I) {
      if (T.entries()[I].Parent >= 0)
        Reach[T.entries()[I].Parent][I] = true;
      int &L = Last[T.entries()[I].Lp.sw()];
      if (L >= 0)
        Reach[L][I] = true;
      L = I;
    }
    for (int K = 0; K != N; ++K)
      for (int I = 0; I != N; ++I)
        if (Reach[I][K])
          for (int J = 0; J != N; ++J)
            if (Reach[K][J])
              Reach[I][J] = true;

    std::vector<int> All(N);
    for (int I = 0; I != N; ++I)
      All[I] = I;
    std::vector<NetworkTrace::Relatives> Rel = T.relativesOf(All);
    for (int A = 0; A != N; ++A)
      for (int B = 0; B != N; ++B) {
        ASSERT_EQ(T.happensBefore(A, B), Reach[A][B])
            << "seed " << Seed << ": " << A << " -> " << B << "\n"
            << T.str();
        ASSERT_EQ(Rel[B].Before[A], Reach[A][B])
            << "seed " << Seed << ": " << A << " before " << B;
        ASSERT_EQ(Rel[A].After[B], Reach[A][B])
            << "seed " << Seed << ": " << B << " after " << A;
      }
  }
}
