//===- tests/netkat/PacketTest.cpp - Packet model unit tests --------------===//

#include "netkat/Packet.h"

#include <gtest/gtest.h>

using namespace eventnet;
using namespace eventnet::netkat;

namespace {
FieldId fDst() { return fieldOf("ip_dst"); }
FieldId fSrc() { return fieldOf("ip_src"); }
} // namespace

TEST(Packet, SetGetRoundTrip) {
  Packet P;
  P.set(fDst(), 4);
  EXPECT_TRUE(P.has(fDst()));
  EXPECT_EQ(P.get(fDst()), 4);
  EXPECT_FALSE(P.has(fSrc()));
  EXPECT_EQ(P.getOr(fSrc(), -1), -1);
}

TEST(Packet, SetOverwrites) {
  Packet P;
  P.set(fDst(), 4);
  P.set(fDst(), 7);
  EXPECT_EQ(P.get(fDst()), 7);
  EXPECT_EQ(P.fields().size(), 1u);
}

TEST(Packet, FieldsStaySorted) {
  Packet P;
  P.set(fSrc(), 9);
  P.set(FieldSw, 1);
  P.set(fDst(), 2);
  FieldId Prev = 0;
  for (size_t I = 0; I != P.fields().size(); ++I) {
    if (I) {
      EXPECT_GT(P.fields()[I].first, Prev);
    }
    Prev = P.fields()[I].first;
  }
}

TEST(Packet, LocationHelpers) {
  Packet P = makePacket({3, 2}, {{fDst(), 1}});
  EXPECT_EQ(P.sw(), 3u);
  EXPECT_EQ(P.pt(), 2u);
  P.setLoc({5, 6});
  EXPECT_EQ(P.loc(), (Location{5, 6}));
}

TEST(Packet, EqualityIsStructural) {
  Packet A, B;
  A.set(fDst(), 1);
  A.set(fSrc(), 2);
  B.set(fSrc(), 2);
  B.set(fDst(), 1);
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.hash(), B.hash());
  B.set(fSrc(), 3);
  EXPECT_NE(A, B);
}

TEST(Packet, EraseRemovesField) {
  Packet P;
  P.set(fDst(), 1);
  P.erase(fDst());
  EXPECT_FALSE(P.has(fDst()));
  P.erase(fDst()); // idempotent on absent field
  EXPECT_EQ(P, Packet());
}

TEST(Packet, ConstructorCollapsesDuplicates) {
  Packet P({{fDst(), 1}, {fDst(), 2}});
  EXPECT_EQ(P.get(fDst()), 2);
  EXPECT_EQ(P.fields().size(), 1u);
}

TEST(Packet, StrMentionsFieldNames) {
  Packet P = makePacket({1, 2}, {});
  std::string S = P.str();
  EXPECT_NE(S.find("sw=1"), std::string::npos);
  EXPECT_NE(S.find("pt=2"), std::string::npos);
}

TEST(Packet, AssignSortedReplacesEveryField) {
  // The raw path the engine rebuilds a packet through: the old fields
  // are replaced wholesale, never merged.
  Packet Want = makePacket({3, 1}, {{fDst(), 4}, {fSrc(), 2}});
  std::vector<FieldId> Ids;
  std::vector<Value> Vals;
  for (const auto &[F, V] : Want.fields()) {
    Ids.push_back(F);
    Vals.push_back(V);
  }
  Packet P = makePacket({9, 9}, {{fieldOf("seq"), 7}});
  P.assignSorted(Ids.data(), Vals.data(), Ids.size());
  EXPECT_EQ(P, Want);
  P.assignSorted(Ids.data(), Vals.data(), 1);
  EXPECT_EQ(P.fields().size(), 1u);
  P.clear();
  EXPECT_TRUE(P.fields().empty());
}
