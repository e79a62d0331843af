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

TEST(Packet, LocatedPacketHoldsLocationFirst) {
  // sw and pt are the two smallest field ids, so a located packet keeps
  // them in its first two slots, where the location accessors read and
  // write them without a search.
  Packet P = makePacket({3, 2}, {{fDst(), 1}, {fSrc(), 5}});
  ASSERT_TRUE(P.located());
  EXPECT_EQ(P.fields()[0], (std::pair<FieldId, Value>{FieldSw, 3}));
  EXPECT_EQ(P.fields()[1], (std::pair<FieldId, Value>{FieldPt, 2}));
  EXPECT_EQ(P.loc(), (Location{3, 2}));
  P.setLoc({7, 8});
  P.set(FieldPt, 9);
  EXPECT_EQ(P.sw(), 7u);
  EXPECT_EQ(P.pt(), 9u);
  EXPECT_EQ(P.get(FieldPt), 9);
  EXPECT_EQ(P.fields().size(), 4u);
  EXPECT_EQ(P.get(fDst()), 1);
  EXPECT_EQ(P.get(fSrc()), 5);
}

TEST(Packet, HalfLocatedPacketsSearch) {
  // pt without sw: pt sits in the first slot, so it is found by search.
  Packet PtOnly({{fDst(), 4}, {FieldPt, 6}});
  EXPECT_FALSE(PtOnly.located());
  EXPECT_FALSE(PtOnly.has(FieldSw));
  EXPECT_EQ(PtOnly.pt(), 6u);
  PtOnly.set(FieldPt, 2);
  EXPECT_EQ(PtOnly.pt(), 2u);
  EXPECT_EQ(PtOnly.fields().size(), 2u);

  // sw without pt: the second slot holds a header field, not pt.
  Packet SwOnly({{fDst(), 4}, {FieldSw, 3}});
  EXPECT_FALSE(SwOnly.located());
  EXPECT_FALSE(SwOnly.has(FieldPt));
  EXPECT_EQ(SwOnly.sw(), 3u);
  SwOnly.set(FieldSw, 5);
  EXPECT_EQ(SwOnly.sw(), 5u);
  EXPECT_EQ(SwOnly.get(fDst()), 4);
  // Adding pt locates it.
  SwOnly.set(FieldPt, 1);
  EXPECT_TRUE(SwOnly.located());
  EXPECT_EQ(SwOnly.loc(), (Location{5, 1}));
}

TEST(Packet, SetLocOnUnlocatedPacketKeepsFieldsSorted) {
  for (Packet P : {Packet(), Packet({{fDst(), 4}, {fSrc(), 2}}),
                   Packet({{fDst(), 4}, {FieldPt, 6}}),
                   Packet({{fSrc(), 2}, {FieldSw, 3}})}) {
    P.setLoc({5, 6});
    EXPECT_TRUE(P.located()) << P.str();
    EXPECT_EQ(P.loc(), (Location{5, 6})) << P.str();
    for (size_t I = 1; I < P.fields().size(); ++I)
      EXPECT_LT(P.fields()[I - 1].first, P.fields()[I].first) << P.str();
  }
}

TEST(Packet, FastPathBuildsTheSamePacketAsSearch) {
  // Through the in-place location writes...
  Packet Fast = makePacket({1, 1}, {{fDst(), 4}, {fSrc(), 2}});
  Fast.setLoc({7, 3});
  Fast.set(FieldPt, 8);
  // ...and through the search alone: pt is inserted while sw is absent,
  // then sw in front of it.
  Packet Searched;
  Searched.set(fSrc(), 2);
  Searched.set(FieldPt, 8);
  Searched.set(fDst(), 4);
  Searched.set(FieldSw, 7);
  EXPECT_EQ(Fast, Searched);
  EXPECT_EQ(Fast.hash(), Searched.hash());
  EXPECT_FALSE(Fast < Searched || Searched < Fast);
}

TEST(Packet, SwapExchangesFields) {
  Packet A = makePacket({1, 2}, {{fDst(), 4}});
  Packet B = makePacket({3, 4}, {});
  Packet WantA = B, WantB = A;
  A.swap(B);
  EXPECT_EQ(A, WantA);
  EXPECT_EQ(B, WantB);
}
