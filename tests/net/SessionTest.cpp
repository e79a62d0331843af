//===- tests/net/SessionTest.cpp - Framing state machine tests ------------===//
//
// The Session layer without sockets: incremental reassembly from
// arbitrary read chunks (and the partial frame it holds between them),
// handshake-ordering enforcement for both roles,
// malformed-prefix fatality, and the bounded egress queue under each
// overload policy with every shed counted.
//
//===----------------------------------------------------------------------===//

#include "net/Session.h"

#include <gtest/gtest.h>

#include <vector>

using namespace eventnet;
using namespace eventnet::net;
using sim::WireFrame;

namespace {

/// Collects frames; opens the session on a greeting like the real
/// handlers do.
struct Collect : Session::FrameHandler {
  std::vector<WireFrame> Frames;
  bool Accept = true;
  uint8_t Greeting = WireFrame::Hello;

  bool onFrame(Session &S, const WireFrame &F) override {
    if (F.T == Greeting)
      S.open();
    Frames.push_back(F);
    return Accept;
  }
};

std::vector<uint8_t> bytesOf(std::initializer_list<WireFrame> Frames) {
  std::vector<uint8_t> Buf;
  for (const WireFrame &F : Frames) {
    uint8_t Tmp[sim::WireFrameBytes];
    sim::encodeFrame(F, Tmp);
    Buf.insert(Buf.end(), Tmp, Tmp + sim::WireFrameBytes);
  }
  return Buf;
}

WireFrame frame(uint8_t T, uint64_t Seq = 0) {
  WireFrame F;
  F.T = T;
  F.A = 1;
  F.B = 2;
  F.Seq = Seq;
  return F;
}

} // namespace

TEST(Session, ReassemblesOneByteAtATime) {
  Session S(7, SessionConfig());
  Collect H;
  std::vector<uint8_t> Buf =
      bytesOf({frame(WireFrame::Hello), frame(WireFrame::Inject, 42)});
  for (uint8_t B : Buf)
    ASSERT_TRUE(S.ingest(&B, 1, H));
  ASSERT_EQ(H.Frames.size(), 2u);
  EXPECT_EQ(H.Frames[1].T, WireFrame::Inject);
  EXPECT_EQ(H.Frames[1].Seq, 42u);
  EXPECT_EQ(S.counters().FramesIn, 2u);
  EXPECT_EQ(S.counters().BytesIn, Buf.size());
  // Every ingest except the two frame-completing ones ended mid-frame.
  EXPECT_EQ(S.counters().ReassemblyPartial, Buf.size() - 2);
  EXPECT_EQ(S.state(), Session::State::Open);
}

TEST(Session, DecodesManyFramesFromOneChunk) {
  Session S(7, SessionConfig());
  Collect H;
  std::vector<WireFrame> Fs{frame(WireFrame::Hello)};
  for (uint64_t I = 0; I != 50; ++I)
    Fs.push_back(frame(WireFrame::Inject, I));
  std::vector<uint8_t> Buf;
  for (const WireFrame &F : Fs) {
    uint8_t Tmp[sim::WireFrameBytes];
    sim::encodeFrame(F, Tmp);
    Buf.insert(Buf.end(), Tmp, Tmp + sim::WireFrameBytes);
  }
  ASSERT_TRUE(S.ingest(Buf.data(), Buf.size(), H));
  EXPECT_EQ(H.Frames.size(), 51u);
  EXPECT_EQ(S.counters().ReassemblyPartial, 0u);
}

TEST(Session, PartialBytesAreTheUndecodedTail) {
  // What a stop discards of a session already read: the bytes of a frame
  // begun but not complete, and nothing once it completes.
  Session S(7, SessionConfig());
  Collect H;
  std::vector<uint8_t> Buf =
      bytesOf({frame(WireFrame::Hello), frame(WireFrame::Inject, 1)});
  size_t Cut = sim::WireFrameBytes + 5;
  ASSERT_TRUE(S.ingest(Buf.data(), Cut, H));
  EXPECT_EQ(H.Frames.size(), 1u);
  EXPECT_EQ(S.partialBytes(), 5u);
  ASSERT_TRUE(S.ingest(Buf.data() + Cut, Buf.size() - Cut, H));
  EXPECT_EQ(H.Frames.size(), 2u);
  EXPECT_EQ(S.partialBytes(), 0u);
}

TEST(Session, RejectsTrafficBeforeHello) {
  Session S(7, SessionConfig());
  Collect H;
  std::vector<uint8_t> Buf = bytesOf({frame(WireFrame::Inject)});
  EXPECT_FALSE(S.ingest(Buf.data(), Buf.size(), H));
  EXPECT_EQ(S.state(), Session::State::Closed);
  EXPECT_TRUE(H.Frames.empty());
}

TEST(Session, RejectsDuplicateHello) {
  Session S(7, SessionConfig());
  Collect H;
  std::vector<uint8_t> Buf =
      bytesOf({frame(WireFrame::Hello), frame(WireFrame::Hello)});
  EXPECT_FALSE(S.ingest(Buf.data(), Buf.size(), H));
  EXPECT_EQ(S.state(), Session::State::Closed);
  EXPECT_EQ(H.Frames.size(), 1u); // the first one was fine
}

TEST(Session, ServerRejectsTrafficAfterBye) {
  Session S(7, SessionConfig());
  Collect H;
  std::vector<uint8_t> Buf =
      bytesOf({frame(WireFrame::Hello), frame(WireFrame::Bye),
               frame(WireFrame::Inject)});
  EXPECT_FALSE(S.ingest(Buf.data(), Buf.size(), H));
  EXPECT_EQ(H.Frames.size(), 2u);
}

TEST(Session, ClientAcceptsDeliveriesWhileDraining) {
  SessionConfig C;
  C.Role = SessionRole::Client;
  Session S(7, C);
  Collect H;
  H.Greeting = WireFrame::HelloAck;
  std::vector<uint8_t> Buf = bytesOf({frame(WireFrame::HelloAck)});
  ASSERT_TRUE(S.ingest(Buf.data(), Buf.size(), H));
  S.drain(); // we sent our Bye; deliveries may still arrive
  Buf = bytesOf({frame(WireFrame::Deliver, 9)});
  EXPECT_TRUE(S.ingest(Buf.data(), Buf.size(), H));
  EXPECT_EQ(H.Frames.back().T, WireFrame::Deliver);
}

TEST(Session, MalformedPrefixIsFatal) {
  Session S(7, SessionConfig());
  Collect H;
  // An announced payload length beyond WireMaxPayload is hostile even
  // before the payload arrives.
  uint8_t Buf[4];
  sim::wirePut32(Buf, 1u << 20);
  EXPECT_FALSE(S.ingest(Buf, sizeof(Buf), H));
  EXPECT_EQ(S.state(), Session::State::Closed);
}

TEST(Session, HandlerRejectionCloses) {
  Session S(7, SessionConfig());
  Collect H;
  H.Accept = false;
  std::vector<uint8_t> Buf = bytesOf({frame(WireFrame::Hello)});
  EXPECT_FALSE(S.ingest(Buf.data(), Buf.size(), H));
  EXPECT_EQ(S.state(), Session::State::Closed);
}

TEST(Session, ShedNewestBoundsTheBacklog) {
  SessionConfig C;
  C.EgressCapacity = 4;
  C.Overload = engine::OverloadPolicy::ShedNewest;
  Session S(7, C);
  for (uint64_t I = 0; I != 6; ++I)
    S.enqueue(frame(WireFrame::Deliver, I));
  EXPECT_EQ(S.egressDepth(), 4u);
  EXPECT_EQ(S.counters().EgressShed, 2u);
  // The survivors are the oldest four.
  S.fillTx();
  EXPECT_EQ(S.counters().FramesOut, 4u);
}

TEST(Session, ShedOldestKeepsTheNewest) {
  SessionConfig C;
  C.EgressCapacity = 2;
  C.Overload = engine::OverloadPolicy::ShedOldest;
  Session S(7, C);
  for (uint64_t I = 0; I != 4; ++I)
    EXPECT_TRUE(S.enqueue(frame(WireFrame::Deliver, I)));
  EXPECT_EQ(S.egressDepth(), 2u);
  EXPECT_EQ(S.counters().EgressShed, 2u);
  ASSERT_TRUE(S.fillTx());
  // Decode the serialized bytes back: seqs 2 and 3 survived.
  WireFrame F;
  size_t Used = 0;
  ASSERT_EQ(sim::decodeFrame(S.txData(), S.txPending(), F, Used),
            sim::FrameDecode::Ok);
  EXPECT_EQ(F.Seq, 2u);
  ASSERT_EQ(sim::decodeFrame(S.txData() + Used, S.txPending() - Used, F,
                             Used),
            sim::FrameDecode::Ok);
  EXPECT_EQ(F.Seq, 3u);
}

TEST(Session, BlockPolicySignalsBackpressure) {
  SessionConfig C;
  C.EgressCapacity = 2;
  C.Overload = engine::OverloadPolicy::Block;
  Session S(7, C);
  EXPECT_FALSE(S.wantsBackpressure());
  for (uint64_t I = 0; I != 3; ++I)
    EXPECT_TRUE(S.enqueue(frame(WireFrame::Deliver, I)));
  EXPECT_EQ(S.egressDepth(), 3u); // Block never sheds; it grows
  EXPECT_EQ(S.counters().EgressShed, 0u);
  EXPECT_TRUE(S.wantsBackpressure());
}

TEST(Session, TxToleratesPartialWrites) {
  Session S(7, SessionConfig());
  S.enqueue(frame(WireFrame::Deliver, 1));
  S.enqueue(frame(WireFrame::Deliver, 2));
  ASSERT_TRUE(S.fillTx());
  size_t Total = S.txPending();
  ASSERT_EQ(Total, 2 * sim::WireFrameBytes);
  S.txConsume(7); // a short write mid-frame
  EXPECT_EQ(S.txPending(), Total - 7);
  EXPECT_TRUE(S.wantsWrite());
  S.txConsume(S.txPending());
  EXPECT_FALSE(S.wantsWrite());
  EXPECT_EQ(S.counters().BytesOut, Total);
  EXPECT_EQ(S.counters().FramesOut, 2u);
}
