//===- sim/Wire.cpp - Host-application wire format ------------------------===//

#include "sim/Wire.h"

#include "support/Symbols.h"

using namespace eventnet;
using eventnet::netkat::Packet;

FieldId sim::ipSrcField() {
  static FieldId F = fieldOf("ip_src");
  return F;
}

FieldId sim::ipDstField() {
  static FieldId F = fieldOf("ip_dst");
  return F;
}

FieldId sim::kindField() {
  static FieldId F = fieldOf("kind");
  return F;
}

FieldId sim::seqField() {
  static FieldId F = fieldOf("seq");
  return F;
}

FieldId sim::probeField() {
  static FieldId F = fieldOf("probe");
  return F;
}

FieldId sim::connField() {
  static FieldId F = fieldOf("conn");
  return F;
}

Packet sim::makeWireHeader(HostId From, HostId To, Value Kind, uint64_t Seq) {
  Packet H;
  fillWireHeader(H, From, To, Kind, Seq);
  return H;
}

void sim::fillWireHeader(Packet &H, HostId From, HostId To, Value Kind,
                         uint64_t Seq) {
  H.clear();
  H.set(ipDstField(), static_cast<Value>(To));
  H.set(ipSrcField(), static_cast<Value>(From));
  H.set(kindField(), Kind);
  H.set(seqField(), static_cast<Value>(Seq));
  if (Kind == KindProbe)
    H.set(probeField(), 1);
}

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

size_t sim::encodeFrame(const WireFrame &F, uint8_t *Out) {
  wirePut32(Out, static_cast<uint32_t>(WireFramePayload));
  Out[4] = F.T;
  wirePut32(Out + 5, F.A);
  wirePut32(Out + 9, F.B);
  wirePut32(Out + 13, F.Kind);
  wirePut64(Out + 17, F.Seq);
  return WireFrameBytes;
}

sim::FrameDecode sim::decodeFrame(const uint8_t *Buf, size_t Len,
                                  WireFrame &F, size_t &Consumed) {
  Consumed = 0;
  if (Len < 4)
    return FrameDecode::NeedMore;
  uint32_t Payload = wireGet32(Buf);
  // A bad announced length condemns the whole stream: an oversized value
  // is a hostile or corrupt peer (reject before buffering it), and a
  // truncated one can never complete into a known frame shape.
  if (Payload > WireMaxPayload || Payload != WireFramePayload)
    return FrameDecode::Malformed;
  if (Len < 4 + Payload)
    return FrameDecode::NeedMore;
  uint8_t T = Buf[4];
  if (T < WireFrame::Hello || T > WireFrame::BarrierAck)
    return FrameDecode::Malformed;
  F.T = T;
  F.A = wireGet32(Buf + 5);
  F.B = wireGet32(Buf + 9);
  F.Kind = wireGet32(Buf + 13);
  F.Seq = wireGet64(Buf + 17);
  Consumed = 4 + Payload;
  return FrameDecode::Ok;
}

Packet sim::frameHeader(const WireFrame &F) {
  return makeWireHeader(static_cast<HostId>(F.A), static_cast<HostId>(F.B),
                        static_cast<Value>(F.Kind), F.Seq);
}

sim::WireFrame sim::deliverFrame(const Packet &P) {
  WireFrame F;
  F.T = WireFrame::Deliver;
  F.A = static_cast<uint32_t>(P.getOr(ipSrcField(), 0));
  F.B = static_cast<uint32_t>(P.getOr(ipDstField(), 0));
  F.Kind = static_cast<uint32_t>(P.getOr(kindField(), 0));
  F.Seq = static_cast<uint64_t>(P.getOr(seqField(), 0));
  return F;
}
