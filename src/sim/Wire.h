//===- sim/Wire.h - Host-application wire format ----------------*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire format of the evaluation workloads: the header fields and
/// packet-kind values the host applications speak. Shared by the
/// discrete-event simulator (sim::Simulation) and the concurrent
/// data-plane engine (engine::Engine / engine::TrafficGen) so that a
/// workload generated for one substrate replays identically on the
/// other.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_SIM_WIRE_H
#define EVENTNET_SIM_WIRE_H

#include "netkat/Packet.h"
#include "support/Ids.h"

#include <cstddef>
#include <cstdint>

namespace eventnet {
namespace sim {

/// Values of the "kind" field.
inline constexpr Value KindRequest = 0; ///< echo request (expects a reply)
inline constexpr Value KindReply = 1;   ///< echo reply
inline constexpr Value KindData = 2;    ///< bulk-flow payload
inline constexpr Value KindAck = 3;     ///< bulk-flow acknowledgement
inline constexpr Value KindProbe = 4;   ///< event-trigger probe (no reply)

/// Field ids used by the host applications (interned on first use).
FieldId ipSrcField();
FieldId ipDstField();
FieldId kindField(); ///< one of the Kind* values above
FieldId seqField();
/// 1 on event-trigger probes. makeWireHeader sets it from the kind, so
/// a probe keeps it wherever its header is rebuilt (an Inject frame
/// carries only hosts, kind and seq).
FieldId probeField();
/// Session tag stamped by the net server on ingested frames: tables never
/// match on it, actions never rewrite it, so it rides every hop and lets
/// the delivery path route a packet back to the connection that emitted
/// it. Absent on packets that did not enter through a socket.
FieldId connField();

/// Builds a bare application header From -> To of the given kind:
/// ip_src, ip_dst, kind and seq, plus probe = 1 when Kind is KindProbe.
netkat::Packet makeWireHeader(HostId From, HostId To, Value Kind,
                              uint64_t Seq);

/// makeWireHeader in place: rebuilds \p H as that header, keeping its
/// allocated capacity (the engine builds echo replies in recycled slots).
void fillWireHeader(netkat::Packet &H, HostId From, HostId To, Value Kind,
                    uint64_t Seq);

//===----------------------------------------------------------------------===//
// Byte-order helpers (explicit little-endian, alignment-free)
//===----------------------------------------------------------------------===//

inline void wirePut16(uint8_t *B, uint16_t V) {
  B[0] = static_cast<uint8_t>(V);
  B[1] = static_cast<uint8_t>(V >> 8);
}
inline void wirePut32(uint8_t *B, uint32_t V) {
  B[0] = static_cast<uint8_t>(V);
  B[1] = static_cast<uint8_t>(V >> 8);
  B[2] = static_cast<uint8_t>(V >> 16);
  B[3] = static_cast<uint8_t>(V >> 24);
}
inline void wirePut64(uint8_t *B, uint64_t V) {
  wirePut32(B, static_cast<uint32_t>(V));
  wirePut32(B + 4, static_cast<uint32_t>(V >> 32));
}
inline uint16_t wireGet16(const uint8_t *B) {
  return static_cast<uint16_t>(B[0] | (B[1] << 8));
}
inline uint32_t wireGet32(const uint8_t *B) {
  return static_cast<uint32_t>(B[0]) | (static_cast<uint32_t>(B[1]) << 8) |
         (static_cast<uint32_t>(B[2]) << 16) |
         (static_cast<uint32_t>(B[3]) << 24);
}
inline uint64_t wireGet64(const uint8_t *B) {
  return static_cast<uint64_t>(wireGet32(B)) |
         (static_cast<uint64_t>(wireGet32(B + 4)) << 32);
}

//===----------------------------------------------------------------------===//
// Length-prefixed framing (the net backend's socket encoding)
//===----------------------------------------------------------------------===//

/// The socket encoding of one wire-format message: a u32 little-endian
/// payload length followed by a fixed-shape payload
///
///   u8 Type | u32 A | u32 B | u32 Kind | u64 Seq
///
/// The field meanings depend on Type (see WireFrame::Type). A stream is
/// just back-to-back frames; a UDP datagram carries one or more whole
/// frames. Decoding is incremental: decodeFrame distinguishes "feed me
/// more bytes" (a partial frame mid-reassembly) from a malformed prefix
/// (bad length, unknown type), which a session must treat as a protocol
/// error and close.
struct WireFrame {
  enum Type : uint8_t {
    /// Client -> server greeting; A = protocol version, Seq = nonce.
    Hello = 1,
    /// Server -> client; A = assigned source host, B = suggested
    /// destination host, Seq = connection id.
    HelloAck = 2,
    /// Client -> server emission: A = from host, B = to host.
    Inject = 3,
    /// Server -> client delivery echo: A = ip_src, B = ip_dst.
    Deliver = 4,
    /// Client -> server: done, drain and forget me.
    Bye = 5,
    /// Client -> server phase fence; Seq = cumulative Inject frames the
    /// client has sent so far. Acked only once the server has ingested
    /// that many frames and the engine has quiesced.
    Barrier = 6,
    /// Server -> client; Seq echoed from the Barrier.
    BarrierAck = 7,
  };

  uint8_t T = Inject;
  uint32_t A = 0;
  uint32_t B = 0;
  uint32_t Kind = 0;
  uint64_t Seq = 0;
};

/// Wire protocol version spoken by this build (Hello.A).
inline constexpr uint32_t WireProtoVersion = 1;
/// Fixed payload size of every frame type.
inline constexpr size_t WireFramePayload = 21;
/// Bytes of a complete frame on the wire (length prefix + payload).
inline constexpr size_t WireFrameBytes = 4 + WireFramePayload;
/// Decode rejects any announced payload length beyond this as hostile
/// (a corrupted or non-eventnet peer), even before the bytes arrive.
inline constexpr size_t WireMaxPayload = 64;

enum class FrameDecode {
  Ok,        ///< one frame decoded; Consumed bytes were eaten
  NeedMore,  ///< the buffer ends mid-frame; append bytes and retry
  Malformed, ///< bad length or type; the stream is unrecoverable
};

/// Encodes \p F into \p Out (at least WireFrameBytes); returns the
/// encoded size.
size_t encodeFrame(const WireFrame &F, uint8_t *Out);

/// Decodes the frame at the front of [Buf, Buf+Len). On Ok, fills \p F
/// and sets \p Consumed; otherwise Consumed is 0.
FrameDecode decodeFrame(const uint8_t *Buf, size_t Len, WireFrame &F,
                        size_t &Consumed);

/// The application header an Inject frame asks the engine to emit.
netkat::Packet frameHeader(const WireFrame &F);

/// The Deliver frame describing a packet handed to a host.
WireFrame deliverFrame(const netkat::Packet &P);

} // namespace sim
} // namespace eventnet

#endif // EVENTNET_SIM_WIRE_H
