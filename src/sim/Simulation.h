//===- sim/Simulation.h - Discrete-event network simulator ------*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The evaluation substrate replacing the paper's Mininet + modified
/// OpenFlow 1.0 reference switch: a deterministic discrete-event
/// simulator with latency/bandwidth-modeled links, serialized per-switch
/// packet processing, hosts running ping/probe/bulk-flow applications,
/// and a controller.
///
/// Three runtime modes mirror the paper's comparisons:
///
///  - Nes: the Section 4 implementation. Switches keep an event-set
///    register, stamp ingress packets with the configuration tag, learn
///    from and extend packet digests, and forward with the stamped
///    configuration's (guarded) rules. Tag + digest bytes are charged to
///    every packet, which is what the Figure 16(a) bandwidth overhead
///    measures.
///
///  - Uncoordinated: the baseline of Section 5.1. Switches run exactly
///    one table; events are reported to the controller, which — after a
///    configurable delay — pushes the new configuration to switches one
///    at a time in a random order. The windows in between are what the
///    "incorrect" halves of Figures 10-15 exhibit.
///
///  - StaticReference: configuration g(∅) on unmodified switches with no
///    tags or digests (the dashed reference line of Figure 16(a)).
///
/// All randomness (baseline push order) is driven by the seed in
/// SimParams, so every experiment is reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_SIM_SIMULATION_H
#define EVENTNET_SIM_SIMULATION_H

#include "consistency/Trace.h"
#include "faults/Injector.h"
#include "nes/Nes.h"
#include "sim/Wire.h"
#include "support/BitSet.h"
#include "support/Rng.h"
#include "topo/Topology.h"

#include <deque>
#include <functional>
#include <map>
#include <queue>
#include <vector>

namespace eventnet {
namespace sim {

/// Simulation parameters (times in seconds, rates in bits/second).
struct SimParams {
  double LinkLatencySec = 0.0005;      ///< per-link propagation delay
  double SwitchDelaySec = 0.00002;     ///< per-packet processing time
  double HostDelaySec = 0.00001;       ///< host reply turnaround
  double CtrlLatencySec = 0.002;       ///< switch <-> controller one way
  bool CtrlBroadcast = false;          ///< controller re-broadcasts events
  double LinkBandwidthBps = 100e6;     ///< link capacity
  double MaxQueueDelaySec = 0.02;      ///< drop-tail bound per link
  unsigned PayloadBytes = 1500;        ///< default packet size
  unsigned AckBytes = 64;              ///< ack/reply packet size
  /// Extra header bytes the Nes mode charges per packet (tag + digest);
  /// 0 = derive from the structure (2B tag + 2B shim + event bitmap).
  unsigned OverheadBytes = 0;
  /// Extra per-packet switch processing time in Nes mode, modeling the
  /// tag stamping / digest learning work of the paper's modified
  /// userspace OpenFlow switch. 0 by default; the Figure 16(a) harness
  /// sets it (together with a realistic userspace SwitchDelaySec) to
  /// reproduce the paper's single-digit-percent bandwidth overhead.
  double NesTagProcessingSec = 0;
  /// Uncoordinated mode: delay between the controller hearing about an
  /// event and the first table push.
  double UncoordDelaySec = 2.0;
  /// Uncoordinated mode: gap between consecutive per-switch pushes.
  double UncoordPerSwitchGapSec = 0.005;
  uint64_t Seed = 1;
};

/// One simulated run of a compiled program on a topology.
class Simulation {
public:
  enum class Mode { Nes, Uncoordinated, StaticReference };

  Simulation(const nes::Nes &N, const topo::Topology &Topo, Mode M,
             SimParams P = SimParams());

  //===--------------------------------------------------------------------===//
  // Traffic
  //===--------------------------------------------------------------------===//

  /// Schedules an echo request From -> To at \p At; the destination host
  /// replies automatically; success = reply received within \p Timeout.
  void schedulePing(double At, HostId From, HostId To, double Timeout = 1.0);

  /// Schedules a probe packet (field probe=1, no reply expected).
  void scheduleProbe(double At, HostId From, HostId To);

  /// Schedules a raw application header (sim/Wire.h format) to be
  /// emitted by \p From at \p At. The api façade's backend-agnostic
  /// workloads inject through this, so the simulator executes exactly
  /// the packets the other backends do; destination hosts still run the
  /// usual applications (echo replies to KindRequest, etc.).
  void scheduleInjection(double At, HostId From, netkat::Packet Header);

  /// Constant-rate (UDP-like) flow of \p Bps application throughput.
  void scheduleUdpFlow(double Start, double End, HostId From, HostId To,
                       double Bps);

  /// Window-based (TCP-like) flow: additive increase on acks,
  /// multiplicative decrease on timeout loss.
  void scheduleTcpFlow(double Start, double End, HostId From, HostId To);

  /// Runs the event loop until \p Until (simulated seconds).
  void run(double Until);

  /// Activates a compiled fault plan: link egress drop/dup/delay, the
  /// same content-addressed decisions the engine makes (faults/). The
  /// engine-only plan elements (worker stalls, queue clamps, update-delta
  /// storms) are no-ops here — the simulator has no worker threads or
  /// bounded rings. \p FI must outlive the simulation; null disables.
  void setFaults(const faults::Injector *FI) { Faults = FI; }

  /// Fault-injection tallies (all zero when no plan is active).
  struct FaultCounters {
    uint64_t Drops = 0;        ///< packets dropped by the plan
    uint64_t Dups = 0;         ///< packets duplicated by the plan
    uint64_t Delays = 0;       ///< packets delayed by the plan
    uint64_t DupDelivered = 0; ///< deliveries descending from a duplicate
  };
  const FaultCounters &faultCounters() const { return FC; }

  /// The fault ledger (records + trace annotations for the checker).
  const faults::FaultLedger &faultLedger() const { return Ledger; }
  faults::FaultLedger takeFaultLedger() { return std::move(Ledger); }

  //===--------------------------------------------------------------------===//
  // Results
  //===--------------------------------------------------------------------===//

  struct PingRecord {
    double SentAt = 0;
    HostId From = 0, To = 0;
    bool Succeeded = false;
    double Rtt = 0;
  };
  const std::vector<PingRecord> &pings() const { return Pings; }

  struct FlowStats {
    uint64_t PktsSent = 0;
    uint64_t PktsDelivered = 0;
    uint64_t PayloadBytesDelivered = 0;
    double FirstDelivery = 0, LastDelivery = 0;

    /// Achieved application throughput in bits/second.
    double goodputBps() const;
    /// Fraction of sent packets lost.
    double lossRate() const;
  };
  const FlowStats &flowStats() const { return Flow; }

  /// Packet deliveries (time, packet) per host.
  const std::vector<std::pair<double, netkat::Packet>> &
  deliveriesTo(HostId H) const;

  /// Time each switch first learned each event (Nes mode), for Figure
  /// 16(b). Missing key = never learned.
  const std::map<std::pair<SwitchId, nes::EventId>, double> &
  learnTimes() const {
    return LearnTimes;
  }

  /// Time each event first occurred (any mode), or -1 if it did not.
  double eventTime(nes::EventId E) const;

  /// The recorded network trace, for the consistency checkers.
  const consistency::NetworkTrace &trace() const { return Trace; }

  /// Moves the trace out (for report assembly on a dying simulation;
  /// trace() is empty afterwards).
  consistency::NetworkTrace takeTrace() { return std::move(Trace); }

  /// Total host emissions (scheduled traffic, replies, acks).
  uint64_t hostEmissions() const { return Emissions; }

  /// Total switch processing steps executed.
  uint64_t switchHops() const { return Hops; }

  double now() const { return Now; }

private:
  struct SimPacket {
    netkat::Packet Pkt;
    nes::SetId Tag = 0;
    DenseBitSet Digest;
    int TraceParent = -1;
    bool IngressLogged = false;
    unsigned PayloadBytes = 0;
    unsigned WireBytes = 0;
    uint64_t FlowSeq = 0; ///< for the bulk-flow apps
    bool FromDup = false; ///< descends from a fault-plan duplicate
  };

  struct SwitchSim {
    DenseBitSet E;                 // Nes mode register
    flowtable::Table Installed;    // Uncoordinated mode table
    double BusyUntil = 0;
  };

  struct LinkSim {
    double BusyUntil = 0;
  };

  struct TcpState {
    double Window = 2.0;
    uint64_t NextSeq = 0;
    double End = 0;
    HostId From = 0, To = 0;
    std::map<uint64_t, double> InFlight; // seq -> send time
    double RttEstimate = 0.01;
  };

  void schedule(double At, std::function<void()> Fn);
  void hostSend(HostId From, netkat::Packet Header, unsigned PayloadBytes);
  void enterSwitch(SimPacket P, double At);
  void processAtSwitch(SimPacket P);
  void egress(SimPacket P);
  void deliverToHost(HostId H, SimPacket P);
  void onEventOccurred(nes::EventId E);
  void noteSwitchLearned(SwitchId Sw, const DenseBitSet &Before,
                         const DenseBitSet &After);
  unsigned overheadBytes() const;

  // TCP helpers.
  void tcpTrySend(size_t FlowIdx);
  void tcpOnAck(size_t FlowIdx, uint64_t Seq);
  void tcpOnTimeout(size_t FlowIdx, uint64_t Seq);

  const nes::Nes &N;
  const topo::Topology &Topo;
  Mode M;
  SimParams P;
  Rng Rand;

  double Now = 0;
  uint64_t EventSeq = 0;
  using QueueItem = std::tuple<double, uint64_t, std::function<void()>>;
  struct QueueCmp {
    bool operator()(const QueueItem &A, const QueueItem &B) const {
      if (std::get<0>(A) != std::get<0>(B))
        return std::get<0>(A) > std::get<0>(B);
      return std::get<1>(A) > std::get<1>(B);
    }
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>, QueueCmp> Queue;

  std::map<SwitchId, SwitchSim> Switches;
  std::map<Location, LinkSim> Links;

  // Controller state.
  DenseBitSet CtrlKnown;            // R of Figure 7
  DenseBitSet Occurred;             // events that happened (any mode)
  std::map<nes::EventId, double> EventTimes;

  // Traffic bookkeeping.
  uint64_t NextPingSeq = 1;
  std::map<uint64_t, size_t> AwaitingReply; // ping seq -> Pings index
  std::vector<PingRecord> Pings;
  FlowStats Flow;
  std::vector<TcpState> TcpFlows;
  std::map<HostId, std::vector<std::pair<double, netkat::Packet>>> Delivered;

  std::map<std::pair<SwitchId, nes::EventId>, double> LearnTimes;
  consistency::NetworkTrace Trace;
  uint64_t Emissions = 0;
  uint64_t Hops = 0;

  // Fault injection (null/empty when no plan is active). The sim's
  // trace indices are final, so the ledger's excused/dup entries are
  // recorded directly — no ticket remap as in the engine.
  const faults::Injector *Faults = nullptr;
  FaultCounters FC;
  faults::FaultLedger Ledger;
};

// The host-application field ids and packet kinds (ipSrcField,
// kindField, seqField, Kind*) live in sim/Wire.h, shared with the
// concurrent engine.

} // namespace sim
} // namespace eventnet

#endif // EVENTNET_SIM_SIMULATION_H
