//===- consistency/StreamCheck.h - Streaming Definition 6 checker -*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An online, windowed form of the Definition 6 check (consistency/
/// Check.h): trace entries are consumed incrementally in ticket order and
/// packet chains are *retired* — fully checked and forgotten — as soon as
/// their happens-before constraints resolve, so a multi-minute soak run
/// is verified with O(window) memory instead of an O(run) merged trace.
///
/// What is checked online (identical to the batch oracle's primary,
/// operational witness — the Figure 7 machine's own event sequence):
///
///  - extraction: each committed entry is matched against the structure's
///    fresh enabled events, growing the witness sequence exactly as
///    checkAgainstNes's operational extraction does;
///  - first occurrences k0 < k1 < ...: resolved from a per-event queue of
///    guard matches past the current FO frontier;
///  - per-chain single-configuration membership: an incremental prefix
///    mask per tree node (bit Ci set iff root..node is consecutive-related
///    under Ci), finalized at the leaf with the batch checker's exact
///    maximality rule; ledgered faults excuse leaves to prefix membership;
///  - FO bullet 3 and the AllBefore/AllAfter window conditions: evaluated
///    at retirement from per-entry vector clocks over switches, which
///    represent Definition 1's happens-before exactly (per-switch total
///    order plus packet-tree order, both of which respect ticket order).
///
/// Retirement is sound: a retired chain with nonempty membership cannot
/// fail conditions against *future* events (its membership indices are
/// all <= any future event index, and a future first occurrence can never
/// happen-before an already-retired entry because happens-before respects
/// ticket order). The one case ticket order does not cover — a first
/// occurrence resolving to an entry older than something already retired
/// — is detected and reported as inconclusive, never silently passed.
///
/// The verdict is three-valued: ok / violated / inconclusive, with
/// violated taking precedence over inconclusive. Inconclusive causes:
///
///  - window_exceeded: the window cap or quiet-horizon retirement cut a
///    constraint short (late child of a retired chain, excusal of a
///    retired entry, FO older than the retirement frontier, per-event
///    guard-match queue overflow);
///  - out_of_order: an entry committed behind the ticket frontier;
///  - stream_backlog: the collector fell behind the data path and the
///    engine shed stream items at its per-shard buffer cap (reported by
///    the embedder via noteCause; see EngineConfig::StreamBufCap) — the
///    trace the checker saw is gappy, so no clean pass is possible;
///  - unsupported: the trace left the checkable regime (more than 64
///    configurations, or an occurred-event set outside the NES family).
///
/// Not replicated from the batch checker: the existential fallback over
/// all allowed event sequences (Definition 6 tries others when the
/// operational witness fails). A streaming "violated" therefore means
/// "the operational witness fails", which coincides with the batch
/// verdict on every trace an actual run substrate produces; the
/// differential test suite pins this.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_CONSISTENCY_STREAMCHECK_H
#define EVENTNET_CONSISTENCY_STREAMCHECK_H

#include "consistency/Check.h"
#include "consistency/Trace.h"
#include "nes/Nes.h"
#include "support/BitSet.h"
#include "topo/Topology.h"

#include <cstdint>
#include <deque>
#include <map>
#include <queue>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace eventnet {
namespace consistency {

/// Three-valued streaming verdict. Violated > Inconclusive > Ok.
enum class StreamVerdict : uint8_t { Ok, Violated, Inconclusive };

/// Stable lowercase name: "ok", "violated", "inconclusive".
const char *streamVerdictName(StreamVerdict V);

struct StreamOptions {
  /// Hard cap on live (committed, unretired) trace entries. Exceeding it
  /// force-retires the quietest trees; any constraint that then lands on
  /// a retired entry degrades the verdict to inconclusive.
  size_t Window = 1 << 16;
  /// A tree with no new entries for this many tickets is retired. Must
  /// absorb fault-plan delays and scheduling jitter; too small splits
  /// in-flight chains (inconclusive), too large wastes window.
  uint64_t QuietHorizon = 1 << 13;
  /// Per-event cap on buffered guard matches awaiting FO resolution
  /// (matches of a not-yet-occurred event's guard).
  size_t GuardQueueCap = 4096;
};

struct StreamStats {
  uint64_t EntriesIngested = 0; ///< fed (incl. buffered and pruned)
  uint64_t EntriesChecked = 0;  ///< committed in ticket order
  uint64_t EntriesPruned = 0;   ///< ledgered-duplicate subtree entries
  uint64_t TreesRetired = 0;
  uint64_t ChainsRetired = 0;   ///< root-to-leaf paths finalized
  uint64_t EventsObserved = 0;  ///< witness sequence length
  uint64_t PeakWindow = 0;      ///< live-entry high-water mark
  uint64_t PeakResidentBytes = 0; ///< approx checker state high-water
};

struct StreamResult {
  StreamVerdict Verdict = StreamVerdict::Ok;
  /// Violation reason, or comma-joined inconclusive causes.
  std::string Reason;
  StreamStats Stats;

  bool ok() const { return Verdict == StreamVerdict::Ok; }
  bool violated() const { return Verdict == StreamVerdict::Violated; }
};

/// The streaming checker. Single-threaded: one collector feeds it; the
/// engine side hands entries over through per-shard buffers (see
/// engine::Engine::drainTraceStream).
///
/// Feed protocol: feedEntry() in any order (a reorder heap commits by
/// ticket); advance(W) commits everything with ticket <= W, where W is a
/// watermark no future entry can be below; feedExcuse(T) marks entry T a
/// legitimate chain leaf (ledgered drop/shed); finish() commits the
/// remainder and returns the final verdict.
class StreamChecker {
public:
  StreamChecker(const nes::Nes &N, const topo::Topology &Topo,
                StreamOptions O = StreamOptions());
  ~StreamChecker();

  StreamChecker(const StreamChecker &) = delete;
  StreamChecker &operator=(const StreamChecker &) = delete;

  /// Buffers one trace entry. \p Parent is the parent entry's ticket or
  /// -1 for a chain root; \p IsDup marks the root of a ledgered
  /// duplicate subtree (pruned, like the batch checker's FaultContext).
  void feedEntry(uint64_t Ticket, int64_t Parent, const netkat::Packet &Lp,
                 bool IsDelivery, bool IsDup = false);

  /// Entry \p Ticket may legitimately end its chain (ledgered drop or
  /// shed excused the hop that would have followed it). May arrive
  /// before or after the entry itself; an excusal of an already-retired
  /// entry is inconclusive.
  void feedExcuse(uint64_t Ticket);

  /// Commits every buffered entry with ticket <= \p Watermark. The
  /// caller guarantees no entry below the watermark is still in flight.
  void advance(uint64_t Watermark);

  /// Commits everything buffered, retires all live chains, and returns
  /// the final verdict. The checker is inert afterwards.
  StreamResult finish();

  /// Degrades the final verdict to inconclusive with \p Cause (unless a
  /// violation already won). Used by embedders for conditions the
  /// checker cannot see itself.
  void noteCause(const std::string &Cause);

  /// Like noteCause, but additionally marks the feed as gappy: entries
  /// are known to be missing (e.g. the producer shed stream items at a
  /// buffer cap), so from now on every would-be violation degrades to
  /// inconclusive(\p Cause) — a truncated chain or a shed FO witness
  /// can fake any violation class, and a violation must never be a
  /// false alarm. Violations recorded before this call stand.
  void noteGap(const std::string &Cause);

  /// Live verdict so far (retired state only; finish() is the total).
  StreamVerdict verdict() const { return CurVerdict; }
  const StreamStats &stats() const { return St; }

private:
  /// One committed, unretired trace entry. Nodes live in their tree's
  /// vector in insertion (ticket) order, so parents precede children.
  struct Node {
    uint64_t Ticket = 0;
    int32_t Parent = -1; ///< index into the owning tree's Nodes, -1 root
    uint32_t SwIdx = 0;  ///< dense switch index (VC component)
    uint32_t SwPos = 0;  ///< 1-based position in the per-switch order
    uint32_t Children = 0;
    int16_t ReqConfig = -1; ///< FO bullet 3: a chain through this node
                            ///< must be a member of this configuration
    bool Excused = false;
    bool IsDelivery = false;
    uint64_t PrefixMask = 0; ///< configs where root..this is
                             ///< consecutive-related
    uint64_t SeenMemberMask = 0; ///< filled during retirement
    netkat::Packet Lp;
    std::vector<uint32_t> VC;
  };

  struct Tree {
    uint64_t LastActivity = 0; ///< ticket of the newest entry
    std::vector<Node> Nodes;
  };

  /// One witness event with its first-occurrence data. KVC/KSwIdx/KSwPos
  /// are only valid when Usable (the FO entry was live at resolution).
  struct EventRec {
    unsigned EventId = 0;
    bool Resolved = false;
    bool Usable = false;
    uint64_t KTicket = 0;
    uint32_t KSwIdx = 0;
    uint32_t KSwPos = 0;
    std::vector<uint32_t> KVC;
  };

  struct GuardMatch {
    uint64_t Ticket;
  };

  struct PendItem {
    uint64_t Ticket;
    int64_t Parent;
    netkat::Packet Lp;
    bool IsDelivery;
    bool IsDup;
  };
  struct PendLater {
    bool operator()(const PendItem &A, const PendItem &B) const {
      return A.Ticket > B.Ticket;
    }
  };

  void commit(PendItem &It);
  void onFresh(unsigned EventId);
  void resolvePendingFOs();
  void extendMasksForNewConfig();
  uint64_t relatedMask(const netkat::Packet &From, const netkat::Packet &To,
                       uint64_t ParentMask) const;
  void retireTree(uint64_t RootTicket, bool Forced = false);
  void retireQuietTrees();
  void enforceWindow();
  void violate(std::string Reason);
  void inconclusive(const char *Cause);
  uint32_t denseSwitch(SwitchId Sw);
  void trackPeaks();
  uint64_t nodeBytes(const Node &Nd) const;

  const nes::Nes &N;
  const topo::Topology &Topo;
  StreamOptions O;

  // Reorder buffer: min-heap by ticket.
  std::priority_queue<PendItem, std::vector<PendItem>, PendLater> Heap;
  int64_t LastCommitted = -1;

  // Live trees, keyed by root ticket; ticket -> (root, node index).
  std::map<uint64_t, Tree> Live;
  std::unordered_map<uint64_t, std::pair<uint64_t, uint32_t>> NodeOf;

  // Ledgered-duplicate pruning: tickets whose subtree is excluded, with
  // an eviction queue so the set stays O(window).
  std::unordered_set<uint64_t> Pruned;
  std::deque<uint64_t> PrunedOrder;

  // Excusals that arrived before their entry.
  std::unordered_set<uint64_t> PendingExcuse;

  // Happens-before state: per-switch entry counts and last vector clock.
  std::unordered_map<SwitchId, uint32_t> SwDense;
  std::vector<uint64_t> SwCount;
  std::vector<std::vector<uint32_t>> SwLastVC;

  // The operational witness: occurred events, their configurations, and
  // per-event first-occurrence records.
  DenseBitSet Occurred;
  std::vector<const topo::Configuration *> Configs; // C0..Cn, <= 64
  std::vector<EventRec> EventRecs;
  uint64_t AllConfigMask = 1; // low Configs.size() bits

  // First-occurrence resolution. GuardQ[e] buffers committed tickets
  // matching event e's guard past the FO frontier; FOWanted[e] keeps the
  // queue collecting after e occurred but before its FO resolved.
  std::vector<std::deque<GuardMatch>> GuardQ;
  std::vector<bool> GuardQOverflow;
  std::vector<bool> FOWanted;
  int64_t FOFrontier = -1;        ///< ticket of the last resolved FO
  std::deque<unsigned> PendingFO; ///< witness indices awaiting their FO

  uint64_t MaxRetiredTicket = 0;
  bool AnyRetired = false;
  uint64_t CommitsSinceSweep = 0;

  // Incremental memory accounting (trackPeaks must be O(1)).
  uint64_t CurNodeBytes = 0;
  uint64_t GuardQTotal = 0;

  StreamVerdict CurVerdict = StreamVerdict::Ok;
  std::string ViolationReason;
  std::vector<std::string> Causes;
  /// noteGap: the feed is missing entries; violate() degrades to
  /// inconclusive(GapCause) from then on.
  bool Gappy = false;
  std::string GapCause;
  StreamStats St;
  bool Finished = false;
};

/// Replays a fully merged trace (plus an optional fault ledger) through a
/// StreamChecker — the differential-testing harness: on any trace the
/// batch checker can hold, this must agree with checkAgainstNes.
StreamResult streamCheckTrace(const NetworkTrace &Tr,
                              const topo::Topology &Topo, const nes::Nes &N,
                              const FaultContext *Faults = nullptr,
                              StreamOptions O = StreamOptions());

} // namespace consistency
} // namespace eventnet

#endif // EVENTNET_CONSISTENCY_STREAMCHECK_H
