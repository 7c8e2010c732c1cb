// Deterministic event-driven simulator of an asynchronous lossy network.
//
// Everything above this layer (Transport, the dynamic router, TrafficEngine)
// runs on a synchronous slotted clock over perfect links; the paper's
// setting is the opposite — frames are late, lost, duplicated, and links
// die one direction at a time.  EventSim supplies that regime while keeping
// the repo's deterministic-replay contract (ROADMAP): the whole schedule is
// a PURE FUNCTION of (seed, API-call sequence).
//
//   * The run queue is one vector kept sorted by descending (time, seq),
//     where seq is the push-order counter, so the next event sits at the
//     back.  The order is total — ties never depend on container
//     internals or pointer values — so two process runs pop identical
//     sequences.  Queues are short (a few to a few dozen events per ARQ
//     session), so a sorted insert beats a heap's sift of whole events.
//   * Every channel draw for transmission #k over directed link l comes
//     from Pcg32(counter_hash(counter_hash(seed, l), k)) — per-(link,
//     event) streams, never a shared one (the PR 3 RNG convention), so a
//     replay that re-issues the same sends re-draws the same losses,
//     latencies and duplicates.  Link l is Graph::half_edge_index(u, p)
//     (3u + p on a cubic graph) and both hashes run at send time, so the
//     simulator keeps no per-link or per-node table: its state is O(1) in
//     the graph, plus one small sorted entry per link override, downed
//     link and fault-named node.
//   * The frame path — send, the sorted enqueue and the pops — is inline
//     in this header, so an ARQ loop (net/window.h) compiles it into its
//     own body.  Traces, dup/corrupt draws, faults and the override,
//     downed-link and crash lookups are out-of-line calls it makes only
//     when they apply.
//
// Channel model, per DIRECTED link (departure half-edge (u, out_port); the
// reverse direction (v, in_port) is an independent link):
//   * latency uniform in [latency_min, latency_max] time units;
//   * loss: each frame independently dropped with probability `loss`;
//   * duplication: a surviving frame spawns a second, independently-delayed
//     copy with probability `dup` (the copy is flagged `duplicate`);
//   * corruption: each DELIVERED copy independently arrives damaged with
//     probability `corrupt` — one random bit of its frame id is flipped and
//     the event is flagged `corrupted` (the frame check sequence failing);
//     the corruption draws come strictly AFTER the loss / latency / dup
//     draws of the send, so at corrupt = 0 the per-(link, event) stream is
//     consumed exactly as before this knob existed (the PR 6/7 replay
//     traces hold byte for byte — property P11);
//   * up/down: set_link_up(u, p, false) kills the u->v direction ONLY
//     (hnetd's one-sided net_sim_set_connected flip).  Frames sent into a
//     down link are lost at departure; frames already in flight when the
//     link goes down die mid-flight (dropped at their delivery instant).
//
// Node crash/recovery (the fault-injection layer, DESIGN.md §2.12): a
// crashed node neither transmits (sends drop at departure, before any
// channel draw) nor receives (arrivals drop at their delivery instant);
// deadlines keep firing — they model the DRIVING protocol loop, not the
// node's volatile state.  Each recovery bumps the node's crash epoch
// (crash_epochs), the generation stamp the ARQ layers use to wipe volatile
// receiver state (amnesia).  Faults can be flipped directly
// (set_node_crashed) or scheduled into the event queue at exact virtual
// times (schedule_fault — the FaultPlan backend, net/faults.h), so a crash
// window can open and close in the middle of one reliable transfer.
//
// EventSim moves frames and applies faults; it owns no protocol logic and
// keeps no timers.  A protocol that must act when nothing arrives takes a
// Deadline (deadline()) and waits on it with next_before(): the deadline
// draws a push-order seq like any queued event, so it fires exactly where
// an event pushed at that moment would have popped.  The ack/retransmit
// layer is net/window.h (selective repeat, with stop-and-wait as its
// window-1 preset), and the certificate semantics of routing over all of
// this is DESIGN.md §2.10.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "net/transport.h"
#include "util/rng.h"

namespace uesr::net {

/// Virtual time: abstract units; only ordering and sums matter.
using SimTime = std::uint64_t;

/// Channel model of one directed link (and the construction-time default).
struct LinkModel {
  SimTime latency_min = 1;  ///< inclusive lower latency bound (>= 0)
  SimTime latency_max = 1;  ///< inclusive upper bound (>= latency_min)
  double loss = 0.0;        ///< P(frame dropped), in [0, 1]
  double dup = 0.0;         ///< P(second copy delivered), in [0, 1]
  double corrupt = 0.0;     ///< P(delivered copy arrives damaged), in [0, 1]
};

enum class SimEventKind : std::uint8_t { kArrival, kFault };

/// A point in the queue's (time, seq) order that no event occupies: the
/// instant a caller's wait ends if nothing arrives first (see
/// EventSim::deadline and next_before).
struct Deadline {
  SimTime time = 0;
  std::uint64_t seq = 0;

  friend auto operator<=>(const Deadline&, const Deadline&) = default;
};

/// One state flip applied at an exact virtual time (see schedule_fault).
struct FaultAction {
  enum class Kind : std::uint8_t {
    kCrash,          ///< node goes down (drops sends and arrivals)
    kRecover,        ///< node comes back; bumps its crash epoch (amnesia)
    kLinkDown,       ///< one-sided link kill, as set_link_up(u, p, false)
    kLinkUp,         ///< one-sided link heal
    kGlobalCorrupt,  ///< set `corrupt` of the default AND every override
  };
  Kind kind = Kind::kCrash;
  graph::NodeId node = 0;  ///< kCrash / kRecover target
  graph::Port port = 0;    ///< kLinkDown / kLinkUp: half-edge (node, port)
  double corrupt = 0.0;    ///< kGlobalCorrupt level, in [0, 1]

  friend bool operator==(const FaultAction&, const FaultAction&) = default;
};

/// One queued event; next() only ever returns arrivals.  (node, port) is
/// where the frame lands and (from, from_port) the departure half-edge it
/// was sent on; frame_id is the sender's tag, `duplicate` marks a
/// channel-made extra copy and `corrupted` a damaged one (the CRC verdict
/// the ARQ layers honour).  A queued kFault keeps its payload's index in
/// frame_id.
struct SimEvent {
  SimEventKind kind = SimEventKind::kArrival;
  SimTime time = 0;
  std::uint64_t seq = 0;  ///< push-order id (the queue tiebreak)
  graph::NodeId node = 0;
  graph::Port port = 0;
  graph::NodeId from = 0;
  graph::Port from_port = 0;
  std::uint64_t frame_id = 0;
  bool duplicate = false;
  bool corrupted = false;
};

class WindowTransport;

class EventSim {
 public:
  /// The graph must outlive the simulator.  `defaults` applies to every
  /// directed link until overridden; throws on an invalid model.
  EventSim(const graph::Graph& g, std::uint64_t seed, LinkModel defaults = {});

  const graph::Graph& graph() const { return *graph_; }
  std::uint64_t seed() const { return seed_; }
  /// Virtual clock: the time of the last popped event.
  SimTime now() const { return now_; }

  /// Overrides the channel model of the directed link departing (u, p).
  void set_link_model(graph::NodeId u, graph::Port p, const LinkModel& m);
  /// The reference is valid until the next set_link_model.
  const LinkModel& link_model(graph::NodeId u, graph::Port p) const;

  /// One-sided connectivity flip: disables/enables ONLY the direction
  /// departing (u, p).  In-flight frames of a downed direction die
  /// mid-flight.
  void set_link_up(graph::NodeId u, graph::Port p, bool up);
  bool link_up(graph::NodeId u, graph::Port p) const;

  /// Crash / recover a node immediately.  Crashed nodes drop sends at
  /// departure (before any channel draw — replay-safe) and arrivals at
  /// their delivery instant; each up-transition bumps the crash epoch.
  void set_node_crashed(graph::NodeId v, bool crashed);
  bool node_crashed(graph::NodeId v) const;
  /// Recoveries seen so far at v — the amnesia generation: volatile ARQ
  /// state stamped with an older epoch is gone (net/window.h).
  std::uint64_t crash_epochs(graph::NodeId v) const;

  /// Schedules `action` to apply at now() + delay, interleaved with
  /// arrivals in exact (time, push-order) order; next() applies it
  /// silently (never returns it).  The FaultPlan backend (net/faults.h).
  void schedule_fault(SimTime delay, const FaultAction& action);

  /// Dense index of the directed link departing (u, p) — the graph's
  /// half_edge_index: the link key of its (seed, link, event)-keyed
  /// channel draws.
  std::uint64_t link_index(graph::NodeId u, graph::Port p) const;

  /// Puts one frame on the directed link (from, out_port) at now().
  /// Counts one transmission unconditionally — lost frames were really
  /// sent.  The channel then draws loss / latency / duplication from the
  /// (seed, link, event)-keyed stream.
  void send(graph::NodeId from, graph::Port out_port,
            std::uint64_t frame_id) {
    check_half_edge(from, out_port, "EventSim::send");
    transmit(from, out_port, frame_id);
  }

  /// The instant now() + delay, placed in the queue order as an event
  /// pushed right now would be: after every queued event due at that time,
  /// before every later push.  Draws one push-order seq, nothing else.
  Deadline deadline(SimTime delay) { return {now_ + delay, next_seq_++}; }

  /// Pops the next deliverable event that sorts before `d` in (time, seq)
  /// order, advancing now().  Frames whose link direction is down at their
  /// delivery instant die silently (counted in frames_died_midflight),
  /// arrivals at crashed nodes drop (frames_crash_dropped) and scheduled
  /// faults are applied — the scan continues past all of them.  Returns
  /// nullopt when nothing deliverable precedes `d`: the deadline fired,
  /// and now() has moved to its time (never backwards).
  std::optional<SimEvent> next_before(const Deadline& d) {
    if (auto ev = pop_before(d)) return ev;
    now_ = std::max(now_, d.time);
    return std::nullopt;
  }

  /// next_before() with no deadline: returns nullopt only once the queue
  /// is empty, leaving now() at the last event popped.
  std::optional<SimEvent> next() {
    return pop_before({~SimTime{0}, ~std::uint64_t{0}});
  }

  /// Events (arrivals + faults) still queued.
  std::size_t pending() const { return queue_.size(); }

  // --- wire accounting ----------------------------------------------------
  std::uint64_t transmissions() const { return transmissions_; }
  std::uint64_t frames_lost() const { return frames_lost_; }
  std::uint64_t frames_duplicated() const { return frames_duplicated_; }
  std::uint64_t frames_died_midflight() const { return frames_died_; }
  std::uint64_t frames_corrupted() const { return frames_corrupted_; }
  /// Frames dropped by a crashed endpoint (at departure or delivery).
  std::uint64_t frames_crash_dropped() const { return frames_crashed_; }
  /// Arrival events actually handed to the caller by next().
  std::uint64_t frames_delivered() const { return frames_delivered_; }

  // --- deterministic replay trace -----------------------------------------
  /// Records one line per channel decision (send outcome) and per popped
  /// event, up to `limit` lines.  Lines are pure functions of the seed and
  /// the call sequence — the replay regression tests compare them byte for
  /// byte across runs.  Off by default (limit 0).
  void enable_trace(std::size_t limit) { trace_limit_ = limit; }
  const std::vector<std::string>& trace() const { return trace_; }

 private:
  /// The ARQ validates its half-edge once per transfer, then drives the
  /// unchecked frame path below.
  friend class WindowTransport;

  /// One queued event, 32 B.  An arrival's landing half-edge is
  /// rotate(from, from_port), recomputed at pop.  The tag keeps the seq
  /// in 62 bits (at a push per nanosecond, 146 years of pushes).
  struct Queued {
    SimTime time = 0;
    std::uint64_t tag = 0;       ///< seq << 2 | duplicate << 1 | corrupted
    std::uint64_t frame_id = 0;  ///< a fault's index into fault_actions_
    graph::NodeId from = 0;      ///< kFaultFrom marks a scheduled fault
    graph::Port from_port = 0;
  };
  static_assert(sizeof(Queued) == 32);
  static constexpr graph::NodeId kFaultFrom = ~graph::NodeId{0};
  static constexpr std::uint64_t kDuplicate = 2;
  static constexpr std::uint64_t kCorrupted = 1;

  struct ModelOverride {
    std::uint64_t link = 0;
    LinkModel model{};
  };
  /// State of a node some crash or recovery has named.
  struct NodeCrash {
    graph::NodeId node = 0;
    bool crashed = false;
    std::uint64_t epochs = 0;  ///< recoveries seen (the amnesia stamp)
  };

  void check_half_edge(graph::NodeId u, graph::Port p, const char* who) const;
  void check_node(graph::NodeId v, const char* who) const;

  /// send() after validation: the one frame path.
  void transmit(graph::NodeId from, graph::Port out_port,
                std::uint64_t frame_id);
  /// Drops a send a crashed sender or downed link stops (counting and
  /// tracing it); false when the frame leaves.
  bool drop_at_departure(graph::NodeId from, graph::Port out_port,
                         std::uint64_t event, std::uint64_t frame_id);
  /// The dup and corrupt draws of a send, after its loss and latency
  /// draws, then its one or two pushes.
  void transmit_copies(const LinkModel& m, util::Pcg32& rng, SimTime at,
                       std::uint64_t event, graph::NodeId from,
                       graph::Port out_port, std::uint64_t frame_id);
  const LinkModel& model_of(std::uint64_t link) const;
  bool link_down(std::uint64_t link) const;
  const NodeCrash* crash_state(graph::NodeId v) const;
  /// crash_epochs(v) for a node known to be in range.
  std::uint64_t epoch_of(graph::NodeId v) const {
    if (crashes_.empty()) return 0;
    const NodeCrash* c = crash_state(v);
    return c ? c->epochs : 0;
  }

  void enqueue(const Queued& e) {
    // The new seq is the largest, so the event pops after every queued
    // event due at the same time: it goes in front of all of them.
    queue_.insert(std::partition_point(
                      queue_.begin(), queue_.end(),
                      [t = e.time](const Queued& q) { return q.time > t; }),
                  e);
  }
  /// The one pop loop behind next() and next_before(); leaves now() at
  /// the last event it popped.
  std::optional<SimEvent> pop_before(const Deadline& d);
  /// Drops an arrival whose link died in flight or whose node is down
  /// (counting and tracing it); false when it is delivered.
  bool drop_at_delivery(const SimEvent& ev);
  void apply_fault(const FaultAction& f);
  void stamp(std::uint64_t event, graph::NodeId from, graph::Port out_port,
             std::uint64_t frame_id, const char* outcome);
  void record(std::string line);
  /// Traces a popped arrival: "E " delivered, "D " died, "C " crashed.
  void record_event(const char* outcome, const SimEvent& ev);

  static SimTime draw_latency(const LinkModel& m, util::Pcg32& rng) {
    const SimTime span = m.latency_max - m.latency_min;
    if (span == 0) return m.latency_min;
    // validate_model keeps span + 1 within 32 bits.
    return m.latency_min +
           rng.next_below(static_cast<std::uint32_t>(span + 1));
  }

  const graph::Graph* graph_;
  std::uint64_t seed_;
  LinkModel default_model_;
  /// Sparse state, each sorted by its key: per-link overrides, downed
  /// links, and the nodes a crash or recovery has named.
  std::vector<ModelOverride> models_;
  std::vector<std::uint64_t> down_;
  std::vector<NodeCrash> crashes_;

  /// Sorted by descending (time, seq): next() pops the back.
  std::vector<Queued> queue_;
  std::vector<FaultAction> fault_actions_;  ///< payloads of queued kFault
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;   ///< push-order ids (events and deadlines)
  std::uint64_t next_send_ = 0;  ///< per-send channel-draw counter

  std::uint64_t transmissions_ = 0;
  std::uint64_t frames_lost_ = 0;
  std::uint64_t frames_duplicated_ = 0;
  std::uint64_t frames_died_ = 0;
  std::uint64_t frames_corrupted_ = 0;
  std::uint64_t frames_crashed_ = 0;
  std::uint64_t frames_delivered_ = 0;

  std::size_t trace_limit_ = 0;
  std::vector<std::string> trace_;
};

// Forced inline: the ARQ calls it from three sites, and GCC's size
// heuristic would otherwise keep it a call on every wire frame.
[[gnu::always_inline]] inline void EventSim::transmit(
    graph::NodeId from, graph::Port out_port, std::uint64_t frame_id) {
  const std::uint64_t event = next_send_++;
  ++transmissions_;
  if ((!crashes_.empty() || !down_.empty()) &&
      drop_at_departure(from, out_port, event, frame_id))
    return;
  const std::uint64_t link = graph_->half_edge_index(from, out_port);
  const LinkModel& m = models_.empty() ? default_model_ : model_of(link);
  // Per-(link, event) stream: the schedule is a pure function of the seed
  // and the call sequence (ROADMAP's deterministic-replay contract).  Draw
  // order is fixed: loss, latency, dup, dup-latency, THEN the corruption
  // draws — so at corrupt = 0 the stream is consumed exactly as pre-fault
  // replays did (P11).
  util::Pcg32 rng(util::counter_hash(util::counter_hash(seed_, link), event));
  if (m.loss > 0.0 && rng.next_double() < m.loss) {
    ++frames_lost_;
    if (trace_limit_ != 0) stamp(event, from, out_port, frame_id, "lost");
    return;
  }
  const SimTime at = now_ + draw_latency(m, rng);
  if (m.dup > 0.0 || m.corrupt > 0.0) {
    transmit_copies(m, rng, at, event, from, out_port, frame_id);
    return;
  }
  enqueue({at, next_seq_++ << 2, frame_id, from, out_port});
  if (trace_limit_ != 0) stamp(event, from, out_port, frame_id, "sent");
}

inline std::optional<SimEvent> EventSim::pop_before(const Deadline& d) {
  while (!queue_.empty()) {
    const Queued q = queue_.back();
    if (!(q.time < d.time || (q.time == d.time && (q.tag >> 2) < d.seq)))
      break;
    queue_.pop_back();
    now_ = q.time;
    if (q.from == kFaultFrom) {
      apply_fault(fault_actions_[q.frame_id]);
      continue;
    }
    const graph::HalfEdge far = graph_->rotate(q.from, q.from_port);
    SimEvent ev;
    ev.time = q.time;
    ev.seq = q.tag >> 2;
    ev.node = far.node;
    ev.port = far.port;
    ev.from = q.from;
    ev.from_port = q.from_port;
    ev.frame_id = q.frame_id;
    ev.duplicate = (q.tag & kDuplicate) != 0;
    ev.corrupted = (q.tag & kCorrupted) != 0;
    if ((!down_.empty() || !crashes_.empty()) && drop_at_delivery(ev))
      continue;
    ++frames_delivered_;
    if (trace_limit_ != 0) record_event("E ", ev);
    return ev;
  }
  return std::nullopt;
}

/// One-line rendering of an event ("t=12 seq=3 arr node=4 port=1 ...") —
/// the unit the replay regression tests serialize and diff.
std::string to_string(const SimEvent& ev);
/// One-line rendering of a fault action ("crash v=3", "linkdown 2.1", ...).
std::string to_string(const FaultAction& f);

}  // namespace uesr::net
