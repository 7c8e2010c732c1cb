// Algorithm Route over an asynchronous lossy channel — and exactly what
// its certificates still mean there (DESIGN.md §2.10, §2.11).
//
// The per-node logic is untouched: LossyRouteSession drives the same pure
// `route_node_step` as the perfect-link RouteSession, but every hop goes
// through a reliable ARQ transfer (net::WindowTransport) instead of a
// guaranteed Transport::send.  ArqKind picks its shape:
//
//   * ArqKind::kStopAndWait     — the window-1 preset, one frame per
//     message, one frame per RTT;
//   * ArqKind::kSelectiveRepeat — `config.window` as given, a sliding
//     window of `frames_per_message` frames per hop (the pipelined layer
//     E14 measures against stop-and-wait).
//
// Because a reliable transfer either proves exactly-once far-end
// processing or admits ignorance, the session's walk, whenever it
// completes, is BIT-IDENTICAL to the lossless walk — and its core::Verdict
// (core/route.h) is one of three, each with exact semantics:
//
//   * kDelivered   — every forward hop and every backward-confirmation hop
//                    was acked: t really processed the payload and s holds
//                    the proof.  SOUND under any loss / duplication /
//                    one-sided-link regime.
//   * kCertified   — a full walk exhausted its sequence and rewound to s,
//                    every hop acked: the §2.4 certificate stands exactly
//                    as on perfect links (t provably not in s's component,
//                    universality caveat as ever).  SOUND whenever
//                    emitted — loss can only make it rarer, never wrong.
//   * kUncertified — some hop spent its retry budget.  The sender side
//                    knows nothing (the two-generals gap: the data or its
//                    ack may be the lost half), so the session asserts
//                    nothing — NOT a failure certificate.  This is the
//                    degradation bounded retransmission buys: certificates
//                    stay sound, they just stop being guaranteed-available.
//
// Cost: with retry budget R, a walk of h hops spends at most
// (R + 1) * h DATA copies per frame plus the acks — the bounded-retransmit
// overhead E13/E14 measure against flooding and gossip.
//
// The same session composes this with churn (links flapping in the
// topology AND dropping frames in the channel, in one replayable
// scenario): its owner restart()s it onto each new epoch's network, and a
// static session is simply epoch 0 of a network that never moves — one
// channel builder, one hop, one step.
#pragma once

#include <cstdint>
#include <optional>

#include "core/route.h"
#include "explore/degree_reduce.h"
#include "explore/sequence.h"
#include "net/faults.h"
#include "net/window.h"

namespace uesr::core {

/// The shape of the ARQ that carries each hop.  Both run on
/// net::WindowTransport with the retry budget and initial RTO of
/// LossyTrafficConfig::window:
///   * kStopAndWait — window 1 and one frame per message (the `window` and
///     `frames_per_message` fields of LossyTrafficConfig::window are
///     ignored);
///   * kSelectiveRepeat — LossyTrafficConfig::window exactly as given.
enum class ArqKind : std::uint8_t { kStopAndWait, kSelectiveRepeat };

/// Per-transfer/behavioural counters the ARQ surfaces, folded over the
/// whole session (satellite: benches assert on retransmission behaviour,
/// not only outcomes).
struct ArqStats {
  std::uint64_t retransmits = 0;   ///< timeout-driven resends
  std::uint64_t backoffs = 0;      ///< RTO doublings applied
  std::uint64_t rtt_samples = 0;   ///< clean Karn samples taken
  net::SimTime srtt = 0;           ///< smoothed RTT at session end
  net::SimTime rto = 0;            ///< working RTO at session end
  net::SimTime virtual_time = 0;   ///< channel time the session consumed
  friend bool operator==(const ArqStats&, const ArqStats&) = default;
};

/// The one lossy option struct: the channel + ARQ every hop runs over,
/// for a standalone session and for TrafficOptions::lossy alike (the
/// engine re-keys net_seed and chaos_seed per session id).  Every stream
/// is keyed per epoch — counter_hash(seed, epoch), epoch 0 for a static
/// session — so a session is a pure function of (config, schedule).
struct LossyTrafficConfig {
  net::LinkModel link{};        ///< channel model of every link
  net::WindowOptions window{};  ///< ARQ budgets, timeouts; shape (SR only)
  ArqKind arq = ArqKind::kStopAndWait;
  /// Channel randomness: epoch e's channel is seeded
  /// counter_hash(net_seed, e).
  std::uint64_t net_seed = 0x5eed0007;
  /// P(one directed cubic half-edge is down), drawn per epoch from
  /// counter_hash(net_seed ^ 0x1e51ded, epoch) — a stream of its own, so
  /// the flips never perturb frame schedules.  In [0, 1]; 0 disables.
  double one_sided_down = 0.0;
  /// Fault schedule armed into EVERY epoch's fresh channel (crash windows,
  /// brownouts, corruption bursts — DESIGN.md §2.12; plan times are in
  /// per-epoch virtual time).  A hop that spends its budget against a
  /// crashed node degrades — never a wrong certificate.
  net::FaultPlan faults{};
  /// When set, each epoch additionally arms a plan SAMPLED from
  /// FaultPlan::sample(epoch cubic, *chaos, counter_hash(chaos_seed,
  /// epoch)) — churn, loss, and chaos composed in one replayable schedule.
  std::optional<net::ChaosConfig> chaos{};
  std::uint64_t chaos_seed = 0x5eedc4a0;  ///< chaos sampling randomness
};

/// Resumable lossy routing: each step() performs one reliable hop (or the
/// free terminate step that ends a walk).
///
/// A session walks one epoch's network over that epoch's channel.  Under
/// churn its owner moves it to the next epoch with restart() (the §2.8
/// rule of core/traffic.h's dynamic mode), so every completed walk ran
/// entirely within one epoch over one channel: kDelivered / kCertified are
/// exact statements about completion_epoch().  A hop that spends its retry
/// budget does NOT end the session (under churn the link may heal): it
/// goes `blocked()` and waits for the next epoch, the dynamic face of the
/// ChurnRouter wait rule.  The owner (TrafficEngine,
/// or a test loop) calls give_up() once no epoch can come — a static
/// network never has one — and only then does the verdict become
/// kUncertified.
class LossyRouteSession {
 public:
  /// `net` and `seq` must outlive the session, or its next restart() (the
  /// same contract as RouteSession); t == net::kNoTarget broadcasts.
  /// `epoch` keys the channel's streams: 0 for a static network.
  LossyRouteSession(const explore::ReducedGraph& net,
                    const explore::ExplorationSequence& seq, graph::NodeId s,
                    graph::NodeId t, LossyTrafficConfig cfg = {},
                    std::uint64_t epoch = 0);
  LossyRouteSession(const LossyRouteSession&) = delete;
  LossyRouteSession& operator=(const LossyRouteSession&) = delete;

  /// One reliable hop against the current epoch.  No-op once finished()
  /// or while blocked().
  void step();
  /// Drives to completion on the current network and returns the verdict.
  /// No epoch can come during run(), so a blocked session gives up.
  Verdict run();
  /// The epoch moved: discards the walk and its channel (their frames
  /// stay counted) and re-injects at s on `net`/`seq` over a fresh channel
  /// keyed by `epoch`, clearing blocked().  Counts one restart.  `net`
  /// must have the same original nodes.  No-op once finished().
  /// The fresh channel costs O(1) in the reduction — the simulator holds
  /// no per-node or per-link table — plus the faults it arms; only a set
  /// `chaos` (FaultPlan::sample) or `one_sided_down` (one draw per
  /// half-edge) still walks the whole reduction per epoch.
  void restart(const explore::ReducedGraph& net,
               const explore::ExplorationSequence& seq, std::uint64_t epoch);

  bool finished() const { return verdict_ != Verdict::kInProgress; }
  /// kDelivered, kCertified or kUncertified once finished().
  Verdict verdict() const { return verdict_; }

  /// A hop spent its retry budget on this epoch's channel: the session
  /// sleeps until restart() or give_up().  Never true once finished().
  bool blocked() const { return blocked_; }
  /// The owner promises no further epoch will come (schedule frozen): a
  /// blocked session resolves to kUncertified; an in-flight one keeps
  /// stepping (the frozen topology still lets it finish).  No-op unless
  /// blocked.
  void give_up();

  /// A forward walk reached t (even if the confirmation later aborted —
  /// an uncertified session may still have delivered the payload; only the
  /// PROOF is missing).
  bool target_reached() const { return target_reached_; }

  /// Successful link transfers (== the lossless walk's transmissions, when
  /// a static session completes).
  std::uint64_t hops() const { return hops_; }
  /// Every DATA/ACK copy put on the wire, lost and duplicate-spawning
  /// copies included — discarded epochs' channels too.
  std::uint64_t wire_frames() const;
  /// Retransmission behaviour folded over the whole session.
  ArqStats arq_stats() const;

  /// The current epoch's simulator, for per-link model overrides and
  /// one-sided flips BEFORE stepping (restart() builds a fresh one).
  /// Throws std::logic_error for an s == t session, which opens no
  /// channel.
  net::EventSim& sim();

  std::uint64_t restarts() const { return restarts_; }
  /// Epoch the verdict is about (0 on a static network); meaningful once
  /// finished().
  std::uint64_t completion_epoch() const { return completion_epoch_; }

 private:
  /// Builds the channel for session_epoch_ and restarts the walk.
  void open_epoch();
  net::Arrival reliable_hop(graph::NodeId from, graph::Port out_port,
                            bool& ok);

  /// The epoch's reduction and T_n (borrowed).
  const explore::ReducedGraph* net_ = nullptr;
  const explore::ExplorationSequence* seq_ = nullptr;
  graph::NodeId s_, t_;
  LossyTrafficConfig cfg_;
  std::optional<net::WindowTransport> arq_;  ///< the epoch's ARQ carrier
  net::Header header_;
  net::Arrival at_{};
  graph::NodeId start_gadget_ = 0;
  bool injected_ = false;
  bool target_reached_ = false;
  bool blocked_ = false;
  Verdict verdict_ = Verdict::kInProgress;
  std::uint64_t hops_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t session_epoch_ = 0;  ///< epoch the in-flight walk runs in
  std::uint64_t completion_epoch_ = 0;
  /// Wire frames / stats of discarded epochs' channels (they were really
  /// sent), plus the live channel's folded ARQ counters.
  std::uint64_t carried_frames_ = 0;
  ArqStats stats_;
};

}  // namespace uesr::core
