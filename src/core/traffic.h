// The traffic engine: N concurrent route / broadcast / hybrid sessions
// multiplexed over ONE shared topology on ONE shared transmission clock.
//
// Everything below this layer serves a single message end to end; the
// ROADMAP regime — heavy traffic from many users — is many messages in
// flight at once over the same (possibly churning) network, the setting
// the gossip literature (PAPERS.md) evaluates protocols in.  TrafficEngine
// supplies that regime without touching any per-node protocol logic:
//
//   * Time is slotted.  One clock tick = one transmission slot in which
//     every in-flight session may send one frame (spatially concurrent
//     radio slots; sessions never contend for airtime in this model, they
//     share fate only through the topology).  A session admitted at
//     `admit_at` transmits its k-th frame no earlier than tick
//     admit_at + k - 1; its completion tick is exact.
//   * Sessions are admitted up front (admit()) and stepped round-robin in
//     batched chunks: each round grants `batch` transmission slots, and
//     every session in flight steps through its own slot window of that
//     round — from its admission tick (or the round's start) to its
//     departure tick (or the round's end) — fanned out over a
//     util::ThreadPool.
//     Sessions are state-disjoint (each owns its walker; the topology is
//     read-only during a round), per-session randomness is derived from
//     the session id (counter_hash — never a shared stream), and reports
//     are collected in session-id order, so every report is BIT-IDENTICAL
//     for any thread count (the PR 3 convention).
//   * Each session completes with its exact per-session core::Verdict:
//     route sessions deliver or carry the §2.4 failure certificate (lossy
//     ones may end uncertified), broadcasts report their cover, hybrids
//     end with the Corollary-2 verdict (including the kExhausted
//     no-verdict state the livelock fix introduced), and open-loop users
//     may depart first.  One function in traffic.cpp writes the verdict
//     into the report at every retire site.  Static-mode certificates are
//     statements about the one shared graph; dynamic-mode certificates are
//     statements about `completion_epoch` (§2.8), with the usual §3
//     universality caveat.
//   * Dynamic mode replays a graph::Scenario on the shared clock: the
//     topology advances one scenario epoch every `epoch_period` ticks (up
//     to `max_epochs`, then freezes — so every session terminates).
//     Epochs commit strictly BETWEEN rounds; rounds are clamped to epoch
//     boundaries (the only clamp on a round's length), so all sessions
//     observe the same epoch for every slot of a round.  All sessions of
//     one engine live through one shared schedule — the production shape;
//     baselines::ChurnRouter runs each attempt as a one-session engine,
//     so every attempt replays the schedule alone (fair per-attempt
//     comparisons).
//
// One network per epoch: the engine owns ONE EpochNetwork (the degree
// reduction plus the cached T_n, below) that every session borrows.
// Static mode builds it in the constructor and it never moves — a static
// engine is a dynamic one whose epoch never commits.  Dynamic
// mode builds each epoch's network at the first round of that epoch with
// sessions to activate or in flight, and moves every in-flight session
// onto it: an arena walk re-injects at s (keeping its transmissions), a
// lossy session restart()s.  Each restart counts in the report.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/hybrid.h"
#include "core/lossy_route.h"
#include "core/route.h"
#include "explore/degree_reduce.h"
#include "explore/sequence.h"
#include "graph/churn.h"
#include "graph/dynamic.h"
#include "graph/graph.h"

namespace uesr::core {

/// One epoch's network: the snapshot's degree reduction and the cached T_n
/// sized for it.  A TrafficEngine holds one per committed epoch and every
/// session in flight borrows it.
struct EpochNetwork {
  explore::ReducedGraph reduced;
  std::shared_ptr<const explore::ExplorationSequence> seq;
  std::uint64_t epoch = 0;
};

/// Builds `snapshot`'s network: one reduce_to_cubic plus one
/// explore::cached_standard_ues lookup of family `seq_seed`.
EpochNetwork epoch_network(const graph::Graph& snapshot,
                           std::uint64_t seq_seed, std::uint64_t epoch);

enum class TrafficKind : std::uint8_t { kRoute, kBroadcast, kHybrid };

/// One admission request.  Pure data, so workload generators
/// (baselines/workload.h) can produce replayable schedules of them.
struct SessionSpec {
  TrafficKind kind = TrafficKind::kRoute;
  graph::NodeId s = 0;
  graph::NodeId t = 0;         ///< ignored for kBroadcast
  std::uint64_t admit_at = 0;  ///< clock tick the session arrives at
  /// kHybrid only: TTL of the probabilistic token (0 = unlimited).
  std::uint64_t hybrid_ttl = 0;
  /// Open-loop departures: 0 = stay until the verdict; otherwise the clock
  /// tick the user gives up and leaves (must be > admit_at).  A session
  /// still in flight at depart_at retires with NO verdict (the report's
  /// `departed` flag) — its slot window stops at depart_at, so the
  /// retirement instant is exact on the shared clock.
  std::uint64_t depart_at = 0;
};

/// One session's outcome.  The engine writes the six verdict bools below
/// together, in one settling function, so a finished report has exactly
/// one end state set; verdict() reads them back.
struct SessionReport {
  TrafficKind kind = TrafficKind::kRoute;
  graph::NodeId s = 0;
  graph::NodeId t = 0;
  bool finished = false;
  bool delivered = false;
  /// Route: a full failed walk completed (certificate; §3 caveat).
  /// Never set for broadcasts or for hybrid exhaustion.
  bool failure_certified = false;
  /// Hybrid only: both sides done without a verdict (see hybrid.h).
  bool exhausted = false;
  /// Open-loop only: the session left at its depart_at tick, still in
  /// flight — finished with no verdict (delivered / failure_certified
  /// both stay false).
  bool departed = false;
  /// Lossy mode only: some hop spent its retry budget once the schedule
  /// was frozen (always, on a static graph), so no epoch could heal it —
  /// the graceful no-verdict degradation (never a wrong certificate; see
  /// core/lossy_route.h).
  bool uncertified = false;
  std::uint64_t transmissions = 0;
  std::uint64_t admitted_at = 0;
  /// Clock tick of completion.  Perfect-link lanes complete exactly at
  /// admitted_at + transmissions; lossy lanes may overshoot the round's
  /// slot grant (one reliable hop is atomic and can burn many wire
  /// frames), so their completion tick is airtime-approximate.
  std::uint64_t completed_at = 0;
  /// Broadcast only: distinct original nodes the payload visited.
  std::uint64_t distinct_visited = 0;
  /// Dynamic mode only: epoch restarts (departed sessions count theirs
  /// too) and the epoch the verdict is about.
  std::uint64_t restarts = 0;
  std::uint64_t completion_epoch = 0;
  /// Lossy mode only: successful link transfers and ARQ behaviour
  /// (transmissions counts wire frames there, hops the walk length).
  std::uint64_t hops = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t virtual_time = 0;  ///< channel virtual time consumed

  /// The end state (kInProgress until finished).
  Verdict verdict() const {
    return !finished           ? Verdict::kInProgress
           : delivered         ? Verdict::kDelivered
           : failure_certified ? Verdict::kCertified
           : uncertified       ? Verdict::kUncertified
           : exhausted         ? Verdict::kExhausted
                               : Verdict::kDeparted;
  }

  friend bool operator==(const SessionReport&,
                         const SessionReport&) = default;
};

/// Builds the probabilistic token of a kHybrid session.  The seed is
/// derived per session id (counter_hash(walker_seed, id)); the factory
/// must be a pure function of its arguments for reports to stay
/// replayable.  core itself ships no concrete walker (that would invert
/// the layer graph); baselines::random_walk_factory() supplies the
/// standard TTL'd random walk.
using WalkerFactory = std::function<std::unique_ptr<TokenWalker>(
    const graph::Graph& g, graph::NodeId s, graph::NodeId t,
    std::uint64_t ttl, std::uint64_t seed)>;

/// Pull-based open-loop arrival stream: the engine pulls arrivals instead
/// of having them all admitted up front, so Poisson processes can feed
/// long horizons without materializing millions of specs.  next() must yield specs in NONDECREASING admit_at order (the
/// engine throws otherwise).  Each round the engine drains every arrival
/// with admit_at < clock + batch before activating the round's arrivals;
/// since a round never advances the clock by more than batch ticks, a
/// pulled admission can never land in the past, and it activates in the
/// same round with the same slot window as an up-front one, so reports
/// stay bit-identical to the equivalent admit_all() schedule.
class ArrivalSource {
 public:
  virtual ~ArrivalSource() = default;
  /// The next arrival, or nullopt when the stream is exhausted (final —
  /// the engine never asks again).
  virtual std::optional<SessionSpec> next() = 0;
};

struct TrafficOptions {
  std::uint64_t seq_seed = 0x5eed0001;  ///< T_n family seed
  /// Hybrid token streams: session id's walker is seeded
  /// counter_hash(walker_seed, id) — thread-count invariant by construction.
  std::uint64_t walker_seed = 0x7a11;
  /// Required to admit kHybrid sessions (admit() throws otherwise).
  WalkerFactory hybrid_walker;
  /// Transmission slots per round (rounds clamp to epoch boundaries in
  /// dynamic mode).  Perfect-link reports never depend on it.  Lossy
  /// reports still do: a reliable hop is atomic and may overshoot the
  /// round's slot grant, so where round boundaries fall moves completed_at
  /// and, under churn, the epoch a hop runs in.
  std::uint64_t batch = 64;
  /// Worker lanes (0 = UESR_THREADS env, else hardware).  Data cells are
  /// bit-identical for any value.
  unsigned threads = 1;
  /// Session shards for the perfect-link route fast path, static or
  /// dynamic: each shard owns a disjoint MultiWalkArena (sessions land on
  /// shard id % shards) and rounds step whole shards in parallel, one
  /// worker per shard, with the SoA block kernel.  0 = one shard per
  /// worker lane.
  /// Reports are bit-identical for ANY value (sessions are state-disjoint
  /// and the round's slot grant is computed globally), so this is purely a
  /// parallelism/locality knob — DESIGN.md §2.13.
  unsigned shards = 1;
  /// Dynamic mode: clock ticks per scenario epoch (>= 1) and schedule
  /// length; ignored in static mode.
  std::uint64_t epoch_period = 64;
  std::uint64_t max_epochs = 0;
  /// The PR 7 transport-selection seam.  Engaged: every route session is a
  /// LossyRouteSession over its OWN channel + ARQ, with net_seed and
  /// chaos_seed re-keyed counter_hash(seed, id) — state-disjoint and
  /// thread-count invariant by construction.  Route sessions only: admit()
  /// throws for broadcast/hybrid in lossy mode.
  std::optional<LossyTrafficConfig> lossy;
};

class TrafficEngine {
 public:
  /// Static mode: all sessions share `g` (which must outlive the engine)
  /// and its one network, built here.
  explicit TrafficEngine(const graph::Graph& g, TrafficOptions options = {});

  /// Dynamic mode: the engine owns a fresh replay of `scenario` and
  /// advances it on the shared clock; no network is built until a round
  /// needs one.  Route sessions only (broadcast and hybrid semantics are
  /// not defined under epoch restarts; admit() throws for them).
  TrafficEngine(const graph::Scenario& scenario, TrafficOptions options);

  ~TrafficEngine();
  TrafficEngine(const TrafficEngine&) = delete;
  TrafficEngine& operator=(const TrafficEngine&) = delete;

  /// Admits one session; returns its id (dense, in admission order).
  /// `admit_at` must be >= clock() (no admissions into the past).
  std::size_t admit(const SessionSpec& spec);
  void admit_all(const std::vector<SessionSpec>& specs);

  /// Open-loop mode: the engine pulls arrivals from `source` (which must
  /// outlive the engine) as the clock reaches them; run() drains the
  /// stream.  Composes with admit()/admit_all() — pulled arrivals are
  /// ordinary admissions.
  void attach_arrivals(ArrivalSource& source);

  /// Runs one scheduling round of min(batch, ticks to the next epoch)
  /// slots: moves the sessions in flight onto the current epoch's network
  /// (dynamic mode), activates every arrival due inside the round, steps
  /// each session in flight through its own slot window (in parallel),
  /// retires finished and departed sessions, advances the clock and — in
  /// dynamic mode — the scenario.  When no session is in flight the clock first
  /// fast-forwards to the next arrival.  Returns the number of admitted
  /// sessions not yet finished.
  std::size_t run_round();

  /// Rounds until every admitted session finished and any attached
  /// arrival stream is drained.
  void run();

  struct Lane;   ///< per-session stepper (defined in traffic.cpp)
  struct Shard;  ///< arena shard of the route fast path (traffic.cpp)

  std::uint64_t clock() const { return clock_; }
  /// Dynamic mode: the committed epoch of the shared topology (0 static).
  std::uint64_t epoch() const;
  bool dynamic() const { return dynamic_graph_ != nullptr; }

  std::size_t session_count() const { return reports_.size(); }
  std::size_t unfinished_count() const { return unfinished_; }
  const SessionReport& report(std::size_t id) const;
  /// All reports, indexed by session id (finished flag says which are
  /// complete); bit-identical for any thread count once run() returned.
  const std::vector<SessionReport>& reports() const { return reports_; }

 private:
  /// Starts every pending session due inside a round of `grant` slots
  /// (admit_at < clock + grant).
  void activate_arrivals(std::uint64_t grant);
  /// Open-loop: drains every attached-stream arrival within the next
  /// round's reach (admit_at < clock + batch) into ordinary admissions.
  void pull_arrivals();
  /// Clock ticks until the next scenario epoch (dynamic), or forever.
  std::uint64_t ticks_to_epoch() const;
  void advance_epochs_to(std::uint64_t tick);
  /// Builds the committed epoch's network unless it is current, and
  /// restarts every session in flight on it (building the arena shards
  /// with the first one).
  void sync_network();

  TrafficOptions options_;

  // Static mode: the shared graph.
  const graph::Graph* graph_ = nullptr;

  // Dynamic mode: an owned scenario replay on the shared clock.
  std::unique_ptr<graph::Scenario> scenario_;
  std::unique_ptr<graph::DynamicGraph> dynamic_graph_;
  std::uint64_t epochs_done_ = 0;
  std::uint64_t next_epoch_tick_ = 0;

  /// The network every session walks (null until the first round of a
  /// dynamic engine).
  std::unique_ptr<const EpochNetwork> net_;
  std::uint64_t clock_ = 0;
  std::vector<std::unique_ptr<Lane>> lanes_;  ///< indexed by session id
  std::vector<SessionReport> reports_;        ///< indexed by session id
  std::vector<SessionSpec> specs_;            ///< indexed by session id
  /// Route fast path: session shards, each owning a disjoint SoA arena
  /// (perfect-link mode only; empty otherwise).  arena_walk_[id] is
  /// the session's walk index inside its shard (id % shards_.size()).
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::size_t> arena_walk_;
  std::size_t arena_active_ = 0;  ///< walks in flight across all shards
  /// Open-loop stream state: the attached source, its staged (pulled but
  /// not yet due) head, and whether next() returned its final nullopt.
  ArrivalSource* arrivals_ = nullptr;
  std::optional<SessionSpec> staged_arrival_;
  bool arrivals_done_ = true;
  /// Ids of admitted-not-yet-activated sessions, in admission order (NOT
  /// sorted by admit_at): activation scans the whole list each round, and
  /// lanes are built in ascending id order among the due ids, so
  /// activation stays deterministic.
  std::vector<std::size_t> pending_;
  std::vector<std::size_t> active_;  ///< ids being stepped, ascending
  std::size_t unfinished_ = 0;
  struct PoolHolder;  ///< hides util/parallel.h from this header
  std::unique_ptr<PoolHolder> pool_;
};

}  // namespace uesr::core
