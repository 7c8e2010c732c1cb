#include "core/traffic.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/multi_walk.h"
#include "explore/sequence_cache.h"
#include "net/message.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace uesr::core {

using graph::NodeId;

EpochNetwork epoch_network(const graph::Graph& snapshot,
                           std::uint64_t seq_seed, std::uint64_t epoch) {
  EpochNetwork net{explore::reduce_to_cubic(snapshot), nullptr, epoch};
  // Every walk over the same snapshot size shares one T_n via the
  // process-wide cache.
  net.seq = explore::cached_standard_ues(
      std::max<graph::NodeId>(net.reduced.cubic.num_nodes(), 1), seq_seed);
  return net;
}

namespace {
constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/// A session's slot window [start, stop) within the round of `grant` slots
/// that starts at tick `clock`: it opens at the session's admission tick
/// and closes at its departure tick or at the end of the round.
struct SlotWindow {
  std::uint64_t start;
  std::uint64_t stop;
  bool departs;  ///< stop is the departure tick: unfinished => departed
};

SlotWindow slot_window(const SessionSpec& spec, std::uint64_t clock,
                       std::uint64_t grant) {
  SlotWindow w{spec.admit_at > clock ? spec.admit_at - clock : 0, grant,
               false};
  // An in-flight session always departs after `clock`: it retires in the
  // round its departure tick falls in.
  if (spec.depart_at != 0 && spec.depart_at - clock <= grant) {
    w.stop = spec.depart_at - clock;
    w.departs = true;
  }
  return w;
}

/// Retires `r` with end state `v` (never kInProgress) after `transmissions`
/// frames at tick `completed_at`.  The one writer of a report's verdict
/// bools, shared by all five retire sites (s == t, arena finish and
/// departure, scalar finish and departure).  A verdict is about `epoch`;
/// a departure names none.
void settle(SessionReport& r, Verdict v, std::uint64_t transmissions,
            std::uint64_t completed_at, std::uint64_t epoch) {
  r.finished = true;
  r.delivered = v == Verdict::kDelivered;
  r.failure_certified = v == Verdict::kCertified;
  r.uncertified = v == Verdict::kUncertified;
  r.exhausted = v == Verdict::kExhausted;
  r.departed = v == Verdict::kDeparted;
  r.transmissions = transmissions;
  r.completed_at = completed_at;
  if (v != Verdict::kDeparted) r.completion_epoch = epoch;
}
}  // namespace

/// Per-session stepper.  step() performs at most one transmission (free
/// bookkeeping steps exist: the Route terminate step, hybrid decision
/// checks).  Lanes are state-disjoint: parallel rounds touch each lane
/// from exactly one worker and the shared topology is read-only.
struct TrafficEngine::Lane {
  virtual ~Lane() = default;
  virtual void step() = 0;
  /// kInProgress until the session ends, then its end state.
  virtual Verdict verdict() const = 0;
  bool finished() const { return verdict() != Verdict::kInProgress; }
  virtual std::uint64_t transmissions() const = 0;
  /// Writes the lane's own counters (never the verdict) once finished().
  virtual void record(SessionReport& /*r*/) const {}
  /// Lossy only: the session spent a retry budget and sleeps until the
  /// next epoch (stepping it is free and futile).
  virtual bool blocked() const { return false; }
  /// Lossy only: the schedule is frozen — resolve a blocked session to its
  /// no-verdict end state (no-op unless blocked).
  virtual void give_up() {}
  /// Lossy only (the one scalar lane dynamic mode runs): the epoch moved,
  /// walk `net` from s.
  virtual void restart(const EpochNetwork& /*net*/) {}
};

namespace {

/// Static-mode broadcast: one kBroadcast walk plus the cover bitmap
/// (mirrors UesRouter::broadcast, spread over slots).
struct BroadcastLane final : TrafficEngine::Lane {
  RouteSession session;
  std::vector<char> visited;
  std::uint64_t distinct = 0;

  BroadcastLane(const explore::ReducedGraph& net,
                const explore::ExplorationSequence& seq, NodeId s)
      : session(net, seq, s, net::kNoTarget),
        visited(net.first_gadget.size(), 0) {
    visit(s);
  }
  void visit(NodeId original) {
    if (!visited[original]) {
      visited[original] = 1;
      ++distinct;
    }
  }
  void step() override {
    session.step();
    if (!session.finished()) visit(session.current_original());
  }
  // A completed broadcast delivered to everything reachable (when the
  // sequence covers); there is no failure verdict to certify.
  Verdict verdict() const override {
    return session.finished() ? Verdict::kDelivered : Verdict::kInProgress;
  }
  std::uint64_t transmissions() const override {
    return session.transmissions();
  }
  void record(SessionReport& r) const override {
    r.distinct_visited = distinct;
  }
};

/// Static-mode Corollary-2 hybrid: an injected probabilistic token
/// interleaved with a guaranteed walk via the resumable HybridSession.
struct HybridLane final : TrafficEngine::Lane {
  std::unique_ptr<TokenWalker> prob;
  RouteSession guar;
  HybridSession hybrid;

  HybridLane(std::unique_ptr<TokenWalker> walker,
             const explore::ReducedGraph& net,
             const explore::ExplorationSequence& seq, NodeId s, NodeId t)
      : prob(std::move(walker)), guar(net, seq, s, t),
        hybrid(*prob, guar) {}
  void step() override { hybrid.step(); }
  Verdict verdict() const override {
    return hybrid.finished() ? hybrid.result().verdict()
                             : Verdict::kInProgress;
  }
  std::uint64_t transmissions() const override {
    return prob->transmissions() + guar.transmissions();
  }
};

/// Lossy route, static or dynamic: one private channel + ARQ per session
/// over the engine's network.  State-disjoint by construction — each lane
/// owns its EventSim — so parallel rounds stay bit-identical for any
/// thread count.
struct LossyRouteLane final : TrafficEngine::Lane {
  LossyRouteSession session;

  LossyRouteLane(const EpochNetwork& net, NodeId s, NodeId t,
                 LossyTrafficConfig cfg)
      : session(net.reduced, *net.seq, s, t, std::move(cfg), net.epoch) {}
  void step() override { session.step(); }
  Verdict verdict() const override { return session.verdict(); }
  std::uint64_t transmissions() const override {
    return session.wire_frames();
  }
  bool blocked() const override { return session.blocked(); }
  void give_up() override { session.give_up(); }
  void restart(const EpochNetwork& net) override {
    session.restart(net.reduced, *net.seq, net.epoch);
  }
  void record(SessionReport& r) const override {
    r.hops = session.hops();
    const ArqStats st = session.arq_stats();
    r.retransmits = st.retransmits;
    r.virtual_time = st.virtual_time;
  }
};

}  // namespace

struct TrafficEngine::PoolHolder {
  util::ThreadPool pool;
  explicit PoolHolder(unsigned threads) : pool(threads) {}
};

/// One shard of the perfect-link route fast path: a disjoint SoA arena
/// plus its in-flight session ids.  A round steps each shard from
/// exactly one worker (parallel_for over shards, chunk 1), and every
/// per-session outcome is independent of which shard the session landed
/// on, so reports are bit-identical for any shard count.
struct TrafficEngine::Shard {
  MultiWalkArena arena;
  std::vector<std::size_t> active;        ///< session ids, ascending
  std::vector<std::size_t> walks;         ///< scratch: walk per active id
  std::vector<std::uint64_t> budgets;     ///< scratch: slots per walk
  std::vector<std::uint64_t> tx_before;   ///< scratch: round tx baseline
  Shard(const explore::ReducedGraph& net,
        const explore::ExplorationSequence& seq)
      : arena(net, seq) {}
};

TrafficEngine::TrafficEngine(const graph::Graph& g, TrafficOptions options)
    : options_(options), graph_(&g) {
  if (options_.batch == 0)
    throw std::invalid_argument("TrafficEngine: batch >= 1");
  pool_ = std::make_unique<PoolHolder>(options_.threads);
  sync_network();
}

TrafficEngine::TrafficEngine(const graph::Scenario& scenario,
                             TrafficOptions options)
    : options_(options), scenario_(scenario.fresh()) {
  if (options_.batch == 0)
    throw std::invalid_argument("TrafficEngine: batch >= 1");
  if (options_.max_epochs > 0 && options_.epoch_period == 0)
    throw std::invalid_argument("TrafficEngine: epoch_period >= 1");
  dynamic_graph_ =
      std::make_unique<graph::DynamicGraph>(scenario_->initial());
  next_epoch_tick_ = options_.epoch_period;
  pool_ = std::make_unique<PoolHolder>(options_.threads);
}

TrafficEngine::~TrafficEngine() = default;

std::uint64_t TrafficEngine::epoch() const {
  return dynamic_graph_ ? dynamic_graph_->epoch() : 0;
}

std::size_t TrafficEngine::admit(const SessionSpec& spec) {
  const NodeId n =
      graph_ ? graph_->num_nodes() : dynamic_graph_->num_nodes();
  if (spec.s >= n)
    throw std::invalid_argument("TrafficEngine::admit: source out of range");
  if (spec.kind != TrafficKind::kBroadcast && spec.t >= n)
    throw std::invalid_argument("TrafficEngine::admit: target out of range");
  if (dynamic() && spec.kind != TrafficKind::kRoute)
    throw std::invalid_argument(
        "TrafficEngine::admit: dynamic mode multiplexes route sessions "
        "only (broadcast/hybrid semantics are per-epoch)");
  if (options_.lossy && spec.kind != TrafficKind::kRoute)
    throw std::invalid_argument(
        "TrafficEngine::admit: lossy mode multiplexes route sessions only "
        "(broadcast/hybrid have no reliable-transfer semantics yet)");
  if (spec.kind == TrafficKind::kHybrid && !options_.hybrid_walker)
    throw std::invalid_argument(
        "TrafficEngine::admit: kHybrid needs TrafficOptions::hybrid_walker "
        "(e.g. baselines::random_walk_factory())");
  if (spec.admit_at < clock_)
    throw std::invalid_argument(
        "TrafficEngine::admit: admit_at is in the past");
  if (spec.depart_at != 0 && spec.depart_at <= spec.admit_at)
    throw std::invalid_argument(
        "TrafficEngine::admit: depart_at must be > admit_at");
  const std::size_t id = reports_.size();
  SessionReport r;
  r.kind = spec.kind;
  r.s = spec.s;
  r.t = spec.kind == TrafficKind::kBroadcast ? net::kNoTarget : spec.t;
  r.admitted_at = spec.admit_at;
  reports_.push_back(r);
  lanes_.push_back(nullptr);  // built at activation (dynamic lanes must
                              // see the epoch they arrive in)
  specs_.push_back(spec);
  arena_walk_.push_back(static_cast<std::size_t>(-1));
  pending_.push_back(id);
  ++unfinished_;
  return id;
}

void TrafficEngine::attach_arrivals(ArrivalSource& source) {
  arrivals_ = &source;
  arrivals_done_ = false;
}

void TrafficEngine::pull_arrivals() {
  if (arrivals_done_ && !staged_arrival_) return;
  for (;;) {
    if (!staged_arrival_) {
      if (arrivals_done_) return;
      staged_arrival_ = arrivals_->next();
      if (!staged_arrival_) {
        arrivals_done_ = true;
        return;
      }
    }
    // Anything beyond this round's reach stays staged; since rounds
    // advance the clock by at most batch ticks, the staged arrival can
    // never slip into the past.  admit() enforces nondecreasing streams
    // (an out-of-order arrival is "in the past" by construction).
    if (staged_arrival_->admit_at >= clock_ + options_.batch) return;
    admit(*staged_arrival_);
    staged_arrival_.reset();
  }
}

void TrafficEngine::admit_all(const std::vector<SessionSpec>& specs) {
  for (const SessionSpec& s : specs) admit(s);
}

void TrafficEngine::activate_arrivals(std::uint64_t grant) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const std::size_t id = pending_[i];
    if (reports_[id].admitted_at >= clock_ + grant) {
      pending_[kept++] = id;
      continue;
    }
    const SessionSpec& spec = specs_[id];
    // Route fast path: perfect-link kRoute sessions land on a SoA arena
    // shard (id % shards) instead of a scalar lane; the degenerate s == t
    // session never transmits and completes at activation.
    if (!shards_.empty() && spec.kind == TrafficKind::kRoute) {
      if (spec.s == spec.t) {
        settle(reports_[id], Verdict::kDelivered, 0, spec.admit_at,
               net_->epoch);
        --unfinished_;
      } else {
        Shard& sh = *shards_[id % shards_.size()];
        arena_walk_[id] = sh.arena.admit(spec.s, spec.t);
        sh.active.push_back(id);
        ++arena_active_;
      }
      continue;
    }
    if (options_.lossy) {
      // Per-session streams: the session keys each one per epoch.
      LossyTrafficConfig cfg = *options_.lossy;
      cfg.net_seed = util::counter_hash(cfg.net_seed, id);
      cfg.chaos_seed = util::counter_hash(cfg.chaos_seed, id);
      lanes_[id] = std::make_unique<LossyRouteLane>(*net_, spec.s, spec.t,
                                                    std::move(cfg));
    } else if (spec.kind == TrafficKind::kBroadcast) {
      lanes_[id] =
          std::make_unique<BroadcastLane>(net_->reduced, *net_->seq, spec.s);
    } else {  // kHybrid (static only; perfect-link kRoute took the arena)
      lanes_[id] = std::make_unique<HybridLane>(
          options_.hybrid_walker(*graph_, spec.s, spec.t, spec.hybrid_ttl,
                                 util::counter_hash(options_.walker_seed, id)),
          net_->reduced, *net_->seq, spec.s, spec.t);
    }
    active_.push_back(id);
  }
  pending_.resize(kept);
  std::sort(active_.begin(), active_.end());
}

std::uint64_t TrafficEngine::ticks_to_epoch() const {
  if (!dynamic() || epochs_done_ >= options_.max_epochs) return kNever;
  return next_epoch_tick_ - clock_;
}

void TrafficEngine::advance_epochs_to(std::uint64_t tick) {
  while (dynamic() && epochs_done_ < options_.max_epochs &&
         next_epoch_tick_ <= tick) {
    scenario_->advance(*dynamic_graph_);
    ++epochs_done_;
    next_epoch_tick_ += options_.epoch_period;
  }
}

void TrafficEngine::sync_network() {
  if (net_ && net_->epoch == epoch()) return;
  auto next = std::make_unique<const EpochNetwork>(epoch_network(
      graph_ ? *graph_ : dynamic_graph_->snapshot(), options_.seq_seed,
      epoch()));
  if (!options_.lossy && shards_.empty()) {
    const unsigned shard_count =
        options_.shards ? options_.shards : pool_->pool.size();
    shards_.reserve(shard_count);
    for (unsigned i = 0; i < shard_count; ++i)
      shards_.push_back(
          std::make_unique<Shard>(next->reduced, *next->seq));
  } else {
    // The epoch moved: every session in flight re-injects at s on the new
    // network (§2.8), serially, so restarts stay thread-count invariant.
    for (auto& sh : shards_) {
      sh->arena.rebind(next->reduced, *next->seq);
      for (std::size_t id : sh->active) {
        sh->arena.restart(arena_walk_[id], specs_[id].s, specs_[id].t);
        ++reports_[id].restarts;
      }
    }
    for (std::size_t id : active_) {
      lanes_[id]->restart(*next);
      ++reports_[id].restarts;
    }
  }
  net_ = std::move(next);  // only now may the old network go
}

std::size_t TrafficEngine::run_round() {
  advance_epochs_to(clock_);
  pull_arrivals();
  if (active_.empty() && arena_active_ == 0) {
    if (pending_.empty()) {
      // Open loop: nothing in flight and nothing scheduled — stage the
      // next stream arrival (possibly far beyond this round's reach) so
      // the idle fast-forward below has a tick to jump to.
      if (!staged_arrival_ && !arrivals_done_) {
        staged_arrival_ = arrivals_->next();
        if (!staged_arrival_) arrivals_done_ = true;
      }
      if (!staged_arrival_) return unfinished_;
      admit(*staged_arrival_);
      staged_arrival_.reset();
    }
    // Idle gap: fast-forward to the next arrival, crossing any scenario
    // epochs scheduled in between.
    std::uint64_t next = kNever;
    for (std::size_t id : pending_)
      next = std::min(next, reports_[id].admitted_at);
    clock_ = next;
    advance_epochs_to(clock_);
    pull_arrivals();
  }
  // The round grants `batch` slots, clamped only so no session steps
  // across a scenario-epoch boundary.  Arrivals and departures inside the
  // round do not clamp it: each session steps in its own slot window (see
  // slot_window).  The grant reads global state only, so it — and with it
  // every report — is identical for any thread/shard count.
  const std::uint64_t grant = std::min(options_.batch, ticks_to_epoch());
  // Lazily: only a round with sessions to activate or in flight gets here.
  sync_network();
  activate_arrivals(grant);
  // Once the epoch schedule froze (a static graph never had one), no
  // blocked lossy session can ever heal.
  const bool frozen = ticks_to_epoch() == kNever;
  const std::uint64_t epoch = net_->epoch;

  util::ThreadPool& pool = pool_->pool;
  // Arena phase: whole shards in parallel, one worker per shard; inside a
  // shard the SoA kernel block-steps every in-flight walk through its own
  // slot window.
  if (arena_active_ > 0) {
    util::parallel_for(
        pool, shards_.size(), 1, [&](const util::ChunkRange& c) {
          for (std::uint64_t si = c.begin; si < c.end; ++si) {
            Shard& sh = *shards_[static_cast<std::size_t>(si)];
            const std::size_t m = sh.active.size();
            if (m == 0) continue;
            sh.walks.resize(m);
            sh.budgets.resize(m);
            sh.tx_before.resize(m);
            for (std::size_t k = 0; k < m; ++k) {
              const SlotWindow win =
                  slot_window(specs_[sh.active[k]], clock_, grant);
              sh.walks[k] = arena_walk_[sh.active[k]];
              sh.budgets[k] = win.stop - win.start;
              sh.tx_before[k] = sh.arena.transmissions(sh.walks[k]);
            }
            sh.arena.step_block(sh.walks.data(), m, sh.budgets.data());
            for (std::size_t k = 0; k < m; ++k) {
              const std::size_t id = sh.active[k];
              const std::size_t w = sh.walks[k];
              const SlotWindow win = slot_window(specs_[id], clock_, grant);
              if (sh.arena.finished(w)) {
                const std::uint64_t tx = sh.arena.transmissions(w);
                settle(reports_[id],
                       sh.arena.delivered(w) ? Verdict::kDelivered
                                             : Verdict::kCertified,
                       tx, clock_ + win.start + (tx - sh.tx_before[k]),
                       epoch);
              } else if (win.departs) {
                settle(reports_[id], Verdict::kDeparted,
                       sh.arena.transmissions(w), specs_[id].depart_at,
                       epoch);
              }
            }
          }
        });
  }
  const std::uint64_t n = active_.size();
  util::parallel_for(
      pool, n, util::default_chunk(n, pool.size()),
      [&](const util::ChunkRange& c) {
        for (std::uint64_t i = c.begin; i < c.end; ++i) {
          const std::size_t id = active_[static_cast<std::size_t>(i)];
          Lane& lane = *lanes_[id];
          const SlotWindow win = slot_window(specs_[id], clock_, grant);
          const std::uint64_t budget = win.stop - win.start;
          std::uint64_t used = 0;
          // Free steps (terminate, hybrid decisions) never repeat
          // unboundedly; a lane that makes no progress within this many
          // step calls is a bug, never a verdict.  A blocked lossy session
          // sleeps out the round (stepping it is a no-op until its epoch
          // moves).
          std::uint64_t calls = 2 * budget + 8;
          while (!lane.finished() && !lane.blocked() && used < budget) {
            if (calls-- == 0)
              throw std::logic_error(
                  "TrafficEngine: session " + std::to_string(id) +
                  " made no progress in " + std::to_string(2 * budget + 8) +
                  " step calls");
            const std::uint64_t before = lane.transmissions();
            lane.step();
            used += lane.transmissions() - before;
          }
          // A frozen schedule resolves a blocked session to its
          // no-verdict end state at the tick its budget ran out, so run()
          // terminates — degrading, never falsely certifying.
          if (frozen) lane.give_up();
          SessionReport& r = reports_[id];
          if (lane.finished()) {
            settle(r, lane.verdict(), lane.transmissions(),
                   clock_ + win.start + used, epoch);
            lane.record(r);
          } else if (win.departs) {
            settle(r, Verdict::kDeparted, lane.transmissions(),
                   specs_[id].depart_at, epoch);
          }
        }
      });
  clock_ += grant;
  // Serial sweep in id order: retire finished lanes, free their state.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const std::size_t id = active_[i];
    if (reports_[id].finished) {
      lanes_[id].reset();
      --unfinished_;
    } else {
      active_[kept++] = id;
    }
  }
  active_.resize(kept);
  // Arena walks retire by list compaction only; their SoA rows stay.
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    kept = 0;
    for (std::size_t i = 0; i < sh.active.size(); ++i) {
      const std::size_t id = sh.active[i];
      if (reports_[id].finished) {
        --unfinished_;
        --arena_active_;
      } else {
        sh.active[kept++] = id;
      }
    }
    sh.active.resize(kept);
  }
  return unfinished_;
}

void TrafficEngine::run() {
  while (unfinished_ > 0 || staged_arrival_ || !arrivals_done_) run_round();
}

const SessionReport& TrafficEngine::report(std::size_t id) const {
  if (id >= reports_.size())
    throw std::out_of_range("TrafficEngine::report: bad session id");
  return reports_[id];
}

}  // namespace uesr::core
