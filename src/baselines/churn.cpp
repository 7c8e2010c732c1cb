#include "baselines/churn.h"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <vector>

#include "core/traffic.h"
#include "graph/algorithms.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace uesr::baselines {

using graph::NodeId;
using graph::Port;

/// One replay of the schedule plus the shared churn clock.
struct ChurnRouter::Replay {
  std::unique_ptr<graph::Scenario> sc;
  graph::DynamicGraph g;
  std::uint64_t period, max_epochs;
  std::uint64_t ticks = 0;
  std::uint64_t since = 0;  ///< transmissions since the last epoch

  Replay(const graph::Scenario& scenario, std::uint64_t period_,
         std::uint64_t max_epochs_)
      : sc(scenario.fresh()), g(sc->initial()), period(period_),
        max_epochs(max_epochs_) {}

  /// The clock: one transmission elapsed; maybe advance the schedule.
  void tx_tick() {
    if (++since >= period && ticks < max_epochs) {
      since = 0;
      sc->advance(g);
      ++ticks;
    }
  }

  /// A router that cannot transmit forfeits the rest of this epoch and
  /// waits for the next; false when the schedule is over (frozen forever).
  bool wait_for_epoch() {
    if (ticks >= max_epochs) return false;
    since = 0;
    sc->advance(g);
    ++ticks;
    return true;
  }
};

ChurnRouter::ChurnRouter(const graph::Scenario& scenario,
                         std::uint64_t period, std::uint64_t max_epochs)
    : scenario_(&scenario), period_(period), max_epochs_(max_epochs) {
  if (period == 0)
    throw std::invalid_argument("ChurnRouter: period >= 1");
}

ChurnAttempt ChurnRouter::route_ues(NodeId s, NodeId t,
                                    std::uint64_t seq_seed) const {
  // One session alone on the engine's shared clock: one tick per
  // transmission, so its epochs advance exactly like this harness's.  A
  // pool of one lane spawns no thread (churn_experiment's fan-out stays
  // the only one), and a large batch lets a walk on the frozen schedule
  // run its certificate in a few rounds.
  core::TrafficOptions o;
  o.seq_seed = seq_seed;
  o.epoch_period = period_;
  o.max_epochs = max_epochs_;
  o.threads = 1;
  o.batch = std::uint64_t{1} << 20;
  core::TrafficEngine engine(*scenario_, o);
  engine.admit({core::TrafficKind::kRoute, s, t});
  engine.run();
  const core::SessionReport& r = engine.report(0);
  ChurnAttempt a;
  a.delivered = r.delivered;
  a.failure_certified = r.failure_certified;
  a.transmissions = r.transmissions;
  a.ticks = std::min(max_epochs_, r.transmissions / period_);
  a.restarts = r.restarts;
  a.completion_epoch = r.completion_epoch;
  return a;
}

ChurnAttempt ChurnRouter::route_random_walk(NodeId s, NodeId t,
                                            std::uint64_t ttl,
                                            std::uint64_t seed) const {
  if (ttl == 0)
    throw std::invalid_argument("ChurnRouter::route_random_walk: ttl > 0");
  Replay r(*scenario_, period_, max_epochs_);
  if (s >= r.g.num_nodes() || t >= r.g.num_nodes())
    throw std::invalid_argument(
        "ChurnRouter::route_random_walk: node out of range");
  util::Pcg32 rng(seed);
  ChurnAttempt a;
  NodeId cur = s;
  a.delivered = cur == t;
  while (!a.delivered && a.transmissions < ttl) {
    const graph::Graph& g = r.g.snapshot();
    const Port deg = g.degree(cur);
    if (deg == 0) {
      // Stranded (isolated by churn, or the source started isolated): no
      // frame can be sent, so no transmission is charged — the walker
      // sleeps until the topology changes, and exhausts when it never
      // will.  This is the dynamic face of the RandomWalkSession fix.
      if (!r.wait_for_epoch()) break;
      continue;
    }
    cur = g.neighbor(cur, static_cast<Port>(rng.next_below(deg)));
    ++a.transmissions;
    r.tx_tick();
    a.delivered = cur == t;
  }
  a.ticks = r.ticks;
  a.completion_epoch = r.g.epoch();
  return a;
}

ChurnAttempt ChurnRouter::route_flooding(NodeId s, NodeId t) const {
  Replay r(*scenario_, period_, max_epochs_);
  if (s >= r.g.num_nodes() || t >= r.g.num_nodes())
    throw std::invalid_argument(
        "ChurnRouter::route_flooding: node out of range");
  ChurnAttempt a;
  std::vector<char> seen(r.g.num_nodes(), 0);
  std::deque<NodeId> frontier{s};
  seen[s] = 1;
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop_front();
    // v retransmits once, over its ports in the epoch it transmits in.
    const graph::Graph& g = r.g.snapshot();
    const Port deg = g.degree(v);
    for (Port p = 0; p < deg; ++p) {
      const NodeId w = g.neighbor(v, p);
      if (!seen[w]) {
        seen[w] = 1;
        frontier.push_back(w);
      }
    }
    a.transmissions += deg;
    for (Port p = 0; p < deg; ++p) r.tx_tick();
  }
  a.delivered = seen[t] != 0;
  // Never certified: a link appearing behind the wave re-connects t to
  // nodes that will not retransmit again, so "the wave died out" proves
  // nothing about the final topology.
  a.ticks = r.ticks;
  a.completion_epoch = r.g.epoch();
  return a;
}

ChurnAttempt ChurnRouter::route_gossip(NodeId s, NodeId t, double loss,
                                       double p, std::uint64_t seed) const {
  if (!(loss >= 0.0 && loss <= 1.0))
    throw std::invalid_argument("ChurnRouter::route_gossip: loss in [0, 1]");
  if (!(p >= 0.0 && p <= 1.0))
    throw std::invalid_argument("ChurnRouter::route_gossip: p in [0, 1]");
  Replay r(*scenario_, period_, max_epochs_);
  if (s >= r.g.num_nodes() || t >= r.g.num_nodes())
    throw std::invalid_argument(
        "ChurnRouter::route_gossip: node out of range");
  util::Pcg32 rng(seed);
  ChurnAttempt a;
  std::vector<char> seen(r.g.num_nodes(), 0);
  std::deque<NodeId> frontier{s};
  seen[s] = 1;
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop_front();
    // The gossip coin is flipped when v would speak (frontier order), the
    // source unconditionally — one draw per infected node, so the draw
    // sequence is a pure function of the infection order.  A silent node
    // sends nothing and charges nothing.
    if (v != s && rng.next_double() >= p) continue;
    // Like route_flooding, v speaks over its ports in the epoch it
    // transmits in: read the snapshot first, charge the clock after.
    const graph::Graph& g = r.g.snapshot();
    const Port deg = g.degree(v);
    for (Port p_ = 0; p_ < deg; ++p_) {
      // One loss draw per copy, in port order, charged whether or not the
      // copy survives (it was on the air either way).
      if (rng.next_double() < loss) continue;
      const NodeId w = g.neighbor(v, p_);
      if (!seen[w]) {
        seen[w] = 1;
        frontier.push_back(w);
      }
    }
    a.transmissions += deg;
    for (Port p_ = 0; p_ < deg; ++p_) r.tx_tick();
  }
  a.delivered = seen[t] != 0;
  // Never certified, for the same reason as route_flooding — and loss adds
  // a second hole: a dropped copy silently prunes the wave.
  a.ticks = r.ticks;
  a.completion_epoch = r.g.epoch();
  return a;
}

ChurnAttempt ChurnRouter::route_greedy(NodeId s, NodeId t) const {
  Replay r(*scenario_, period_, max_epochs_);
  if (s >= r.g.num_nodes() || t >= r.g.num_nodes())
    throw std::invalid_argument(
        "ChurnRouter::route_greedy: node out of range");
  if (!r.g.has_positions_2d() && !r.g.has_positions_3d())
    throw std::logic_error(
        "ChurnRouter::route_greedy: scenario publishes no positions");
  auto dist_to_t = [&](NodeId v) {
    return r.g.has_positions_2d()
               ? graph::distance(r.g.positions_2d()[v],
                                 r.g.positions_2d()[t])
               : graph::distance(r.g.positions_3d()[v],
                                 r.g.positions_3d()[t]);
  };
  ChurnAttempt a;
  NodeId cur = s;
  while (cur != t) {
    const graph::Graph& g = r.g.snapshot();
    double best = dist_to_t(cur);
    NodeId next = cur;
    for (Port p = 0; p < g.degree(cur); ++p) {
      const NodeId w = g.neighbor(cur, p);
      const double d = dist_to_t(w);
      if (d < best) {
        best = d;
        next = w;
      }
    }
    if (next == cur) {
      // Local minimum (or isolated): wait for the swarm to move; give up
      // once it never will again.  Within one epoch the distance to t
      // strictly decreases per hop, so this loop terminates.
      if (!r.wait_for_epoch()) break;
      continue;
    }
    cur = next;
    ++a.transmissions;
    r.tx_tick();
  }
  a.delivered = cur == t;
  a.ticks = r.ticks;
  a.completion_epoch = r.g.epoch();
  return a;
}

bool ChurnRouter::co_connected_after(std::uint64_t ticks, NodeId s,
                                     NodeId t) const {
  auto sc = scenario_->fresh();
  graph::DynamicGraph g = sc->initial();
  for (std::uint64_t k = 0; k < ticks; ++k) sc->advance(g);
  return graph::has_path(g.snapshot(), s, t);
}

ChurnCell churn_experiment(const graph::Scenario& scenario, int pairs,
                           std::uint64_t period, std::uint64_t max_epochs,
                           std::uint64_t rw_ttl, std::uint64_t seed,
                           unsigned threads, double gossip_loss,
                           double gossip_p) {
  const NodeId n = scenario.num_nodes();
  if (n == 0) throw std::invalid_argument("churn_experiment: empty scenario");
  if (pairs < 0) throw std::invalid_argument("churn_experiment: pairs >= 0");
  // The pair list is drawn serially up front, exactly as a serial driver
  // would (the E2 convention).
  util::Pcg32 pair_rng(seed);
  std::vector<std::pair<NodeId, NodeId>> pair_list(
      static_cast<std::size_t>(pairs));
  for (auto& [s, t] : pair_list) {
    s = pair_rng.next_below(n);
    t = pair_rng.next_below(n);
  }
  const bool has_greedy = [&] {
    auto probe = scenario.fresh();
    graph::DynamicGraph g0 = probe->initial();
    return g0.has_positions_2d() || g0.has_positions_3d();
  }();

  const ChurnRouter router(scenario, period, max_epochs);
  util::ThreadPool pool(threads);
  ChurnCell init;
  init.has_greedy = has_greedy;
  return util::parallel_reduce<ChurnCell>(
      pool, pair_list.size(),
      util::default_chunk(pair_list.size(), pool.size()), init,
      [&](const util::ChunkRange& c) {
        ChurnCell part;
        part.has_greedy = has_greedy;
        for (std::uint64_t i = c.begin; i < c.end; ++i) {
          const auto [s, t] = pair_list[i];
          ++part.pairs;
          const ChurnAttempt ues = router.route_ues(s, t);
          part.ues_delivered += ues.delivered;
          part.ues_certified += ues.failure_certified;
          part.ues_transmissions += ues.transmissions;
          part.ues_restarts += ues.restarts;
          // Acceptance gate: the verdict must match ground truth on the
          // topology the walk completed against.
          const bool truth = router.co_connected_after(ues.ticks, s, t);
          part.ues_errors += (ues.delivered != truth);
          // Baselines: trial i's walk stream is a pure function of
          // (seed, i), never a shared stream (PR 3 convention).
          part.rw_delivered +=
              router.route_random_walk(s, t, rw_ttl,
                                       util::counter_hash(seed, i))
                  .delivered;
          part.flood_delivered += router.route_flooding(s, t).delivered;
          const ChurnAttempt gossip = router.route_gossip(
              s, t, gossip_loss, gossip_p,
              util::counter_hash(seed ^ 0x90551b, i));
          part.gossip_delivered += gossip.delivered;
          part.gossip_transmissions += gossip.transmissions;
          if (has_greedy)
            part.greedy_delivered += router.route_greedy(s, t).delivered;
        }
        return part;
      },
      [](ChurnCell acc, ChurnCell p) {
        acc.pairs += p.pairs;
        acc.ues_delivered += p.ues_delivered;
        acc.ues_certified += p.ues_certified;
        acc.ues_errors += p.ues_errors;
        acc.ues_transmissions += p.ues_transmissions;
        acc.ues_restarts += p.ues_restarts;
        acc.rw_delivered += p.rw_delivered;
        acc.flood_delivered += p.flood_delivered;
        acc.gossip_delivered += p.gossip_delivered;
        acc.gossip_transmissions += p.gossip_transmissions;
        acc.greedy_delivered += p.greedy_delivered;
        return acc;
      });
}

}  // namespace uesr::baselines
