#include "baselines/lossy.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "explore/degree_reduce.h"
#include "explore/sequence.h"
#include "graph/algorithms.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace uesr::baselines {

using graph::NodeId;
using graph::Port;

namespace {

/// The gossip column's retransmission probability (every E13/E15 row).
constexpr double kGossipP = 0.65;

/// Shared wave engine of the two lossy broadcast baselines: `transmit(v)`
/// decides whether a newly-infected node retransmits (drawn exactly once
/// per node, in ascending node order — the determinism anchor).
template <typename Transmits>
FloodResult lossy_wave(const graph::Graph& g, NodeId s, NodeId t, double loss,
                       util::Pcg32& rng, Transmits&& transmits) {
  FloodResult out;
  const NodeId n = g.num_nodes();
  if (s >= n || t >= n)
    throw std::invalid_argument("lossy_wave: node out of range");
  std::vector<bool> heard(n, false);
  heard[s] = true;
  out.nodes_reached = 1;
  out.delivered = s == t;
  std::vector<NodeId> frontier{s};
  std::uint32_t round = 0;
  std::uint32_t hit_round = 0;  // round t first heard it (flood convention)
  while (!frontier.empty()) {
    ++round;
    std::vector<NodeId> next;
    for (NodeId v : frontier) {
      if (!transmits(v)) continue;
      const Port deg = g.degree(v);
      for (Port p = 0; p < deg; ++p) {
        ++out.transmissions;  // the copy was really sent…
        if (loss > 0.0 && rng.next_double() < loss) continue;  // …and lost
        const NodeId w = g.neighbor(v, p);
        if (heard[w]) continue;
        heard[w] = true;
        ++out.nodes_reached;
        if (w == t && !out.delivered) {
          out.delivered = true;
          hit_round = round;
        }
        next.push_back(w);
      }
    }
    // Ascending order keeps the draw sequence a pure function of the seed
    // regardless of port-visit interleaving across the frontier.
    std::sort(next.begin(), next.end());
    frontier = std::move(next);
  }
  out.rounds = out.delivered ? hit_round : 0;
  return out;
}

}  // namespace

FloodResult flood_lossy(const graph::Graph& g, NodeId s, NodeId t,
                        double loss, std::uint64_t seed) {
  if (!(loss >= 0.0 && loss <= 1.0))
    throw std::invalid_argument("flood_lossy: loss in [0, 1]");
  util::Pcg32 rng(seed);
  return lossy_wave(g, s, t, loss, rng, [](NodeId) { return true; });
}

FloodResult gossip_lossy(const graph::Graph& g, NodeId s, NodeId t,
                         double loss, double p, std::uint64_t seed) {
  if (!(loss >= 0.0 && loss <= 1.0))
    throw std::invalid_argument("gossip_lossy: loss in [0, 1]");
  if (!(p >= 0.0 && p <= 1.0))
    throw std::invalid_argument("gossip_lossy: p in [0, 1]");
  util::Pcg32 rng(seed);
  // The source always transmits (otherwise p kills the wave at birth, which
  // is the degenerate case the gossip literature excludes).
  return lossy_wave(g, s, t, loss, rng, [&](NodeId v) {
    return v == s || p >= 1.0 || rng.next_double() < p;
  });
}

LossyCell lossy_experiment(const graph::Graph& g, int pairs,
                           const core::LossyTrafficConfig& cfg,
                           std::uint64_t seed, unsigned threads) {
  const NodeId n = g.num_nodes();
  if (n < 2) throw std::invalid_argument("lossy_experiment: need >= 2 nodes");
  if (pairs < 0) throw std::invalid_argument("lossy_experiment: pairs >= 0");
  if (cfg.chaos && !cfg.faults.empty())
    throw std::invalid_argument(
        "lossy_experiment: cfg.faults must be empty when cfg.chaos is set");
  // The pair list is drawn serially up front, exactly as a serial driver
  // would (the E2 convention); s != t by rejection.
  util::Pcg32 pair_rng(seed);
  std::vector<std::pair<NodeId, NodeId>> pair_list(
      static_cast<std::size_t>(pairs));
  for (auto& [s, t] : pair_list) {
    s = pair_rng.next_below(n);
    do t = pair_rng.next_below(n);
    while (t == s);
  }
  // Shared immutable structure: one reduction, one T_n, one ground-truth
  // component map — read-only across lanes.  Faults never edit the graph
  // (they delay or kill frames), so the STATIC component map stays the
  // exact soundness reference for every verdict.
  const explore::ReducedGraph reduced = explore::reduce_to_cubic(g);
  const auto seq = explore::standard_ues(reduced.cubic.num_nodes());
  const std::vector<std::uint32_t> comp = graph::connected_components(g);
  // The kernel samples each trial's plan itself (below), so the session
  // must not sample another.
  core::LossyTrafficConfig base = cfg;
  base.chaos.reset();
  const double loss = cfg.link.loss;

  util::ThreadPool pool(threads);
  return util::parallel_reduce<LossyCell>(
      pool, pair_list.size(),
      util::default_chunk(pair_list.size(), pool.size()), LossyCell{},
      [&](const util::ChunkRange& c) {
        LossyCell part;
        for (std::uint64_t i = c.begin; i < c.end; ++i) {
          const auto [s, t] = pair_list[i];
          ++part.pairs;
          const bool reachable = comp[s] == comp[t];
          // Trial i's streams are pure functions of (seed, i), never shared
          // (util/parallel.h rule 3).  The UES channel is a static session's
          // epoch 0, seeded counter_hash(trial, 0).  The chaos plan and the
          // flood draws both key off counter_hash(trial, 1) and the gossip
          // draws off counter_hash(trial, 2): changing any of these seeds
          // moves E13 and E15 cells.
          const std::uint64_t trial = util::counter_hash(seed, i);
          core::LossyTrafficConfig opts = base;
          opts.net_seed = trial;
          if (cfg.chaos)
            opts.faults = net::FaultPlan::sample(
                reduced.cubic, *cfg.chaos, util::counter_hash(trial, 1));
          core::LossyRouteSession session(reduced, *seq, s, t, opts);
          switch (session.run()) {
            case core::Verdict::kDelivered:
              ++part.delivered;
              // Sound delivery needs a reachable target the walk visited.
              part.unsound += !reachable || !session.target_reached();
              break;
            case core::Verdict::kCertified:
              ++part.certified;
              part.unsound += reachable;
              break;
            default:
              ++part.uncertified;
              break;
          }
          part.hops += session.hops();
          part.frames += session.wire_frames();
          part.retransmits += session.arq_stats().retransmits;
          part.corrupted += session.sim().frames_corrupted();
          part.crash_drops += session.sim().frames_crash_dropped();
          const FloodResult f =
              flood_lossy(g, s, t, loss, util::counter_hash(trial, 1));
          part.flood_delivered += f.delivered;
          part.flood_transmissions += f.transmissions;
          const FloodResult go = gossip_lossy(g, s, t, loss, kGossipP,
                                              util::counter_hash(trial, 2));
          part.gossip_delivered += go.delivered;
          part.gossip_transmissions += go.transmissions;
        }
        return part;
      },
      [](LossyCell acc, LossyCell p) {
        acc.pairs += p.pairs;
        acc.delivered += p.delivered;
        acc.certified += p.certified;
        acc.uncertified += p.uncertified;
        acc.unsound += p.unsound;
        acc.hops += p.hops;
        acc.frames += p.frames;
        acc.retransmits += p.retransmits;
        acc.corrupted += p.corrupted;
        acc.crash_drops += p.crash_drops;
        acc.flood_delivered += p.flood_delivered;
        acc.flood_transmissions += p.flood_transmissions;
        acc.gossip_delivered += p.gossip_delivered;
        acc.gossip_transmissions += p.gossip_transmissions;
        return acc;
      });
}

}  // namespace uesr::baselines
