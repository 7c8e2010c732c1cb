#include "baselines/chaos.h"

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

ChaosCell chaos_experiment(const graph::Graph& g, int pairs,
                           const ChaosParams& params, std::uint64_t seed,
                           unsigned threads) {
  const NodeId n = g.num_nodes();
  if (n < 2) throw std::invalid_argument("chaos_experiment: need >= 2 nodes");
  if (pairs < 0) throw std::invalid_argument("chaos_experiment: pairs >= 0");
  // The pair list is drawn serially up front (the E2/E13 convention).
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

  core::LossyTrafficConfig base;
  base.link.loss = params.loss;
  base.link.dup = params.dup;
  base.link.corrupt = params.corrupt;
  base.link.latency_min = params.latency_min;
  base.link.latency_max = params.latency_max;
  base.window = params.window;
  base.arq = params.arq;

  util::ThreadPool pool(threads);
  return util::parallel_reduce<ChaosCell>(
      pool, pair_list.size(),
      util::default_chunk(pair_list.size(), pool.size()), ChaosCell{},
      [&](const util::ChunkRange& c) {
        ChaosCell part;
        for (std::uint64_t i = c.begin; i < c.end; ++i) {
          const auto [s, t] = pair_list[i];
          ++part.pairs;
          const bool reachable = comp[s] == comp[t];
          // Trial i's channel and its FaultPlan are pure functions of
          // (seed, i) sub-streams — never shared (PR 3 convention).  The
          // channel is a static session's epoch 0: counter_hash(trial, 0).
          const std::uint64_t trial = util::counter_hash(seed, i);
          core::LossyTrafficConfig opts = base;
          opts.net_seed = trial;
          opts.faults = net::FaultPlan::sample(
              reduced.cubic, params.chaos, util::counter_hash(trial, 1));
          core::LossyRouteSession session(reduced, *seq, s, t, opts);
          switch (session.run()) {
            case core::LossyVerdict::kDelivered:
              ++part.delivered;
              // Sound delivery needs a reachable target the walk visited.
              part.unsound += !reachable || !session.target_reached();
              break;
            case core::LossyVerdict::kFailureCertified:
              ++part.certified;
              part.unsound += reachable;
              break;
            default:
              ++part.uncertified;
              break;
          }
          part.hops += session.hops();
          part.frames += session.wire_frames();
          part.corrupted += session.sim().frames_corrupted();
          part.crash_drops += session.sim().frames_crash_dropped();
          part.retransmits += session.arq_stats().retransmits;
        }
        return part;
      },
      [](ChaosCell acc, ChaosCell p) {
        acc.pairs += p.pairs;
        acc.delivered += p.delivered;
        acc.certified += p.certified;
        acc.uncertified += p.uncertified;
        acc.unsound += p.unsound;
        acc.hops += p.hops;
        acc.frames += p.frames;
        acc.corrupted += p.corrupted;
        acc.crash_drops += p.crash_drops;
        acc.retransmits += p.retransmits;
        return acc;
      });
}

}  // namespace uesr::baselines
