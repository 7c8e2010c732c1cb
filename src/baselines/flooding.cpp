#include "baselines/flooding.h"

#include <deque>
#include <stdexcept>

namespace uesr::baselines {

FloodResult flood(const graph::Graph& g, graph::NodeId s, graph::NodeId t) {
  if (s >= g.num_nodes() || t >= g.num_nodes())
    throw std::invalid_argument("flood: node out of range");
  FloodResult res;
  std::vector<std::uint32_t> round(g.num_nodes(), ~0u);
  std::deque<graph::NodeId> frontier{s};
  round[s] = 0;
  while (!frontier.empty()) {
    graph::NodeId v = frontier.front();
    frontier.pop_front();
    ++res.nodes_reached;
    // v retransmits on every port exactly once (the per-node "seen" bit).
    res.transmissions += g.degree(v);
    for (graph::Port p = 0; p < g.degree(v); ++p) {
      graph::NodeId w = g.neighbor(v, p);
      if (round[w] == ~0u) {
        round[w] = round[v] + 1;
        frontier.push_back(w);
      }
    }
  }
  res.delivered = round[t] != ~0u;
  res.rounds = res.delivered ? round[t] : 0;
  return res;
}

}  // namespace uesr::baselines
