// The two-component topology the lossy, chaos and traffic suites share.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/generators.h"

namespace uesr::test_support {

/// Two connected gnp halves (seeds `seed` and `seed + 1`) with no edge
/// between them, vertex half + v in the second half mapping to v: cross-
/// half pairs are ground-truth unreachable, so failure certificates join
/// every tally.
inline graph::Graph split_gnp(graph::NodeId half, double p,
                              std::uint64_t seed) {
  const graph::Graph halves[2] = {graph::connected_gnp(half, p, seed),
                                  graph::connected_gnp(half, p, seed + 1)};
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  for (graph::NodeId h = 0; h < 2; ++h) {
    const graph::Graph& g = halves[h];
    const graph::NodeId base = h * half;
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v)
      for (graph::Port q = 0; q < g.degree(v); ++q) {
        const graph::HalfEdge far = g.rotate(v, q);
        if (far.node > v || (far.node == v && far.port >= q))
          edges.emplace_back(base + v, base + far.node);
      }
  }
  return graph::from_edges(2 * half, edges);
}

}  // namespace uesr::test_support
