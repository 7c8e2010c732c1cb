#include "graph/algorithms.h"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace uesr::graph {

std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId s) {
  if (s >= g.num_nodes()) throw std::invalid_argument("bfs_distances: bad s");
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreachable);
  std::deque<NodeId> queue{s};
  dist[s] = 0;
  while (!queue.empty()) {
    NodeId v = queue.front();
    queue.pop_front();
    for (Port p = 0; p < g.degree(v); ++p) {
      NodeId w = g.neighbor(v, p);
      if (dist[w] == kUnreachable) {
        dist[w] = dist[v] + 1;
        queue.push_back(w);
      }
    }
  }
  return dist;
}

bool has_path(const Graph& g, NodeId s, NodeId t) {
  if (t >= g.num_nodes()) throw std::invalid_argument("has_path: bad t");
  return bfs_distances(g, s)[t] != kUnreachable;
}

std::vector<NodeId> component_of(const Graph& g, NodeId s) {
  if (s >= g.num_nodes()) throw std::invalid_argument("component_of: bad s");
  std::vector<bool> seen(g.num_nodes(), false);
  std::vector<NodeId> order{s};
  seen[s] = true;
  for (std::size_t i = 0; i < order.size(); ++i) {
    NodeId v = order[i];
    for (Port p = 0; p < g.degree(v); ++p) {
      NodeId w = g.neighbor(v, p);
      if (!seen[w]) {
        seen[w] = true;
        order.push_back(w);
      }
    }
  }
  return order;
}

std::vector<std::uint32_t> connected_components(const Graph& g) {
  // One pass, with the labels as the visited set: a component_of() per
  // component would clear an n-entry bitmap each time, O(n) per component.
  std::vector<std::uint32_t> comp(g.num_nodes(), kUnreachable);
  std::vector<NodeId> order;
  std::uint32_t next = 0;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (comp[s] != kUnreachable) continue;
    comp[s] = next;
    order.assign(1, s);
    for (std::size_t i = 0; i < order.size(); ++i)
      for (Port p = 0; p < g.degree(order[i]); ++p) {
        const NodeId w = g.neighbor(order[i], p);
        if (comp[w] == kUnreachable) {
          comp[w] = next;
          order.push_back(w);
        }
      }
    ++next;
  }
  return comp;
}

std::size_t num_components(const Graph& g) {
  auto comp = connected_components(g);
  std::uint32_t mx = 0;
  for (std::uint32_t c : comp) mx = std::max(mx, c + 1);
  return g.num_nodes() == 0 ? 0 : mx;
}

bool is_connected(const Graph& g) {
  if (g.num_nodes() == 0) return true;
  return component_of(g, 0).size() == g.num_nodes();
}

std::uint32_t component_diameter(const Graph& g, NodeId s) {
  std::uint32_t diam = 0;
  for (NodeId v : component_of(g, s)) {
    auto dist = bfs_distances(g, v);
    for (NodeId w = 0; w < g.num_nodes(); ++w)
      if (dist[w] != kUnreachable) diam = std::max(diam, dist[w]);
  }
  return diam;
}

bool is_bipartite(const Graph& g) {
  std::vector<int> side(g.num_nodes(), -1);
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (side[s] != -1) continue;
    side[s] = 0;
    std::deque<NodeId> queue{s};
    while (!queue.empty()) {
      NodeId v = queue.front();
      queue.pop_front();
      for (Port p = 0; p < g.degree(v); ++p) {
        NodeId w = g.neighbor(v, p);
        if (w == v) return false;  // loop: odd closed walk
        if (side[w] == -1) {
          side[w] = 1 - side[v];
          queue.push_back(w);
        } else if (side[w] == side[v]) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace uesr::graph
