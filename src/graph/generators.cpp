#include "graph/generators.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "graph/algorithms.h"

namespace uesr::graph {

namespace {

void require(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

/// Appends g's rotation map, vertex v renamed base + v and ports verbatim,
/// to a CSR rotation map under construction.
void append_renamed(const Graph& g, NodeId base,
                    std::vector<std::size_t>& offsets,
                    std::vector<HalfEdge>& half_edges) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (Port p = 0; p < g.degree(v); ++p) {
      const HalfEdge far = g.rotate(v, p);
      half_edges.push_back({base + far.node, far.port});
    }
    offsets.push_back(half_edges.size());
  }
}

}  // namespace

Graph path(NodeId n) {
  require(n >= 1, "path: n >= 1");
  GraphBuilder b(n);
  for (NodeId i = 0; i + 1 < n; ++i) b.add_edge(i, i + 1);
  return std::move(b).build();
}

Graph cycle(NodeId n) {
  require(n >= 3, "cycle: n >= 3");
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i) b.add_edge(i, (i + 1) % n);
  return std::move(b).build();
}

Graph complete(NodeId n) {
  require(n >= 1, "complete: n >= 1");
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = i + 1; j < n; ++j) b.add_edge(i, j);
  return std::move(b).build();
}

Graph complete_bipartite(NodeId a, NodeId b_count) {
  require(a >= 1 && b_count >= 1, "complete_bipartite: sides >= 1");
  GraphBuilder b(a + b_count);
  for (NodeId i = 0; i < a; ++i)
    for (NodeId j = 0; j < b_count; ++j) b.add_edge(i, a + j);
  return std::move(b).build();
}

Graph star(NodeId leaves) {
  require(leaves >= 1, "star: leaves >= 1");
  GraphBuilder b(leaves + 1);
  for (NodeId i = 1; i <= leaves; ++i) b.add_edge(0, i);
  return std::move(b).build();
}

Graph grid(NodeId rows, NodeId cols) {
  require(rows >= 1 && cols >= 1, "grid: dims >= 1");
  GraphBuilder b(rows * cols);
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r)
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) b.add_edge(id(r, c), id(r + 1, c));
    }
  return std::move(b).build();
}

Graph torus(NodeId rows, NodeId cols) {
  require(rows >= 3 && cols >= 3, "torus: dims >= 3");
  GraphBuilder b(rows * cols);
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r)
    for (NodeId c = 0; c < cols; ++c) {
      b.add_edge(id(r, c), id(r, (c + 1) % cols));
      b.add_edge(id(r, c), id((r + 1) % rows, c));
    }
  return std::move(b).build();
}

Graph hypercube(unsigned dim) {
  require(dim >= 1 && dim <= 24, "hypercube: 1 <= dim <= 24");
  NodeId n = NodeId{1} << dim;
  GraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v)
    for (unsigned d = 0; d < dim; ++d) {
      NodeId w = v ^ (NodeId{1} << d);
      if (v < w) b.add_edge(v, w);
    }
  return std::move(b).build();
}

Graph binary_tree(NodeId n) {
  require(n >= 1, "binary_tree: n >= 1");
  GraphBuilder b(n);
  for (NodeId v = 1; v < n; ++v) b.add_edge((v - 1) / 2, v);
  return std::move(b).build();
}

Graph lollipop(NodeId clique_size, NodeId path_len) {
  require(clique_size >= 2, "lollipop: clique >= 2");
  GraphBuilder b(clique_size + path_len);
  for (NodeId i = 0; i < clique_size; ++i)
    for (NodeId j = i + 1; j < clique_size; ++j) b.add_edge(i, j);
  NodeId prev = clique_size - 1;
  for (NodeId i = 0; i < path_len; ++i) {
    b.add_edge(prev, clique_size + i);
    prev = clique_size + i;
  }
  return std::move(b).build();
}

Graph barbell(NodeId clique_size, NodeId path_len) {
  require(clique_size >= 2, "barbell: clique >= 2");
  NodeId n = 2 * clique_size + path_len;
  GraphBuilder b(n);
  auto clique = [&](NodeId base) {
    for (NodeId i = 0; i < clique_size; ++i)
      for (NodeId j = i + 1; j < clique_size; ++j)
        b.add_edge(base + i, base + j);
  };
  clique(0);
  clique(clique_size + path_len);
  NodeId prev = clique_size - 1;
  for (NodeId i = 0; i < path_len; ++i) {
    b.add_edge(prev, clique_size + i);
    prev = clique_size + i;
  }
  b.add_edge(prev, clique_size + path_len);
  return std::move(b).build();
}

Graph disjoint_copies(const Graph& cluster, NodeId copies) {
  require(copies >= 1, "disjoint_copies: copies >= 1");
  const NodeId n = cluster.num_nodes();
  require(n >= 1, "disjoint_copies: cluster must be non-empty");
  require(std::uint64_t{n} * copies <= std::numeric_limits<NodeId>::max(),
          "disjoint_copies: n * copies overflows NodeId");
  // Built through the flat CSR path: at a million clusters the nested
  // vector-of-vectors intermediate would dwarf the graph itself.
  std::vector<std::size_t> offsets{0};
  offsets.reserve(static_cast<std::size_t>(n) * copies + 1);
  std::size_t m = 0;
  for (NodeId v = 0; v < n; ++v) m += cluster.degree(v);
  std::vector<HalfEdge> half_edges;
  half_edges.reserve(m * copies);
  for (NodeId c = 0; c < copies; ++c)
    append_renamed(cluster, c * n, offsets, half_edges);
  return from_rotation(std::move(offsets), std::move(half_edges));
}

Graph disjoint_union(const Graph& a, const Graph& b) {
  require(std::uint64_t{a.num_nodes()} + b.num_nodes() <=
              std::numeric_limits<NodeId>::max(),
          "disjoint_union: |V(a)| + |V(b)| overflows NodeId");
  std::vector<std::size_t> offsets{0};
  std::vector<HalfEdge> half_edges;
  append_renamed(a, 0, offsets, half_edges);
  append_renamed(b, a.num_nodes(), offsets, half_edges);
  return from_rotation(std::move(offsets), std::move(half_edges));
}

Graph petersen() {
  // Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5.
  GraphBuilder b(10);
  for (NodeId i = 0; i < 5; ++i) b.add_edge(i, (i + 1) % 5);
  for (NodeId i = 0; i < 5; ++i) b.add_edge(5 + i, 5 + (i + 2) % 5);
  for (NodeId i = 0; i < 5; ++i) b.add_edge(i, 5 + i);
  return std::move(b).build();
}

Graph k4() { return complete(4); }
Graph k33() { return complete_bipartite(3, 3); }

Graph prism(NodeId n) {
  require(n >= 3, "prism: n >= 3");
  GraphBuilder b(2 * n);
  for (NodeId i = 0; i < n; ++i) {
    b.add_edge(i, (i + 1) % n);
    b.add_edge(n + i, n + (i + 1) % n);
    b.add_edge(i, n + i);
  }
  return std::move(b).build();
}

Graph moebius_kantor() {
  // Generalized Petersen graph GP(8,3).
  GraphBuilder b(16);
  for (NodeId i = 0; i < 8; ++i) {
    b.add_edge(i, (i + 1) % 8);
    b.add_edge(8 + i, 8 + (i + 3) % 8);
    b.add_edge(i, 8 + i);
  }
  return std::move(b).build();
}

Graph cube_q3() { return hypercube(3); }

Graph gnp(NodeId n, double p, std::uint64_t seed) {
  require(n >= 1, "gnp: n >= 1");
  require(p >= 0.0 && p <= 1.0, "gnp: p in [0,1]");
  util::Pcg32 rng(seed);
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = i + 1; j < n; ++j)
      if (rng.next_double() < p) b.add_edge(i, j);
  return std::move(b).build();
}

Graph random_tree(NodeId n, std::uint64_t seed) {
  require(n >= 1, "random_tree: n >= 1");
  if (n == 1) return GraphBuilder(1).build();
  if (n == 2) return from_edges(2, {{0, 1}});
  // Prüfer decoding: a uniform labelled tree on n vertices.
  util::Pcg32 rng(seed);
  std::vector<NodeId> prufer(n - 2);
  for (auto& x : prufer) x = rng.next_below(n);
  std::vector<Port> deg(n, 1);
  for (NodeId x : prufer) ++deg[x];
  GraphBuilder b(n);
  std::set<NodeId> leaves;
  for (NodeId v = 0; v < n; ++v)
    if (deg[v] == 1) leaves.insert(v);
  for (NodeId x : prufer) {
    NodeId leaf = *leaves.begin();
    leaves.erase(leaves.begin());
    b.add_edge(leaf, x);
    if (--deg[x] == 1) leaves.insert(x);
  }
  NodeId u = *leaves.begin();
  NodeId v = *std::next(leaves.begin());
  b.add_edge(u, v);
  return std::move(b).build();
}

namespace {

/// One configuration-model attempt; returns edges, or empty if non-simple
/// (when `simple` is requested).
std::vector<std::pair<NodeId, NodeId>> pairing_attempt(NodeId n, Port d,
                                                       util::Pcg32& rng,
                                                       bool simple) {
  std::vector<NodeId> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * d);
  for (NodeId v = 0; v < n; ++v)
    for (Port k = 0; k < d; ++k) stubs.push_back(v);
  std::shuffle(stubs.begin(), stubs.end(), rng);
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(stubs.size() / 2);
  std::set<std::pair<NodeId, NodeId>> seen;
  for (std::size_t i = 0; i < stubs.size(); i += 2) {
    NodeId u = stubs[i], v = stubs[i + 1];
    if (simple) {
      if (u == v) return {};
      auto key = std::minmax(u, v);
      if (!seen.insert({key.first, key.second}).second) return {};
    }
    edges.push_back({u, v});
  }
  return edges;
}

}  // namespace

Graph random_regular(NodeId n, Port d, std::uint64_t seed) {
  require(n >= 1, "random_regular: n >= 1");
  require(d < n, "random_regular: d < n");
  require((static_cast<std::uint64_t>(n) * d) % 2 == 0,
          "random_regular: n*d must be even");
  util::Pcg32 rng(seed);
  for (int attempt = 0; attempt < 100000; ++attempt) {
    auto edges = pairing_attempt(n, d, rng, /*simple=*/true);
    if (!edges.empty() || d == 0) return from_edges(n, edges);
  }
  throw std::runtime_error("random_regular: too many rejections");
}

Graph random_connected_regular(NodeId n, Port d, std::uint64_t seed) {
  util::SplitMix64 seeder(seed);
  for (int attempt = 0; attempt < 10000; ++attempt) {
    Graph g = random_regular(n, d, seeder.next());
    if (is_connected(g)) return g;
  }
  throw std::runtime_error("random_connected_regular: too many rejections");
}

Graph random_regular_switch(NodeId n, Port d, std::uint64_t seed,
                            std::size_t switches) {
  require(n >= 1, "random_regular_switch: n >= 1");
  require(d < n, "random_regular_switch: d < n");
  require((static_cast<std::uint64_t>(n) * d) % 2 == 0,
          "random_regular_switch: n*d must be even");
  // Circulant start: offsets 1..d/2 (and n/2 when d is odd; n even then).
  std::set<std::pair<NodeId, NodeId>> edge_set;
  auto key = [](NodeId a, NodeId b) {
    return a < b ? std::pair{a, b} : std::pair{b, a};
  };
  for (NodeId v = 0; v < n; ++v) {
    for (Port k = 1; k <= d / 2; ++k) edge_set.insert(key(v, (v + k) % n));
    if (d % 2 == 1) edge_set.insert(key(v, (v + n / 2) % n));
  }
  std::vector<std::pair<NodeId, NodeId>> edges(edge_set.begin(),
                                               edge_set.end());
  util::Pcg32 rng(seed);
  if (switches == 0) switches = 20 * edges.size();
  for (std::size_t s = 0; s < switches; ++s) {
    std::size_t i = rng.next_below(static_cast<std::uint32_t>(edges.size()));
    std::size_t j = rng.next_below(static_cast<std::uint32_t>(edges.size()));
    if (i == j) continue;
    auto [a, b] = edges[i];
    auto [c, e] = edges[j];
    if (rng.next_below(2)) std::swap(c, e);
    // Propose (a,c), (b,e).
    if (a == c || b == e) continue;
    auto k1 = key(a, c), k2 = key(b, e);
    if (edge_set.count(k1) || edge_set.count(k2)) continue;
    edge_set.erase(key(a, b));
    edge_set.erase(key(c, e));
    edge_set.insert(k1);
    edge_set.insert(k2);
    edges[i] = k1;
    edges[j] = k2;
  }
  return from_edges(n, edges);
}

Graph random_connected_regular_switch(NodeId n, Port d, std::uint64_t seed) {
  util::SplitMix64 seeder(seed);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    Graph g = random_regular_switch(n, d, seeder.next());
    if (is_connected(g)) return g;
  }
  throw std::runtime_error(
      "random_connected_regular_switch: too many rejections");
}

Graph random_cubic_multigraph(NodeId n, std::uint64_t seed) {
  require(n >= 2 && n % 2 == 0, "random_cubic_multigraph: n even, >= 2");
  util::Pcg32 rng(seed);
  for (int attempt = 0; attempt < 100000; ++attempt) {
    auto edges = pairing_attempt(n, 3, rng, /*simple=*/false);
    Graph g = from_edges(n, edges);
    if (is_connected(g)) return g;
  }
  throw std::runtime_error("random_cubic_multigraph: too many rejections");
}

Graph connected_gnp(NodeId n, double p, std::uint64_t seed) {
  util::SplitMix64 seeder(seed);
  for (int attempt = 0; attempt < 10000; ++attempt) {
    Graph g = gnp(n, p, seeder.next());
    if (is_connected(g)) return g;
  }
  throw std::runtime_error(
      "connected_gnp: too many rejections (p below threshold?)");
}

}  // namespace uesr::graph
