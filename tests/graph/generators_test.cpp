#include "graph/generators.h"

#include <gtest/gtest.h>

#include "graph/algorithms.h"

namespace uesr::graph {
namespace {

TEST(Generators, Path) {
  Graph g = path(6);
  EXPECT_EQ(g.num_nodes(), 6u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(3), 2u);
  Graph single = path(1);
  EXPECT_EQ(single.num_edges(), 0u);
}

TEST(Generators, Cycle) {
  Graph g = cycle(7);
  EXPECT_EQ(g.num_edges(), 7u);
  EXPECT_TRUE(g.is_regular(2));
  EXPECT_TRUE(is_connected(g));
  EXPECT_THROW(cycle(2), std::invalid_argument);
}

TEST(Generators, Complete) {
  Graph g = complete(6);
  EXPECT_EQ(g.num_edges(), 15u);
  EXPECT_TRUE(g.is_regular(5));
  EXPECT_EQ(component_diameter(g, 0), 1u);
}

TEST(Generators, CompleteBipartite) {
  Graph g = complete_bipartite(2, 5);
  EXPECT_EQ(g.num_edges(), 10u);
  EXPECT_TRUE(is_bipartite(g));
  EXPECT_EQ(g.degree(0), 5u);
  EXPECT_EQ(g.degree(2), 2u);
}

TEST(Generators, Star) {
  Graph g = star(9);
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_EQ(g.degree(0), 9u);
  for (NodeId v = 1; v < 10; ++v) EXPECT_EQ(g.degree(v), 1u);
}

TEST(Generators, Grid) {
  Graph g = grid(4, 5);
  EXPECT_EQ(g.num_nodes(), 20u);
  EXPECT_EQ(g.num_edges(), 4u * 4 + 3u * 5);  // horiz + vert
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.degree(0), 2u);       // corner
  EXPECT_EQ(component_diameter(g, 0), 7u);
}

TEST(Generators, Torus) {
  Graph g = torus(4, 4);
  EXPECT_TRUE(g.is_regular(4));
  EXPECT_EQ(g.num_edges(), 32u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, Hypercube) {
  Graph g = hypercube(5);
  EXPECT_EQ(g.num_nodes(), 32u);
  EXPECT_TRUE(g.is_regular(5));
  EXPECT_EQ(component_diameter(g, 0), 5u);
}

TEST(Generators, BinaryTree) {
  Graph g = binary_tree(15);
  EXPECT_EQ(g.num_edges(), 14u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 3u);
  EXPECT_EQ(g.degree(14), 1u);
}

TEST(Generators, Lollipop) {
  Graph g = lollipop(5, 10);
  EXPECT_EQ(g.num_nodes(), 15u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.num_edges(), 10u + 10u);
  EXPECT_EQ(g.degree(14), 1u);  // path tip
}

TEST(Generators, Barbell) {
  Graph g = barbell(4, 3);
  EXPECT_EQ(g.num_nodes(), 11u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(component_diameter(g, 0), 6u);
}

TEST(Generators, NamedCubicGraphsAreCubic) {
  for (const Graph& g :
       {petersen(), k4(), k33(), prism(3), prism(5), moebius_kantor(),
        cube_q3()}) {
    EXPECT_TRUE(g.is_regular(3)) << describe(g);
    EXPECT_TRUE(is_connected(g)) << describe(g);
  }
}

TEST(Generators, PetersenProperties) {
  Graph g = petersen();
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_EQ(g.num_edges(), 15u);
  EXPECT_EQ(component_diameter(g, 0), 2u);
  EXPECT_FALSE(is_bipartite(g));  // odd girth 5
}

TEST(Generators, MoebiusKantorProperties) {
  Graph g = moebius_kantor();
  EXPECT_EQ(g.num_nodes(), 16u);
  EXPECT_EQ(g.num_edges(), 24u);
  EXPECT_TRUE(is_bipartite(g));
}

TEST(Generators, GnpDeterministicPerSeed) {
  Graph a = gnp(30, 0.2, 5), b = gnp(30, 0.2, 5), c = gnp(30, 0.2, 6);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Generators, GnpEdgeCountNearExpectation) {
  Graph g = gnp(100, 0.3, 17);
  double expected = 0.3 * 100 * 99 / 2.0;
  EXPECT_GT(static_cast<double>(g.num_edges()), expected * 0.8);
  EXPECT_LT(static_cast<double>(g.num_edges()), expected * 1.2);
}

TEST(Generators, GnpExtremes) {
  EXPECT_EQ(gnp(20, 0.0, 1).num_edges(), 0u);
  EXPECT_EQ(gnp(20, 1.0, 1).num_edges(), 190u);
  EXPECT_THROW(gnp(10, 1.5, 1), std::invalid_argument);
}

TEST(Generators, RandomTreeIsTree) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Graph g = random_tree(40, seed);
    EXPECT_EQ(g.num_edges(), 39u);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Generators, RandomTreeSmall) {
  EXPECT_EQ(random_tree(1, 0).num_nodes(), 1u);
  EXPECT_EQ(random_tree(2, 0).num_edges(), 1u);
  EXPECT_EQ(random_tree(3, 5).num_edges(), 2u);
}

TEST(Generators, RandomRegularIsSimpleAndRegular) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Graph g = random_regular(20, 3, seed);
    EXPECT_TRUE(g.is_regular(3));
    // Simple: no loops, no parallel edges.
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_FALSE(g.adjacent(v, v));
      auto nb = g.neighbors(v);
      EXPECT_EQ(nb.size(), 3u);
    }
  }
}

TEST(Generators, RandomRegularParityCheck) {
  EXPECT_THROW(random_regular(5, 3, 1), std::invalid_argument);
  EXPECT_THROW(random_regular(4, 4, 1), std::invalid_argument);
}

TEST(Generators, RandomConnectedRegularIsConnected) {
  for (std::uint64_t seed = 0; seed < 5; ++seed)
    EXPECT_TRUE(is_connected(random_connected_regular(30, 3, seed)));
}

TEST(Generators, RandomCubicMultigraphRegularConnected) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Graph g = random_cubic_multigraph(10, seed);
    EXPECT_TRUE(g.is_regular(3));
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Generators, ConnectedGnp) {
  Graph g = connected_gnp(60, 0.15, 3);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, SwitchRegularIsSimpleAndRegular) {
  for (Port d : {Port{3}, Port{8}, Port{16}}) {
    Graph g = random_regular_switch(64, d, 7 + d);
    EXPECT_TRUE(g.is_regular(d)) << "d=" << d;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_FALSE(g.adjacent(v, v));
      EXPECT_EQ(g.neighbors(v).size(), d);  // no parallel edges
    }
  }
}

TEST(Generators, SwitchRegularHandlesDenseDegrees) {
  // The configuration model rejects ~e^{-(d^2-1)/4} of samples: hopeless
  // at d = 16.  Switching must still succeed.
  Graph g = random_connected_regular_switch(48, 16, 3);
  EXPECT_TRUE(g.is_regular(16));
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, SwitchRegularDeterministicAndSeedSensitive) {
  Graph a = random_regular_switch(30, 4, 5);
  Graph b = random_regular_switch(30, 4, 5);
  Graph c = random_regular_switch(30, 4, 6);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Generators, SwitchRegularActuallyRandomizes) {
  // With zero switches we get the deterministic circulant; the default
  // switch budget must move far away from it.
  Graph circulant = random_regular_switch(40, 4, 1, 1);
  Graph mixed = random_regular_switch(40, 4, 1);
  std::size_t common = 0;
  for (NodeId v = 0; v < 40; ++v)
    for (NodeId w : circulant.neighbors(v))
      if (mixed.adjacent(v, w)) ++common;
  EXPECT_LT(common, 120u);  // < 75% of the 160 directed adjacencies survive
}

TEST(Generators, SwitchRegularParityChecked) {
  EXPECT_THROW(random_regular_switch(5, 3, 1), std::invalid_argument);
  EXPECT_THROW(random_regular_switch(4, 4, 1), std::invalid_argument);
}

TEST(Generators, DisjointCopiesPortIsomorphic) {
  Graph cluster = petersen();
  const NodeId n = cluster.num_nodes();
  Graph sea = disjoint_copies(cluster, 7);
  EXPECT_EQ(sea.num_nodes(), 7 * n);
  EXPECT_EQ(sea.num_edges(), 7 * cluster.num_edges());
  EXPECT_TRUE(sea.is_cubic());
  for (NodeId c = 0; c < 7; ++c)
    for (NodeId v = 0; v < n; ++v)
      for (Port p = 0; p < cluster.degree(v); ++p) {
        HalfEdge want = cluster.rotate(v, p);
        EXPECT_EQ(sea.rotate(c * n + v, p),
                  (HalfEdge{c * n + want.node, want.port}));
      }
}

TEST(Generators, DisjointCopiesSingleCopyIsIdentity) {
  Graph cluster = barbell(4, 2);  // non-regular, exercises mixed degrees
  EXPECT_EQ(disjoint_copies(cluster, 1), cluster);
  EXPECT_THROW(disjoint_copies(cluster, 0), std::invalid_argument);
  EXPECT_THROW(disjoint_copies(GraphBuilder(0).build(), 2),
               std::invalid_argument);
  // 65536 x 65537 nodes do not fit a 32-bit NodeId; the check runs before
  // the ~34 GB of CSR storage would be allocated.
  EXPECT_THROW(disjoint_copies(cycle(65536), 65537), std::invalid_argument);
}

/// The edge-list builder the lossy, chaos and traffic suites and the E13
/// and E15 drivers used before disjoint_union: each half's edges in
/// (v, port) order, renumbered, through from_edges.
Graph split_by_edges(const Graph& a, const Graph& b) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (const Graph* g : {&a, &b}) {
    const NodeId base = g == &b ? a.num_nodes() : 0;
    for (NodeId v = 0; v < g->num_nodes(); ++v)
      for (Port q = 0; q < g->degree(v); ++q) {
        const HalfEdge far = g->rotate(v, q);
        if (far.node > v || (far.node == v && far.port >= q))
          edges.emplace_back(base + v, base + far.node);
      }
  }
  return from_edges(a.num_nodes() + b.num_nodes(), edges);
}

TEST(Generators, DisjointUnionOfGnpHalvesMatchesTheEdgeListBuild) {
  // Every (half, p, seed) the suites and benches split on.
  const struct {
    NodeId half;
    double p;
    std::uint64_t seed;
  } cases[] = {{4, 0.6, 27}, {4, 0.7, 7},  {4, 0.7, 17}, {4, 0.7, 37},
               {5, 0.5, 35}, {5, 0.6, 11}, {5, 0.6, 13}, {5, 0.6, 19},
               {6, 0.4, 41}, {6, 0.5, 7},  {6, 0.5, 27}, {12, 0.3, 43}};
  for (const auto& c : cases) {
    const Graph a = connected_gnp(c.half, c.p, c.seed);
    const Graph b = connected_gnp(c.half, c.p, c.seed + 1);
    const Graph u = disjoint_union(a, b);
    EXPECT_EQ(u, split_by_edges(a, b)) << c.half << " " << c.seed;
    EXPECT_FALSE(is_connected(u));
  }
}

TEST(Generators, DisjointUnionKeepsPortsAndNames) {
  const Graph a = barbell(4, 2);  // mixed degrees
  const Graph b = petersen();
  const Graph u = disjoint_union(a, b);
  const NodeId na = a.num_nodes();
  ASSERT_EQ(u.num_nodes(), na + b.num_nodes());
  EXPECT_EQ(u.num_edges(), a.num_edges() + b.num_edges());
  for (NodeId v = 0; v < na; ++v)
    for (Port p = 0; p < a.degree(v); ++p)
      EXPECT_EQ(u.rotate(v, p), a.rotate(v, p));
  for (NodeId v = 0; v < b.num_nodes(); ++v)
    for (Port p = 0; p < b.degree(v); ++p) {
      const HalfEdge want = b.rotate(v, p);
      EXPECT_EQ(u.rotate(na + v, p), (HalfEdge{na + want.node, want.port}));
    }
  EXPECT_EQ(disjoint_union(b, b), disjoint_copies(b, 2));
}

}  // namespace
}  // namespace uesr::graph
