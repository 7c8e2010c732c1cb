#include "explore/degree_reduce.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/geometric.h"

namespace uesr::explore {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::NodeId;
using graph::Port;

TEST(DegreeReduce, AlwaysCubic) {
  std::vector<Graph> zoo = {
      graph::path(2),       graph::path(7),      graph::cycle(5),
      graph::star(6),       graph::complete(6),  graph::grid(3, 4),
      graph::petersen(),    graph::binary_tree(10),
      graph::gnp(20, 0.3, 1), graph::lollipop(5, 4)};
  for (const Graph& g : zoo) {
    ReducedGraph r = reduce_to_cubic(g);
    EXPECT_TRUE(r.cubic.is_regular(3)) << graph::describe(g);
    r.cubic.validate();
  }
}

TEST(DegreeReduce, SizeIsSumOfClampedDegrees) {
  Graph g = graph::star(5);  // hub degree 5, leaves degree 1
  ReducedGraph r = reduce_to_cubic(g);
  EXPECT_EQ(r.cubic.num_nodes(), 5u + 5u * 3u);
  EXPECT_EQ(r.gadget_count[0], 5u);
  for (NodeId v = 1; v <= 5; ++v) EXPECT_EQ(r.gadget_count[v], 3u);
}

TEST(DegreeReduce, BlowupIsLinear) {
  for (const Graph& g :
       {graph::complete(10), graph::grid(5, 5), graph::cycle(30)}) {
    ReducedGraph r = reduce_to_cubic(g);
    EXPECT_LE(r.cubic.num_nodes(), 2 * g.num_edges() + 3 * g.num_nodes());
  }
}

TEST(DegreeReduce, CubicVertexGetsTriangleGadget) {
  Graph g = graph::k4();
  ReducedGraph r = reduce_to_cubic(g);
  EXPECT_EQ(r.cubic.num_nodes(), 12u);  // 4 vertices x 3 gadgets
  // No half loops: every vertex had degree exactly 3.
  for (NodeId v = 0; v < r.cubic.num_nodes(); ++v)
    for (Port p = 0; p < 3; ++p) EXPECT_FALSE(r.cubic.is_half_loop(v, p));
}

TEST(DegreeReduce, LowDegreePadsWithHalfLoops) {
  Graph g = graph::path(2);  // two degree-1 vertices
  ReducedGraph r = reduce_to_cubic(g);
  EXPECT_EQ(r.cubic.num_nodes(), 6u);
  std::size_t half_loops = 0;
  for (NodeId v = 0; v < r.cubic.num_nodes(); ++v)
    for (Port p = 0; p < 3; ++p)
      if (r.cubic.is_half_loop(v, p)) ++half_loops;
  EXPECT_EQ(half_loops, 4u);  // 2 unused ports per vertex
}

TEST(DegreeReduce, IsolatedVertexBecomesLoopTriangle) {
  Graph g = GraphBuilder(1).build();
  ReducedGraph r = reduce_to_cubic(g);
  EXPECT_EQ(r.cubic.num_nodes(), 3u);
  EXPECT_TRUE(r.cubic.is_regular(3));
  EXPECT_TRUE(graph::is_connected(r.cubic));
}

TEST(DegreeReduce, PreservesComponentStructure) {
  Graph g = graph::from_edges(7, {{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 3}});
  ReducedGraph r = reduce_to_cubic(g);
  auto comp = graph::connected_components(r.cubic);
  // Gadgets of the same original vertex are in one component.
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    for (NodeId j = 1; j < r.gadget_count[v]; ++j)
      EXPECT_EQ(comp[r.first_gadget[v]], comp[r.first_gadget[v] + j]);
  // Original connectivity is mirrored exactly.
  auto orig_comp = graph::connected_components(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      EXPECT_EQ(orig_comp[u] == orig_comp[v],
                comp[r.entry_gadget(u)] == comp[r.entry_gadget(v)])
          << u << " vs " << v;
}

TEST(DegreeReduce, GadgetMapsAreConsistent) {
  Graph g = graph::complete(5);
  ReducedGraph r = reduce_to_cubic(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (Port p = 0; p < g.degree(v); ++p) {
      NodeId gv = r.gadget(v, p);
      EXPECT_EQ(r.original_of[gv], v);
      EXPECT_TRUE(r.belongs_to(gv, v));
    }
    EXPECT_EQ(r.entry_gadget(v), r.gadget(v, 0));
  }
  EXPECT_THROW(r.gadget(0, 99), std::invalid_argument);
  EXPECT_THROW(r.gadget(99, 0), std::invalid_argument);
}

TEST(DegreeReduce, ExternalEdgesMirrorOriginalEdges) {
  Graph g = graph::petersen();
  ReducedGraph r = reduce_to_cubic(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    for (Port p = 0; p < g.degree(v); ++p) {
      graph::HalfEdge far = g.rotate(v, p);
      NodeId mine = r.gadget(v, p);
      // Port 2 is the external port by convention.
      graph::HalfEdge ext = r.cubic.rotate(mine, 2);
      EXPECT_EQ(ext.node, r.gadget(far.node, far.port));
      EXPECT_EQ(ext.port, 2u);
    }
}

TEST(DegreeReduce, GadgetCycleUsesPorts0And1) {
  Graph g = graph::star(4);
  ReducedGraph r = reduce_to_cubic(g);
  NodeId base = r.first_gadget[0];
  NodeId c = r.gadget_count[0];
  for (NodeId j = 0; j < c; ++j) {
    graph::HalfEdge next = r.cubic.rotate(base + j, 1);
    EXPECT_EQ(next.node, base + (j + 1) % c);
    EXPECT_EQ(next.port, 0u);
  }
}

TEST(DegreeReduce, OriginalLoopsHandled) {
  GraphBuilder b(2);
  b.add_edge(0, 0);     // full loop
  b.add_half_loop(1);
  b.add_edge(0, 1);
  Graph g = std::move(b).build();
  ReducedGraph r = reduce_to_cubic(g);
  EXPECT_TRUE(r.cubic.is_regular(3));
  r.cubic.validate();
  EXPECT_TRUE(graph::is_connected(r.cubic));
  // Full loop becomes an edge between two gadgets of vertex 0.
  graph::HalfEdge ext = r.cubic.rotate(r.gadget(0, 0), 2);
  EXPECT_EQ(ext.node, r.gadget(0, 1));
  // Half loop stays a half loop on its gadget.
  EXPECT_TRUE(r.cubic.is_half_loop(r.gadget(1, 0), 2));
}

TEST(DegreeReduce, EmptyGraph) {
  ReducedGraph r = reduce_to_cubic(GraphBuilder(0).build());
  EXPECT_EQ(r.cubic.num_nodes(), 0u);
}

// ---- Pin: the reduction equals a HalfEdge-array reference ----------------

// The reduction as it was first written: the cycles, then the external
// edges, into a HalfEdge array plus offsets, installed through the flat
// from_rotation overload.  reduce_to_cubic must reproduce it exactly.
ReducedGraph reference_reduction(const Graph& g) {
  ReducedGraph r;
  const NodeId n = g.num_nodes();
  r.first_gadget.resize(n);
  r.gadget_count.resize(n);
  NodeId total = 0;
  for (NodeId v = 0; v < n; ++v) {
    r.first_gadget[v] = total;
    r.gadget_count[v] = std::max<NodeId>(g.degree(v), 3);
    total += r.gadget_count[v];
  }
  r.original_of.resize(total);
  for (NodeId v = 0; v < n; ++v)
    for (NodeId j = 0; j < r.gadget_count[v]; ++j)
      r.original_of[r.first_gadget[v] + j] = v;
  std::vector<graph::HalfEdge> half(3 * static_cast<std::size_t>(total));
  for (NodeId v = 0; v < n; ++v) {
    const NodeId base = r.first_gadget[v];
    const NodeId c = r.gadget_count[v];
    for (NodeId j = 0; j < c; ++j) {
      const NodeId cur = base + j;
      const NodeId nxt = base + (j + 1) % c;
      half[3 * static_cast<std::size_t>(cur) + 1] = {nxt, 0};
      half[3 * static_cast<std::size_t>(nxt) + 0] = {cur, 1};
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    const Port d = g.degree(v);
    for (Port p = 0; p < d; ++p) {
      const graph::HalfEdge far = g.rotate(v, p);
      const NodeId mine = r.first_gadget[v] + p;
      half[3 * static_cast<std::size_t>(mine) + 2] = {
          r.first_gadget[far.node] + far.port, 2};
    }
    for (NodeId j = d; j < r.gadget_count[v]; ++j) {
      const NodeId cur = r.first_gadget[v] + j;
      half[3 * static_cast<std::size_t>(cur) + 2] = {cur, 2};
    }
  }
  std::vector<std::size_t> offsets(static_cast<std::size_t>(total) + 1);
  for (std::size_t i = 0; i <= total; ++i) offsets[i] = 3 * i;
  r.cubic = graph::from_rotation(std::move(offsets), std::move(half));
  return r;
}

void expect_matches_reference(const Graph& g) {
  const ReducedGraph r = reduce_to_cubic(g);
  const ReducedGraph want = reference_reduction(g);
  EXPECT_TRUE(r.cubic == want.cubic) << graph::describe(g);
  EXPECT_EQ(r.original_of, want.original_of) << graph::describe(g);
  EXPECT_EQ(r.first_gadget, want.first_gadget) << graph::describe(g);
  EXPECT_EQ(r.gadget_count, want.gadget_count) << graph::describe(g);
}

TEST(DegreeReduce, MatchesHalfEdgeReference) {
  // The property-suite zoo.
  std::vector<Graph> zoo = {
      graph::path(7),
      graph::cycle(9),
      graph::star(5),
      graph::complete(5),
      graph::grid(3, 4),
      graph::petersen(),
      graph::binary_tree(11),
      graph::lollipop(4, 4),
      graph::from_edges(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}}),
      graph::from_edges(7, {{0, 1}, {2, 3}, {3, 4}, {2, 4}}),
      graph::gnp(12, 0.25, 5),
      graph::random_connected_regular(10, 3, 2),
      graph::random_tree(13, 9),
      graph::unit_disk_2d(10, 0.45, 21).graph,
      graph::random_cubic_multigraph(10, 8),
      Graph{},
  };
  // Full loops, half-loops, parallel edges, isolated vertices and vertices
  // of degree 1 and 2 in one graph.
  GraphBuilder b(7);
  b.add_edge(0, 0);
  b.add_half_loop(1);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(1, 2);
  b.add_half_loop(2);
  b.add_edge(3, 4);  // degree 1 at both ends
  b.add_edge(5, 5);  // a full loop alone: degree 2
  zoo.push_back(std::move(b).build());  // vertex 6 isolated
  // Crossed parallel edges plus a half loop at a degree-3 vertex.
  zoo.push_back(graph::from_rotation(std::vector<std::vector<graph::HalfEdge>>{
      {{1, 1}, {1, 0}, {0, 2}}, {{0, 1}, {0, 0}}}));
  zoo.push_back(GraphBuilder(4).build());  // isolated vertices only
  for (const Graph& g : zoo) expect_matches_reference(g);
}

TEST(DegreeReduce, ArenaScaleReductionIsPinned) {
  // The openloop_arena network: 4096 copies of one 8-node cluster.
  const Graph g =
      graph::disjoint_copies(graph::connected_gnp(8, 0.45, 211), 4096);
  expect_matches_reference(g);
  const ReducedGraph r = reduce_to_cubic(g);
  ASSERT_TRUE(r.cubic.is_cubic());
  const std::uint32_t* words = r.cubic.rot3_data();
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a, low byte first
  for (std::size_t i = 0; i < 3 * std::size_t{r.cubic.num_nodes()}; ++i)
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (words[i] >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  EXPECT_EQ(r.cubic.num_nodes(), 98304u);
  EXPECT_EQ(h, 0x3192c223f6eac769ULL);  // from the HalfEdge-array build
}

}  // namespace
}  // namespace uesr::explore
