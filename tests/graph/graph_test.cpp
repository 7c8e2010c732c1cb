#include "graph/graph.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"

namespace uesr::graph {
namespace {

TEST(GraphBuilder, SimpleTriangle) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.is_regular(2));
}

TEST(GraphBuilder, PortAssignmentOrder) {
  GraphBuilder b(3);
  b.add_edge(0, 1);  // 0:p0 <-> 1:p0
  b.add_edge(0, 2);  // 0:p1 <-> 2:p0
  Graph g = std::move(b).build();
  EXPECT_EQ(g.rotate(0, 0), (HalfEdge{1, 0}));
  EXPECT_EQ(g.rotate(0, 1), (HalfEdge{2, 0}));
  EXPECT_EQ(g.rotate(1, 0), (HalfEdge{0, 0}));
  EXPECT_EQ(g.rotate(2, 0), (HalfEdge{0, 1}));
}

TEST(GraphBuilder, FullLoopUsesTwoPorts) {
  GraphBuilder b(1);
  b.add_edge(0, 0);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.rotate(0, 0), (HalfEdge{0, 1}));
  EXPECT_EQ(g.rotate(0, 1), (HalfEdge{0, 0}));
  EXPECT_FALSE(g.is_half_loop(0, 0));
}

TEST(GraphBuilder, HalfLoopIsFixedPoint) {
  GraphBuilder b(1);
  b.add_half_loop(0);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.is_half_loop(0, 0));
  EXPECT_EQ(g.rotate(0, 0), (HalfEdge{0, 0}));
}

TEST(GraphBuilder, ParallelEdges) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.is_regular(3));
  EXPECT_EQ(g.neighbors(0), std::vector<NodeId>{1});
}

TEST(GraphBuilder, AddNodeGrows) {
  GraphBuilder b(0);
  EXPECT_EQ(b.add_node(), 0u);
  EXPECT_EQ(b.add_node(), 1u);
  b.add_edge(0, 1);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.num_nodes(), 2u);
}

TEST(GraphBuilder, OutOfRangeThrows) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 2), std::invalid_argument);
  EXPECT_THROW(b.add_half_loop(5), std::invalid_argument);
}

TEST(Graph, PortToFindsEdge) {
  Graph g = from_edges(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(g.port_to(0, 1), 0u);
  EXPECT_EQ(g.port_to(2, 1), 0u);
  EXPECT_THROW(g.port_to(0, 2), std::invalid_argument);
}

TEST(Graph, AdjacentQueries) {
  Graph g = from_edges(3, {{0, 1}});
  EXPECT_TRUE(g.adjacent(0, 1));
  EXPECT_TRUE(g.adjacent(1, 0));
  EXPECT_FALSE(g.adjacent(0, 2));
}

TEST(Graph, DegreeExtremes) {
  Graph g = from_edges(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_EQ(g.min_degree(), 1u);
  EXPECT_FALSE(g.is_regular(3));
}

TEST(Graph, ValidateRejectsBrokenInvolution) {
  std::vector<std::vector<HalfEdge>> adj(2);
  adj[0] = {{1, 0}};
  adj[1] = {{1, 0}};  // 1's port 0 points at itself, but 0 points at 1
  EXPECT_THROW(from_rotation(std::move(adj)), std::logic_error);
}

TEST(Graph, FromRotationAcceptsCrossedParallelPorts) {
  // Parallel edges with crossed port order: not constructible by the
  // sequential builder, but a legal rotation map.
  std::vector<std::vector<HalfEdge>> adj(2);
  adj[0] = {{1, 1}, {1, 0}};
  adj[1] = {{0, 1}, {0, 0}};
  Graph g = from_rotation(std::move(adj));
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Graph, RelabeledPreservesStructure) {
  Graph g = from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  std::vector<std::vector<Port>> perms(4);
  for (NodeId v = 0; v < 4; ++v) {
    perms[v].resize(g.degree(v));
    std::iota(perms[v].begin(), perms[v].end(), Port{0});
    std::reverse(perms[v].begin(), perms[v].end());
  }
  Graph h = g.relabeled(perms);
  h.validate();
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_EQ(h.degree(v), g.degree(v));
    EXPECT_EQ(h.neighbors(v), g.neighbors(v));
  }
  // Port 0 of vertex 0 now leads where the last port used to.
  EXPECT_EQ(h.neighbor(0, 0), g.neighbor(0, g.degree(0) - 1));
}

TEST(Graph, RelabeledIdentityIsNoop) {
  Graph g = from_edges(3, {{0, 1}, {1, 2}, {2, 0}});
  std::vector<std::vector<Port>> perms(3, std::vector<Port>{0, 1});
  EXPECT_EQ(g.relabeled(perms), g);
}

TEST(Graph, RelabeledValidatesPermutation) {
  Graph g = from_edges(2, {{0, 1}});
  std::vector<std::vector<Port>> bad(2);
  bad[0] = {0, 0};  // wrong size AND not a permutation
  bad[1] = {0};
  EXPECT_THROW(g.relabeled(bad), std::invalid_argument);
  bad[0] = {0};
  bad[1] = {5};  // out of range
  EXPECT_THROW(g.relabeled(bad), std::invalid_argument);
}

TEST(Graph, RandomRelabelKeepsEdgeSet) {
  Graph g = from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}});
  util::Pcg32 rng(77);
  for (int i = 0; i < 20; ++i) {
    Graph h = g.randomly_relabeled(rng);
    h.validate();
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      EXPECT_EQ(h.neighbors(v), g.neighbors(v));
  }
}

TEST(Graph, EdgeCountMixedLoops) {
  GraphBuilder b(2);
  b.add_edge(0, 1);     // 1 edge
  b.add_edge(0, 0);     // full loop: 1 edge, 2 ports
  b.add_half_loop(1);   // half loop: 1 edge, 1 port
  Graph g = std::move(b).build();
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(Graph, DescribeFormat) {
  Graph g = from_edges(3, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_EQ(describe(g), "n=3 m=3 deg=[2,2]");
}

TEST(Graph, EmptyGraph) {
  Graph g = GraphBuilder(0).build();
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

// ---- CSR layout: observational identity with the rotation-map model ----

// Extracts the rotation map through the public API.
std::vector<std::vector<HalfEdge>> extract_rotation(const Graph& g) {
  std::vector<std::vector<HalfEdge>> adj(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    adj[v].resize(g.degree(v));
    for (Port p = 0; p < g.degree(v); ++p) adj[v][p] = g.rotate(v, p);
  }
  return adj;
}

TEST(GraphCsr, CubicDetectionAndRotate3) {
  Graph cubic = k4();
  EXPECT_TRUE(cubic.is_cubic());
  for (NodeId v = 0; v < cubic.num_nodes(); ++v)
    for (Port p = 0; p < 3; ++p)
      EXPECT_EQ(cubic.rotate3(v, p), cubic.rotate(v, p));
  EXPECT_FALSE(path(3).is_cubic());
  EXPECT_FALSE(GraphBuilder(0).build().is_cubic());
}

TEST(GraphCsr, HalfEdgeDataMatchesRotate) {
  Graph g = gnp(12, 0.3, 5);
  ASSERT_FALSE(g.is_cubic());
  const HalfEdge* data = g.half_edge_data();
  std::size_t idx = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    for (Port p = 0; p < g.degree(v); ++p)
      EXPECT_EQ(data[idx++], g.rotate(v, p));
}

TEST(GraphCsr, CubicPackedStorageMatchesRotate) {
  // Cubic graphs drop the generic HalfEdge array entirely; the packed
  // words of rot3_data() are the whole rotation map.
  Graph g = random_regular(64, 3, 77);
  ASSERT_TRUE(g.is_cubic());
  EXPECT_EQ(g.half_edge_data(), nullptr);
  const std::uint32_t* rot3 = g.rot3_data();
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    for (Port p = 0; p < 3; ++p) {
      HalfEdge want = g.rotate(v, p);
      const std::uint32_t word = rot3[3 * static_cast<std::size_t>(v) + p];
      EXPECT_EQ(word >> 2, want.node);
      EXPECT_EQ(word & 3, want.port);
    }
  // Packed storage is derived deterministically, so equality stays
  // observational across construction paths.
  Graph again = from_rotation(extract_rotation(g));
  EXPECT_EQ(g, again);
}

TEST(GraphCsr, CubicCapacityIsNamed) {
  // The packed word keeps 30 bits for the node.  A 2^30-node cubic graph
  // needs ~12 GB, so the cap is checked through the helper that
  // from_rot3 and reduce_to_cubic both call.
  EXPECT_NO_THROW(check_cubic_capacity(kMaxCubicNodes - 1));
  EXPECT_THROW(check_cubic_capacity(std::uint64_t{1} << 32),
               std::length_error);
  try {
    check_cubic_capacity(kMaxCubicNodes);
    FAIL() << "no throw at 2^30";
  } catch (const std::length_error& e) {
    EXPECT_NE(std::string(e.what()).find("1073741824"), std::string::npos)
        << e.what();
  }
}

TEST(GraphCsr, CubicShapeWithOutOfRangeEntryIsRejected) {
  // A far node past the graph must not be packed: node + 2^30 shifted
  // left by 2 wraps to exactly the valid word of node, so validate() would
  // pass.  The repack clamps it to node n, which the packed check rejects.
  std::vector<std::vector<HalfEdge>> adj = extract_rotation(k4());
  adj[0][0].node += NodeId{1} << 30;
  EXPECT_THROW(from_rotation(adj), std::logic_error);
  // A far port past 2 is clamped to 3 the same way, and named.
  adj = extract_rotation(k4());
  adj[1][2].port = 7;
  try {
    from_rotation(adj);
    FAIL() << "accepted far port 7";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("port out of range"),
              std::string::npos)
        << e.what();
  }
}

// The message from_rot3 rejects `words` with; a test failure when the words
// are accepted (another exception type escapes and fails the test).
template <class Error>
std::string rot3_rejection(std::vector<std::uint32_t> words) {
  try {
    from_rot3(std::move(words));
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "from_rot3 accepted the words";
  return "";
}

TEST(GraphCsr, Rot3ConstructorEqualsEveryOtherPath) {
  for (const Graph& g :
       {k4(), petersen(), random_cubic_multigraph(10, 8),
        random_regular(64, 3, 77)}) {
    ASSERT_TRUE(g.is_cubic());
    const std::vector<std::uint32_t> words(
        g.rot3_data(), g.rot3_data() + 3 * std::size_t{g.num_nodes()});
    const Graph h = from_rot3(words);
    EXPECT_EQ(h, g) << describe(g);
    EXPECT_EQ(h.num_edges(), g.num_edges()) << describe(g);
  }
  // Half-loops count one edge each, in the same pass as the check.
  GraphBuilder b(2);
  b.add_half_loop(0);
  b.add_edge(0, 1);
  b.add_half_loop(0);
  b.add_half_loop(1);
  b.add_half_loop(1);
  const Graph loops = std::move(b).build();
  const Graph h = from_rot3({pack_rot3(0, 0), pack_rot3(1, 0), pack_rot3(0, 2),
                             pack_rot3(0, 1), pack_rot3(1, 1), pack_rot3(1, 2)});
  EXPECT_EQ(h, loops);
  EXPECT_EQ(h.num_edges(), 5u);
  // No words is the zero-node graph, whatever the construction path.
  EXPECT_EQ(from_rot3({}), Graph{});
}

TEST(GraphCsr, Rot3ConstructorRejectsHostileWords) {
  const Graph k = k4();
  const std::vector<std::uint32_t> good(k.rot3_data(), k.rot3_data() + 12);
  ASSERT_EQ(from_rot3(good), k);

  std::vector<std::uint32_t> words = good;
  words.pop_back();
  EXPECT_NE(rot3_rejection<std::invalid_argument>(words).find("multiple of 3"),
            std::string::npos);

  for (std::uint32_t far : {pack_rot3(4, 0), pack_rot3(NodeId{1} << 29, 1),
                            std::uint32_t{0xFFFFFFFF}}) {
    words = good;
    words[5] = far;
    EXPECT_NE(rot3_rejection<std::logic_error>(words).find(
                  "node out of range"),
              std::string::npos)
        << far;
  }

  words = good;
  words[5] = pack_rot3(2, 3);
  EXPECT_NE(rot3_rejection<std::logic_error>(words).find("port out of range"),
            std::string::npos);

  // Swapping two ports of one vertex leaves every word in range but breaks
  // the involution; so does one vertex pointing at itself as a half-loop
  // while its old partner still points at it.
  words = good;
  std::swap(words[0], words[1]);
  EXPECT_NE(rot3_rejection<std::logic_error>(words).find("not an involution"),
            std::string::npos);
  words = good;
  words[4] = pack_rot3(1, 1);
  EXPECT_NE(rot3_rejection<std::logic_error>(words).find("not an involution"),
            std::string::npos);
}

TEST(GraphCsr, FlatFromRotationEqualsNested) {
  // Crossed parallel edges plus a half loop: a rotation map sequential port
  // assignment cannot express.
  std::vector<std::vector<HalfEdge>> adj(2);
  adj[0] = {{1, 1}, {1, 0}, {0, 2}};  // ports 0,1 cross; port 2 half loop
  adj[1] = {{0, 1}, {0, 0}};
  std::vector<HalfEdge> flat;
  std::vector<std::size_t> offsets{0};
  for (const auto& row : adj) {
    flat.insert(flat.end(), row.begin(), row.end());
    offsets.push_back(flat.size());
  }
  Graph nested = from_rotation(adj);
  Graph flat_g = from_rotation(std::move(offsets), std::move(flat));
  EXPECT_EQ(nested, flat_g);
  EXPECT_TRUE(nested.is_half_loop(0, 2));
  EXPECT_EQ(nested.rotate(0, 0), (HalfEdge{1, 1}));
}

TEST(GraphCsr, FlatFromRotationValidatesShape) {
  // offsets not starting at 0.
  EXPECT_THROW(from_rotation(std::vector<std::size_t>{1, 1},
                             std::vector<HalfEdge>{}),
               std::invalid_argument);
  // offsets not covering the half-edge array.
  EXPECT_THROW(from_rotation(std::vector<std::size_t>{0, 1},
                             std::vector<HalfEdge>{{0, 0}, {0, 1}}),
               std::invalid_argument);
  // non-monotone offsets.
  EXPECT_THROW(from_rotation(std::vector<std::size_t>{0, 2, 1},
                             std::vector<HalfEdge>{{0, 1}, {0, 0}}),
               std::invalid_argument);
  // involution violations still detected through the flat path.
  EXPECT_THROW(from_rotation(std::vector<std::size_t>{0, 1, 2},
                             std::vector<HalfEdge>{{1, 0}, {0, 1}}),
               std::logic_error);
}

TEST(GraphCsr, ZeroNodeGraphsEqualAcrossConstructionPaths) {
  // Every way of building the empty graph must normalize to the same
  // representation, or the defaulted operator== would leak the layout.
  EXPECT_EQ(Graph(), GraphBuilder(0).build());
  EXPECT_EQ(Graph(), from_rotation(std::vector<std::vector<HalfEdge>>{}));
  EXPECT_EQ(Graph(), from_rotation(std::vector<std::size_t>{0},
                                   std::vector<HalfEdge>{}));
  EXPECT_EQ(Graph(), from_rotation(std::vector<std::size_t>{},
                                   std::vector<HalfEdge>{}));
}

TEST(GraphCsr, RoundTripThroughFromRotation) {
  util::Pcg32 rng(123);
  const std::vector<Graph> zoo = {
      gnp(17, 0.2, 3),
      random_connected_regular(12, 3, 4),
      random_cubic_multigraph(10, 8),
      star(4),
      from_edges(5, {{0, 0}, {1, 2}, {2, 1}, {3, 4}}),
  };
  for (const Graph& g : zoo) {
    // from_rotation over the extracted map reproduces an equal graph.
    Graph h = from_rotation(extract_rotation(g));
    EXPECT_EQ(g, h) << describe(g);
    // Observational agreement on every accessor.
    ASSERT_EQ(g.num_nodes(), h.num_nodes());
    EXPECT_EQ(g.num_edges(), h.num_edges());
    EXPECT_EQ(g.is_cubic(), h.is_cubic());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(g.degree(v), h.degree(v));
      EXPECT_EQ(g.neighbors(v), h.neighbors(v));
      for (Port p = 0; p < g.degree(v); ++p) {
        EXPECT_EQ(g.rotate(v, p), h.rotate(v, p));
        EXPECT_EQ(g.neighbor(v, p), h.neighbor(v, p));
        EXPECT_EQ(g.is_half_loop(v, p), h.is_half_loop(v, p));
      }
    }
    EXPECT_NO_THROW(h.validate());
    // Relabel by a random permutation and undo it: identity round trip.
    std::vector<std::vector<Port>> perms(g.num_nodes());
    std::vector<std::vector<Port>> inverse(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      perms[v].resize(g.degree(v));
      std::iota(perms[v].begin(), perms[v].end(), Port{0});
      std::shuffle(perms[v].begin(), perms[v].end(), rng);
      inverse[v].resize(perms[v].size());
      for (Port p = 0; p < perms[v].size(); ++p) inverse[v][perms[v][p]] = p;
    }
    EXPECT_EQ(g.relabeled(perms).relabeled(inverse), g) << describe(g);
  }
}

}  // namespace
}  // namespace uesr::graph
