#include "graph/io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "graph/generators.h"

namespace uesr::graph {
namespace {

TEST(Io, RoundTripSimpleGraph) {
  Graph g = petersen();
  Graph h = from_edge_list(to_edge_list(g));
  EXPECT_EQ(g, h);  // exact rotation map, not just isomorphism
}

TEST(Io, RoundTripWithLoops) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 1);   // full loop
  b.add_half_loop(2);
  b.add_half_loop(2);
  b.add_edge(2, 0);
  Graph g = std::move(b).build();
  Graph h = from_edge_list(to_edge_list(g));
  EXPECT_EQ(g, h);
}

TEST(Io, RoundTripCrossedParallelPorts) {
  std::vector<std::vector<HalfEdge>> adj(2);
  adj[0] = {{1, 1}, {1, 0}};
  adj[1] = {{0, 1}, {0, 0}};
  Graph g = from_rotation(std::move(adj));
  Graph h = from_edge_list(to_edge_list(g));
  EXPECT_EQ(g, h);
}

TEST(Io, RoundTripEmptyAndIsolated) {
  Graph g = GraphBuilder(4).build();
  Graph h = from_edge_list(to_edge_list(g));
  EXPECT_EQ(g, h);
}

TEST(Io, StreamOverloadMatchesStringOverload) {
  // The stream overload is the real parser; the string form is a wrapper.
  // A stream fed in small chunks (stringstream here) must parse to the
  // identical graph, including rotation-map ports.
  Graph g = petersen();
  std::string text = to_edge_list(g);
  std::istringstream is(text);
  Graph from_stream = from_edge_list(is);
  EXPECT_EQ(from_stream, from_edge_list(text));
  EXPECT_EQ(from_stream, g);
  // The stream is consumed exactly to EOF — no lookahead beyond the data.
  EXPECT_TRUE(is.eof());
}

TEST(Io, StreamOverloadRejectsMalformedMidStream) {
  std::istringstream is("uesr-graph 2\n0 0 1 0\nbogus line\n");
  EXPECT_THROW(from_edge_list(is), std::invalid_argument);
}

TEST(Io, RejectsBadHeader) {
  EXPECT_THROW(from_edge_list("nonsense 3\n"), std::invalid_argument);
  EXPECT_THROW(from_edge_list(""), std::invalid_argument);
}

TEST(Io, RejectsOutOfRangeNode) {
  EXPECT_THROW(from_edge_list("uesr-graph 2\n0 0 5 0\n"),
               std::invalid_argument);
}

TEST(Io, RejectsDuplicateHalfEdge) {
  EXPECT_THROW(
      from_edge_list("uesr-graph 2\n0 0 1 0\n0 0 1 1\n"),
      std::invalid_argument);
}

TEST(Io, RejectsPortGap) {
  // Port 1 of node 0 is referenced but port 0 never defined.
  EXPECT_THROW(from_edge_list("uesr-graph 2\n0 1 1 0\n"),
               std::invalid_argument);
}

// Ports index a node's record list, never a dense array: a port of
// 2^32 - 1 used to wrap `port + 1` to 0 and read out of bounds.  Numbers
// are unsigned decimals, so "-1" is no longer read as 2^32 - 1 and
// "-4294967295" no longer as 1, in records and in the header alike.
TEST(Io, RejectsHugeAndNegativePorts) {
  for (const char* text : {
           "uesr-graph 2\n0 4294967295 1 0\n",
           "uesr-graph 2\n0 -1 1 0\n",
           "uesr-graph 2\n0 0 1 4294967295\n",
           "uesr-graph 2\n0 4294967296 1 0\n",
           "uesr-graph 2\n0 0 1 -4294967295\n0 1 1 0\n",
           "uesr-graph -4294967295\n0 0 0 0\n",
           "uesr-graph +2\n0 0 1 0\n",
       })
    EXPECT_THROW(from_edge_list(text), std::invalid_argument) << text;
}

// Regression: the old `is >> v >> p >> w >> q` loop stopped silently at
// the first parse failure, so a corrupted or truncated record was
// accepted as a valid prefix of the graph.
TEST(Io, RejectsJunkToken) {
  try {
    from_edge_list("uesr-graph 2\n0 0 1 0\nxyz 0 1 1\n");
    FAIL() << "junk record accepted";
  } catch (const std::invalid_argument& e) {
    // The error names the offending line.
    EXPECT_NE(std::string(e.what()).find("xyz 0 1 1"), std::string::npos);
  }
}

TEST(Io, RejectsTruncatedRecord) {
  EXPECT_THROW(from_edge_list("uesr-graph 2\n0 0 1 0\n1 1\n"),
               std::invalid_argument);
}

TEST(Io, RejectsTrailingJunkOnRecord) {
  EXPECT_THROW(from_edge_list("uesr-graph 2\n0 0 1 0 extra\n"),
               std::invalid_argument);
}

TEST(Io, RejectsJunkAfterHeader) {
  EXPECT_THROW(from_edge_list("uesr-graph 2 huh\n0 0 1 0\n"),
               std::invalid_argument);
}

TEST(Io, AcceptsBlankLinesAndMissingFinalNewline) {
  Graph g = from_edge_list("uesr-graph 2\n\n0 0 1 0\n\n  \n0 1 1 1");
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.degree(0), 2u);
}

TEST(Io, DotOutputContainsEdges) {
  Graph g = from_edges(3, {{0, 1}, {1, 2}});
  std::string dot = to_dot(g, "T");
  EXPECT_NE(dot.find("graph T {"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 1;"), std::string::npos);
  EXPECT_NE(dot.find("1 -- 2;"), std::string::npos);
}

TEST(Io, DotMarksHalfLoops) {
  GraphBuilder b(1);
  b.add_half_loop(0);
  std::string dot = to_dot(std::move(b).build());
  EXPECT_NE(dot.find("label=\"h\""), std::string::npos);
}

}  // namespace
}  // namespace uesr::graph
