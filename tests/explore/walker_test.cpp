#include "explore/walker.h"

#include <iterator>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "explore/degree_reduce.h"
#include "graph/algorithms.h"
#include "graph/generators.h"

namespace uesr::explore {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::HalfEdge;
using graph::NodeId;
using graph::Port;

TEST(Walker, ForwardStepFollowsOffsetRule) {
  // Triangle: ports assigned in edge order 0-1, 1-2, 2-0.
  Graph g = graph::cycle(3);
  // Depart 0 via port 0 -> arrive at 1 on port 0. Symbol 1 -> leave port 1.
  HalfEdge d1 = forward_step(g, {0, 0}, 1);
  EXPECT_EQ(d1, (HalfEdge{1, 1}));
  // Symbol 0 -> leave on the entry port (bounce back).
  HalfEdge bounce = forward_step(g, {0, 0}, 0);
  EXPECT_EQ(bounce, (HalfEdge{1, 0}));
}

TEST(Walker, ForwardStepWrapsModDegree) {
  Graph g = graph::star(4);  // hub 0 has degree 4
  // Depart leaf 1 via port 0 -> arrive hub on port 0; symbol 7 ≡ 3 (mod 4).
  HalfEdge d = forward_step(g, {1, 0}, 7);
  EXPECT_EQ(d, (HalfEdge{0, 3}));
}

TEST(Walker, HalfLoopReentersSamePort) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  b.add_half_loop(1);
  Graph g = std::move(b).build();
  // Depart 1 via its half loop (port 1): re-enter 1 on port 1; symbol 1
  // advances to port 0 -> the real edge.
  HalfEdge d = forward_step(g, {1, 1}, 1);
  EXPECT_EQ(d, (HalfEdge{1, 0}));
}

TEST(Walker, ReverseInvertsForwardEverywhere) {
  // Property: reverse_step(forward_step(d, t), t) == d for every departure
  // half-edge and symbol, on assorted graphs including loopy ones.
  std::vector<Graph> zoo = {graph::cycle(5), graph::complete(5),
                            graph::petersen(), graph::star(4),
                            graph::random_cubic_multigraph(8, 3)};
  {
    GraphBuilder b(2);
    b.add_edge(0, 1);
    b.add_edge(0, 0);
    b.add_half_loop(0);
    b.add_half_loop(1);
    b.add_edge(1, 1);
    zoo.push_back(std::move(b).build());
  }
  for (const Graph& g : zoo) {
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      for (Port p = 0; p < g.degree(v); ++p)
        for (Symbol t = 0; t < 5; ++t) {
          HalfEdge d{v, p};
          HalfEdge fwd = forward_step(g, d, t);
          EXPECT_EQ(reverse_step(g, fwd, t), d)
              << graph::describe(g) << " v=" << v << " p=" << p << " t=" << t;
        }
  }
}

TEST(Walker, TraceWalkMatchesManualReplay) {
  Graph g = graph::petersen();
  RandomExplorationSequence seq(11, 200, 10);
  WalkTrace tr = trace_walk(g, {0, 0}, seq, 200);
  ASSERT_EQ(tr.departures.size(), 201u);
  HalfEdge d{0, 0};
  for (std::uint64_t j = 1; j <= 200; ++j) {
    d = forward_step(g, d, seq.symbol(j));
    EXPECT_EQ(tr.departures[j], d);
  }
}

TEST(Walker, TraceWalkCapsAtSequenceLength) {
  Graph g = graph::cycle(4);
  RandomExplorationSequence seq(1, 10, 4);
  WalkTrace tr = trace_walk(g, {0, 0}, seq, 1000000);
  EXPECT_EQ(tr.departures.size(), 11u);
}

TEST(Walker, WalkPositionAgreesWithTrace) {
  Graph g = graph::moebius_kantor();
  RandomExplorationSequence seq(5, 300, 16);
  WalkTrace tr = trace_walk(g, {2, 1}, seq, 300);
  for (std::uint64_t j : {0ULL, 1ULL, 57ULL, 300ULL})
    EXPECT_EQ(walk_position(g, {2, 1}, seq, j), tr.departures[j]);
  EXPECT_THROW(walk_position(g, {2, 1}, seq, 301), std::out_of_range);
}

TEST(Walker, BackwardReplayRetracesWholeWalk) {
  // Walk forward k steps, then replay backward using the reverse rule; the
  // replay must visit the same departures in reverse order.
  Graph g = reduce_to_cubic(graph::lollipop(4, 3)).cubic;
  RandomExplorationSequence seq(9, 500, g.num_nodes());
  WalkTrace tr = trace_walk(g, {0, 0}, seq, 500);
  HalfEdge d = tr.departures.back();
  for (std::uint64_t j = 500; j >= 1; --j) {
    d = reverse_step(g, d, seq.symbol(j));
    EXPECT_EQ(d, tr.departures[j - 1]) << "at step " << j;
  }
  EXPECT_EQ(d, (HalfEdge{0, 0}));
}

TEST(Walker, SymbolsNearTwoToThe32RoundTrip) {
  // Forward steps reduce the symbol before adding the port: (1 + t) mod 3
  // for t = 0xFFFFFFFF is 1 (2^32 = 1 mod 3), where the uint32 sum would
  // wrap to 0.  A walk over such symbols must equal the walk over the
  // reduced symbols, and the reverse rule must retrace it.
  Graph g = reduce_to_cubic(graph::lollipop(4, 3)).cubic;
  const Symbol big[] = {0xFFFFFFFFu, 0xFFFFFFFEu, 1, 0xFFFFFFFFu, 2, 0};
  std::vector<Symbol> raw, reduced;
  for (int i = 0; i < 300; ++i) {
    raw.push_back(big[(i * 5 + i / 7) % std::size(big)]);
    reduced.push_back(raw.back() % 3);
  }
  const FixedExplorationSequence seq(raw, g.num_nodes(), "big");
  const FixedExplorationSequence ref(reduced, g.num_nodes(), "reduced");
  WalkTrace tr = trace_walk(g, {0, 0}, seq, 300);
  EXPECT_EQ(tr.departures, trace_walk(g, {0, 0}, ref, 300).departures);
  HalfEdge d = tr.departures.back();
  for (std::uint64_t j = 300; j >= 1; --j) {
    EXPECT_EQ(forward_step(g, tr.departures[j - 1], seq.symbol(j)),
              tr.departures[j]) << "at step " << j;
    d = reverse_step(g, d, seq.symbol(j));
    ASSERT_EQ(d, tr.departures[j - 1]) << "at step " << j;
  }
  EXPECT_EQ(advance_port(1, 0xFFFFFFFFu, 3), 1u);
  EXPECT_EQ(advance_port(2, 0xFFFFFFFEu, 3), 1u);
}

TEST(Walker, VisitedSetMatchesDepartureEndpoints) {
  Graph g = graph::grid(3, 3);
  RandomExplorationSequence seq(3, 100, 9);
  WalkTrace tr = trace_walk(g, {0, 0}, seq, 100);
  std::vector<bool> expect(g.num_nodes(), false);
  for (const HalfEdge& d : tr.departures) {
    expect[d.node] = true;
    expect[g.rotate(d.node, d.port).node] = true;
  }
  EXPECT_EQ(tr.visited, expect);
}

TEST(Walker, FirstVisitsUniqueAndStartFirst) {
  Graph g = graph::cycle(6);
  RandomExplorationSequence seq(4, 200, 6);
  WalkTrace tr = trace_walk(g, {2, 0}, seq, 200);
  EXPECT_EQ(tr.first_visits.front(), 2u);
  std::set<NodeId> uniq(tr.first_visits.begin(), tr.first_visits.end());
  EXPECT_EQ(uniq.size(), tr.first_visits.size());
}

TEST(Walker, CoverTimeOnCompleteGraphIsFast) {
  Graph g = graph::complete(6);
  RandomExplorationSequence seq(8, 10000, 6);
  auto ct = cover_time(g, {0, 0}, seq);
  ASSERT_TRUE(ct.has_value());
  EXPECT_LT(*ct, 200u);
}

TEST(Walker, CoverRestrictedToComponent) {
  // Two disjoint triangles: walk from one covers "its component" only.
  Graph g = graph::from_edges(
      6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  RandomExplorationSequence seq(2, 1000, 6);
  EXPECT_TRUE(covers_component(g, {0, 0}, seq));
  WalkTrace tr = trace_walk(g, {0, 0}, seq, 1000);
  EXPECT_FALSE(tr.visited[3]);
  EXPECT_FALSE(tr.visited[4]);
}

TEST(Walker, TooShortSequenceFailsToCover) {
  Graph g = graph::cycle(64);
  RandomExplorationSequence seq(1, 8, 64);
  EXPECT_FALSE(covers_component(g, {0, 0}, seq));
  EXPECT_FALSE(cover_time(g, {0, 0}, seq).has_value());
}

TEST(Walker, SingleVertexHalfLoopsCoverImmediately) {
  GraphBuilder b(1);
  b.add_half_loop(0);
  b.add_half_loop(0);
  b.add_half_loop(0);
  Graph g = std::move(b).build();
  RandomExplorationSequence seq(1, 10, 1);
  auto ct = cover_time(g, {0, 0}, seq);
  ASSERT_TRUE(ct.has_value());
  EXPECT_EQ(*ct, 0u);
}

TEST(Walker, BadStartThrows) {
  Graph g = graph::cycle(3);
  RandomExplorationSequence seq(1, 10, 3);
  EXPECT_THROW(trace_walk(g, {5, 0}, seq, 10), std::invalid_argument);
  EXPECT_THROW(trace_walk(g, {0, 9}, seq, 10), std::invalid_argument);
}

TEST(Walker, CoverTimeOverloadMatchesWrapperAcrossStarts) {
  // The (need, scratch) overload with one shared scratch must agree with
  // the public single-start wrapper for every start half-edge, including
  // disconnected pieces (differing component sizes).
  Graph g = graph::from_edges(
      7, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 6}, {6, 3}});
  RandomExplorationSequence seq(13, 600, 7);
  WalkScratch scratch;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::size_t need = graph::component_of(g, v).size();
    for (graph::Port p = 0; p < g.degree(v); ++p) {
      auto expected = cover_time(g, {v, p}, seq);
      auto got = cover_time(g, {v, p}, seq, need, scratch);
      EXPECT_EQ(got, expected) << "start=(" << v << "," << p << ")";
      EXPECT_EQ(covers_component(g, {v, p}, seq, need, scratch),
                expected.has_value());
    }
  }
}

TEST(Walker, VisitedCountMatchesTrace) {
  Graph g = graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  FixedExplorationSequence seq({1, 1, 0, 1, 1, 2, 0, 1}, 6, "short");
  WalkScratch scratch;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v)
    for (graph::Port p = 0; p < g.degree(v); ++p) {
      auto tr = trace_walk(g, {v, p}, seq, seq.length());
      EXPECT_EQ(visited_count(g, {v, p}, seq, scratch),
                tr.first_visits.size())
          << "start=(" << v << "," << p << ")";
    }
}

TEST(Walker, ScratchAdaptsToDifferentGraphSizes) {
  WalkScratch scratch;
  Graph small = graph::cycle(3);
  Graph big = graph::cycle(50);
  RandomExplorationSequence seq(5, 20000, 50);
  EXPECT_TRUE(covers_component(small, {0, 0}, seq, 3, scratch));
  EXPECT_TRUE(covers_component(big, {0, 0}, seq, 50, scratch));
  EXPECT_TRUE(covers_component(small, {0, 0}, seq, 3, scratch));
}

}  // namespace
}  // namespace uesr::explore
