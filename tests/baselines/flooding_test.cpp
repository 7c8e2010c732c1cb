#include "baselines/flooding.h"

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "graph/generators.h"

namespace uesr::baselines {
namespace {

TEST(Flooding, DeliversIffConnected) {
  graph::Graph g = graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}});
  EXPECT_TRUE(flood(g, 0, 2).delivered);
  EXPECT_FALSE(flood(g, 0, 3).delivered);
  EXPECT_FALSE(flood(g, 0, 5).delivered);
}

TEST(Flooding, TransmissionsAreComponentDegreeSum) {
  graph::Graph g = graph::petersen();
  auto r = flood(g, 0, 9);
  EXPECT_EQ(r.transmissions, 30u);  // 10 vertices x degree 3
  EXPECT_EQ(r.nodes_reached, 10u);
}

TEST(Flooding, RoundsEqualBfsDistance) {
  graph::Graph g = graph::path(7);
  auto r = flood(g, 0, 5);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.rounds, 5u);
}

TEST(Flooding, StopsAtComponentBoundary) {
  graph::Graph g = graph::from_edges(7, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  auto r = flood(g, 0, 2);
  EXPECT_EQ(r.nodes_reached, 3u);
  EXPECT_EQ(r.transmissions, 4u);  // degrees 1+2+1 within the component
}

TEST(Flooding, DeadWaveCertifiesFailure) {
  // A wave that dies without reaching t provably covered s's component:
  // its non-delivery is a disconnection certificate.
  graph::Graph g = graph::from_edges(4, {{0, 1}, {2, 3}});
  auto a = flood(g, 0, 3);
  EXPECT_FALSE(a.delivered);
  EXPECT_EQ(a.nodes_reached, 2u);  // exactly Cs = {0, 1}
  auto b = flood(g, 0, 1);
  EXPECT_TRUE(b.delivered);
}

TEST(Flooding, SelfRoute) {
  graph::Graph g = graph::cycle(4);
  auto r = flood(g, 2, 2);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.rounds, 0u);
}

TEST(Flooding, Validation) {
  graph::Graph g = graph::cycle(3);
  EXPECT_THROW(flood(g, 5, 0), std::invalid_argument);
  EXPECT_THROW(flood(g, 0, 5), std::invalid_argument);
}

}  // namespace
}  // namespace uesr::baselines
