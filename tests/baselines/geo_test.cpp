#include "baselines/geo.h"

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "graph/generators.h"

namespace uesr::baselines {
namespace {

using graph::NodeId;
using graph::Point2;
using graph::Positioned2;

Positioned2 square_with_notch() {
  // A "U" obstacle: greedy from 0 toward 3 gets stuck at the notch tip 4.
  //
  //   0 --- 4      3
  //   |     |      |
  //   1 --- 2 ---- 5   (4 is closest to 3 among 0's neighbours but has no
  //                     neighbour closer to 3 than itself)
  graph::GraphBuilder b(6);
  b.add_edge(0, 4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 4);
  b.add_edge(2, 5);
  b.add_edge(5, 3);
  return {std::move(b).build(),
          {{0.0, 1.0}, {0.0, 0.0}, {1.0, 0.0}, {2.0, 1.0}, {1.0, 1.05},
           {2.0, 0.0}}};
}

TEST(Greedy2D, DeliversOnConvexInstance) {
  auto net = graph::connected_unit_disk_2d(60, 0.35, 1);
  // Dense radius: greedy should usually make it; take a pair that works.
  auto a = greedy_route_2d(net, 0, 1);
  // Not asserting success in general — only that the accounting is sane.
  if (a.delivered) {
    EXPECT_GT(a.transmissions, 0u);
  } else {
    EXPECT_TRUE(a.stuck || a.transmissions > 0);
  }
}

TEST(Greedy2D, GetsStuckAtLocalMinimum) {
  Positioned2 net = square_with_notch();
  auto a = greedy_route_2d(net, 0, 3);
  EXPECT_FALSE(a.delivered);
  EXPECT_TRUE(a.stuck);
}

TEST(Greedy2D, DeliversOnStraightPath) {
  graph::GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  Positioned2 net{std::move(b).build(),
                  {{0, 0}, {1, 0}, {2, 0}, {3, 0}}};
  auto a = greedy_route_2d(net, 0, 3);
  EXPECT_TRUE(a.delivered);
  EXPECT_EQ(a.transmissions, 3u);
}

TEST(Gpsr, RecoversWhereGreedyFails) {
  Positioned2 net = square_with_notch();
  ASSERT_TRUE(graph::is_plane_embedding(net));
  auto g = greedy_route_2d(net, 0, 3);
  ASSERT_FALSE(g.delivered);
  auto p = gpsr_route(net, 0, 3);
  EXPECT_TRUE(p.delivered);
}

TEST(Gpsr, DeliveryOnGabrielUdgSweep) {
  // The headline property: on planarized connected 2D UDGs, face-routing
  // recovery delivers everywhere we test.
  int attempts = 0, delivered = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto raw = graph::connected_unit_disk_2d(50, 0.30, seed);
    auto planar = graph::gabriel_subgraph(raw);
    for (NodeId t = 1; t < 50; t += 7) {
      ++attempts;
      if (gpsr_route(planar, 0, t).delivered) ++delivered;
    }
  }
  EXPECT_EQ(delivered, attempts) << delivered << "/" << attempts;
}

TEST(Gpsr, StuckAcrossComponents) {
  graph::GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  Positioned2 net{std::move(b).build(),
                  {{0, 0}, {1, 0}, {3, 0}, {4, 0}}};
  auto a = gpsr_route(net, 0, 3);
  EXPECT_FALSE(a.delivered);
}

TEST(Greedy3D, WorksOnDenseInstancesFailsInVoids) {
  // Dense 3D UDG: greedy usually works.
  auto dense = graph::connected_unit_disk_3d(80, 0.5, 2);
  int ok = 0, total = 0;
  for (NodeId t = 1; t < 80; t += 9) {
    ++total;
    if (greedy_route_3d(dense, 0, t).delivered) ++ok;
  }
  EXPECT_GT(ok, total / 2);
  // Sparse 3D UDG: local minima appear and greedy has no recovery — this
  // is the 3D gap ([2]) that UES routing closes.
  auto sparse = graph::connected_unit_disk_3d(60, 0.32, 5);
  int stuck = 0;
  for (NodeId s = 0; s < 10; ++s)
    for (NodeId t = 50; t < 60; ++t)
      if (greedy_route_3d(sparse, s, t).stuck) ++stuck;
  EXPECT_GT(stuck, 0);
}

TEST(Geo, HopLimitRespected) {
  auto net = graph::connected_unit_disk_2d(30, 0.3, 3);
  auto a = greedy_route_2d(net, 0, 29, 1);
  EXPECT_LE(a.transmissions, 1u);
}

TEST(Geo, ValidatesArguments) {
  auto net = graph::connected_unit_disk_2d(10, 0.5, 1);
  EXPECT_THROW(greedy_route_2d(net, 99, 0), std::invalid_argument);
  EXPECT_THROW(gpsr_route(net, 0, 99), std::invalid_argument);
}

}  // namespace
}  // namespace uesr::baselines
