// End-to-end integration tests: whole-pipeline scenarios that exercise
// several modules together the way the examples and benches do.
#include <gtest/gtest.h>

#include "baselines/flooding.h"
#include "baselines/geo.h"
#include "baselines/random_walk.h"
#include "core/api.h"
#include "core/hybrid.h"
#include "explore/certified.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/geometric.h"
#include "graph/io.h"
#include "util/stats.h"

namespace uesr {
namespace {

TEST(Integration, CertifiedSequenceDrivesTheRouter) {
  // Build a graph whose reduction is small enough for the n<=4-certified
  // sequence... degree reduction blows past 4 vertices for anything
  // non-trivial, so instead certify at the reduced size and route with it.
  graph::Graph g = graph::path(2);  // reduces to 6 gadget vertices
  explore::CertifiedUes cert = explore::find_certified_ues(6, 7, 46656);
  core::Options opt;
  opt.sequence = cert.sequence;
  core::AdHocNetwork net(g, opt);
  auto r = net.route(0, 1);
  EXPECT_TRUE(r.delivered);
  // And the failure certificate is *sound* under a certified sequence:
  graph::Graph g2 = graph::from_edges(3, {{0, 1}});
  explore::CertifiedUes cert2 = explore::find_certified_ues(9, 7, 46656);
  core::Options opt2;
  opt2.sequence = cert2.sequence;
  core::AdHocNetwork net2(g2, opt2);
  EXPECT_FALSE(net2.route(0, 2).delivered);
  EXPECT_TRUE(net2.route(0, 1).delivered);
}

TEST(Integration, SensorFieldPipeline) {
  // UDG -> gabriel planarization -> three routers agree with ground truth.
  auto field = graph::connected_unit_disk_2d(40, 0.3, 11);
  auto planar = graph::gabriel_subgraph(field);
  ASSERT_TRUE(graph::is_plane_embedding(planar));
  ASSERT_TRUE(graph::is_connected(planar.graph));
  core::AdHocNetwork net(field.graph);
  for (graph::NodeId t = 1; t < 40; t += 5) {
    EXPECT_TRUE(net.route(0, t).delivered);
    EXPECT_TRUE(baselines::gpsr_route(planar, 0, t).delivered);
    EXPECT_TRUE(baselines::flood(field.graph, 0, t).delivered);
  }
}

TEST(Integration, AdaptivePipelineOnMultiComponentWorld) {
  // Census -> sized sequence -> route, across components.
  graph::Graph g = graph::gnp(30, 0.09, 17);
  core::AdHocNetwork net(g);
  auto comp = graph::connected_components(g);
  for (graph::NodeId s : {graph::NodeId{0}, graph::NodeId{15},
                          graph::NodeId{29}}) {
    for (graph::NodeId t : {graph::NodeId{3}, graph::NodeId{20}}) {
      auto r = net.route_adaptive(s, t);
      EXPECT_EQ(r.route.delivered, comp[s] == comp[t])
          << s << "->" << t;
      EXPECT_EQ(r.census.original_count,
                graph::component_of(g, s).size());
    }
  }
}

TEST(Integration, HybridBeatsPureUesOnFastGraphs) {
  graph::Graph g = graph::complete(16);
  explore::ReducedGraph red = explore::reduce_to_cubic(g);
  auto seq = explore::standard_ues(red.cubic.num_nodes());
  util::Samples hybrid_tx, ues_tx;
  for (int trial = 0; trial < 10; ++trial) {
    baselines::RandomWalkSession prob(g, 0, 9, 0, 100 + trial);
    core::RouteSession guar(red, *seq, 0, 9);
    auto h = core::route_hybrid(prob, guar);
    ASSERT_EQ(h.verdict(), core::Verdict::kDelivered);
    hybrid_tx.add(static_cast<double>(h.total_transmissions));
    core::RouteSession pure(red, *seq, 0, 9);
    while (!pure.target_reached() && !pure.finished()) pure.step();
    ues_tx.add(static_cast<double>(pure.transmissions()));
  }
  EXPECT_LT(hybrid_tx.mean(), ues_tx.mean());
}

TEST(Integration, SerializedGraphRoutesIdentically) {
  graph::Graph g = graph::connected_gnp(18, 0.2, 23);
  graph::Graph h = graph::from_edge_list(graph::to_edge_list(g));
  ASSERT_EQ(g, h);
  core::AdHocNetwork a(g), b(h);
  for (graph::NodeId t = 1; t < 18; t += 4) {
    auto ra = a.route(0, t), rb = b.route(0, t);
    EXPECT_EQ(ra.delivered, rb.delivered);
    EXPECT_EQ(ra.total_transmissions, rb.total_transmissions);
  }
}

TEST(Integration, BroadcastAgreesWithFloodingCoverage) {
  graph::Graph g = graph::gnp(25, 0.1, 31);
  core::AdHocNetwork net(g);
  for (graph::NodeId s : {graph::NodeId{0}, graph::NodeId{12}}) {
    auto b = net.broadcast(s);
    auto f = baselines::flood(g, s, s);
    EXPECT_EQ(b.distinct_visited, f.nodes_reached);
  }
}

TEST(Integration, StressManySmallWorldsAllPairs) {
  // 20 random worlds x all pairs: the strongest exactness sweep we run.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    graph::Graph g = graph::gnp(10, 0.18, seed);
    core::AdHocNetwork net(g);
    for (graph::NodeId s = 0; s < 10; ++s)
      for (graph::NodeId t = 0; t < 10; ++t)
        ASSERT_EQ(net.route(s, t).delivered, graph::has_path(g, s, t))
            << "seed=" << seed << " " << s << "->" << t;
  }
}

}  // namespace
}  // namespace uesr
