#include "baselines/lossy.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "baselines/flooding.h"
#include "graph/generators.h"
#include "support/split_gnp.h"

namespace uesr::baselines {
namespace {

using graph::Graph;
using graph::NodeId;

TEST(FloodLossy, AtZeroLossMatchesPerfectFlooding) {
  const Graph g = graph::connected_gnp(14, 0.3, 3);
  for (NodeId t = 1; t < g.num_nodes(); ++t) {
    const FloodResult perfect = flood(g, 0, t);
    const FloodResult lossy = flood_lossy(g, 0, t, 0.0, /*seed=*/t);
    EXPECT_EQ(perfect.delivered, lossy.delivered);
    EXPECT_EQ(perfect.transmissions, lossy.transmissions);
    EXPECT_EQ(perfect.rounds, lossy.rounds);
    EXPECT_EQ(perfect.nodes_reached, lossy.nodes_reached);
  }
}

TEST(FloodLossy, FullLossReachesNoOneButPaysTheSource) {
  const Graph g = graph::connected_gnp(10, 0.3, 5);
  const FloodResult r = flood_lossy(g, 0, 5, 1.0, 7);
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.nodes_reached, 1u);              // only s itself
  EXPECT_EQ(r.transmissions, g.degree(0));     // its copies all died
}

TEST(FloodLossy, SeedDeterministic) {
  const Graph g = graph::connected_gnp(16, 0.25, 9);
  const FloodResult a = flood_lossy(g, 0, 11, 0.3, 42);
  const FloodResult b = flood_lossy(g, 0, 11, 0.3, 42);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.nodes_reached, b.nodes_reached);
}

TEST(GossipLossy, ProbabilityOneIsExactlyLossyFlooding) {
  const Graph g = graph::connected_gnp(14, 0.3, 13);
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const FloodResult f = flood_lossy(g, 0, 9, 0.2, seed);
    const FloodResult go = gossip_lossy(g, 0, 9, 0.2, 1.0, seed);
    EXPECT_EQ(f.delivered, go.delivered);
    EXPECT_EQ(f.transmissions, go.transmissions);
    EXPECT_EQ(f.nodes_reached, go.nodes_reached);
  }
}

TEST(GossipLossy, LowerPMeansNoMoreTransmissions) {
  const Graph g = graph::connected_gnp(20, 0.25, 17);
  std::uint64_t tx_full = 0, tx_half = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    tx_full += gossip_lossy(g, 0, 15, 0.0, 1.0, seed).transmissions;
    tx_half += gossip_lossy(g, 0, 15, 0.0, 0.4, seed).transmissions;
  }
  EXPECT_LT(tx_half, tx_full);
}

TEST(GossipLossy, SourceAlwaysTransmitsEvenAtPZero) {
  const Graph g = graph::connected_gnp(8, 0.5, 19);
  const FloodResult r = gossip_lossy(g, 0, 5, 0.0, 0.0, 3);
  EXPECT_GE(r.transmissions, g.degree(0));
  EXPECT_GT(r.nodes_reached, 1u);  // neighbours hear it; they just stay mute
}

TEST(LossyExperiment, ErrorsAreZeroAcrossRegimes) {
  const Graph g = graph::connected_gnp(12, 0.3, 21);
  for (double loss : {0.0, 0.1, 0.3}) {
    LossyParams params;
    params.loss = loss;
    params.dup = 0.05;
    const LossyCell cell = lossy_experiment(g, 20, params, 55);
    EXPECT_EQ(cell.pairs, 20);
    EXPECT_EQ(cell.ues_errors, 0) << "loss=" << loss;
    EXPECT_EQ(cell.ues_delivered + cell.ues_certified + cell.ues_uncertified,
              20)
        << "loss=" << loss;
  }
}

TEST(LossyExperiment, ZeroLossOnConnectedGraphDeliversEverything) {
  const Graph g = graph::connected_gnp(10, 0.35, 23);
  const LossyCell cell = lossy_experiment(g, 15, LossyParams{}, 77);
  EXPECT_EQ(cell.ues_delivered, 15);
  EXPECT_EQ(cell.ues_uncertified, 0);
  EXPECT_EQ(cell.flood_delivered, 15);
  EXPECT_EQ(cell.ues_errors, 0);
  // Stop-and-wait on perfect links: exactly one ack per successful hop.
  EXPECT_EQ(cell.ues_frames, 2 * cell.ues_hops);
}

TEST(LossyExperiment, Validation) {
  const Graph one = graph::from_edges(1, {});
  EXPECT_THROW(lossy_experiment(one, 5, LossyParams{}, 1),
               std::invalid_argument);
  const Graph g = graph::cycle(4);
  EXPECT_THROW(lossy_experiment(g, -1, LossyParams{}, 1),
               std::invalid_argument);
}

// The PR 3 determinism contract extended to E13: every cell of the lossy
// report kernel is bit-identical for any thread count.
TEST(ThreadInvariance, LossyExperimentReports) {
  const Graph g = graph::connected_gnp(14, 0.3, 25);
  LossyParams params;
  params.loss = 0.15;
  params.dup = 0.05;
  params.latency_max = 4;
  params.max_retries = 6;
  params.rto = 4;
  const LossyCell base = lossy_experiment(g, 16, params, 123, /*threads=*/1);
  EXPECT_EQ(base.pairs, 16);
  EXPECT_EQ(base.ues_errors, 0);
  for (unsigned t : {4u, 8u})
    EXPECT_EQ(base, lossy_experiment(g, 16, params, 123, t))
        << "threads=" << t;
}

TEST(ThreadInvariance, LossyExperimentReportsSplitGraph) {
  // Two components: failure certificates join the tally and must replay
  // identically too.
  const Graph split = test_support::split_gnp(6, 0.5, 27);
  LossyParams params;
  params.loss = 0.1;
  params.max_retries = 20;
  params.rto = 2;
  const LossyCell base = lossy_experiment(split, 14, params, 321, 1);
  EXPECT_EQ(base.ues_errors, 0);
  EXPECT_GT(base.ues_certified + base.ues_uncertified, 0);
  for (unsigned t : {4u, 8u})
    EXPECT_EQ(base, lossy_experiment(split, 14, params, 321, t))
        << "threads=" << t;
}

}  // namespace
}  // namespace uesr::baselines
