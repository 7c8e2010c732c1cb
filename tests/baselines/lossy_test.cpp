#include "baselines/lossy.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "baselines/flooding.h"
#include "core/lossy_route.h"
#include "graph/generators.h"
#include "support/stormy.h"

namespace uesr::baselines {
namespace {

using graph::connected_gnp;
using graph::disjoint_union;
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

// Hostile probabilities fail with a named error.  NaN used to slip through
// both waves: a NaN loss dropped nothing and a NaN p never retransmitted.
TEST(LossyWaves, RejectProbabilitiesOutsideTheUnitInterval) {
  const Graph g = graph::connected_gnp(8, 0.5, 19);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), -0.1, 1.5}) {
    EXPECT_THROW(flood_lossy(g, 0, 5, bad, 1), std::invalid_argument)
        << "loss=" << bad;
    EXPECT_THROW(gossip_lossy(g, 0, 5, bad, 0.5, 1), std::invalid_argument)
        << "loss=" << bad;
    EXPECT_THROW(gossip_lossy(g, 0, 5, 0.1, bad, 1), std::invalid_argument)
        << "p=" << bad;
  }
}

// Whole cells recorded from the two kernels this one replaced (the E13
// columns from the loss-only kernel, the retransmit/corruption/crash
// counters and the chaos rows from the E15 one).  They guard the seeds:
// trial i keys its channel, chaos plan, flood and gossip draws off
// counter_hash(seed, i) exactly as E13 and E15 always did.
TEST(LossyExperiment, CellsArePinned) {
  {  // E13-style stop-and-wait cell
    const Graph g = graph::connected_gnp(12, 0.3, 21);
    core::LossyTrafficConfig cfg;
    cfg.link.loss = 0.1;
    cfg.link.dup = 0.05;
    EXPECT_EQ(lossy_experiment(g, 20, cfg, 55, 1),
              (LossyCell{.pairs = 20,
                         .delivered = 20,
                         .certified = 0,
                         .uncertified = 0,
                         .unsound = 0,
                         .hops = 3048,
                         .frames = 7316,
                         .retransmits = 716,
                         .corrupted = 0,
                         .crash_drops = 0,
                         .flood_delivered = 19,
                         .flood_transmissions = 760,
                         .gossip_delivered = 17,
                         .gossip_transmissions = 451}));
  }
  {  // split graph, budget high enough for failure walks to complete
    const Graph g = disjoint_union(connected_gnp(6, 0.5, 27),
                                   connected_gnp(6, 0.5, 28));
    core::LossyTrafficConfig cfg;
    cfg.link.loss = 0.1;
    cfg.window.max_retries = 20;
    EXPECT_EQ(lossy_experiment(g, 14, cfg, 321, 1),
              (LossyCell{.pairs = 14,
                         .delivered = 5,
                         .certified = 9,
                         .uncertified = 0,
                         .unsound = 0,
                         .hops = 4147452,
                         .frames = 9727591,
                         .retransmits = 972092,
                         .corrupted = 0,
                         .crash_drops = 0,
                         .flood_delivered = 5,
                         .flood_transmissions = 263,
                         .gossip_delivered = 4,
                         .gossip_transmissions = 188}));
  }
  const Graph g = graph::connected_gnp(12, 0.3, 25);
  {  // the chaos suite's regime under stop-and-wait
    const core::LossyTrafficConfig cfg =
        test_support::stormy(core::ArqKind::kStopAndWait);
    EXPECT_EQ(lossy_experiment(g, 16, cfg, 123, 1),
              (LossyCell{.pairs = 16,
                         .delivered = 16,
                         .certified = 0,
                         .uncertified = 0,
                         .unsound = 0,
                         .hops = 2524,
                         .frames = 5783,
                         .retransmits = 515,
                         .corrupted = 91,
                         .crash_drops = 97,
                         .flood_delivered = 15,
                         .flood_transmissions = 504,
                         .gossip_delivered = 12,
                         .gossip_transmissions = 314}));
  }
  {  // ... and under selective repeat
    const core::LossyTrafficConfig cfg =
        test_support::stormy(core::ArqKind::kSelectiveRepeat);
    EXPECT_EQ(lossy_experiment(g, 16, cfg, 123, 1),
              (LossyCell{.pairs = 16,
                         .delivered = 16,
                         .certified = 0,
                         .uncertified = 0,
                         .unsound = 0,
                         .hops = 2524,
                         .frames = 16578,
                         .retransmits = 1024,
                         .corrupted = 176,
                         .crash_drops = 187,
                         .flood_delivered = 15,
                         .flood_transmissions = 504,
                         .gossip_delivered = 12,
                         .gossip_transmissions = 314}));
  }
}

TEST(LossyExperiment, ErrorsAreZeroAcrossRegimes) {
  const Graph g = graph::connected_gnp(12, 0.3, 21);
  for (double loss : {0.0, 0.1, 0.3}) {
    core::LossyTrafficConfig cfg;
    cfg.link.loss = loss;
    cfg.link.dup = 0.05;
    const LossyCell cell = lossy_experiment(g, 20, cfg, 55);
    EXPECT_EQ(cell.pairs, 20);
    EXPECT_EQ(cell.unsound, 0) << "loss=" << loss;
    EXPECT_EQ(cell.delivered + cell.certified + cell.uncertified, 20)
        << "loss=" << loss;
  }
}

TEST(LossyExperiment, ZeroLossOnConnectedGraphDeliversEverything) {
  const Graph g = graph::connected_gnp(10, 0.35, 23);
  const LossyCell cell =
      lossy_experiment(g, 15, core::LossyTrafficConfig{}, 77);
  EXPECT_EQ(cell.delivered, 15);
  EXPECT_EQ(cell.uncertified, 0);
  EXPECT_EQ(cell.flood_delivered, 15);
  EXPECT_EQ(cell.unsound, 0);
  // Stop-and-wait on perfect links: exactly one ack per successful hop.
  EXPECT_EQ(cell.frames, 2 * cell.hops);
}

TEST(LossyExperiment, Validation) {
  const Graph one = graph::from_edges(1, {});
  EXPECT_THROW(lossy_experiment(one, 5, core::LossyTrafficConfig{}, 1),
               std::invalid_argument);
  const Graph g = graph::cycle(4);
  EXPECT_THROW(lossy_experiment(g, -1, core::LossyTrafficConfig{}, 1),
               std::invalid_argument);
}

// The PR 3 determinism contract extended to E13: every cell of the lossy
// report kernel is bit-identical for any thread count.
TEST(ThreadInvariance, LossyExperimentReports) {
  const Graph g = graph::connected_gnp(14, 0.3, 25);
  core::LossyTrafficConfig cfg;
  cfg.link.loss = 0.15;
  cfg.link.dup = 0.05;
  cfg.link.latency_max = 4;
  cfg.window.max_retries = 6;
  cfg.window.rto_initial = 4;
  const LossyCell base = lossy_experiment(g, 16, cfg, 123, /*threads=*/1);
  EXPECT_EQ(base.pairs, 16);
  EXPECT_EQ(base.unsound, 0);
  for (unsigned t : {4u, 8u})
    EXPECT_EQ(base, lossy_experiment(g, 16, cfg, 123, t))
        << "threads=" << t;
}

TEST(ThreadInvariance, LossyExperimentReportsSplitGraph) {
  // Two components: failure certificates join the tally and must replay
  // identically too.
  const Graph split = disjoint_union(connected_gnp(6, 0.5, 27),
                                     connected_gnp(6, 0.5, 28));
  core::LossyTrafficConfig cfg;
  cfg.link.loss = 0.1;
  cfg.window.max_retries = 20;
  cfg.window.rto_initial = 2;
  const LossyCell base = lossy_experiment(split, 14, cfg, 321, 1);
  EXPECT_EQ(base.unsound, 0);
  EXPECT_GT(base.certified + base.uncertified, 0);
  for (unsigned t : {4u, 8u})
    EXPECT_EQ(base, lossy_experiment(split, 14, cfg, 321, t))
        << "threads=" << t;
}

}  // namespace
}  // namespace uesr::baselines
