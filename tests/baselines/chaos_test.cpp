// The §2.12 chaos layer end to end: the seeded soundness fuzzer (hundreds
// of sampled FaultPlans across a graph zoo, every verdict audited against
// the ground-truth component map), the E15 kernel's degeneration and
// determinism pins, and the TrafficEngine composition — scripted plus
// sampled chaos through both lossy lanes.
#include "baselines/lossy.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/workload.h"
#include "core/lossy_route.h"
#include "core/traffic.h"
#include "graph/churn.h"
#include "graph/generators.h"
#include "net/faults.h"
#include "support/stormy.h"

namespace uesr::baselines {
namespace {

using graph::connected_gnp;
using graph::disjoint_union;
using graph::Graph;
using graph::NodeId;

using test_support::stormy;

// ---- the seeded soundness fuzzer ---------------------------------------
// Each trial of lossy_experiment runs under its OWN sampled FaultPlan
// (seed counter_hash(counter_hash(seed, i), 1)), so pairs == sampled
// plans.  Across the zoo and both ARQ shapes this sweeps 200+ random fault
// schedules; the §2.12 acceptance gate is unsound == 0 on every one.

TEST(ChaosFuzzer, HundredsOfSampledPlansAcrossTheZooStaySound) {
  const std::vector<std::pair<std::string, Graph>> zoo = {
      {"cycle9", graph::cycle(9)},
      {"k6", graph::complete(6)},
      {"grid3x4", graph::grid(3, 4)},
      {"petersen", graph::petersen()},
      {"gnp14", graph::connected_gnp(14, 0.25, 33)},
      {"split10", disjoint_union(connected_gnp(5, 0.5, 35),
                                 connected_gnp(5, 0.5, 36))},
      {"tree13", graph::random_tree(13, 9)},
  };
  LossyCell total;
  std::uint64_t trial_seed = 0xc4a0;
  for (core::ArqKind arq :
       {core::ArqKind::kStopAndWait, core::ArqKind::kSelectiveRepeat}) {
    for (const auto& [name, g] : zoo) {
      const LossyCell cell = lossy_experiment(g, 16, stormy(arq), ++trial_seed);
      EXPECT_EQ(cell.unsound, 0) << name;
      EXPECT_EQ(cell.delivered + cell.certified + cell.uncertified, cell.pairs)
          << name;
      total.pairs += cell.pairs;
      total.delivered += cell.delivered;
      total.uncertified += cell.uncertified;
      total.corrupted += cell.corrupted;
      total.crash_drops += cell.crash_drops;
      total.retransmits += cell.retransmits;
    }
  }
  EXPECT_GE(total.pairs, 200);  // >= 200 independently sampled FaultPlans
  // The chaos really engaged: frames were damaged, crashed endpoints
  // really dropped traffic, deadlines really fired — and the stack still
  // delivered most of the time.
  EXPECT_GT(total.corrupted, 0u);
  EXPECT_GT(total.crash_drops, 0u);
  EXPECT_GT(total.retransmits, 0u);
  EXPECT_GT(total.delivered, total.pairs / 2);
}

// ---- degeneration and audit pins ---------------------------------------

TEST(ChaosExperiment, AllKnobsZeroDegeneratesToThePerfectChannel) {
  const Graph g = graph::connected_gnp(10, 0.35, 23);
  core::LossyTrafficConfig cfg;
  cfg.chaos = net::ChaosConfig{};
  const LossyCell cell = lossy_experiment(g, 15, cfg, 77);
  EXPECT_EQ(cell.pairs, 15);
  EXPECT_EQ(cell.delivered, 15);
  EXPECT_EQ(cell.certified, 0);
  EXPECT_EQ(cell.uncertified, 0);
  EXPECT_EQ(cell.unsound, 0);
  EXPECT_EQ(cell.corrupted, 0u);
  EXPECT_EQ(cell.crash_drops, 0u);
  EXPECT_EQ(cell.retransmits, 0u);
  // Stop-and-wait on perfect links: exactly one ack per successful hop.
  EXPECT_EQ(cell.frames, 2 * cell.hops);
}

TEST(ChaosExperiment, SplitGraphCertificatesSurviveChaos) {
  const Graph g = disjoint_union(connected_gnp(6, 0.4, 41),
                                 connected_gnp(6, 0.4, 42));
  core::LossyTrafficConfig cfg = stormy(core::ArqKind::kStopAndWait);
  cfg.window.max_retries = 20;  // let full failed walks complete
  const LossyCell cell = lossy_experiment(g, 30, cfg, 91);
  EXPECT_EQ(cell.unsound, 0);
  // Cross-component pairs can only certify or degrade — never deliver
  // (delivery would be unsound and counted above).
  EXPECT_GT(cell.certified + cell.uncertified, 0);
}

TEST(ChaosExperiment, Validation) {
  const Graph one = graph::from_edges(1, {});
  const core::LossyTrafficConfig chaotic = stormy(core::ArqKind::kStopAndWait);
  EXPECT_THROW(lossy_experiment(one, 5, chaotic, 1), std::invalid_argument);
  const Graph g = graph::cycle(4);
  EXPECT_THROW(lossy_experiment(g, -1, chaotic, 1), std::invalid_argument);
  core::LossyTrafficConfig bad = chaotic;
  bad.chaos->crash_rate = 1.5;
  EXPECT_THROW(lossy_experiment(g, 5, bad, 1), std::invalid_argument);
  // The kernel samples each trial's plan itself: a scripted plan next to a
  // ChaosConfig is rejected, not silently dropped.
  core::LossyTrafficConfig both = chaotic;
  both.faults.crash(1, 40, 90);
  EXPECT_THROW(lossy_experiment(g, 5, both, 1), std::invalid_argument);
}

// The PR 3 determinism contract extended to E15: every cell of the chaos
// kernel is bit-identical for any thread count.
TEST(ThreadInvariance, ChaosExperimentReports) {
  const Graph g = graph::connected_gnp(12, 0.3, 25);
  const core::LossyTrafficConfig cfg = stormy(core::ArqKind::kSelectiveRepeat);
  const LossyCell base = lossy_experiment(g, 16, cfg, 123, /*threads=*/1);
  EXPECT_EQ(base.pairs, 16);
  EXPECT_EQ(base.unsound, 0);
  for (unsigned t : {4u, 8u})
    EXPECT_EQ(base, lossy_experiment(g, 16, cfg, 123, t)) << "threads=" << t;
}

TEST(ThreadInvariance, ChaosExperimentReportsSplitGraph) {
  const Graph g = disjoint_union(connected_gnp(6, 0.5, 27),
                                 connected_gnp(6, 0.5, 28));
  const core::LossyTrafficConfig cfg = stormy(core::ArqKind::kStopAndWait);
  const LossyCell base = lossy_experiment(g, 14, cfg, 321, 1);
  EXPECT_EQ(base.unsound, 0);
  for (unsigned t : {4u, 8u})
    EXPECT_EQ(base, lossy_experiment(g, 14, cfg, 321, t)) << "threads=" << t;
}

// ---- the TrafficEngine composition -------------------------------------
// Scripted faults arm into EVERY session's private channel; a ChaosConfig
// additionally samples a per-session (static) or per-(session, epoch)
// (dynamic) plan.  Certificates must stay sound and every session must
// terminate — crashed peers block, back off, and degrade to uncertified.

net::ChaosConfig traffic_chaos() {
  net::ChaosConfig cfg;
  cfg.horizon = 1 << 10;
  cfg.slot = 64;
  cfg.crash_rate = 0.04;
  cfg.crash_min = 16;
  cfg.crash_max = 64;
  cfg.corrupt_burst_rate = 0.04;
  cfg.corrupt_level = 0.4;
  cfg.brownout_rate = 0.02;
  return cfg;
}

TEST(ChaosTraffic, StaticEngineUnderScriptedAndSampledChaosStaysSound) {
  const Graph g = disjoint_union(connected_gnp(4, 0.6, 27),
                                 connected_gnp(4, 0.6, 28));
  const Workload w = all_pairs_workload(8);
  for (core::ArqKind arq :
       {core::ArqKind::kStopAndWait, core::ArqKind::kSelectiveRepeat}) {
    core::LossyTrafficConfig cfg;
    cfg.link.loss = 0.05;
    cfg.link.corrupt = 0.05;
    cfg.arq = arq;
    cfg.window.max_retries = 8;
    cfg.window.frames_per_message = 2;
    // A scripted crash window and corruption burst on top of sampled chaos
    // (node 1 exists in every cubic reduction of a 8-node graph).
    cfg.faults.crash(1, 40, 90).corruption_burst(120, 200, 0.5);
    cfg.chaos = traffic_chaos();
    const TrafficCell cell = traffic_experiment(g, w, 7, 1, cfg);
    EXPECT_EQ(cell.sessions, 56);
    EXPECT_EQ(cell.unsound, 0);
    EXPECT_EQ(cell.delivered + cell.certified + cell.uncertified,
              cell.sessions);
  }
}

TEST(ChaosTraffic, DynamicEngineUnderChaosStaysSoundAndTerminates) {
  // Churn epochs, channel loss, AND sampled chaos plans per (session,
  // epoch) — the full composed fault regime in one replayable run.
  graph::NodeChurnScenario sc(graph::connected_gnp(12, 0.3, 5), 0.3, 0.45,
                              11);
  const Workload w = poisson_workload(12, 24, 1.0, 91);
  core::LossyTrafficConfig cfg;
  cfg.link.loss = 0.05;
  cfg.window.max_retries = 5;
  cfg.chaos = traffic_chaos();
  const TrafficCell cell = traffic_experiment(
      sc, /*epoch_period=*/48, /*max_epochs=*/10, w, 17, 1, cfg);
  EXPECT_EQ(cell.unsound, 0);
  EXPECT_EQ(cell.delivered + cell.certified + cell.uncertified,
            cell.sessions);
}

// Both ARQ shapes under loss and sampled chaos through the engine with
// two-frame messages, sound and thread-count invariant.
TEST(ChaosTraffic, TwoFrameMessagesRunThroughTheEngineThreadInvariantly) {
  const Graph g = graph::connected_gnp(10, 0.35, 31);
  const Workload w = poisson_workload(10, 32, 1.5, 77);
  for (core::ArqKind arq :
       {core::ArqKind::kStopAndWait, core::ArqKind::kSelectiveRepeat}) {
    core::LossyTrafficConfig cfg;
    cfg.link.loss = 0.1;
    cfg.link.latency_max = 6;
    cfg.arq = arq;
    cfg.window.max_retries = 8;
    cfg.window.frames_per_message = 2;
    cfg.chaos = traffic_chaos();
    const TrafficCell base = traffic_experiment(g, w, 57, 1, cfg);
    EXPECT_EQ(base.unsound, 0);
    EXPECT_GT(base.delivered, 0);
    for (unsigned t : {4u, 8u})
      EXPECT_EQ(base, traffic_experiment(g, w, 57, t, cfg))
          << "threads=" << t;
  }
}

}  // namespace
}  // namespace uesr::baselines
