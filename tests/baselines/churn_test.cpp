#include "baselines/churn.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "graph/algorithms.h"
#include "graph/generators.h"

namespace uesr::baselines {
namespace {

using graph::NodeId;

graph::LinkFlapScenario flap_scenario() {
  return graph::LinkFlapScenario(graph::connected_gnp(16, 0.25, 3), 2, 7);
}

/// Harsh churn that regularly isolates nodes — the schedule the
/// random-walk livelock fix must survive.
graph::NodeChurnScenario isolating_scenario() {
  return graph::NodeChurnScenario(graph::connected_gnp(12, 0.3, 5), 0.35,
                                  0.45, 11);
}

TEST(ChurnRouter, UesVerdictMatchesGroundTruthOnEveryAttempt) {
  auto sc = flap_scenario();
  ChurnRouter router(sc, /*period=*/16, /*max_epochs=*/10);
  for (NodeId s = 0; s < 8; ++s) {
    const NodeId t = 15 - s;
    const ChurnAttempt a = router.route_ues(s, t);
    EXPECT_TRUE(a.delivered || a.failure_certified);
    EXPECT_EQ(a.delivered, router.co_connected_after(a.ticks, s, t))
        << s << "->" << t;
  }
}

TEST(ChurnRouter, IdenticalSchedulesForEveryRouter) {
  // Two runs of the same router — and the ground-truth replay — consume
  // bit-identical schedules: same attempt, same numbers.
  auto sc = flap_scenario();
  ChurnRouter router(sc, 16, 10);
  const ChurnAttempt a = router.route_ues(1, 14);
  const ChurnAttempt b = router.route_ues(1, 14);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.restarts, b.restarts);
  const ChurnAttempt w1 = router.route_random_walk(1, 14, 5000, 99);
  const ChurnAttempt w2 = router.route_random_walk(1, 14, 5000, 99);
  EXPECT_EQ(w1.delivered, w2.delivered);
  EXPECT_EQ(w1.transmissions, w2.transmissions);
}

TEST(ChurnRouter, RandomWalkTerminatesWhenChurnIsolatesTheSource) {
  auto sc = isolating_scenario();
  ChurnRouter router(sc, /*period=*/8, /*max_epochs=*/12);
  // Every pair, every seed: the walk must come back (the static livelock
  // fixed in RandomWalkSession would hang exactly here).
  for (NodeId s = 0; s < 12; ++s) {
    const ChurnAttempt a =
        router.route_random_walk(s, (s + 6) % 12, /*ttl=*/2000, 1000 + s);
    EXPECT_LE(a.transmissions, 2000u);
    EXPECT_FALSE(a.failure_certified);
  }
}

TEST(ChurnRouter, AllRoutersTerminateUnderHarshChurn) {
  auto sc = isolating_scenario();
  ChurnRouter router(sc, 8, 12);
  const ChurnAttempt u = router.route_ues(0, 7);
  EXPECT_TRUE(u.delivered || u.failure_certified);
  const ChurnAttempt f = router.route_flooding(0, 7);
  EXPECT_FALSE(f.failure_certified);  // flooding can't certify under churn
  const ChurnAttempt w = router.route_random_walk(0, 7, 3000, 42);
  EXPECT_LE(w.transmissions, 3000u);
}

TEST(ChurnRouter, GreedyNeedsPositions) {
  auto sc = flap_scenario();
  ChurnRouter router(sc, 16, 4);
  EXPECT_THROW(router.route_greedy(0, 5), std::logic_error);
  graph::WaypointScenario mob(18, 2, 0.3, 0.06, 13);
  ChurnRouter mrouter(mob, 16, 8);
  const ChurnAttempt a = mrouter.route_greedy(0, 9);  // must terminate
  if (a.delivered) {
    EXPECT_GT(a.transmissions, 0u);
  }
}

TEST(ChurnRouter, SourceEqualsTarget) {
  auto sc = flap_scenario();
  ChurnRouter router(sc, 16, 4);
  EXPECT_TRUE(router.route_ues(3, 3).delivered);
  EXPECT_TRUE(router.route_random_walk(3, 3, 100, 1).delivered);
  EXPECT_TRUE(router.route_flooding(3, 3).delivered);
}

TEST(ChurnRouter, Validation) {
  auto sc = flap_scenario();
  EXPECT_THROW(ChurnRouter(sc, 0, 4), std::invalid_argument);
  ChurnRouter router(sc, 16, 4);
  EXPECT_THROW(router.route_random_walk(0, 5, 0, 1), std::invalid_argument);
  EXPECT_THROW(router.route_ues(0, 99), std::invalid_argument);
  EXPECT_THROW(churn_experiment(sc, -1, 16, 4, 100, 1, 1),
               std::invalid_argument);
}

// Golden pin of route_ues on two E11 schedules (period 48, 24 epochs): an
// FNV-1a digest of every ChurnAttempt field over a fixed pair set whose
// attempts deliver, certify failure and restart.
TEST(ChurnRouter, UesAttemptsArePinned) {
  const graph::LinkFlapScenario flap(graph::connected_gnp(36, 0.14, 19),
                                     /*flaps_per_epoch=*/3, 101);
  const graph::NodeChurnScenario harsh(graph::connected_gnp(30, 0.2, 31),
                                       /*p_leave=*/0.3, /*p_join=*/0.5, 109);
  constexpr std::pair<NodeId, NodeId> kPairs[] = {
      {0, 29},  {3, 17},  {7, 7},  {11, 2},  {20, 5}, {26, 13},
      {14, 21}, {1, 8},   {2, 27}, {4, 19},  {9, 24}, {16, 6},
      {22, 10}, {25, 28}, {12, 0}, {18, 15}, {23, 3}, {27, 20}};
  std::uint64_t h = 0xcbf29ce484222325ULL;
  int delivered = 0, certified = 0, restarted = 0;
  for (const graph::Scenario* sc :
       std::array<const graph::Scenario*, 2>{&flap, &harsh}) {
    const ChurnRouter router(*sc, /*period=*/48, /*max_epochs=*/24);
    for (const auto& [s, t] : kPairs) {
      const ChurnAttempt a = router.route_ues(s, t);
      for (std::uint64_t v :
           {std::uint64_t{a.delivered}, std::uint64_t{a.failure_certified},
            a.transmissions, a.ticks, a.restarts, a.completion_epoch})
        for (int b = 0; b < 8; ++b) {
          h ^= (v >> (8 * b)) & 0xff;
          h *= 0x100000001b3ULL;
        }
      delivered += a.delivered;
      certified += a.failure_certified;
      restarted += a.restarts > 0;
    }
  }
  EXPECT_GT(delivered, 0);
  EXPECT_GT(certified, 0);
  EXPECT_GT(restarted, 0);
  EXPECT_EQ(h, 0x19ce4c886824f4caULL);
}

// The PR 3 determinism contract extended to churn experiments: every cell
// of the E11 report kernel is bit-identical for any thread count.
TEST(ThreadInvariance, ChurnExperimentReports) {
  auto sc = flap_scenario();
  const ChurnCell base = churn_experiment(sc, /*pairs=*/12, /*period=*/16,
                                          /*max_epochs=*/8, /*rw_ttl=*/2000,
                                          /*seed=*/123, /*threads=*/1);
  EXPECT_EQ(base.pairs, 12);
  EXPECT_EQ(base.ues_delivered + base.ues_certified, 12);
  EXPECT_EQ(base.ues_errors, 0);
  for (unsigned t : {4u, 8u})
    EXPECT_EQ(base, churn_experiment(sc, 12, 16, 8, 2000, 123, t))
        << "threads=" << t;
}

TEST(ThreadInvariance, ChurnExperimentMobilityReports) {
  graph::WaypointScenario mob(16, 2, 0.3, 0.06, 19);
  const ChurnCell base =
      churn_experiment(mob, 10, 16, 8, 2000, 77, /*threads=*/1);
  EXPECT_TRUE(base.has_greedy);
  EXPECT_EQ(base.ues_errors, 0);
  for (unsigned t : {4u, 8u})
    EXPECT_EQ(base, churn_experiment(mob, 10, 16, 8, 2000, 77, t))
        << "threads=" << t;
}

}  // namespace
}  // namespace uesr::baselines
