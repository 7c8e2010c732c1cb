#include "net/faults.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/generators.h"
#include "util/rng.h"

namespace uesr::net {
namespace {

using graph::Graph;
using graph::NodeId;
using graph::Port;

ChaosConfig busy() {
  ChaosConfig cfg;
  cfg.horizon = 1 << 10;
  cfg.slot = 32;
  cfg.crash_rate = 0.2;
  cfg.crash_min = 16;
  cfg.crash_max = 64;
  cfg.corrupt_burst_rate = 0.2;
  cfg.burst_min = 8;
  cfg.burst_max = 32;
  cfg.brownout_rate = 0.1;
  cfg.brownout_min = 8;
  cfg.brownout_max = 32;
  return cfg;
}

TEST(FaultPlan, ScriptedEntriesStayTimeSorted) {
  FaultPlan plan;
  plan.crash(2, 50, 80).brownout(0, 1, 10, 30).corruption_burst(5, 100, 0.5);
  ASSERT_EQ(plan.size(), 6u);
  for (std::size_t i = 1; i < plan.entries().size(); ++i)
    EXPECT_LE(plan.entries()[i - 1].at, plan.entries()[i].at);
  EXPECT_EQ(plan.entries().front().at, 5u);
  EXPECT_EQ(plan.entries().front().action.kind,
            FaultAction::Kind::kGlobalCorrupt);
}

TEST(FaultPlan, ScriptedWindowsValidate) {
  FaultPlan plan;
  EXPECT_THROW(plan.crash(0, 10, 10), std::invalid_argument);
  EXPECT_THROW(plan.brownout(0, 0, 30, 10), std::invalid_argument);
  EXPECT_THROW(plan.corruption_burst(0, 10, 1.5), std::invalid_argument);
  EXPECT_TRUE(plan.empty());  // failed builders added nothing
}

TEST(FaultPlan, SampleIsAPureFunctionOfItsArguments) {
  const Graph g = graph::connected_gnp(12, 0.3, 5);
  const FaultPlan a = FaultPlan::sample(g, busy(), 0xc4a05);
  const FaultPlan b = FaultPlan::sample(g, busy(), 0xc4a05);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.size(), 0u);
  const FaultPlan c = FaultPlan::sample(g, busy(), 0xc4a06);
  EXPECT_NE(a, c);  // the seed really steers the schedule
}

TEST(FaultPlan, ZeroRatesSampleAnEmptyPlan) {
  const Graph g = graph::connected_gnp(12, 0.3, 5);
  ChaosConfig calm;  // all rates default to 0
  EXPECT_TRUE(FaultPlan::sample(g, calm, 0xc4a05).empty());
}

TEST(FaultPlan, SampleValidatesConfig) {
  const Graph g = graph::cycle(4);
  ChaosConfig bad = busy();
  bad.crash_rate = 1.5;
  EXPECT_THROW(FaultPlan::sample(g, bad, 1), std::invalid_argument);
  bad = busy();
  bad.slot = 0;
  EXPECT_THROW(FaultPlan::sample(g, bad, 1), std::invalid_argument);
  bad = busy();
  bad.crash_min = 10;
  bad.crash_max = 5;
  EXPECT_THROW(FaultPlan::sample(g, bad, 1), std::invalid_argument);
  bad = busy();
  bad.corrupt_level = -0.1;
  EXPECT_THROW(FaultPlan::sample(g, bad, 1), std::invalid_argument);
}

TEST(FaultPlan, SampledWindowsNeverOverlapPerEntity) {
  const Graph g = graph::connected_gnp(10, 0.35, 6);
  const ChaosConfig cfg = busy();
  const FaultPlan plan = FaultPlan::sample(g, cfg, 0xfeed);
  // For each node, crash/recover actions must strictly alternate in time
  // (a second crash window can only open after the previous recover).
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    bool down = false;
    SimTime last = 0;
    for (const FaultPlan::Entry& e : plan.entries()) {
      if (e.action.kind != FaultAction::Kind::kCrash &&
          e.action.kind != FaultAction::Kind::kRecover)
        continue;
      if (e.action.node != v) continue;
      if (e.action.kind == FaultAction::Kind::kCrash) {
        EXPECT_FALSE(down) << "node " << v << " crashed twice";
        EXPECT_GE(e.at, last);
        down = true;
      } else {
        EXPECT_TRUE(down) << "node " << v << " recovered while up";
        down = false;
      }
      last = e.at;
      EXPECT_LE(e.at, cfg.horizon);  // nothing scheduled past the horizon
    }
    EXPECT_FALSE(down) << "node " << v << " never recovered";
  }
}

TEST(FaultPlan, ArmingTwoSimsGivesByteIdenticalTraces) {
  const Graph g = graph::connected_gnp(10, 0.35, 6);
  LinkModel m;
  m.loss = 0.1;
  m.latency_min = 1;
  m.latency_max = 5;
  const FaultPlan plan = FaultPlan::sample(g, busy(), 0xbeef);
  std::vector<std::string> traces[2];
  for (int run = 0; run < 2; ++run) {
    EventSim sim(g, 0x5eed, m);
    sim.enable_trace(100000);
    plan.arm(sim);
    util::Pcg32 script(17);
    for (int i = 0; i < 2000; ++i) {
      const NodeId v = script.next_below(g.num_nodes());
      sim.send(v, script.next_below(g.degree(v)), i);
      if (i % 3 == 0) sim.next();
    }
    while (sim.next().has_value()) {
    }
    traces[run] = sim.trace();
  }
  ASSERT_FALSE(traces[0].empty());
  ASSERT_EQ(traces[0].size(), traces[1].size());
  for (std::size_t i = 0; i < traces[0].size(); ++i)
    ASSERT_EQ(traces[0][i], traces[1][i]) << "trace line " << i;
}

TEST(FaultPlan, FreshIsAnIndependentEqualCopy) {
  FaultPlan plan;
  plan.crash(1, 10, 20);
  FaultPlan copy = plan.fresh();
  EXPECT_EQ(copy, plan);
  copy.crash(2, 30, 40);
  EXPECT_EQ(plan.size(), 2u);  // the original never moved
  EXPECT_EQ(copy.size(), 4u);
}

TEST(FaultPlan, ArmedBrownoutsActuallyKillTheDirection) {
  Graph g = graph::from_edges(2, {{0, 1}});
  FaultPlan plan;
  plan.brownout(0, 0, 1, 10);
  EventSim sim(g, 7);
  plan.arm(sim);
  sim.send(0, 0, 1);  // departs t=0, arrives t=1: the kLinkDown at t=1 is
                      // applied first (pushed earlier) — died mid-flight
  EXPECT_FALSE(sim.next().has_value());
  EXPECT_EQ(sim.frames_died_midflight(), 1u);
  EXPECT_EQ(sim.now(), 10u);  // the kLinkUp closed the window
  sim.send(0, 0, 2);
  auto ev = sim.next();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->frame_id, 2u);
}

}  // namespace
}  // namespace uesr::net
