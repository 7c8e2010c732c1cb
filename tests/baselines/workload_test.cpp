#include "baselines/workload.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "graph/churn.h"
#include "graph/generators.h"

namespace uesr::baselines {
namespace {

using core::SessionSpec;
using core::TrafficKind;
using graph::NodeId;

bool same_schedule(const Workload& a, const Workload& b) {
  if (a.sessions.size() != b.sessions.size()) return false;
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    const SessionSpec& x = a.sessions[i];
    const SessionSpec& y = b.sessions[i];
    if (x.kind != y.kind || x.s != y.s || x.t != y.t ||
        x.admit_at != y.admit_at || x.hybrid_ttl != y.hybrid_ttl)
      return false;
  }
  return true;
}

TEST(Workload, PoissonIsAPureFunctionOfItsSeed) {
  Workload a = poisson_workload(20, 64, 3.0, 42);
  Workload b = poisson_workload(20, 64, 3.0, 42);
  EXPECT_TRUE(same_schedule(a, b));
  Workload c = poisson_workload(20, 64, 3.0, 43);
  EXPECT_FALSE(same_schedule(a, c));
}

TEST(Workload, PoissonArrivalsAreMonotoneAndValid) {
  Workload w = poisson_workload(16, 100, 2.5, 7);
  ASSERT_EQ(w.sessions.size(), 100u);
  std::uint64_t last = 0;
  for (const SessionSpec& s : w.sessions) {
    EXPECT_GE(s.admit_at, last);
    last = s.admit_at;
    EXPECT_LT(s.s, 16u);
    EXPECT_LT(s.t, 16u);
    EXPECT_NE(s.s, s.t);
    EXPECT_EQ(s.kind, TrafficKind::kRoute);
  }
  EXPECT_GT(last, 0u);  // arrivals actually spread out
}

TEST(Workload, HotspotTargetsTheSink) {
  Workload w = hotspot_workload(12, 40, 5, 1.0, 9);
  for (const SessionSpec& s : w.sessions) {
    EXPECT_EQ(s.t, 5u);
    EXPECT_NE(s.s, 5u);
    EXPECT_LT(s.s, 12u);
  }
}

TEST(Workload, AllPairsEnumeratesEveryOrderedPairAtTickZero) {
  Workload w = all_pairs_workload(7);
  EXPECT_EQ(w.sessions.size(), 42u);
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const SessionSpec& s : w.sessions) {
    EXPECT_NE(s.s, s.t);
    EXPECT_EQ(s.admit_at, 0u);
    seen.insert({s.s, s.t});
  }
  EXPECT_EQ(seen.size(), 42u);  // all distinct
}

TEST(Workload, MixedBlendsAllThreeKinds) {
  Workload w = mixed_workload(10, 64, 1.5, 128, 3);
  int routes = 0, hybrids = 0, broadcasts = 0;
  for (const SessionSpec& s : w.sessions) {
    switch (s.kind) {
      case TrafficKind::kRoute: ++routes; break;
      case TrafficKind::kHybrid:
        ++hybrids;
        EXPECT_EQ(s.hybrid_ttl, 128u);
        break;
      case TrafficKind::kBroadcast: ++broadcasts; break;
    }
  }
  EXPECT_GT(routes, 0);
  EXPECT_GT(hybrids, 0);
  EXPECT_GT(broadcasts, 0);
  EXPECT_EQ(routes + hybrids + broadcasts, 64);
}

TEST(OpenLoopWorkload, IsAPureFunctionOfItsSeedAndReplaysViaFresh) {
  OpenLoopWorkload::Config cfg;
  cfg.cluster_size = 10;
  cfg.clusters = 4;
  cfg.sessions = 200;
  cfg.mean_interarrival = 1.5;
  cfg.mean_lifetime = 25.0;
  cfg.seed = 77;
  OpenLoopWorkload a(cfg), b(cfg);
  std::vector<SessionSpec> drained;
  while (auto s = a.next()) drained.push_back(*s);
  ASSERT_EQ(drained.size(), 200u);
  EXPECT_FALSE(a.next().has_value());  // exhaustion is final
  // A sibling built from the same Config emits the identical stream...
  for (const SessionSpec& x : drained) {
    const auto y = b.next();
    ASSERT_TRUE(y.has_value());
    EXPECT_EQ(x.s, y->s);
    EXPECT_EQ(x.t, y->t);
    EXPECT_EQ(x.admit_at, y->admit_at);
    EXPECT_EQ(x.depart_at, y->depart_at);
  }
  // ...and so does a rewound clone of the drained source itself.
  OpenLoopWorkload c = a.fresh();
  for (const SessionSpec& x : drained) {
    const auto y = c.next();
    ASSERT_TRUE(y.has_value());
    EXPECT_EQ(x.admit_at, y->admit_at);
    EXPECT_EQ(x.s, y->s);
    EXPECT_EQ(x.t, y->t);
  }
  // A different seed diverges.
  cfg.seed = 78;
  OpenLoopWorkload d(cfg);
  bool differs = false;
  for (const SessionSpec& x : drained) {
    const auto y = d.next();
    differs = differs || x.s != y->s || x.t != y->t ||
              x.admit_at != y->admit_at;
  }
  EXPECT_TRUE(differs);
}

TEST(OpenLoopWorkload, ArrivalsMonotoneClusterLocalAndDeparturesValid) {
  OpenLoopWorkload::Config cfg;
  cfg.cluster_size = 8;
  cfg.clusters = 16;
  cfg.sessions = 500;
  cfg.mean_interarrival = 0.7;
  cfg.mean_lifetime = 12.0;
  cfg.seed = 3;
  OpenLoopWorkload w(cfg);
  std::uint64_t last = 0;
  std::set<NodeId> clusters_hit;
  while (auto s = w.next()) {
    EXPECT_GE(s->admit_at, last);  // the pull contract's precondition
    last = s->admit_at;
    EXPECT_EQ(s->kind, TrafficKind::kRoute);
    EXPECT_NE(s->s, s->t);
    EXPECT_LT(s->s, 128u);
    EXPECT_LT(s->t, 128u);
    // Cluster-local: both endpoints in the same copy.
    EXPECT_EQ(s->s / 8, s->t / 8);
    clusters_hit.insert(s->s / 8);
    ASSERT_GT(s->depart_at, s->admit_at);  // lifetime > 0 => always set
  }
  EXPECT_GT(clusters_hit.size(), 8u);  // arrivals spread across copies
  // lifetime 0: sessions never depart.
  cfg.mean_lifetime = 0.0;
  OpenLoopWorkload forever(cfg);
  while (auto s = forever.next()) EXPECT_EQ(s->depart_at, 0u);
}

TEST(Workload, Validation) {
  EXPECT_THROW(poisson_workload(1, 4, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(poisson_workload(8, -1, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(poisson_workload(8, 4, -1.0, 1), std::invalid_argument);
  EXPECT_THROW(hotspot_workload(8, 4, 9, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(all_pairs_workload(1), std::invalid_argument);
  OpenLoopWorkload::Config bad;
  bad.cluster_size = 1;
  EXPECT_THROW(OpenLoopWorkload{bad}, std::invalid_argument);
  bad.cluster_size = 4;
  bad.clusters = 0;
  EXPECT_THROW(OpenLoopWorkload{bad}, std::invalid_argument);
  bad.clusters = 2;
  bad.mean_lifetime = -1.0;
  EXPECT_THROW(OpenLoopWorkload{bad}, std::invalid_argument);
  // 65536 x 65537 = 2^32 + 2^16 nodes: `c * cluster_size` would wrap a
  // 32-bit NodeId and put endpoints in the wrong cluster.
  OpenLoopWorkload::Config huge;
  huge.cluster_size = 65536;
  huge.clusters = 65537;
  EXPECT_THROW(OpenLoopWorkload{huge}, std::invalid_argument);
  huge.clusters = 65535;  // 2^32 - 2^16 nodes: every id fits
  EXPECT_NO_THROW(OpenLoopWorkload{huge});
}

TEST(TrafficExperiment, StaticCellShapeIsSane) {
  graph::Graph g = graph::from_edges(
      8, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {5, 6}, {6, 7}});
  Workload w = mixed_workload(8, 32, 2.0, 64, 5);
  TrafficCell cell = traffic_experiment(g, w, 0x5eed0001, 1);
  EXPECT_EQ(cell.sessions, 32);
  // Every session terminated with some verdict (deliveries include
  // broadcasts; 4 is disconnected from {5,6,7} and {0..3}).
  EXPECT_EQ(cell.delivered + cell.certified + cell.exhausted, 32);
  EXPECT_GT(cell.wire_frames, 0u);
  EXPECT_EQ(cell.unsound, 0);
  EXPECT_GE(cell.p99_tx, cell.p50_tx);
  EXPECT_GT(cell.final_clock, 0u);
}

// The audit skips broadcasts: they name no target (t == net::kNoTarget)
// and assert no reachability.  E12's mixed torus row carries 12 of them
// among routes and hybrids, every one audited sound.
TEST(TrafficExperiment, MixedRowAuditSkipsBroadcasts) {
  const Workload w = mixed_workload(25, 192, 1.5, 4096, 107);
  int broadcasts = 0;
  for (const core::SessionSpec& spec : w.sessions)
    broadcasts += spec.kind == core::TrafficKind::kBroadcast;
  ASSERT_EQ(broadcasts, 12);
  const TrafficCell cell =
      traffic_experiment(graph::torus(5, 5), w, 0x5eed0001, 1);
  EXPECT_EQ(cell.sessions, 192);
  EXPECT_EQ(cell.unsound, 0);
  EXPECT_EQ(cell.delivered + cell.certified + cell.exhausted, 192);
}

// E12's perfect-link node-churn row: every verdict names the
// DynamicGraph::epoch() stamp it completed in, and the audit checks it
// against that epoch's topology.
TEST(TrafficExperiment, ChurnOverlaidCellAuditsByEpochStamp) {
  graph::NodeChurnScenario sc(graph::connected_gnp(32, 0.2, 29),
                              /*p_leave=*/0.08, /*p_join=*/0.5, 109);
  const TrafficCell cell =
      traffic_experiment(sc, /*epoch_period=*/64, /*max_epochs=*/48,
                         poisson_workload(32, 128, 3.0, 113), 0x5eed0001, 1);
  EXPECT_EQ(cell.sessions, 128);
  EXPECT_EQ(cell.delivered + cell.certified, 128);
  EXPECT_GT(cell.restarts, 0u);
  EXPECT_EQ(cell.unsound, 0);
}

// The E12 determinism contract for the churn-overlaid kernel.
TEST(ThreadInvariance, ChurnOverlaidTrafficExperiment) {
  graph::NodeChurnScenario sc(graph::connected_gnp(16, 0.25, 3),
                              /*p_leave=*/0.1, /*p_join=*/0.5, 13);
  Workload w = poisson_workload(16, 48, 4.0, 21);
  const TrafficCell base =
      traffic_experiment(sc, /*epoch_period=*/48, /*max_epochs=*/16, w,
                         0x5eed0001, /*threads=*/1);
  EXPECT_EQ(base.sessions, 48);
  EXPECT_EQ(base.delivered + base.certified, 48);
  EXPECT_EQ(base.unsound, 0);
  for (unsigned t : {4u, 8u})
    EXPECT_EQ(base, traffic_experiment(sc, 48, 16, w, 0x5eed0001, t))
        << "threads=" << t;
}

TEST(ThreadInvariance, StaticMixedTrafficExperiment) {
  graph::Graph g = graph::torus(4, 4);
  Workload w = mixed_workload(16, 96, 1.0, 256, 17);
  const TrafficCell base = traffic_experiment(g, w, 0x5eed0001, 1);
  EXPECT_EQ(base.sessions, 96);
  EXPECT_EQ(base.unsound, 0);
  for (unsigned t : {4u, 8u})
    EXPECT_EQ(base, traffic_experiment(g, w, 0x5eed0001, t))
        << "threads=" << t;
}

}  // namespace
}  // namespace uesr::baselines
