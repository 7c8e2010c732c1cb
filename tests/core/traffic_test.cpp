#include "core/traffic.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/workload.h"
#include "explore/sequence_cache.h"
#include "graph/algorithms.h"
#include "graph/churn.h"
#include "graph/generators.h"
#include "support/report_digest.h"

namespace uesr::core {
namespace {

using graph::NodeId;

TrafficOptions with_walkers(TrafficOptions opt = {}) {
  opt.hybrid_walker = baselines::random_walk_factory();
  return opt;
}

TEST(TrafficEngine, RouteVerdictsMatchGroundTruth) {
  // Two components: deliveries and certificates must split exactly along
  // reachability, for every concurrently multiplexed session.
  graph::Graph g = graph::from_edges(
      7, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}});
  TrafficEngine engine(g);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId s = 0; s < 7; ++s)
    for (NodeId t = 0; t < 7; ++t)
      if (s != t) {
        engine.admit({TrafficKind::kRoute, s, t, 0, 0});
        pairs.emplace_back(s, t);
      }
  engine.run();
  for (std::size_t id = 0; id < pairs.size(); ++id) {
    const SessionReport& r = engine.report(id);
    const auto [s, t] = pairs[id];
    EXPECT_TRUE(r.finished);
    EXPECT_EQ(r.delivered, graph::has_path(g, s, t)) << s << "->" << t;
    EXPECT_EQ(r.failure_certified, !r.delivered);
  }
}

TEST(TrafficEngine, SharedClockAccounting) {
  graph::Graph g = graph::cycle(6);
  TrafficEngine engine(g);
  engine.admit({TrafficKind::kRoute, 0, 3, /*admit_at=*/0, 0});
  engine.admit({TrafficKind::kRoute, 1, 4, /*admit_at=*/100, 0});
  engine.run();
  for (std::size_t id = 0; id < 2; ++id) {
    const SessionReport& r = engine.report(id);
    ASSERT_TRUE(r.finished);
    // One slot per transmission: completion is exactly admission +
    // transmissions (Route's terminate step is free).
    EXPECT_EQ(r.completed_at, r.admitted_at + r.transmissions) << id;
  }
  EXPECT_EQ(engine.report(1).admitted_at, 100u);
  EXPECT_GE(engine.clock(), engine.report(1).completed_at);
}

TEST(TrafficEngine, SourceEqualsTargetImmediate) {
  graph::Graph g = graph::cycle(5);
  TrafficEngine engine(g);
  engine.admit({TrafficKind::kRoute, 2, 2, /*admit_at=*/7, 0});
  engine.run();
  const SessionReport& r = engine.report(0);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.transmissions, 0u);
  EXPECT_EQ(r.completed_at, 7u);
}

TEST(TrafficEngine, BroadcastCoversComponent) {
  graph::Graph g = graph::from_edges(6, {{0, 1}, {1, 2}, {2, 0}, {4, 5}});
  TrafficEngine engine(g);
  engine.admit({TrafficKind::kBroadcast, 0, 0, 0, 0});
  engine.admit({TrafficKind::kBroadcast, 4, 0, 0, 0});
  engine.admit({TrafficKind::kBroadcast, 3, 0, 0, 0});
  engine.run();
  EXPECT_EQ(engine.report(0).distinct_visited, 3u);  // {0,1,2}
  EXPECT_EQ(engine.report(1).distinct_visited, 2u);  // {4,5}
  EXPECT_EQ(engine.report(2).distinct_visited, 1u);  // isolated
  for (std::size_t id = 0; id < 3; ++id)
    EXPECT_TRUE(engine.report(id).delivered);
}

TEST(TrafficEngine, HybridSessionsDecide) {
  graph::Graph g = graph::from_edges(6, {{0, 1}, {1, 2}, {2, 0}, {4, 5}});
  TrafficEngine engine(g, with_walkers());
  engine.admit({TrafficKind::kHybrid, 0, 2, 0, /*hybrid_ttl=*/0});
  engine.admit({TrafficKind::kHybrid, 0, 4, 0, /*hybrid_ttl=*/50});
  engine.run();
  EXPECT_TRUE(engine.report(0).delivered);
  const SessionReport& unreachable = engine.report(1);
  EXPECT_FALSE(unreachable.delivered);
  // The guaranteed side certifies even after the token's TTL expires.
  EXPECT_TRUE(unreachable.failure_certified);
  EXPECT_FALSE(unreachable.exhausted);
}

TEST(TrafficEngine, HybridNeedsWalkerFactory) {
  graph::Graph g = graph::cycle(4);
  TrafficEngine engine(g);  // no factory configured
  EXPECT_THROW(engine.admit({TrafficKind::kHybrid, 0, 2, 0, 10}),
               std::invalid_argument);
}

TEST(TrafficEngine, AdmissionValidation) {
  graph::Graph g = graph::cycle(4);
  TrafficEngine engine(g);
  EXPECT_THROW(engine.admit({TrafficKind::kRoute, 9, 0, 0, 0}),
               std::invalid_argument);
  EXPECT_THROW(engine.admit({TrafficKind::kRoute, 0, 9, 0, 0}),
               std::invalid_argument);
  engine.admit({TrafficKind::kRoute, 0, 2, 5, 0});
  engine.run();
  // The clock has advanced past 5; admissions into the past must throw.
  EXPECT_THROW(engine.admit({TrafficKind::kRoute, 0, 1, 0, 0}),
               std::invalid_argument);
  TrafficOptions bad;
  bad.batch = 0;
  EXPECT_THROW(TrafficEngine(g, bad), std::invalid_argument);
}

TEST(TrafficEngine, StaggeredArrivalsRespectAdmitTicks) {
  graph::Graph g = graph::grid(3, 3);
  TrafficEngine engine(g);
  // Arrival ticks straddling several batch boundaries, admitted unsorted.
  const std::vector<std::uint64_t> at = {200, 3, 77, 0, 130};
  for (std::size_t i = 0; i < at.size(); ++i)
    engine.admit({TrafficKind::kRoute, static_cast<NodeId>(i),
                  static_cast<NodeId>(8 - i), at[i], 0});
  engine.run();
  for (std::size_t id = 0; id < at.size(); ++id) {
    const SessionReport& r = engine.report(id);
    EXPECT_EQ(r.admitted_at, at[id]);
    EXPECT_TRUE(r.finished);
    EXPECT_EQ(r.completed_at, r.admitted_at + r.transmissions);
  }
}

TEST(TrafficEngine, DynamicModeRoutesUnderChurn) {
  graph::NodeChurnScenario sc(graph::connected_gnp(14, 0.3, 5),
                              /*p_leave=*/0.15, /*p_join=*/0.5, 11);
  TrafficOptions opt;
  opt.epoch_period = 32;
  opt.max_epochs = 12;
  TrafficEngine engine(sc, opt);
  for (NodeId s = 0; s < 14; ++s)
    engine.admit({TrafficKind::kRoute, s, static_cast<NodeId>(13 - s),
                  s * 7, 0});
  engine.run();
  std::uint64_t restarts = 0;
  for (std::size_t id = 0; id < 14; ++id) {
    const SessionReport& r = engine.report(id);
    EXPECT_TRUE(r.finished);
    // Every session ends in a delivery or an epoch-exact certificate.
    EXPECT_TRUE(r.delivered || r.failure_certified) << id;
    EXPECT_LE(r.completion_epoch, engine.epoch());
    restarts += r.restarts;
  }
  // The schedule ran: epochs advanced on the shared clock.
  EXPECT_GT(engine.epoch(), 0u);
  (void)restarts;  // restarts can be 0 on gentle replays; counted per session
}

TEST(TrafficEngine, DynamicModeRejectsBroadcastAndHybrid) {
  graph::LinkFlapScenario sc(graph::connected_gnp(10, 0.3, 3), 2, 7);
  TrafficOptions opt = with_walkers();
  opt.epoch_period = 16;
  opt.max_epochs = 4;
  TrafficEngine engine(sc, opt);
  EXPECT_THROW(engine.admit({TrafficKind::kBroadcast, 0, 0, 0, 0}),
               std::invalid_argument);
  EXPECT_THROW(engine.admit({TrafficKind::kHybrid, 0, 1, 0, 10}),
               std::invalid_argument);
  engine.admit({TrafficKind::kRoute, 0, 5, 0, 0});
  engine.run();
  EXPECT_TRUE(engine.report(0).finished);
}

/// A scripted schedule: epoch k + 1 applies the edge edits epochs[k] to
/// epoch k's topology.
class ScriptedScenario final : public graph::Scenario {
 public:
  struct Edit {
    bool add;
    NodeId u, v;
  };
  ScriptedScenario(graph::Graph g0, std::vector<std::vector<Edit>> epochs)
      : g0_(std::move(g0)), epochs_(std::move(epochs)) {}
  std::string name() const override { return "scripted"; }
  NodeId num_nodes() const override { return g0_.num_nodes(); }
  graph::DynamicGraph initial() override {
    next_ = 0;
    return graph::DynamicGraph(g0_);
  }
  void advance(graph::DynamicGraph& g) override {
    for (const Edit& e : epochs_.at(next_++))
      e.add ? g.add_edge(e.u, e.v) : g.remove_edge(e.u, e.v);
    g.commit();
  }
  std::unique_ptr<graph::Scenario> fresh() const override {
    return std::make_unique<ScriptedScenario>(g0_, epochs_);
  }

 private:
  graph::Graph g0_;
  std::vector<std::vector<Edit>> epochs_;
  std::size_t next_ = 0;
};

// One route session alone on a dynamic engine: the per-epoch restart
// rule (§2.8) case by case.  Every verdict must hold on the topology of
// its completion epoch; a session restarted once at tick `period` has
// spent exactly those frames plus a fresh walk on the final topology.
struct OneSessionCase {
  graph::Graph g0;
  std::vector<std::vector<ScriptedScenario::Edit>> epochs;
  std::uint64_t period;
  NodeId s, t;
  std::uint64_t restarts;  ///< exact
  std::uint64_t completion_epoch;
};

void check_one_session(const OneSessionCase& c) {
  const ScriptedScenario sc(c.g0, c.epochs);
  TrafficOptions opt;
  opt.epoch_period = c.period;
  opt.max_epochs = c.epochs.size();
  TrafficEngine engine(sc, opt);
  engine.admit({.s = c.s, .t = c.t});
  engine.run();
  const SessionReport& r = engine.report(0);
  ASSERT_TRUE(r.finished);
  EXPECT_EQ(r.restarts, c.restarts);
  EXPECT_EQ(r.completion_epoch, c.completion_epoch);
  EXPECT_EQ(r.completed_at, r.transmissions);
  // Ground truth on the completion epoch's topology.
  auto replay = sc.fresh();
  graph::DynamicGraph g = replay->initial();
  for (std::uint64_t k = 0; k < r.completion_epoch; ++k) replay->advance(g);
  const bool truth = graph::has_path(g.snapshot(), c.s, c.t);
  EXPECT_EQ(r.delivered, truth);
  EXPECT_EQ(r.failure_certified, !truth);
  if (c.s == c.t) {
    EXPECT_EQ(r.transmissions, 0u);
  }
  if (c.restarts == 1) {
    TrafficEngine fresh_walk(g.snapshot());
    fresh_walk.admit({.s = c.s, .t = c.t});
    fresh_walk.run();
    EXPECT_EQ(r.transmissions, c.period + fresh_walk.report(0).transmissions);
  }
}

TEST(DynamicRoute, MatchesStaticOutcomeOnFrozenTopology) {
  // A frozen topology gives the static verdicts: deliveries and
  // certificates across gnp's components.
  const graph::Graph gnp = graph::gnp(24, 0.09, 11);
  for (auto [s, t] : {std::pair<NodeId, NodeId>{0, 17},
                      {3, 9},
                      {5, 21},
                      {1, 23}}) {
    SCOPED_TRACE(testing::Message() << s << "->" << t);
    check_one_session({gnp, {}, 1, s, t, 0, 0});
  }
}

TEST(DynamicRoute, SourceEqualsTargetIsImmediate) {
  check_one_session({graph::cycle(4), {{{true, 0, 2}}}, 1, 2, 2, 0, 0});
}

TEST(DynamicRoute, IsolatedSourceCertifiesFailure) {
  check_one_session(
      {graph::from_edges(4, {{1, 2}, {2, 3}}), {}, 1, 0, 3, 0, 0});
}

TEST(DynamicRoute, RestartsWhenEpochMovesMidWalk) {
  // An edge appears 5 frames in: restart, deliver on epoch 1.
  check_one_session({graph::path(12), {{{true, 0, 11}}}, 5, 0, 11, 1, 1});
}

TEST(DynamicRoute, DeliversAfterTopologyHeals) {
  // s and t start apart; the bridge appears 3 frames in.
  check_one_session({graph::from_edges(6, {{0, 1}, {2, 3}, {3, 4}, {4, 5}}),
                     {{{true, 1, 2}}},
                     3,
                     0,
                     5,
                     1,
                     1});
}

TEST(DynamicRoute, CertificateIsAboutTheCompletionEpoch) {
  // t's link goes 2 frames in: the certificate is about epoch 1.
  check_one_session({graph::path(8), {{{false, 6, 7}}}, 2, 0, 7, 1, 1});
}

TEST(DynamicRoute, TransmissionsAccumulateAcrossRestarts) {
  // The 4 frames of the discarded walk stay counted.
  check_one_session({graph::cycle(10), {{{true, 0, 5}}}, 4, 0, 5, 1, 1});
}

TEST(DynamicRoute, Validation) {
  // Out-of-range endpoints are refused at admission.
  const ScriptedScenario sc(graph::cycle(3), {});
  TrafficEngine engine(sc, {});
  EXPECT_THROW(engine.admit({.s = 0, .t = 9}), std::invalid_argument);
  EXPECT_THROW(engine.admit({.s = 7, .t = 0}), std::invalid_argument);
}

// Perfect-link reports do not depend on the round length: the same
// staggered schedule, with departures, at batch sizes from one slot per
// round to one round for nearly everything (ChurnRouter::route_ues relies
// on it).
TEST(TrafficInvariance, PerfectLinkReportsIndependentOfBatch) {
  // Small graphs keep the certificate walks short: at batch 1 every
  // transmission is a round of its own.
  const graph::Graph g = graph::disjoint_copies(graph::cycle(3), 2);
  graph::NodeChurnScenario sc(graph::connected_gnp(6, 0.5, 5),
                              /*p_leave=*/0.3, /*p_join=*/0.45, 11);
  std::vector<SessionReport> static_base, dynamic_base;
  for (std::uint64_t batch : {std::uint64_t{1}, std::uint64_t{7},
                              std::uint64_t{64}, std::uint64_t{1000},
                              std::uint64_t{1} << 20}) {
    TrafficOptions opt = with_walkers();
    opt.batch = batch;
    TrafficEngine st(g, opt);
    for (NodeId i = 0; i < 12; ++i) {
      const std::uint64_t at = 5 * i + i % 3;
      const NodeId s = i % 6;
      st.admit({.s = s, .t = (5 * i + 2) % 6, .admit_at = at,
                .depart_at = i % 5 == 0 ? at + 9 + i : 0});
      st.admit({.kind = i % 2 ? TrafficKind::kBroadcast : TrafficKind::kHybrid,
                .s = s, .t = (s + 1 + i % 4) % 6, .admit_at = at + 2,
                .hybrid_ttl = 15, .depart_at = i % 4 == 1 ? at + 30 : 0});
    }
    st.run();
    opt.epoch_period = 40;
    opt.max_epochs = 12;
    TrafficEngine dyn(sc, opt);
    for (NodeId i = 0; i < 40; ++i) {
      const std::uint64_t at = 9 * i + i % 7;
      dyn.admit({.s = i % 6, .t = (5 * i + 1) % 6, .admit_at = at,
                 .depart_at = i % 4 == 0 ? at + 20 + i : 0});
    }
    dyn.run();
    if (static_base.empty()) {
      static_base = st.reports();
      dynamic_base = dyn.reports();
      int delivered = 0, certified = 0, departed = 0, restarted = 0;
      for (const auto* reports : {&st.reports(), &dyn.reports()})
        for (const SessionReport& r : *reports) {
          delivered += r.delivered;
          certified += r.failure_certified;
          departed += r.departed;
          restarted += r.restarts > 0;
        }
      EXPECT_GT(delivered, 0);
      EXPECT_GT(certified, 0);
      EXPECT_GT(departed, 0);
      EXPECT_GT(restarted, 0);
      continue;
    }
    EXPECT_TRUE(st.reports() == static_base) << "batch=" << batch;
    EXPECT_TRUE(dyn.reports() == dynamic_base) << "batch=" << batch;
  }
}

// The acceptance gate: >= 1024 concurrent sessions whose folded report is
// bit-identical for threads in {1, 4, 8} (cells include double-valued
// percentiles, so this pins the full merge order, not just counters).
TEST(ThreadInvariance, TrafficExperiment1024Sessions) {
  graph::Graph g = graph::connected_gnp(33, 0.18, 7);
  baselines::Workload w = baselines::all_pairs_workload(33);
  ASSERT_GE(w.sessions.size(), 1024u);
  const baselines::TrafficCell base =
      baselines::traffic_experiment(g, w, /*seq_seed=*/0x5eed0001,
                                    /*threads=*/1);
  EXPECT_EQ(base.sessions, static_cast<int>(w.sessions.size()));
  EXPECT_EQ(base.delivered, base.sessions);  // connected graph
  EXPECT_EQ(base.certified, 0);
  for (unsigned t : {4u, 8u})
    EXPECT_EQ(base, baselines::traffic_experiment(g, w, 0x5eed0001, t))
        << "threads=" << t;
}

TEST(ThreadInvariance, TrafficEngineReportsPerSession) {
  // Stronger than the cell: every per-session report identical at 1 vs 8
  // threads, mixed kinds included.
  graph::Graph g = graph::from_edges(
      8, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {5, 6}, {6, 7}});
  baselines::Workload w = baselines::mixed_workload(8, 48, 2.0, 64, 99);
  std::vector<SessionReport> base;
  for (unsigned threads : {1u, 8u}) {
    TrafficOptions opt = with_walkers();
    opt.threads = threads;
    TrafficEngine engine(g, opt);
    engine.admit_all(w.sessions);
    engine.run();
    if (threads == 1) {
      base = engine.reports();
      continue;
    }
    ASSERT_EQ(engine.reports().size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      const SessionReport& a = base[i];
      const SessionReport& b = engine.reports()[i];
      EXPECT_EQ(a.delivered, b.delivered) << i;
      EXPECT_EQ(a.failure_certified, b.failure_certified) << i;
      EXPECT_EQ(a.exhausted, b.exhausted) << i;
      EXPECT_EQ(a.transmissions, b.transmissions) << i;
      EXPECT_EQ(a.completed_at, b.completed_at) << i;
      EXPECT_EQ(a.distinct_visited, b.distinct_visited) << i;
    }
  }
}

// The PR 9 acceptance gate's second axis: the shard count partitions
// session state but must never be observable in any report field.
TEST(ShardInvariance, ReportsIdenticalAcrossShardCounts) {
  graph::Graph g = graph::connected_gnp(33, 0.18, 7);
  baselines::Workload w = baselines::all_pairs_workload(33);
  std::vector<SessionReport> base;
  for (unsigned shards : {1u, 4u, 16u}) {
    TrafficOptions opt;
    opt.shards = shards;
    TrafficEngine engine(g, opt);
    engine.admit_all(w.sessions);
    engine.run();
    if (shards == 1) {
      base = engine.reports();
      continue;
    }
    ASSERT_EQ(engine.reports().size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      const SessionReport& a = base[i];
      const SessionReport& b = engine.reports()[i];
      ASSERT_EQ(a.delivered, b.delivered) << "shards=" << shards << " " << i;
      ASSERT_EQ(a.failure_certified, b.failure_certified) << i;
      ASSERT_EQ(a.transmissions, b.transmissions) << i;
      ASSERT_EQ(a.completed_at, b.completed_at) << i;
    }
  }
}

TEST(TrafficEngine, OpenLoopDeparturesRetireWithoutVerdict) {
  graph::Graph g = graph::cycle(64);
  TrafficEngine engine(g);
  // Session 0: the antipodal walk needs far more than 5 transmissions;
  // the user leaves at tick 5.  Session 1: same route, patient enough to
  // see the verdict through.
  SessionSpec leave;
  leave.s = 0;
  leave.t = 32;
  leave.depart_at = 5;
  SessionSpec stay;
  stay.s = 0;
  stay.t = 32;
  engine.admit(leave);
  engine.admit(stay);
  engine.run();
  const SessionReport& gone = engine.report(0);
  EXPECT_TRUE(gone.finished);
  EXPECT_TRUE(gone.departed);
  EXPECT_FALSE(gone.delivered);
  EXPECT_FALSE(gone.failure_certified);
  // The session's slot window stops at its departure tick, so the
  // retirement instant is exact, and a slotted walk spends one
  // transmission per tick until then.
  EXPECT_EQ(gone.completed_at, 5u);
  EXPECT_EQ(gone.transmissions, 5u);
  const SessionReport& kept = engine.report(1);
  EXPECT_FALSE(kept.departed);
  EXPECT_TRUE(kept.delivered);
  // depart_at must be strictly after admission.
  SessionSpec bad;
  bad.s = 1;
  bad.t = 2;
  bad.admit_at = engine.clock() + 10;
  bad.depart_at = bad.admit_at;
  EXPECT_THROW(engine.admit(bad), std::invalid_argument);
}

/// Replays a fixed schedule through the pull interface.
class VectorArrivals final : public ArrivalSource {
 public:
  explicit VectorArrivals(std::vector<SessionSpec> specs)
      : specs_(std::move(specs)) {}
  std::optional<SessionSpec> next() override {
    if (i_ >= specs_.size()) return std::nullopt;
    return specs_[i_++];
  }

 private:
  std::vector<SessionSpec> specs_;
  std::size_t i_ = 0;
};

TEST(TrafficEngine, PulledArrivalsMatchUpFrontAdmission) {
  // The open-loop contract: a stream pulled lazily during run() produces
  // reports bit-identical to the same schedule admitted up front.
  graph::Graph g = graph::grid(5, 5);
  baselines::Workload w = baselines::poisson_workload(25, 120, 3.0, 21);
  TrafficEngine up_front(g);
  up_front.admit_all(w.sessions);
  up_front.run();
  TrafficEngine pulled(g);
  VectorArrivals source(w.sessions);
  pulled.attach_arrivals(source);
  pulled.run();
  ASSERT_EQ(pulled.reports().size(), up_front.reports().size());
  for (std::size_t i = 0; i < up_front.reports().size(); ++i) {
    const SessionReport& a = up_front.reports()[i];
    const SessionReport& b = pulled.reports()[i];
    ASSERT_EQ(a.admitted_at, b.admitted_at) << i;
    ASSERT_EQ(a.delivered, b.delivered) << i;
    ASSERT_EQ(a.transmissions, b.transmissions) << i;
    ASSERT_EQ(a.completed_at, b.completed_at) << i;
  }
  EXPECT_EQ(pulled.clock(), up_front.clock());
}

/// FNV-1a over (verdict, transmissions, completed_at, departed,
/// distinct_visited) in session-id order.
std::uint64_t report_digest(const std::vector<SessionReport>& reports) {
  return test_support::report_digest(reports, [](const SessionReport& r) {
    return std::array<std::uint64_t, 5>{
        test_support::verdict_code(r), r.transmissions, r.completed_at,
        r.departed, r.distinct_visited};
  });
}

// Golden pin of the static perfect-link engine: the invariance suites
// compare runs with each other, so this fixes the values themselves.
// Pulled open-loop arrivals with departures share the clock with s == t
// routes, cross-cluster certificates, broadcasts and hybrids admitted up
// front at staggered ticks, some of them departing mid-walk.
TEST(TrafficEngine, StaticEngineReportsArePinned) {
  const graph::Graph g = graph::disjoint_copies(graph::k4(), 6);
  baselines::OpenLoopWorkload::Config cfg;
  cfg.cluster_size = 4;
  cfg.clusters = 6;
  cfg.sessions = 600;
  cfg.mean_interarrival = 0.7;
  cfg.mean_lifetime = 25.0;
  cfg.seed = 17;
  for (unsigned shards : {1u, 4u}) {
    TrafficOptions opt = with_walkers();
    opt.shards = shards;
    TrafficEngine engine(g, opt);
    for (NodeId i = 0; i < 12; ++i) {
      const std::uint64_t at = 11 * i + i % 5;
      const NodeId other = (i + 4) % 24;  // always the next cluster
      engine.admit({.s = i, .t = i, .admit_at = at});
      engine.admit({.s = i, .t = other, .admit_at = at + 2,
                    .depart_at = i % 3 == 0 ? at + 2 + 7 * i + 1 : 0});
      engine.admit({.kind = TrafficKind::kBroadcast, .s = 2 * i,
                    .admit_at = at + 5,
                    .depart_at = i % 6 ? at + 5 + 30 + i : 0});
      engine.admit({.kind = TrafficKind::kHybrid, .s = i,
                    .t = (i + 1 + (i % 4 == 1) * 4) % 24, .admit_at = at + 9,
                    .hybrid_ttl = 10 + i,
                    .depart_at = i % 8 == 1 ? at + 9 + 3 * i : 0});
    }
    baselines::OpenLoopWorkload arrivals(cfg);
    engine.attach_arrivals(arrivals);
    engine.run();
    int delivered = 0, certified = 0, departed = 0;
    for (const SessionReport& r : engine.reports()) {
      ASSERT_TRUE(r.finished);
      delivered += r.delivered;
      certified += r.failure_certified;
      departed += r.departed;
    }
    EXPECT_GT(delivered, 0);
    EXPECT_GT(certified, 0);
    EXPECT_GT(departed, 0);
    EXPECT_EQ(report_digest(engine.reports()), 0x6c098f17b275802eULL)
        << "shards=" << shards;
  }
}

// The same pin for the dynamic perfect-link engine: staggered arrivals
// and departures across epoch boundaries that are not batch-aligned.
TEST(TrafficEngine, DynamicEngineReportsArePinned) {
  graph::NodeChurnScenario sc(graph::connected_gnp(14, 0.3, 5),
                              /*p_leave=*/0.15, /*p_join=*/0.5, 11);
  TrafficOptions opt;
  opt.epoch_period = 40;
  opt.max_epochs = 10;
  TrafficEngine engine(sc, opt);
  for (NodeId i = 0; i < 60; ++i) {
    const std::uint64_t at = 9 * i + i % 7;
    engine.admit({.s = i % 14, .t = (5 * i + 3) % 14, .admit_at = at,
                  .depart_at = i % 4 == 0 ? at + 20 + i : 0});
  }
  engine.run();
  EXPECT_EQ(report_digest(engine.reports()), 0xc1d443b859ebd43aULL);
}

// The DynamicEngineReportsArePinned schedule on the sharded arena: epoch
// restarts run serially between rounds, so no threads x shards split may
// move a report off the golden value.
TEST(ShardInvariance, DynamicEngineAcrossThreadsAndShards) {
  graph::NodeChurnScenario sc(graph::connected_gnp(14, 0.3, 5),
                              /*p_leave=*/0.15, /*p_join=*/0.5, 11);
  for (unsigned threads : {1u, 4u, 8u}) {
    for (unsigned shards : {1u, 4u, 16u}) {
      TrafficOptions opt;
      opt.epoch_period = 40;
      opt.max_epochs = 10;
      opt.threads = threads;
      opt.shards = shards;
      TrafficEngine engine(sc, opt);
      for (NodeId i = 0; i < 60; ++i) {
        const std::uint64_t at = 9 * i + i % 7;
        engine.admit({.s = i % 14, .t = (5 * i + 3) % 14, .admit_at = at,
                      .depart_at = i % 4 == 0 ? at + 20 + i : 0});
      }
      engine.run();
      std::uint64_t restarts = 0;
      for (const SessionReport& r : engine.reports()) restarts += r.restarts;
      EXPECT_GT(restarts, 0u);  // walks really crossed epochs
      EXPECT_EQ(report_digest(engine.reports()), 0xc1d443b859ebd43aULL)
          << "threads=" << threads << " shards=" << shards;
    }
  }
}

// Dynamic mode builds one network per committed epoch and every session
// in flight borrows it: T_n lookups are bounded by the epochs, not by
// sessions x epochs — on the arena and on the lossy lanes alike.
TEST(TrafficEngine, OneNetworkPerEpoch) {
  graph::NodeChurnScenario sc(graph::connected_gnp(14, 0.3, 5),
                              /*p_leave=*/0.15, /*p_join=*/0.5, 11);
  for (bool lossy : {false, true}) {
    TrafficOptions opt;
    opt.epoch_period = 24;
    opt.max_epochs = 10;
    if (lossy) opt.lossy = LossyTrafficConfig{};
    TrafficEngine engine(sc, opt);
    for (NodeId s = 0; s < 14; ++s)
      engine.admit({.s = s, .t = static_cast<NodeId>((s + 5) % 14)});
    const explore::SequenceCache& cache = explore::SequenceCache::global();
    const std::uint64_t before = cache.hits() + cache.misses();
    engine.run();
    const std::uint64_t lookups = cache.hits() + cache.misses() - before;
    std::uint64_t restarts = 0;
    for (const SessionReport& r : engine.reports()) restarts += r.restarts;
    EXPECT_GT(restarts, 0u) << "lossy=" << lossy;
    EXPECT_GT(engine.epoch(), 0u);
    EXPECT_LE(lookups, engine.epoch() + 1) << "lossy=" << lossy;
  }
}

TEST(TrafficEngine, ArrivalsEveryTickKeepRoundsWhole) {
  // An arrival due every tick starts inside the round in its own slot
  // window instead of cutting the round short, so the rounds number at
  // most clock / batch plus the idle fast-forwards (the gap between the
  // two arrival phases below).
  const graph::Graph g = graph::disjoint_copies(graph::petersen(), 4);
  std::vector<SessionSpec> specs;
  for (std::uint64_t i = 0; i < 600; ++i) {
    const std::uint64_t at = i < 300 ? i : i + 5000;
    const auto s = static_cast<NodeId>(i % 40);
    specs.push_back({.s = s, .t = s / 10 * 10 + (s + 3) % 10,
                     .admit_at = at, .depart_at = i % 3 ? 0 : at + 40});
  }
  VectorArrivals source(specs);
  TrafficEngine engine(g);
  engine.attach_arrivals(source);
  const std::uint64_t batch = TrafficOptions{}.batch;
  std::uint64_t rounds = 0;
  std::uint64_t idle = 0;
  while (engine.unfinished_count() > 0 ||
         engine.session_count() < specs.size()) {
    const std::uint64_t before = engine.clock();
    engine.run_round();
    ++rounds;
    idle += engine.clock() - before > batch;
  }
  EXPECT_EQ(idle, 1u);
  EXPECT_LE(rounds, (engine.clock() + batch - 1) / batch + idle);
  for (const SessionReport& r : engine.reports()) EXPECT_TRUE(r.finished);
}

TEST(ShardInvariance, OpenLoopCellAcrossThreadsAndShards) {
  // Arrivals, departures, sharding and threading all at once: the folded
  // cell (double-valued percentiles included) must not move.
  const graph::Graph g = graph::disjoint_copies(graph::petersen(), 8);
  baselines::OpenLoopWorkload::Config cfg;
  cfg.cluster_size = 10;
  cfg.clusters = 8;
  cfg.sessions = 400;
  cfg.mean_interarrival = 0.5;
  cfg.mean_lifetime = 30.0;
  cfg.seed = 5;
  const baselines::TrafficCell base =
      baselines::open_loop_traffic_experiment(g, cfg, 0x5eed0001,
                                              /*threads=*/1, /*shards=*/1);
  EXPECT_EQ(base.sessions, 400);
  EXPECT_GT(base.delivered, 0);
  EXPECT_GT(base.departed, 0);  // the lifetime knob actually bites
  for (auto [threads, shards] :
       {std::pair{4u, 4u}, {8u, 16u}, {1u, 16u}, {4u, 1u}})
    EXPECT_EQ(base, baselines::open_loop_traffic_experiment(
                        g, cfg, 0x5eed0001, threads, shards))
        << "threads=" << threads << " shards=" << shards;
}

}  // namespace
}  // namespace uesr::core
