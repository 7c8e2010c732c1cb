// E14 kernel tests: the lossy TrafficEngine must stay SOUND — never a
// wrong certificate — under every composition of loss, duplication,
// one-sided links, churn, and load, and its cells must replay
// bit-identically for any thread count (PR 3 convention).
#include "baselines/workload.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <stdexcept>

#include "core/traffic.h"
#include "graph/churn.h"
#include "graph/dynamic.h"
#include "graph/generators.h"
#include "support/report_digest.h"
#include "support/stormy.h"

namespace uesr::baselines {
namespace {

using graph::connected_gnp;
using graph::disjoint_union;
using graph::Graph;
using graph::NodeId;

/// Two components: certificates must join every tally.
Graph split_graph() {
  return disjoint_union(connected_gnp(4, 0.6, 27), connected_gnp(4, 0.6, 28));
}

graph::NodeChurnScenario churn_scenario() {
  return graph::NodeChurnScenario(graph::connected_gnp(12, 0.3, 5), 0.3,
                                  0.45, 11);
}

TEST(LossyTraffic, ZeroLossConnectedDeliversEverything) {
  const Graph g = graph::connected_gnp(8, 0.4, 21);
  const Workload w = all_pairs_workload(8);
  core::LossyTrafficConfig cfg;
  const TrafficCell cell =
      traffic_experiment(g, w, /*seq_seed=*/7, /*threads=*/1, cfg);
  EXPECT_EQ(cell.sessions, 56);
  EXPECT_EQ(cell.delivered, 56);
  EXPECT_EQ(cell.certified, 0);
  EXPECT_EQ(cell.uncertified, 0);
  EXPECT_EQ(cell.unsound, 0);
  // Stop-and-wait on perfect links: exactly one ack per successful hop.
  EXPECT_EQ(cell.wire_frames, 2 * cell.hops);
  EXPECT_EQ(cell.retransmits, 0u);
}

TEST(LossyTraffic, SelectiveRepeatAtZeroLossMatchesStopAndWaitVerdicts) {
  const Graph g = split_graph();
  const Workload w = all_pairs_workload(8);
  core::LossyTrafficConfig sw;
  core::LossyTrafficConfig sr = sw;
  sr.arq = core::ArqKind::kSelectiveRepeat;
  sr.window.frames_per_message = 2;
  const TrafficCell a = traffic_experiment(g, w, 7, 1, sw);
  const TrafficCell b = traffic_experiment(g, w, 7, 1, sr);
  // Same walks, same verdicts — the ARQ only changes the wire framing.
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.certified, b.certified);
  EXPECT_EQ(a.uncertified, 0);
  EXPECT_EQ(b.uncertified, 0);
  EXPECT_EQ(a.hops, b.hops);
  EXPECT_EQ(a.unsound, 0);
  EXPECT_EQ(b.unsound, 0);
  EXPECT_GT(a.certified, 0);  // the split really produced certificates
}

// The adversarial static sweeps: dup-only, loss-only, loss+dup, and the
// one-sided regime, for both ARQ shapes.  Soundness is absolute (unsound == 0)
// and every session resolves to exactly one verdict.
TEST(LossyTraffic, StaticRegimeSweepsStaySound) {
  const Graph g = split_graph();
  const Workload w = all_pairs_workload(8);
  struct Regime {
    const char* name;
    double loss, dup, one_sided;
  };
  const Regime regimes[] = {
      {"dup-only", 0.0, 0.6, 0.0},
      {"loss-only", 0.25, 0.0, 0.0},
      {"loss+dup", 0.2, 0.3, 0.0},
      {"one-sided", 0.05, 0.0, 0.15},
  };
  for (const Regime& r : regimes) {
    for (core::ArqKind arq :
         {core::ArqKind::kStopAndWait, core::ArqKind::kSelectiveRepeat}) {
      core::LossyTrafficConfig cfg;
      cfg.link.loss = r.loss;
      cfg.link.dup = r.dup;
      cfg.link.latency_max = 4;
      cfg.one_sided_down = r.one_sided;
      cfg.arq = arq;
      cfg.window.max_retries = 6;
      cfg.window.frames_per_message = 2;
      cfg.window.window = 2;
      const TrafficCell cell = traffic_experiment(g, w, 99, 1, cfg);
      EXPECT_EQ(cell.unsound, 0) << r.name;
      EXPECT_EQ(cell.delivered + cell.certified + cell.uncertified,
                cell.sessions)
          << r.name;
    }
  }
}

// Dup alone can never exhaust a budget: every session still resolves hard.
TEST(LossyTraffic, DupOnlyNeverDegradesToUncertified) {
  const Graph g = split_graph();
  const Workload w = all_pairs_workload(8);
  core::LossyTrafficConfig cfg;
  cfg.link.dup = 1.0;  // constant latency: the adaptive RTO never fires
  const TrafficCell cell = traffic_experiment(g, w, 5, 1, cfg);
  EXPECT_EQ(cell.uncertified, 0);
  EXPECT_EQ(cell.unsound, 0);
  EXPECT_EQ(cell.retransmits, 0u);
}

// The composed fault regime of the tentpole: links flap (churn epochs) AND
// drop frames (lossy channel) in one replayable run.
TEST(LossyTraffic, ComposedLossAndChurnStaysSound) {
  auto sc = churn_scenario();
  const Workload w = all_pairs_workload(12);
  for (core::ArqKind arq :
       {core::ArqKind::kStopAndWait, core::ArqKind::kSelectiveRepeat}) {
    core::LossyTrafficConfig cfg;
    cfg.link.loss = 0.1;
    cfg.arq = arq;
    cfg.window.max_retries = 5;
    cfg.window.frames_per_message = 4;
    const TrafficCell cell = traffic_experiment(
        sc, /*epoch_period=*/64, /*max_epochs=*/12, w, 17, 1, cfg);
    EXPECT_EQ(cell.sessions, 132);
    EXPECT_EQ(cell.unsound, 0);
    EXPECT_EQ(cell.delivered + cell.certified + cell.uncertified,
              cell.sessions);
  }
}

// An advance that commits no change leaves DynamicGraph::epoch() where it
// was, so a report's completion_epoch is a stamp, not an advance count.
// The audit must key its ground truth by that stamp: keyed by advance
// count it checks verdicts against the wrong topology and reports dozens
// of false unsound verdicts on this schedule.
TEST(LossyTraffic, AuditKeysGroundTruthByEpochStamp) {
  graph::NodeChurnScenario sc(connected_gnp(16, 0.3, 29), 0.08, 0.5, 5);
  {
    auto replay = sc.fresh();
    graph::DynamicGraph dg = replay->initial();
    for (int e = 0; e < 12; ++e) replay->advance(dg);
    ASSERT_LT(dg.epoch(), 12u);  // some advance really committed nothing
  }
  const Workload w = all_pairs_workload(16);
  for (core::ArqKind arq :
       {core::ArqKind::kStopAndWait, core::ArqKind::kSelectiveRepeat}) {
    core::LossyTrafficConfig cfg;
    cfg.link.loss = 0.1;
    cfg.arq = arq;
    cfg.window.window = 2;
    cfg.window.frames_per_message = 2;
    const TrafficCell cell = traffic_experiment(
        sc, /*epoch_period=*/64, /*max_epochs=*/12, w, /*seq_seed=*/131, 1,
        cfg);
    EXPECT_EQ(cell.sessions, 240);
    EXPECT_EQ(cell.unsound, 0) << test_support::arq_name(arq);
    EXPECT_EQ(cell.delivered + cell.certified + cell.uncertified,
              cell.sessions);
  }
}

// Termination under the worst case: a dead channel blocks every session
// each epoch; once the schedule freezes the engine must resolve them all
// to kUncertified instead of spinning.
TEST(LossyTraffic, FrozenScheduleResolvesBlockedSessionsToUncertified) {
  auto sc = churn_scenario();
  const Workload w = all_pairs_workload(8);
  core::LossyTrafficConfig cfg;
  cfg.link.loss = 1.0;
  cfg.window.max_retries = 2;
  const TrafficCell cell =
      traffic_experiment(sc, 32, /*max_epochs=*/3, w, 23, 1, cfg);
  EXPECT_EQ(cell.sessions, 56);
  EXPECT_EQ(cell.delivered, 0);
  EXPECT_EQ(cell.certified, 0);
  EXPECT_EQ(cell.uncertified, 56);
  EXPECT_EQ(cell.unsound, 0);
}

TEST(LossyTraffic, AdmitRejectsNonRouteSessions) {
  const Graph g = graph::connected_gnp(8, 0.4, 3);
  core::TrafficOptions opt;
  opt.lossy = core::LossyTrafficConfig{};
  core::TrafficEngine engine(g, opt);
  core::SessionSpec spec;
  spec.kind = core::TrafficKind::kBroadcast;
  spec.s = 0;
  EXPECT_THROW(engine.admit(spec), std::invalid_argument);
  spec.kind = core::TrafficKind::kHybrid;
  spec.t = 1;
  EXPECT_THROW(engine.admit(spec), std::invalid_argument);
}

// The E14 headline comparison: at loss 0.1 the pipelined window moves a
// multi-frame payload in measurably less virtual time per delivered route
// than stop-and-wait pacing (window = 1) of the same framing.
TEST(LossyTraffic, SelectiveRepeatBeatsWindowOnePacingAtLossTen) {
  const Graph g = graph::connected_gnp(10, 0.35, 31);
  const Workload w = all_pairs_workload(10);
  core::LossyTrafficConfig paced;
  paced.link.loss = 0.1;
  paced.arq = core::ArqKind::kSelectiveRepeat;
  paced.window.frames_per_message = 16;
  paced.window.max_retries = 16;
  paced.window.window = 1;
  core::LossyTrafficConfig pipelined = paced;
  pipelined.window.window = 16;
  const TrafficCell slow = traffic_experiment(g, w, 7, 1, paced);
  const TrafficCell fast = traffic_experiment(g, w, 7, 1, pipelined);
  ASSERT_GT(slow.delivered, 0);
  ASSERT_GT(fast.delivered, 0);
  const double slow_vtime =
      static_cast<double>(slow.vtime_delivered) / slow.delivered;
  const double fast_vtime =
      static_cast<double>(fast.vtime_delivered) / fast.delivered;
  EXPECT_LT(fast_vtime, slow_vtime);
  EXPECT_EQ(slow.unsound, 0);
  EXPECT_EQ(fast.unsound, 0);
}

// The PR 3 determinism contract extended to E14: every cell of the lossy
// traffic kernel is bit-identical for any thread count.
TEST(ThreadInvariance, LossyTrafficStatic) {
  const Graph g = split_graph();
  const Workload w = poisson_workload(8, 48, 1.5, 77);
  core::LossyTrafficConfig cfg;
  cfg.link.loss = 0.15;
  cfg.link.dup = 0.05;
  cfg.link.latency_max = 4;
  cfg.one_sided_down = 0.05;
  cfg.window.max_retries = 6;
  const TrafficCell base = traffic_experiment(g, w, 123, 1, cfg);
  EXPECT_EQ(base.unsound, 0);
  for (unsigned t : {4u, 8u})
    EXPECT_EQ(base, traffic_experiment(g, w, 123, t, cfg))
        << "threads=" << t;
}

TEST(ThreadInvariance, LossyTrafficChurn) {
  auto sc = churn_scenario();
  const Workload w = poisson_workload(12, 48, 1.0, 91);
  core::LossyTrafficConfig cfg;
  cfg.link.loss = 0.1;
  cfg.arq = core::ArqKind::kSelectiveRepeat;
  cfg.window.frames_per_message = 4;
  cfg.window.max_retries = 5;
  const TrafficCell base = traffic_experiment(sc, 48, 10, w, 321, 1, cfg);
  EXPECT_EQ(base.unsound, 0);
  for (unsigned t : {4u, 8u})
    EXPECT_EQ(base, traffic_experiment(sc, 48, 10, w, 321, t, cfg))
        << "threads=" << t;
}

/// FNV-1a over (verdict, transmissions, completed_at, hops, retransmits,
/// restarts, completion_epoch) in session-id order.
std::uint64_t report_digest(const std::vector<core::SessionReport>& reports) {
  return test_support::report_digest(
      reports, [](const core::SessionReport& r) {
        return std::array<std::uint64_t, 7>{
            test_support::verdict_code(r), r.transmissions, r.completed_at,
            r.hops, r.retransmits, r.restarts, r.completion_epoch};
      });
}

/// The pinned dynamic lossy engine: loss, one-sided flips and sampled
/// chaos re-drawn per (session, epoch) over node churn, all pairs of 6.
std::unique_ptr<core::TrafficEngine> pinned_lossy_engine(core::ArqKind arq) {
  core::LossyTrafficConfig cfg;
  cfg.link = {.latency_max = 3, .loss = 0.05};
  cfg.one_sided_down = 0.02;
  cfg.arq = arq;
  cfg.window.max_retries = 6;
  cfg.window.frames_per_message = 2;
  cfg.chaos = net::ChaosConfig{.horizon = 1 << 9, .slot = 32,
                               .crash_rate = 0.01, .crash_min = 8,
                               .crash_max = 32, .corrupt_burst_rate = 0.04,
                               .corrupt_level = 0.3};
  core::TrafficOptions opt;
  opt.seq_seed = 29;
  opt.epoch_period = 48;
  opt.max_epochs = 6;
  opt.lossy = cfg;
  auto engine = std::make_unique<core::TrafficEngine>(
      graph::NodeChurnScenario(graph::connected_gnp(6, 0.5, 5), 0.2, 0.45,
                               11),
      opt);
  engine->admit_all(all_pairs_workload(6).sessions);
  engine->run();
  return engine;
}

// Golden pin of the dynamic lossy engine: the invariance suites above only
// compare runs with each other, so this fixes the values themselves.
TEST(LossyTraffic, DynamicEngineReportsArePinned) {
  for (core::ArqKind arq :
       {core::ArqKind::kStopAndWait, core::ArqKind::kSelectiveRepeat}) {
    const auto engine = pinned_lossy_engine(arq);
    EXPECT_EQ(report_digest(engine->reports()),
              arq == core::ArqKind::kStopAndWait ? 0x08984605121ec7deULL
                                                 : 0x4c817ced441c2930ULL);
  }
}

// A session gives up only once the schedule froze, and only after trying
// the final topology: every uncertified verdict is about the last epoch,
// never one that a later commit superseded.
TEST(LossyTraffic, UncertifiedVerdictsAreAboutTheFrozenEpoch) {
  for (core::ArqKind arq :
       {core::ArqKind::kStopAndWait, core::ArqKind::kSelectiveRepeat}) {
    const auto engine = pinned_lossy_engine(arq);
    int uncertified = 0;
    for (const core::SessionReport& r : engine->reports()) {
      if (!r.uncertified) continue;
      ++uncertified;
      EXPECT_EQ(r.completion_epoch, engine->epoch())
          << "session " << r.s << "->" << r.t;
    }
    EXPECT_GT(uncertified, 0);  // budgets really died
  }
}

}  // namespace
}  // namespace uesr::baselines
