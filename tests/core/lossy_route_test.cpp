// Certificate soundness of Algorithm Route over lossy channels
// (DESIGN.md §2.10): under every adversarial channel regime, a delivery
// verdict is only returned when t is truly reachable, a failure
// certificate is never emitted while a path exists, and loss degrades
// outcomes to kUncertified — never to a wrong certificate.
#include "core/lossy_route.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "core/route.h"
#include "core/traffic.h"
#include "graph/dynamic.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace uesr::core {
namespace {

using explore::ReducedGraph;
using explore::reduce_to_cubic;
using graph::connected_gnp;
using graph::disjoint_union;
using graph::Graph;
using graph::NodeId;
using graph::Port;

constexpr std::uint64_t kSeqSeed = 0x5eed0001;  ///< the T_n family

struct Fixture {
  Graph original;
  ReducedGraph net;
  std::shared_ptr<const explore::ExplorationSequence> seq;

  explicit Fixture(Graph g, std::uint64_t seed = kSeqSeed)
      : original(std::move(g)),
        net(reduce_to_cubic(original)),
        seq(explore::standard_ues(
            net.cubic.num_nodes() == 0 ? 1 : net.cubic.num_nodes(), seed)) {}
};


/// Soundness gate shared by all the regime sweeps: run every ordered pair
/// and check the verdict against ground-truth reachability.
struct RegimeTally {
  int delivered = 0;
  int certified = 0;
  int uncertified = 0;
};

/// The sweep's pairs (s, t) for one source s, tallied into `tally`.
void sweep_from(const Fixture& fx, const LossyTrafficConfig& base,
                std::uint64_t seed_salt, NodeId s, RegimeTally& tally) {
  const auto comp = graph::connected_components(fx.original);
  for (NodeId t = 0; t < fx.original.num_nodes(); ++t) {
    if (s == t) continue;
    LossyTrafficConfig options = base;
    options.net_seed = util::counter_hash(seed_salt, s * 1000 + t);
    LossyRouteSession session(fx.net, *fx.seq, s, t, options);
    const Verdict v = session.run();
    const bool reachable = comp[s] == comp[t];
    switch (v) {
      case Verdict::kDelivered:
        EXPECT_TRUE(reachable) << "false delivery cert s=" << s << " t=" << t;
        ++tally.delivered;
        break;
      case Verdict::kCertified:
        EXPECT_FALSE(reachable)
            << "failure cert with a live path s=" << s << " t=" << t;
        ++tally.certified;
        break;
      case Verdict::kUncertified:
        ++tally.uncertified;
        break;
      default:
        ADD_FAILURE() << "run() returned no lossy verdict";
        break;
    }
  }
}

RegimeTally sweep_all_pairs(const Fixture& fx, const LossyTrafficConfig& base,
                            std::uint64_t seed_salt) {
  RegimeTally tally;
  for (NodeId s = 0; s < fx.original.num_nodes(); ++s)
    sweep_from(fx, base, seed_salt, s, tally);
  return tally;
}

// ---------------------------------------------------------------------------
// Perfect-channel equivalence: at loss = 0 the lossy session reproduces the
// RouteSession verdict and walk length exactly.
// ---------------------------------------------------------------------------

// The all-pairs sweeps below run one test instance per source s, so no
// single test nears the ctest timeout under the sanitizers.
class PerfectChannelMatchesRouteSessionEverywhere
    : public ::testing::TestWithParam<NodeId> {};

TEST_P(PerfectChannelMatchesRouteSessionEverywhere, FromSource) {
  Fixture fx(disjoint_union(connected_gnp(6, 0.5, 7),
                            connected_gnp(6, 0.5, 8)));
  ASSERT_EQ(fx.original.num_nodes(), 12u);  // one instance per source
  const NodeId s = GetParam();
  for (NodeId t = 0; t < fx.original.num_nodes(); ++t) {
    if (s == t) continue;
    RouteSession perfect(fx.net, *fx.seq, s, t);
    while (!perfect.finished()) perfect.step();
    LossyRouteSession lossy(fx.net, *fx.seq, s, t);
    const Verdict v = lossy.run();
    if (perfect.status() == net::Status::kSuccess) {
      EXPECT_EQ(v, Verdict::kDelivered);
    } else {
      EXPECT_EQ(v, Verdict::kCertified);
    }
    EXPECT_EQ(lossy.hops(), perfect.transmissions());
    EXPECT_EQ(lossy.target_reached(), perfect.target_reached());
    // Stop-and-wait on a perfect channel: one DATA + one ACK per hop.
    EXPECT_EQ(lossy.wire_frames(), 2 * lossy.hops());
  }
}

INSTANTIATE_TEST_SUITE_P(LossyRouteSession,
                         PerfectChannelMatchesRouteSessionEverywhere,
                         ::testing::Range<NodeId>(0, 12));

// ---------------------------------------------------------------------------
// Adversarial regimes (the ISSUE soundness gate).
// ---------------------------------------------------------------------------

class DuplicationOnlyRegime : public ::testing::TestWithParam<NodeId> {};

TEST_P(DuplicationOnlyRegime, FromSource) {
  Fixture fx(disjoint_union(connected_gnp(5, 0.6, 11),
                            connected_gnp(5, 0.6, 12)));
  ASSERT_EQ(fx.original.num_nodes(), 10u);  // one instance per source
  LossyTrafficConfig options;
  options.link.dup = 1.0;  // every frame doubled, nothing lost
  options.link.latency_min = 1;
  options.link.latency_max = 11;  // dups overtake and straggle
  RegimeTally tally;
  sweep_from(fx, options, 0xd0b1e, GetParam(), tally);
  // No loss: every transfer completes, so every pair gets a real verdict
  // and it must match reachability exactly — every source has targets on
  // both sides of the split.
  EXPECT_EQ(tally.uncertified, 0);
  EXPECT_GT(tally.delivered, 0);
  EXPECT_GT(tally.certified, 0);
}

INSTANTIATE_TEST_SUITE_P(LossyRouteSoundness, DuplicationOnlyRegime,
                         ::testing::Range<NodeId>(0, 10));

TEST(LossyRouteSoundness, LossOnlyRegime) {
  Fixture fx(disjoint_union(connected_gnp(5, 0.6, 13),
                            connected_gnp(5, 0.6, 14)));
  LossyTrafficConfig options;
  options.link.loss = 0.3;
  options.window.max_retries = 2;  // tight budget: uncertified happens
  options.window.rto_initial = 4;
  const RegimeTally tally = sweep_all_pairs(fx, options, 0x1055);
  EXPECT_GT(tally.uncertified, 0);  // the budget really bit
  EXPECT_GT(tally.delivered, 0);    // and some walks still completed
}

TEST(LossyRouteSoundness, LossOnlyGenerousBudgetStillSound) {
  Fixture fx(disjoint_union(connected_gnp(4, 0.7, 17),
                            connected_gnp(4, 0.7, 18)));
  LossyTrafficConfig options;
  options.link.loss = 0.25;
  options.window.max_retries = 40;  // delivery of each hop near-certain
  options.window.rto_initial = 2;
  const RegimeTally tally = sweep_all_pairs(fx, options, 0x9e9e);
  EXPECT_GT(tally.delivered, 0);
  EXPECT_GT(tally.certified, 0);  // failure certs survive loss, soundly
}

TEST(LossyRouteSoundness, OneSidedLinkRegimeNeverFalselyCertifies) {
  // No loss, no duplication — but some cubic-graph directions are down.
  // Data or acks silently vanish on those directions; the session may only
  // degrade to kUncertified, never to a wrong certificate.
  Fixture fx(disjoint_union(connected_gnp(5, 0.6, 19),
                            connected_gnp(5, 0.6, 20)));
  const auto comp = graph::connected_components(fx.original);
  const Graph& cubic = fx.net.cubic;
  util::Pcg32 flips(0x0f1e);
  int uncertified = 0, verdicts = 0;
  for (NodeId s = 0; s < fx.original.num_nodes(); ++s) {
    for (NodeId t = 0; t < fx.original.num_nodes(); ++t) {
      if (s == t) continue;
      LossyTrafficConfig options;
      options.window.max_retries = 2;
      options.window.rto_initial = 4;
      options.net_seed = util::counter_hash(0x51de, s * 1000 + t);
      LossyRouteSession session(fx.net, *fx.seq, s, t, options);
      // Down ~15% of directed half-edges, one side only.
      for (NodeId v = 0; v < cubic.num_nodes(); ++v)
        for (Port q = 0; q < cubic.degree(v); ++q)
          if (flips.next_below(100) < 15)
            session.sim().set_link_up(v, q, false);
      const Verdict v = session.run();
      const bool reachable = comp[s] == comp[t];
      if (v == Verdict::kDelivered) {
        EXPECT_TRUE(reachable);
      }
      if (v == Verdict::kCertified) {
        EXPECT_FALSE(reachable);
      }
      uncertified += v == Verdict::kUncertified;
      verdicts += v != Verdict::kUncertified;
    }
  }
  EXPECT_GT(uncertified, 0);  // dead directions really blocked walks
  EXPECT_GT(verdicts, 0);     // and some sessions still concluded
}

// ---------------------------------------------------------------------------
// Plumbing.
// ---------------------------------------------------------------------------

TEST(LossyRouteSession, BroadcastRunsUnderLoss) {
  Fixture fx(graph::connected_gnp(8, 0.4, 23));
  LossyTrafficConfig options;
  options.link.loss = 0.1;
  options.window.max_retries = 30;
  options.window.rto_initial = 2;
  LossyRouteSession session(fx.net, *fx.seq, 0, net::kNoTarget, options);
  const Verdict v = session.run();
  // A completed broadcast exhausts the sequence and rewinds: that is the
  // kFailureCertified shape (status kFailure at s) — or the budget spends.
  EXPECT_TRUE(v == Verdict::kCertified ||
              v == Verdict::kUncertified);
}

TEST(LossyRouteSession, UncertifiedSessionsMayStillHaveDelivered) {
  // target_reached() is ground truth for the two-generals gap: across
  // seeds, some uncertified sessions reached t before the budget died.
  Fixture fx(graph::connected_gnp(6, 0.5, 29));
  int uncertified_but_reached = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    LossyTrafficConfig options;
    options.link.loss = 0.1;
    options.window.max_retries = 2;
    options.window.rto_initial = 4;
    options.net_seed = util::counter_hash(0x2be1, seed);
    LossyRouteSession session(fx.net, *fx.seq, 0, 5, options);
    if (session.run() == Verdict::kUncertified && session.target_reached())
      ++uncertified_but_reached;
  }
  EXPECT_GT(uncertified_but_reached, 0);
}

TEST(LossyRouteSession, SameSeedSameVerdictAndFrames) {
  Fixture fx(graph::connected_gnp(9, 0.4, 31));
  Verdict verdicts[2];
  std::uint64_t frames[2];
  for (int run = 0; run < 2; ++run) {
    LossyTrafficConfig options;
    options.link.loss = 0.2;
    options.link.dup = 0.1;
    options.window.rto_initial = 4;
    LossyRouteSession session(fx.net, *fx.seq, 1, 7, options);
    verdicts[run] = session.run();
    frames[run] = session.wire_frames();
  }
  EXPECT_EQ(verdicts[0], verdicts[1]);
  EXPECT_EQ(frames[0], frames[1]);
}

TEST(LossyRouteSession, ValidatesEndpoints) {
  Fixture fx(graph::cycle(4));
  EXPECT_THROW(LossyRouteSession(fx.net, *fx.seq, 99, 0, {}),
               std::invalid_argument);
  EXPECT_THROW(LossyRouteSession(fx.net, *fx.seq, 0, 99, {}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The selective-repeat seam (PR 7): same walk, pipelined wire.
// ---------------------------------------------------------------------------

class PerfectChannelMatchesStopAndWaitWalk
    : public ::testing::TestWithParam<NodeId> {};

TEST_P(PerfectChannelMatchesStopAndWaitWalk, FromSource) {
  Fixture fx(disjoint_union(connected_gnp(4, 0.7, 7),
                            connected_gnp(4, 0.7, 8)));
  ASSERT_EQ(fx.original.num_nodes(), 8u);  // one instance per source
  const NodeId s = GetParam();
  for (NodeId t = 0; t < fx.original.num_nodes(); ++t) {
    if (s == t) continue;
    LossyRouteSession sw(fx.net, *fx.seq, s, t, {});
    LossyTrafficConfig sr_options;
    sr_options.arq = ArqKind::kSelectiveRepeat;
    sr_options.window.frames_per_message = 4;
    LossyRouteSession sr(fx.net, *fx.seq, s, t, sr_options);
    EXPECT_EQ(sw.run(), sr.run());
    // The walk is the routing layer's: identical hop for hop; only the
    // framing differs (F DATA + F ACK per hop at loss 0).
    EXPECT_EQ(sw.hops(), sr.hops());
    EXPECT_EQ(sr.wire_frames(), 2 * 4 * sr.hops());
  }
}

INSTANTIATE_TEST_SUITE_P(LossyRouteSelectiveRepeat,
                         PerfectChannelMatchesStopAndWaitWalk,
                         ::testing::Range<NodeId>(0, 8));

TEST(LossyRouteSelectiveRepeat, AdversarialRegimeStaysSound) {
  Fixture fx(disjoint_union(connected_gnp(4, 0.7, 37),
                            connected_gnp(4, 0.7, 38)));
  LossyTrafficConfig options;
  options.arq = ArqKind::kSelectiveRepeat;
  options.link.loss = 0.2;
  options.link.dup = 0.2;
  options.link.latency_max = 6;
  options.window.frames_per_message = 3;
  options.window.window = 2;
  options.window.max_retries = 5;
  const RegimeTally tally = sweep_all_pairs(fx, options, 0x5e1e);
  EXPECT_GT(tally.delivered, 0);
  EXPECT_GT(tally.delivered + tally.certified + tally.uncertified, 0);
}

TEST(LossyRouteSelectiveRepeat, ArqStatsSurfaceRetransmissionBehaviour) {
  Fixture fx(graph::connected_gnp(6, 0.5, 41));
  LossyTrafficConfig options;
  options.arq = ArqKind::kSelectiveRepeat;
  options.link.loss = 0.25;
  options.window.frames_per_message = 4;
  options.window.max_retries = 30;
  LossyRouteSession session(fx.net, *fx.seq, 0, 4, options);
  const Verdict v = session.run();
  EXPECT_EQ(v, Verdict::kDelivered);
  const ArqStats stats = session.arq_stats();
  EXPECT_GT(stats.retransmits, 0u);   // loss really forced resends
  EXPECT_GT(stats.rtt_samples, 0u);   // clean frames fed the estimator
  EXPECT_GT(stats.virtual_time, 0u);
  EXPECT_GT(stats.srtt, 0u);
}

// ---------------------------------------------------------------------------
// Loss + churn composed: the session restart()ed onto each epoch's network.
// ---------------------------------------------------------------------------

/// The committed epoch's network, as TrafficEngine builds it.
EpochNetwork network_of(const graph::DynamicGraph& g) {
  return epoch_network(g.snapshot(), kSeqSeed, g.epoch());
}

TEST(LossyDynamicRoute, PerfectChannelDeliversAndCertifies) {
  // A session opened at epoch 3 states its verdicts about epoch 3.
  const EpochNetwork net = epoch_network(
      graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}}), kSeqSeed, 3);
  LossyRouteSession ok(net.reduced, *net.seq, 0, 2, {}, net.epoch);
  ok.run();
  EXPECT_EQ(ok.verdict(), Verdict::kDelivered);
  EXPECT_EQ(ok.completion_epoch(), 3u);
  LossyRouteSession fail(net.reduced, *net.seq, 0, 4, {}, net.epoch);
  fail.run();
  EXPECT_EQ(fail.verdict(), Verdict::kCertified);
  EXPECT_EQ(fail.completion_epoch(), 3u);
}

TEST(LossyDynamicRoute, SourceEqualsTargetIsImmediate) {
  const EpochNetwork net = epoch_network(graph::cycle(4), kSeqSeed, 2);
  LossyRouteSession sess(net.reduced, *net.seq, 2, 2, {}, net.epoch);
  EXPECT_TRUE(sess.finished());
  EXPECT_EQ(sess.verdict(), Verdict::kDelivered);
  EXPECT_EQ(sess.hops(), 0u);
  EXPECT_EQ(sess.completion_epoch(), 2u);
}

TEST(LossyDynamicRoute, RestartsWhenEpochMovesMidWalk) {
  graph::DynamicGraph g(graph::path(12));
  const EpochNetwork e0 = network_of(g);
  LossyRouteSession sess(e0.reduced, *e0.seq, 0, 11, {}, e0.epoch);
  for (int k = 0; k < 5 && !sess.finished(); ++k) sess.step();
  g.add_edge(0, 11);
  g.commit();
  const EpochNetwork e1 = network_of(g);
  sess.restart(e1.reduced, *e1.seq, e1.epoch);
  sess.run();
  EXPECT_EQ(sess.verdict(), Verdict::kDelivered);
  EXPECT_EQ(sess.restarts(), 1u);
  EXPECT_EQ(sess.completion_epoch(), 1u);
}

TEST(LossyDynamicRoute, BudgetExhaustionBlocksThenEpochHeals) {
  // A dead channel spends every hop budget: the session must go blocked
  // (NOT uncertified — under churn the link may heal), then resume when
  // it restarts on the next epoch over a channel rebuilt clean.
  graph::DynamicGraph g(graph::path(3));
  LossyTrafficConfig options;
  options.link.loss = 1.0;
  options.window.max_retries = 1;
  const EpochNetwork e0 = network_of(g);
  LossyRouteSession sess(e0.reduced, *e0.seq, 0, 2, options, e0.epoch);
  sess.step();
  EXPECT_TRUE(sess.blocked());
  EXPECT_FALSE(sess.finished());
  sess.step();  // no-op while blocked in an unchanged epoch
  EXPECT_TRUE(sess.blocked());
  // Epoch moves; the rebuilt channel is seeded per-epoch, but loss = 1.0
  // still kills everything — prove restart() clears blocked() and the
  // session re-blocks.
  g.add_edge(0, 2);
  g.commit();
  const EpochNetwork e1 = network_of(g);
  sess.restart(e1.reduced, *e1.seq, e1.epoch);
  EXPECT_FALSE(sess.blocked());  // epoch moved: eligible to step again
  sess.step();
  EXPECT_TRUE(sess.blocked());
  EXPECT_EQ(sess.restarts(), 1u);
}

TEST(LossyDynamicRoute, GiveUpResolvesBlockedToUncertified) {
  Fixture fx(graph::path(3));
  LossyTrafficConfig options;
  options.link.loss = 1.0;
  options.window.max_retries = 1;
  LossyRouteSession sess(fx.net, *fx.seq, 0, 2, options);
  sess.step();
  ASSERT_TRUE(sess.blocked());
  sess.give_up();
  EXPECT_EQ(sess.verdict(), Verdict::kUncertified);
  EXPECT_TRUE(sess.finished());
}

TEST(LossyDynamicRoute, GiveUpIsNoOpUnlessBlocked) {
  Fixture fx(graph::path(3));
  LossyRouteSession sess(fx.net, *fx.seq, 0, 2);
  sess.give_up();  // in flight, not blocked: keeps stepping
  EXPECT_FALSE(sess.finished());
  sess.run();
  EXPECT_EQ(sess.verdict(), Verdict::kDelivered);
  sess.give_up();  // finished: still a no-op
  EXPECT_EQ(sess.verdict(), Verdict::kDelivered);
}

TEST(LossyDynamicRoute, ComposedLossAndChurnVerdictsMatchCompletionEpoch) {
  // Loss at 0.15 over a topology whose bridge flaps: whatever hard verdict
  // comes out must match reachability at the completion epoch.
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    graph::DynamicGraph g(graph::from_edges(6, {{0, 1}, {1, 2}, {2, 3},
                                                {3, 4}, {4, 5}}));
    LossyTrafficConfig options;
    options.link.loss = 0.15;
    options.window.max_retries = 3;
    options.net_seed = util::counter_hash(0xc0a1, seed);
    const EpochNetwork e0 = network_of(g);
    LossyRouteSession sess(e0.reduced, *e0.seq, 0, 5, options, e0.epoch);
    for (int k = 0; k < 3 && !sess.finished(); ++k) sess.step();
    std::optional<EpochNetwork> e1;
    if (!sess.finished()) {
      g.remove_edge(2, 3);  // cut the bridge mid-walk
      g.commit();
      e1 = network_of(g);
      sess.restart(e1->reduced, *e1->seq, e1->epoch);
    }
    sess.run();  // gives up once blocked
    ASSERT_TRUE(sess.finished());
    const bool reachable_now =
        graph::has_path(g.snapshot(), 0, 5);
    if (sess.completion_epoch() == g.epoch()) {
      if (sess.verdict() == Verdict::kDelivered) {
        EXPECT_TRUE(reachable_now) << "seed=" << seed;
      }
      if (sess.verdict() == Verdict::kCertified) {
        EXPECT_FALSE(reachable_now) << "seed=" << seed;
      }
    }
  }
}

TEST(LossyDynamicRoute, OneSidedFlipsAreReplayable) {
  Fixture fx(graph::connected_gnp(8, 0.4, 43));
  Verdict verdicts[2];
  std::uint64_t frames[2];
  for (int run = 0; run < 2; ++run) {
    LossyTrafficConfig options;
    options.link.loss = 0.1;
    options.one_sided_down = 0.2;
    options.window.max_retries = 4;
    LossyRouteSession sess(fx.net, *fx.seq, 0, 6, options);
    sess.run();  // gives up once blocked
    verdicts[run] = sess.verdict();
    frames[run] = sess.wire_frames();
  }
  EXPECT_EQ(verdicts[0], verdicts[1]);
  EXPECT_EQ(frames[0], frames[1]);
}

// ---------------------------------------------------------------------------
// Config validation.
// ---------------------------------------------------------------------------

TEST(LossyRouteEpochZero, RejectsOutOfRangeAndNaNProbabilities) {
  Fixture fx(graph::cycle(4));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double bad : {nan, -0.1, 1.5}) {
    for (int knob = 0; knob < 4; ++knob) {
      LossyTrafficConfig cfg;
      switch (knob) {
        case 0: cfg.link.loss = bad; break;
        case 1: cfg.link.dup = bad; break;
        case 2: cfg.link.corrupt = bad; break;
        default: cfg.one_sided_down = bad; break;
      }
      EXPECT_THROW(LossyRouteSession(fx.net, *fx.seq, 0, 2, cfg),
                   std::invalid_argument)
          << "knob " << knob << " = " << bad;
    }
  }
}

}  // namespace
}  // namespace uesr::core
