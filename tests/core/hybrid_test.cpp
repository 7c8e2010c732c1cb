#include "core/hybrid.h"

#include <gtest/gtest.h>

#include "baselines/random_walk.h"
#include "graph/generators.h"

namespace uesr::core {
namespace {

using explore::ReducedGraph;
using explore::reduce_to_cubic;
using graph::Graph;
using graph::NodeId;

struct HybridFixture {
  Graph g;
  ReducedGraph net;
  std::shared_ptr<const explore::ExplorationSequence> seq;

  explicit HybridFixture(Graph graph)
      : g(std::move(graph)), net(reduce_to_cubic(g)),
        seq(explore::standard_ues(net.cubic.num_nodes())) {}
};

TEST(Hybrid, DeliversOnConnectedGraph) {
  HybridFixture f(graph::grid(4, 4));
  baselines::RandomWalkSession prob(f.g, 0, 15, 0, 42);
  RouteSession guar(f.net, *f.seq, 0, 15);
  HybridResult r = route_hybrid(prob, guar);
  EXPECT_EQ(r.verdict(), Verdict::kDelivered);
  EXPECT_NE(r.winner, HybridWinner::kCertifiedFailure);
  EXPECT_EQ(r.total_transmissions,
            r.probabilistic_transmissions + r.guaranteed_transmissions);
}

TEST(Hybrid, CertifiesUnreachableTarget) {
  Graph g = graph::from_edges(5, {{0, 1}, {1, 2}, {3, 4}});
  HybridFixture f(g);
  // TTL'd random walk (it could never certify anything anyway).
  baselines::RandomWalkSession prob(f.g, 0, 4, 1000, 7);
  RouteSession guar(f.net, *f.seq, 0, 4);
  HybridResult r = route_hybrid(prob, guar);
  EXPECT_EQ(r.verdict(), Verdict::kCertified);
  EXPECT_EQ(r.winner, HybridWinner::kCertifiedFailure);
}

TEST(Hybrid, TerminatesEvenIfProbabilisticExhausts) {
  HybridFixture f(graph::lollipop(5, 8));
  // A hopeless TTL: the walk gives up almost immediately.
  baselines::RandomWalkSession prob(f.g, 0, 12, 3, 9);
  RouteSession guar(f.net, *f.seq, 0, 12);
  HybridResult r = route_hybrid(prob, guar);
  EXPECT_EQ(r.verdict(), Verdict::kDelivered);  // the guaranteed walker finishes the job
  EXPECT_EQ(r.winner, HybridWinner::kGuaranteed);
  EXPECT_LE(r.probabilistic_transmissions, 3u);
}

TEST(Hybrid, CostAtMostTwiceTheWinnerPlusOne) {
  // The 1:1 interleave property: total <= 2*min(sides) + 2.
  HybridFixture f(graph::complete(8));
  baselines::RandomWalkSession prob(f.g, 0, 5, 0, 11);
  RouteSession guar(f.net, *f.seq, 0, 5);
  HybridResult r = route_hybrid(prob, guar);
  ASSERT_EQ(r.verdict(), Verdict::kDelivered);
  std::uint64_t winner_cost =
      r.winner == HybridWinner::kProbabilistic
          ? r.probabilistic_transmissions
          : r.guaranteed_transmissions;
  EXPECT_LE(r.total_transmissions, 2 * winner_cost + 2);
}

TEST(Hybrid, ProbabilisticUsuallyWinsOnCompleteGraph) {
  // On K_n the random walk delivers in expected n-1 steps, far faster
  // than the UES tour of the 3-regularized clique.
  HybridFixture f(graph::complete(12));
  int prob_wins = 0;
  for (int trial = 0; trial < 20; ++trial) {
    baselines::RandomWalkSession prob(f.g, 0, 11, 0, 100 + trial);
    RouteSession guar(f.net, *f.seq, 0, 11);
    HybridResult r = route_hybrid(prob, guar);
    ASSERT_EQ(r.verdict(), Verdict::kDelivered);
    if (r.winner == HybridWinner::kProbabilistic) ++prob_wins;
  }
  EXPECT_GE(prob_wins, 15);
}

TEST(Hybrid, SourceEqualsTargetImmediate) {
  HybridFixture f(graph::cycle(4));
  baselines::RandomWalkSession prob(f.g, 2, 2, 0, 1);
  RouteSession guar(f.net, *f.seq, 2, 2);
  HybridResult r = route_hybrid(prob, guar);
  EXPECT_EQ(r.verdict(), Verdict::kDelivered);
  EXPECT_EQ(r.total_transmissions, 0u);
}

// Regression: both walkers done without delivery used to livelock — with
// the probabilistic token exhausted and the guaranteed session already
// finished on entry, the old for(;;) had no branch that could break.  The
// session must terminate exhausted and uncertified: a stale pre-finished
// walk proves nothing about this run.
TEST(Hybrid, ExhaustedTokenPlusPrefinishedSessionTerminates) {
  graph::Graph g = graph::from_edges(5, {{0, 1}, {1, 2}, {3, 4}});
  HybridFixture f(g);
  RouteSession guar(f.net, *f.seq, 0, 4);
  while (!guar.finished()) guar.step();  // completed failed walk
  const std::uint64_t guar_tx = guar.transmissions();
  baselines::RandomWalkSession prob(f.g, 0, 4, /*ttl=*/8, 3);
  while (!prob.exhausted()) prob.step();
  HybridResult r = route_hybrid(prob, guar);  // pre-fix: never returns
  EXPECT_EQ(r.verdict(), Verdict::kExhausted);
  EXPECT_EQ(r.winner, HybridWinner::kExhausted);
  // Neither side was stepped again: the combiner spent nothing.
  EXPECT_EQ(r.guaranteed_transmissions, guar_tx);
  EXPECT_EQ(r.probabilistic_transmissions, 8u);
  EXPECT_EQ(r.total_transmissions,
            r.probabilistic_transmissions + r.guaranteed_transmissions);
}

// The degree-0 mirror of random_walk_test's isolated-source case: a
// stranded token (exhausts at zero cost, whatever the TTL) must not stall
// the combiner — the guaranteed walker alone finishes with a certificate.
TEST(Hybrid, StrandedTokenOnIsolatedSourceStillCertifies) {
  graph::Graph g = graph::GraphBuilder(3).build();  // three isolated nodes
  HybridFixture f(g);
  baselines::RandomWalkSession prob(f.g, 0, 2, /*ttl=*/0, 17);
  RouteSession guar(f.net, *f.seq, 0, 2);
  HybridResult r = route_hybrid(prob, guar);
  EXPECT_EQ(r.verdict(), Verdict::kCertified);
  EXPECT_EQ(r.winner, HybridWinner::kCertifiedFailure);
  EXPECT_EQ(r.probabilistic_transmissions, 0u);  // no phantom frames
}

// Satellite edge case: the token exhausts first, then the guaranteed walk
// completes a failed walk under the combiner's own stepping — that is a
// fresh certificate, not an exhaustion.
TEST(Hybrid, ExhaustedTokenThenCertifiedFailure) {
  graph::Graph g = graph::from_edges(6, {{0, 1}, {1, 2}, {2, 0}, {4, 5}});
  HybridFixture f(g);
  baselines::RandomWalkSession prob(f.g, 0, 4, /*ttl=*/3, 5);
  RouteSession guar(f.net, *f.seq, 0, 4);
  HybridResult r = route_hybrid(prob, guar);
  EXPECT_EQ(r.verdict(), Verdict::kCertified);
  EXPECT_LE(r.probabilistic_transmissions, 3u);
  EXPECT_EQ(r.total_transmissions,
            r.probabilistic_transmissions + r.guaranteed_transmissions);
}

// A session handed over already delivered reports a guaranteed win at zero
// extra cost.
TEST(Hybrid, PrefinishedDeliveredSessionWinsImmediately) {
  HybridFixture f(graph::grid(3, 3));
  RouteSession guar(f.net, *f.seq, 0, 8);
  while (!guar.finished()) guar.step();
  ASSERT_TRUE(guar.target_reached());
  const std::uint64_t guar_tx = guar.transmissions();
  baselines::RandomWalkSession prob(f.g, 0, 8, /*ttl=*/4, 9);
  HybridResult r = route_hybrid(prob, guar);
  EXPECT_EQ(r.verdict(), Verdict::kDelivered);
  EXPECT_EQ(r.winner, HybridWinner::kGuaranteed);
  EXPECT_EQ(r.guaranteed_transmissions, guar_tx);
  EXPECT_EQ(r.probabilistic_transmissions, 0u);
}

// The resumable face of the combiner: stepping a HybridSession by hand
// advances at most one transmission per step and lands on the same verdict
// and accounting as the one-shot driver.
TEST(HybridSession, StepwiseMatchesOneShot) {
  HybridFixture f(graph::lollipop(4, 6));
  baselines::RandomWalkSession prob_a(f.g, 0, 9, 0, 21);
  RouteSession guar_a(f.net, *f.seq, 0, 9);
  HybridResult one_shot = route_hybrid(prob_a, guar_a);

  baselines::RandomWalkSession prob_b(f.g, 0, 9, 0, 21);
  RouteSession guar_b(f.net, *f.seq, 0, 9);
  HybridSession session(prob_b, guar_b);
  std::uint64_t steps = 0;
  std::uint64_t last_total = 0;
  while (!session.finished()) {
    session.step();
    std::uint64_t total =
        prob_b.transmissions() + guar_b.transmissions();
    EXPECT_LE(total, last_total + 1);  // at most one transmission per step
    last_total = total;
    ASSERT_LT(++steps, 10'000'000u);
  }
  EXPECT_EQ(session.result().verdict(), one_shot.verdict());
  EXPECT_EQ(session.result().winner, one_shot.winner);
  EXPECT_EQ(session.result().total_transmissions,
            one_shot.total_transmissions);
}

}  // namespace
}  // namespace uesr::core
