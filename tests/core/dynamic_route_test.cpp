#include "core/dynamic_route.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "graph/algorithms.h"
#include "graph/dynamic.h"
#include "graph/generators.h"

namespace uesr::core {
namespace {

using graph::DynamicGraph;
using graph::NodeId;

/// Steps the session to completion with no topology changes.
void run_to_end(DynamicRouteSession& s) {
  std::uint64_t guard = 0;
  while (!s.finished()) {
    s.step();
    ASSERT_LT(++guard, 100000000u);
  }
}

TEST(DynamicRoute, MatchesStaticOutcomeOnFrozenTopology) {
  // Multi-component graph: delivered iff a path exists, certified failure
  // otherwise — identical to the static router's contract.
  DynamicGraph g(graph::gnp(24, 0.09, 11));
  for (auto [s, t] : {std::pair<NodeId, NodeId>{0, 17},
                      {3, 9},
                      {5, 21},
                      {1, 23}}) {
    DynamicRouteSession sess(g, s, t);
    run_to_end(sess);
    const bool truth = graph::has_path(g.snapshot(), s, t);
    EXPECT_EQ(sess.delivered(), truth) << s << "->" << t;
    EXPECT_EQ(sess.failure_certified(), !truth);
    EXPECT_EQ(sess.restarts(), 0u);
    EXPECT_EQ(sess.completion_epoch(), 0u);
  }
}

TEST(DynamicRoute, SourceEqualsTargetIsImmediate) {
  DynamicGraph g(graph::cycle(4));
  DynamicRouteSession sess(g, 2, 2);
  EXPECT_TRUE(sess.finished());
  EXPECT_TRUE(sess.delivered());
  EXPECT_EQ(sess.transmissions(), 0u);
}

TEST(DynamicRoute, IsolatedSourceCertifiesFailure) {
  DynamicGraph g(graph::from_edges(4, {{1, 2}, {2, 3}}));
  DynamicRouteSession sess(g, 0, 3);
  run_to_end(sess);
  EXPECT_FALSE(sess.delivered());
  EXPECT_TRUE(sess.failure_certified());
}

TEST(DynamicRoute, RestartsWhenEpochMovesMidWalk) {
  DynamicGraph g(graph::path(12));
  DynamicRouteSession sess(g, 0, 11);
  // A few transmissions into the walk, flip an edge: the session must
  // notice, restart against the new snapshot, and still deliver (the
  // component stays intact).
  for (int k = 0; k < 5 && !sess.finished(); ++k) sess.step();
  g.add_edge(0, 11);
  g.commit();
  run_to_end(sess);
  EXPECT_TRUE(sess.delivered());
  EXPECT_EQ(sess.restarts(), 1u);
  EXPECT_EQ(sess.session_epoch(), 1u);
  EXPECT_EQ(sess.completion_epoch(), 1u);
}

TEST(DynamicRoute, DeliversAfterTopologyHeals) {
  // s and t start disconnected; mid-walk the bridge appears.  The restart
  // must pick it up and deliver — the certificate the first epoch was
  // heading toward would have been stale.
  DynamicGraph g(graph::from_edges(6, {{0, 1}, {2, 3}, {3, 4}, {4, 5}}));
  DynamicRouteSession sess(g, 0, 5);
  for (int k = 0; k < 3 && !sess.finished(); ++k) sess.step();
  ASSERT_FALSE(sess.finished());  // tiny component: walk still rewinding
  g.add_edge(1, 2);
  g.commit();
  run_to_end(sess);
  EXPECT_TRUE(sess.delivered());
  EXPECT_GE(sess.restarts(), 1u);
}

TEST(DynamicRoute, CertificateIsAboutTheCompletionEpoch) {
  // Connected at epoch 0; the target's link is cut mid-walk.  Whatever the
  // session reports must match ground truth at its completion epoch.
  DynamicGraph g(graph::path(8));
  DynamicRouteSession sess(g, 0, 7);
  for (int k = 0; k < 2 && !sess.finished(); ++k) sess.step();
  g.remove_edge(6, 7);
  g.commit();
  run_to_end(sess);
  EXPECT_TRUE(sess.finished());
  EXPECT_EQ(sess.completion_epoch(), 1u);
  EXPECT_FALSE(sess.delivered());
  EXPECT_TRUE(sess.failure_certified());  // t provably unreachable at epoch 1
}

TEST(DynamicRoute, TransmissionsAccumulateAcrossRestarts) {
  DynamicGraph g(graph::cycle(10));
  DynamicRouteSession sess(g, 0, 5);
  for (int k = 0; k < 4; ++k) sess.step();
  const std::uint64_t before = sess.transmissions();
  EXPECT_EQ(before, 4u);
  g.add_edge(0, 5);
  g.commit();
  run_to_end(sess);
  EXPECT_TRUE(sess.delivered());
  // The discarded walk's four frames were really sent and stay counted.
  EXPECT_GT(sess.transmissions(), before);
}

TEST(DynamicRoute, Validation) {
  DynamicGraph g(graph::cycle(3));
  EXPECT_THROW(DynamicRouteSession(g, 0, 9), std::invalid_argument);
  EXPECT_THROW(DynamicRouteSession(g, 7, 0), std::invalid_argument);
}

}  // namespace
}  // namespace uesr::core
