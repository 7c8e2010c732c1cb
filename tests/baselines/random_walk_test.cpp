#include "baselines/random_walk.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "util/stats.h"

namespace uesr::baselines {
namespace {

TEST(RandomWalk, DeliversOnSmallConnectedGraph) {
  graph::Graph g = graph::cycle(8);
  RandomWalkRouter router(g, /*ttl=*/100000, /*seed=*/3);
  auto a = router.route(0, 4);
  EXPECT_TRUE(a.delivered);
  EXPECT_GE(a.transmissions, 4u);
}

TEST(RandomWalk, TtlBoundsWork) {
  graph::Graph g = graph::path(50);
  RandomWalkRouter router(g, /*ttl=*/10, /*seed=*/5);
  auto a = router.route(0, 49);  // cannot possibly make it in 10 steps
  EXPECT_FALSE(a.delivered);
  EXPECT_EQ(a.transmissions, 10u);
}

TEST(RandomWalk, NeverTerminatesAcrossComponentsWithoutTtl) {
  // With a TTL it gives up; without one it would walk forever (problem 3
  // in the paper's 1.2 discussion) — we only test the TTL'd variant.
  graph::Graph g = graph::from_edges(4, {{0, 1}, {2, 3}});
  RandomWalkRouter router(g, /*ttl=*/1000, /*seed=*/7);
  auto a = router.route(0, 3);
  EXPECT_FALSE(a.delivered);
}

TEST(RandomWalkSession, StepByStepState) {
  graph::Graph g = graph::complete(4);
  RandomWalkSession s(g, 0, 2, 0, 11);
  EXPECT_FALSE(s.delivered());
  std::uint64_t steps = 0;
  while (!s.delivered()) {
    s.step();
    ++steps;
    ASSERT_LT(steps, 100000u);
  }
  EXPECT_EQ(s.current(), 2u);
  EXPECT_EQ(s.transmissions(), steps);
}

TEST(RandomWalkSession, PreDeliveredWhenSourceIsTarget) {
  graph::Graph g = graph::cycle(3);
  RandomWalkSession s(g, 1, 1, 0, 1);
  EXPECT_TRUE(s.delivered());
  EXPECT_EQ(s.transmissions(), 0u);
}

TEST(RandomWalkSession, IsolatedNodeExhaustsTtl) {
  graph::Graph g = graph::GraphBuilder(2).build();
  RandomWalkSession s(g, 0, 1, 5, 13);
  while (!s.exhausted()) s.step();
  EXPECT_FALSE(s.delivered());
}

// Regression: an isolated source with ttl == 0 ("unlimited") used to spin
// forever — exhausted() required ttl_ != 0 — while charging phantom
// transmissions for frames that were never sent.  A degree-0 current node
// must exhaust the session immediately, at zero cost.
TEST(RandomWalkSession, IsolatedSourceWithUnlimitedTtlExhaustsImmediately) {
  graph::Graph g = graph::GraphBuilder(3).build();
  RandomWalkSession s(g, 0, 2, /*ttl=*/0, /*seed=*/17);
  EXPECT_FALSE(s.exhausted());
  s.step();
  EXPECT_TRUE(s.exhausted());
  EXPECT_FALSE(s.delivered());
  EXPECT_EQ(s.transmissions(), 0u);
  s.step();  // further steps stay a no-op
  EXPECT_EQ(s.transmissions(), 0u);
}

TEST(RandomWalk, IsolatedSourceRouteTerminatesUncertified) {
  // Source isolated, any ttl (including unlimited): route() must return,
  // report zero transmissions, and certify nothing — a stranded walk is a
  // give-up, not a disconnection proof.
  graph::Graph g = graph::from_edges(4, {{1, 2}, {2, 3}});
  for (std::uint64_t ttl : {std::uint64_t{0}, std::uint64_t{100}}) {
    RandomWalkRouter router(g, ttl, /*seed=*/23);
    auto a = router.route(0, 3);
    EXPECT_FALSE(a.delivered) << "ttl=" << ttl;
    EXPECT_EQ(a.transmissions, 0u) << "ttl=" << ttl;
  }
}

TEST(RandomWalkSession, WalkStrandedMidwayExhausts) {
  // A path into a pendant that is then isolated cannot happen on a static
  // graph, but a star centre with the walk started on a leaf of degree 1
  // exercises the deg-0 branch only via an isolated *source*; the session
  // must also exhaust when s itself is the target's component but t is
  // isolated — the walk just never delivers and the TTL fires normally.
  graph::Graph g = graph::from_edges(3, {{0, 1}});
  RandomWalkSession s(g, 0, 2, /*ttl=*/64, /*seed=*/5);
  while (!s.exhausted()) s.step();
  EXPECT_FALSE(s.delivered());
  EXPECT_EQ(s.transmissions(), 64u);  // real transmissions, fully charged
}

TEST(RandomWalkSession, ValidatesArguments) {
  graph::Graph g = graph::cycle(3);
  EXPECT_THROW(RandomWalkSession(g, 5, 0, 0, 1), std::invalid_argument);
  EXPECT_THROW(RandomWalkSession(g, 0, 9, 0, 1), std::invalid_argument);
}

TEST(RandomWalk, HittingTimeOrderOnPath) {
  // Expected hitting time end-to-end on a path of n vertices is ~n^2; with
  // n=16 expect well under n^3 but clearly above n.
  graph::Graph g = graph::path(16);
  util::Samples samples;
  for (int trial = 0; trial < 40; ++trial) {
    RandomWalkRouter router(g, 0, 1000 + trial);
    samples.add(static_cast<double>(router.route(0, 15).transmissions));
  }
  EXPECT_GT(samples.mean(), 15.0);
  EXPECT_LT(samples.mean(), 4096.0);
}

TEST(RandomWalk, DeterministicPerSeed) {
  graph::Graph g = graph::gnp(12, 0.3, 2);
  RandomWalkRouter a(g, 100000, 42), b(g, 100000, 42);
  auto ra = a.route(0, 11), rb = b.route(0, 11);
  EXPECT_EQ(ra.delivered, rb.delivered);
  EXPECT_EQ(ra.transmissions, rb.transmissions);
}

}  // namespace
}  // namespace uesr::baselines
