// The naive probabilistic baseline the paper discusses in §1.2: route the
// message by an unbiased random walk.  Works with high probability on a
// connected graph given ~n^3 steps, but (a) can be unboundedly unlucky,
// (b) cannot certify failure, and (c) never terminates when t is
// unreachable unless a TTL is imposed — exactly the three problems the
// universal exploration sequence fixes.
//
// RandomWalkSession implements core::TokenWalker so it can serve as the
// probabilistic half of the Corollary-2 hybrid.
#pragma once

#include <cstdint>

#include "core/hybrid.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace uesr::baselines {

class RandomWalkSession final : public core::TokenWalker {
 public:
  /// Walks from s until it reaches t or `ttl` transmissions elapse
  /// (ttl == 0 means unlimited — never exhausted by TTL).  A walk stranded
  /// on a degree-0 node exhausts immediately, whatever the TTL: there is no
  /// port to transmit on, so no transmission is charged and (like any other
  /// exhaustion) nothing about t is certified.
  RandomWalkSession(const graph::Graph& g, graph::NodeId s, graph::NodeId t,
                    std::uint64_t ttl, std::uint64_t seed);

  void step() override;
  bool delivered() const override { return delivered_; }
  bool exhausted() const override {
    return !delivered_ &&
           (stranded_ || (ttl_ != 0 && transmissions_ >= ttl_));
  }
  std::uint64_t transmissions() const override { return transmissions_; }

  graph::NodeId current() const { return current_; }

 private:
  const graph::Graph* g_;
  graph::NodeId target_;
  graph::NodeId current_;
  bool delivered_;
  bool stranded_ = false;  ///< parked on a degree-0 node: can never move
  std::uint64_t ttl_;
  std::uint64_t transmissions_ = 0;
  util::Pcg32 rng_;
};

/// What one routed walk achieved.  A walk never certifies failure: a TTL
/// expiry or a stranded walk proves nothing about t.
struct WalkAttempt {
  bool delivered = false;
  std::uint64_t transmissions = 0;
};

/// Routes successive walks on one graph, each seeded from the router's own
/// SplitMix64 stream (so repeated route() calls take fresh walks).
class RandomWalkRouter {
 public:
  RandomWalkRouter(const graph::Graph& g, std::uint64_t ttl,
                   std::uint64_t seed)
      : g_(&g), ttl_(ttl), seeder_(seed) {}

  WalkAttempt route(graph::NodeId s, graph::NodeId t);

 private:
  const graph::Graph* g_;
  std::uint64_t ttl_;
  util::SplitMix64 seeder_;
};

}  // namespace uesr::baselines
