#include "baselines/random_walk.h"

#include <stdexcept>

namespace uesr::baselines {

RandomWalkSession::RandomWalkSession(const graph::Graph& g, graph::NodeId s,
                                     graph::NodeId t, std::uint64_t ttl,
                                     std::uint64_t seed)
    : g_(&g), target_(t), current_(s), delivered_(s == t), ttl_(ttl),
      rng_(seed) {
  if (s >= g.num_nodes() || t >= g.num_nodes())
    throw std::invalid_argument("RandomWalkSession: node out of range");
}

void RandomWalkSession::step() {
  if (delivered_ || exhausted()) return;
  graph::Port deg = g_->degree(current_);
  if (deg == 0) {
    // Isolated node: no port to transmit on, so the walk can never move.
    // Exhaust immediately — with ttl == 0 the session would otherwise never
    // satisfy exhausted() and RandomWalkRouter::route would spin forever,
    // and charging phantom transmissions would misreport a frame that was
    // never sent.
    stranded_ = true;
    return;
  }
  graph::Port p = static_cast<graph::Port>(rng_.next_below(deg));
  current_ = g_->neighbor(current_, p);
  ++transmissions_;
  if (current_ == target_) delivered_ = true;
}

WalkAttempt RandomWalkRouter::route(graph::NodeId s, graph::NodeId t) {
  RandomWalkSession session(*g_, s, t, ttl_, seeder_.next());
  while (!session.delivered() && !session.exhausted()) session.step();
  return {session.delivered(), session.transmissions()};
}

}  // namespace uesr::baselines
