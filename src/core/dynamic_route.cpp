#include "core/dynamic_route.h"

#include <algorithm>
#include <stdexcept>

#include "explore/sequence_cache.h"

namespace uesr::core {

EpochNetwork epoch_network(const graph::Graph& snapshot,
                           std::uint64_t seq_seed, std::uint64_t epoch) {
  EpochNetwork net{explore::reduce_to_cubic(snapshot), nullptr, epoch};
  // Every walk over the same snapshot size shares one T_n via the
  // process-wide cache.
  net.seq = explore::cached_standard_ues(
      std::max<graph::NodeId>(net.reduced.cubic.num_nodes(), 1), seq_seed);
  return net;
}

DynamicRouteSession::DynamicRouteSession(const graph::DynamicGraph& g,
                                         graph::NodeId s, graph::NodeId t,
                                         DynamicRouteOptions options)
    : graph_(&g), s_(s), t_(t), options_(options) {
  if (s >= g.num_nodes() || t >= g.num_nodes())
    throw std::invalid_argument("DynamicRouteSession: node out of range");
  if (s == t) {  // degenerate: nothing to send, whatever the topology does
    finished_ = true;
    delivered_ = true;
    net_.epoch = completion_epoch_ = g.epoch();
    return;
  }
  rebuild();
}

void DynamicRouteSession::rebuild() {
  if (inner_) {
    carried_transmissions_ += inner_->transmissions();
    inner_.reset();  // drop pointers into net_ before replacing it
  }
  net_ = epoch_network(graph_->snapshot(), options_.seq_seed, graph_->epoch());
  inner_.emplace(net_.reduced, *net_.seq, s_, t_);
}

void DynamicRouteSession::step() {
  if (finished_) return;
  if (graph_->epoch() != net_.epoch) {
    rebuild();
    ++restarts_;
  }
  inner_->step();
  if (inner_->finished()) {
    finished_ = true;
    delivered_ = inner_->status() == net::Status::kSuccess;
    completion_epoch_ = net_.epoch;
  }
}

std::uint64_t DynamicRouteSession::transmissions() const {
  return carried_transmissions_ + (inner_ ? inner_->transmissions() : 0);
}

}  // namespace uesr::core
