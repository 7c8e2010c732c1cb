#include "core/lossy_route.h"

#include <stdexcept>
#include <utility>

#include "util/rng.h"

namespace uesr::core {

using graph::NodeId;
using graph::Port;
using net::Direction;
using net::Kind;
using net::Status;

namespace {

/// The ARQ options `arq` runs with: stop-and-wait is the window-1,
/// one-frame preset of the same budgets and timeouts.
net::WindowOptions arq_options(const LossyTrafficConfig& cfg) {
  net::WindowOptions o = cfg.window;
  if (cfg.arq == ArqKind::kStopAndWait) o.window = o.frames_per_message = 1;
  return o;
}

}  // namespace

LossyRouteSession::LossyRouteSession(const explore::ReducedGraph& net,
                                     const explore::ExplorationSequence& seq,
                                     NodeId s, NodeId t,
                                     LossyTrafficConfig cfg,
                                     std::uint64_t epoch)
    : net_(&net), seq_(&seq), s_(s), t_(t), cfg_(std::move(cfg)),
      session_epoch_(epoch) {
  const auto n_orig = static_cast<NodeId>(net.first_gadget.size());
  if (s >= n_orig)
    throw std::invalid_argument("LossyRouteSession: source out of range");
  if (t != net::kNoTarget && t >= n_orig)
    throw std::invalid_argument("LossyRouteSession: target out of range");
  if (!(cfg_.one_sided_down >= 0.0 && cfg_.one_sided_down <= 1.0))
    throw std::invalid_argument(
        "LossyRouteSession: one_sided_down outside [0, 1]");
  if (s_ == t_) {  // degenerate: nothing to send, whatever the channel does
    verdict_ = Verdict::kDelivered;
    completion_epoch_ = session_epoch_;
    return;
  }
  open_epoch();
}

void LossyRouteSession::restart(const explore::ReducedGraph& net,
                                const explore::ExplorationSequence& seq,
                                std::uint64_t epoch) {
  if (finished()) return;
  // The discarded epoch's frames and retries were really spent.
  carried_frames_ += arq_->frames();
  stats_.virtual_time += arq_->sim().now();
  arq_.reset();  // drop the carrier before its graph may go
  ++restarts_;
  net_ = &net;
  seq_ = &seq;
  session_epoch_ = epoch;
  open_epoch();
}

void LossyRouteSession::open_epoch() {
  // Every stream of the epoch is a pure function of (config, epoch): same
  // scenario, same seeds, same schedule — the replayability contract.
  const graph::Graph& cubic = net_->cubic;
  const std::uint64_t channel_seed =
      util::counter_hash(cfg_.net_seed, session_epoch_);
  arq_.emplace(cubic, channel_seed, cfg_.link, arq_options(cfg_));
  // Arm the faults before any frame moves: the scripted plan re-arms into
  // every epoch's fresh channel (plan times are per-epoch virtual time),
  // the sampled plan is drawn for this epoch's cubic graph.
  net::EventSim& sim = arq_->sim();
  cfg_.faults.arm(sim);
  if (cfg_.chaos)
    net::FaultPlan::sample(cubic, *cfg_.chaos,
                           util::counter_hash(cfg_.chaos_seed, session_epoch_))
        .arm(sim);
  if (cfg_.one_sided_down > 0.0) {
    util::Pcg32 flips(
        util::counter_hash(cfg_.net_seed ^ 0x1e51dedu, session_epoch_));
    for (NodeId v = 0; v < cubic.num_nodes(); ++v)
      for (Port q = 0; q < cubic.degree(v); ++q)
        if (flips.next_double() < cfg_.one_sided_down)
          sim.set_link_up(v, q, false);
  }
  // Restart the walk from scratch (stateless nodes make restarts free).
  header_ = net::Header{};
  header_.kind = t_ == net::kNoTarget ? Kind::kBroadcast : Kind::kRoute;
  header_.source = s_;
  header_.target = t_;
  start_gadget_ = net_->entry_gadget(s_);
  injected_ = false;
  blocked_ = false;
}

net::EventSim& LossyRouteSession::sim() {
  if (!arq_)
    throw std::logic_error("LossyRouteSession::sim: s == t opens no channel");
  return arq_->sim();
}

std::uint64_t LossyRouteSession::wire_frames() const {
  return carried_frames_ + (arq_ ? arq_->frames() : 0);
}

ArqStats LossyRouteSession::arq_stats() const {
  ArqStats s = stats_;
  if (arq_) {
    s.srtt = arq_->estimator().srtt();
    s.rto = arq_->estimator().rto();
    s.virtual_time += arq_->sim().now();
  }
  return s;
}

net::Arrival LossyRouteSession::reliable_hop(NodeId from, Port out_port,
                                             bool& ok) {
  const net::WindowOutcome out = arq_->send(from, out_port);
  stats_.retransmits += out.retransmits;
  stats_.backoffs += out.backoffs;
  stats_.rtt_samples += out.rtt_samples;
  ok = out.delivered;
  return out.arrival;
}

void LossyRouteSession::step() {
  if (finished() || blocked_) return;  // blocked: wait for the topology
  // Injection: s sends along d_0 = (start, port 0) and consumes no symbol;
  // every later hop is the pure per-node decision.
  NodeId from = start_gadget_;
  Port out_port = 0;
  if (injected_) {
    const NodeView view{net_->original_of[at_.node],
                        net_->cubic.degree(at_.node)};
    const NodeDecision d = route_node_step(view, at_.port, header_, *seq_);
    header_ = d.header;
    if (d.terminate) {
      verdict_ = d.final_status == Status::kSuccess ? Verdict::kDelivered
                                                    : Verdict::kCertified;
      completion_epoch_ = session_epoch_;
      return;
    }
    from = at_.node;
    out_port = d.out_port;
  }
  bool ok = false;
  const net::Arrival arr = reliable_hop(from, out_port, ok);
  if (!ok) {
    // Retry budget spent: the chain of custody is broken and the sender
    // knows nothing (the data or its ack may be the lost half).  The next
    // epoch may heal the link, so sleep until the owner restarts the
    // session or gives it up.
    blocked_ = true;
    return;
  }
  at_ = arr;
  injected_ = true;
  ++hops_;
  if (header_.dir == Direction::kForward && header_.kind == Kind::kRoute &&
      net_->original_of[at_.node] == header_.target)
    target_reached_ = true;
}

Verdict LossyRouteSession::run() {
  while (!finished()) {
    step();
    give_up();  // nothing commits an epoch during run()
  }
  return verdict_;
}

void LossyRouteSession::give_up() {
  if (!blocked_) return;
  verdict_ = Verdict::kUncertified;
  completion_epoch_ = session_epoch_;
}

}  // namespace uesr::core
