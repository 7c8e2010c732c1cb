#include "core/lossy_route.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "explore/sequence_cache.h"
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

/// One epoch's channel: the ARQ carrier and, for a dynamic session, the
/// snapshot's reduction and T_n it walks.  The transport points into
/// `reduced`, so the bundle lives and dies together (declaration order
/// puts `reduced` first: the transport is destroyed before the graph it
/// references).
struct LossyRouteSession::Channel {
  explore::ReducedGraph reduced;  ///< dynamic only; static borrows its own
  std::shared_ptr<const explore::ExplorationSequence> seq;  ///< dynamic only
  std::optional<net::WindowTransport> arq;  ///< built after `reduced`
};

LossyRouteSession::LossyRouteSession(const explore::ReducedGraph& net,
                                     const explore::ExplorationSequence& seq,
                                     NodeId s, NodeId t,
                                     LossyTrafficConfig cfg)
    : net_(&net), seq_(&seq), s_(s), t_(t), cfg_(std::move(cfg)) {
  const auto n_orig = static_cast<NodeId>(net.first_gadget.size());
  if (s >= n_orig)
    throw std::invalid_argument("LossyRouteSession: source out of range");
  if (t != net::kNoTarget && t >= n_orig)
    throw std::invalid_argument("LossyRouteSession: target out of range");
  start();
}

LossyRouteSession::LossyRouteSession(const graph::DynamicGraph& g, NodeId s,
                                     NodeId t, std::uint64_t seq_seed,
                                     LossyTrafficConfig cfg)
    : graph_(&g), seq_seed_(seq_seed), s_(s), t_(t), cfg_(std::move(cfg)) {
  if (s >= g.num_nodes() || t >= g.num_nodes())
    throw std::invalid_argument("LossyRouteSession: node out of range");
  session_epoch_ = g.epoch();
  start();
}

LossyRouteSession::~LossyRouteSession() = default;

void LossyRouteSession::start() {
  if (!(cfg_.one_sided_down >= 0.0 && cfg_.one_sided_down <= 1.0))
    throw std::invalid_argument(
        "LossyRouteSession: one_sided_down outside [0, 1]");
  if (s_ == t_) {  // degenerate: nothing to send, whatever the channel does
    verdict_ = LossyVerdict::kDelivered;
    completion_epoch_ = session_epoch_;
    return;
  }
  open_epoch();
}

void LossyRouteSession::open_epoch() {
  if (channel_) {
    // The discarded epoch's frames and retries were really spent.
    carried_frames_ += channel_->arq->frames();
    stats_.virtual_time += channel_->arq->sim().now();
    channel_.reset();
    ++restarts_;
  }
  auto ch = std::make_unique<Channel>();
  if (graph_) {
    session_epoch_ = graph_->epoch();
    ch->reduced = explore::reduce_to_cubic(graph_->snapshot());
    ch->seq = explore::cached_standard_ues(
        std::max<NodeId>(static_cast<NodeId>(ch->reduced.cubic.num_nodes()),
                         1),
        seq_seed_);
    net_ = &ch->reduced;
    seq_ = ch->seq.get();
  }
  // Every stream of the epoch is a pure function of (config, epoch): same
  // scenario, same seeds, same schedule — the replayability contract.
  const graph::Graph& cubic = net_->cubic;
  const std::uint64_t channel_seed =
      util::counter_hash(cfg_.net_seed, session_epoch_);
  ch->arq.emplace(cubic, channel_seed, cfg_.link, arq_options(cfg_));
  // Arm the faults before any frame moves: the scripted plan re-arms into
  // every epoch's fresh channel (plan times are per-epoch virtual time),
  // the sampled plan is drawn for this epoch's cubic graph.
  net::EventSim& sim = ch->arq->sim();
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
  channel_ = std::move(ch);
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
  if (!channel_)
    throw std::logic_error("LossyRouteSession::sim: s == t opens no channel");
  return channel_->arq->sim();
}

std::uint64_t LossyRouteSession::wire_frames() const {
  return carried_frames_ + (channel_ ? channel_->arq->frames() : 0);
}

ArqStats LossyRouteSession::arq_stats() const {
  ArqStats s = stats_;
  if (channel_) {
    const net::WindowTransport& arq = *channel_->arq;
    s.srtt = arq.estimator().srtt();
    s.rto = arq.estimator().rto();
    s.virtual_time += arq.sim().now();
  }
  return s;
}

net::Arrival LossyRouteSession::reliable_hop(NodeId from, Port out_port,
                                             bool& ok) {
  const net::WindowOutcome out = channel_->arq->send(from, out_port);
  stats_.retransmits += out.retransmits;
  stats_.backoffs += out.backoffs;
  stats_.rtt_samples += out.rtt_samples;
  ok = out.delivered;
  return out.arrival;
}

void LossyRouteSession::step() {
  if (finished()) return;
  if (graph_ && graph_->epoch() != session_epoch_) open_epoch();
  if (blocked_) return;  // same epoch, spent budget: wait for the topology
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
      verdict_ = d.final_status == Status::kSuccess
                     ? LossyVerdict::kDelivered
                     : LossyVerdict::kFailureCertified;
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
    // knows nothing (the data or its ack may be the lost half).  Under
    // churn the next epoch may heal the link, so sleep until then; a
    // static session has no next epoch and asserts nothing.
    if (graph_) {
      blocked_ = true;
    } else {
      verdict_ = LossyVerdict::kUncertified;
      completion_epoch_ = session_epoch_;
    }
    return;
  }
  at_ = arr;
  injected_ = true;
  ++hops_;
  if (header_.dir == Direction::kForward && header_.kind == Kind::kRoute &&
      net_->original_of[at_.node] == header_.target)
    target_reached_ = true;
}

LossyVerdict LossyRouteSession::run() {
  while (!finished()) {
    if (blocked()) give_up();  // nothing commits an epoch during run()
    else step();
  }
  return verdict_;
}

void LossyRouteSession::give_up() {
  if (finished() || !blocked_) return;
  verdict_ = LossyVerdict::kUncertified;
  completion_epoch_ = session_epoch_;
}

}  // namespace uesr::core
