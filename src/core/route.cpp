#include "core/route.h"

#include <algorithm>
#include <stdexcept>

#include "explore/walker.h"

namespace uesr::core {

using explore::ExplorationSequence;
using explore::advance_port;
using explore::wrap_port;
using graph::NodeId;
using graph::Port;
using net::Direction;
using net::Header;
using net::Kind;
using net::Status;

namespace {

/// Result of one per-node step, header updated in place.
struct StepOutcome {
  bool terminate = false;
  Status final_status = Status::kInProgress;
  Port out_port = 0;
};

/// The per-node logic of Algorithm Route, shared between the public pure
/// function (symbols via the virtual oracle) and the session driver
/// (symbols via a block-filled window).  Mutates `header` to the header
/// the node attaches when forwarding.
template <typename SymbolAt>
StepOutcome step_node(const NodeView& node, Port in_port, Header& header,
                      std::uint64_t seq_length, SymbolAt&& symbol_at) {
  StepOutcome o;
  if (header.dir == Direction::kForward) {
    // Arrival processing at the head of departure edge d_j, j = index.
    const bool at_target = header.kind == Kind::kRoute &&
                           node.original_name == header.target;
    const bool exhausted = header.index >= seq_length;
    if (at_target || exhausted) {
      // Turn around: resend over the arrival port; index unchanged (the far
      // side will undo step j).  Status records what happened.
      header.dir = Direction::kBackward;
      header.status = at_target ? Status::kSuccess : Status::kFailure;
      o.out_port = in_port;
      return o;
    }
    // Ordinary forward step: consume symbol j+1.
    std::uint64_t next = header.index + 1;
    header.index = next;
    o.out_port = advance_port(in_port, symbol_at(next), node.degree);
    return o;
  }
  // Backward mode: we are at the tail of departure edge d_j, arrived on the
  // port d_j departed from.  j == 0 means the walk is fully rewound: this
  // node is s and the protocol returns its status.
  if (header.index == 0) {
    o.terminate = true;
    o.final_status = header.status;
    return o;
  }
  // Undo step j: the entry port of step j was (d_j.port - t_j) mod deg.
  std::uint64_t j = header.index;
  explore::Symbol s = symbol_at(j);
  Port t = s < node.degree ? static_cast<Port>(s)
                           : static_cast<Port>(s % node.degree);
  o.out_port = wrap_port(in_port + node.degree - t, node.degree);
  header.index = j - 1;
  return o;
}

}  // namespace

NodeDecision route_node_step(const NodeView& node, Port in_port,
                             const Header& header,
                             const ExplorationSequence& seq) {
  NodeDecision d;
  d.header = header;
  StepOutcome o =
      step_node(node, in_port, d.header, seq.length(),
                [&seq](std::uint64_t j) { return seq.symbol(j); });
  d.terminate = o.terminate;
  d.final_status = o.final_status;
  d.out_port = o.out_port;
  return d;
}

RouteSession::RouteSession(const explore::ReducedGraph& net,
                           const ExplorationSequence& seq, NodeId s,
                           NodeId t)
    : net_(&net), seq_(&seq), seq_length_(seq.length()) {
  const auto n_orig = static_cast<NodeId>(net.first_gadget.size());
  if (s >= n_orig)
    throw std::invalid_argument("RouteSession: source out of range");
  if (t != net::kNoTarget && t >= n_orig)
    throw std::invalid_argument("RouteSession: target out of range");
  header_.kind = t == net::kNoTarget ? Kind::kBroadcast : Kind::kRoute;
  header_.source = s;
  header_.target = t;
  start_gadget_ = net.entry_gadget(s);
  if (net.cubic.is_cubic()) rot3_ = net.cubic.rot3_data();
  original_of_ = net.original_of.data();
}

NodeId RouteSession::current_original() const {
  return injected_ ? at_original_ : net_->original_of[start_gadget_];
}

void RouteSession::refill_symbols(std::uint64_t j) {
  // Fill ahead of the walk direction so each refill serves a whole run of
  // ascending (forward) or descending (backward) indices.
  constexpr std::uint64_t kWindow = explore::SymbolStream::kBlock;
  std::uint64_t lo, hi;
  if (header_.dir == Direction::kForward) {
    lo = j;
    hi = std::min(seq_length_, j + kWindow - 1);
  } else {
    hi = j;
    lo = j >= kWindow ? j - kWindow + 1 : 1;
  }
  symbuf_.resize(static_cast<std::size_t>(hi - lo + 1));
  seq_->fill(lo, hi - lo + 1, symbuf_.data());
  buf_lo_ = lo;
  buf_len_ = hi - lo + 1;
}

explore::Symbol RouteSession::buffered_symbol(std::uint64_t j) {
  if (j - buf_lo_ >= buf_len_) refill_symbols(j);  // underflow wraps: miss
  return symbuf_[static_cast<std::size_t>(j - buf_lo_)];
}

void RouteSession::step() {
  if (finished_) return;
  const graph::Graph& g = net_->cubic;
  const std::uint32_t* rot3 = rot3_;
  // Cached-pointer rotation: one packed word when cubic, generic else.
  auto rotate = [&](NodeId v, Port p) {
    if (!rot3) return g.rotate(v, p);
    return graph::unpack_rot3(rot3[3 * static_cast<std::size_t>(v) + p]);
  };
  if (!injected_) {
    // Injection: s sends along d_0 = (start, port 0); consumes no symbol.
    graph::HalfEdge far = rotate(start_gadget_, 0);
    at_ = {far.node, far.port};
    at_original_ = original_of_[at_.node];
    injected_ = true;
    ++transmissions_;
    if (header_.kind == Kind::kRoute && at_original_ == header_.target) {
      target_reached_ = true;
      first_hit_step_ = 0;
    }
    return;
  }
  const bool was_forward = header_.dir == Direction::kForward;
  NodeView view{at_original_, rot3 ? Port{3} : g.degree(at_.node)};
  StepOutcome o =
      step_node(view, at_.port, header_, seq_length_,
                [this](std::uint64_t j) { return buffered_symbol(j); });
  if (was_forward && header_.dir == Direction::kBackward) {
    forward_steps_ = header_.index;
    if (header_.status == Status::kSuccess) {
      target_reached_ = true;
      first_hit_step_ = header_.index;
    }
  }
  if (o.terminate) {
    finished_ = true;
    status_ = o.final_status;
    return;
  }
  graph::HalfEdge far = rotate(at_.node, o.out_port);
  at_ = {far.node, far.port};
  at_original_ = original_of_[at_.node];
  ++transmissions_;
  if (header_.dir == Direction::kForward && header_.kind == Kind::kRoute &&
      at_original_ == header_.target && !target_reached_) {
    target_reached_ = true;
    first_hit_step_ = header_.index;
  }
}

UesRouter::UesRouter(const explore::ReducedGraph& net,
                     std::shared_ptr<const ExplorationSequence> seq,
                     std::uint64_t namespace_size)
    : net_(&net), seq_(std::move(seq)), namespace_size_(namespace_size) {
  if (!seq_) throw std::invalid_argument("UesRouter: null sequence");
  if (namespace_size_ < net.first_gadget.size())
    throw std::invalid_argument(
        "UesRouter: namespace smaller than the network");
}

RouteResult UesRouter::route(NodeId s, NodeId t) const {
  const auto n_orig = static_cast<NodeId>(net_->first_gadget.size());
  if (s >= n_orig || t >= n_orig)
    throw std::invalid_argument("UesRouter::route: node out of range");
  RouteResult out;
  out.header_bits =
      net::header_bits(Kind::kRoute, namespace_size_, seq_->length());
  if (s == t) {  // degenerate: nothing to send
    out.delivered = true;
    return out;
  }
  RouteSession session(*net_, *seq_, s, t);
  while (!session.finished()) session.step();
  out.delivered = session.status() == Status::kSuccess;
  out.forward_steps = session.forward_steps();
  out.total_transmissions = session.transmissions();
  out.first_hit_step = session.first_hit_step();
  return out;
}

UesRouter::BroadcastResult UesRouter::broadcast(NodeId s) const {
  const auto n_orig = static_cast<NodeId>(net_->first_gadget.size());
  if (s >= n_orig)
    throw std::invalid_argument("UesRouter::broadcast: node out of range");
  BroadcastResult out;
  out.visited_originals.assign(n_orig, false);
  RouteSession session(*net_, *seq_, s, net::kNoTarget);
  auto visit = [&](NodeId original) {
    if (!out.visited_originals[original]) {
      out.visited_originals[original] = true;
      ++out.distinct_visited;
    }
  };
  visit(s);
  while (!session.finished()) {
    session.step();
    if (!session.finished()) visit(session.current_original());
  }
  out.total_transmissions = session.transmissions();
  return out;
}

}  // namespace uesr::core
