// Algorithm Route (paper §3): guaranteed ad hoc routing with stateless
// nodes via a universal exploration sequence.
//
// The algorithm runs on the 3-regular reduction G' of the network graph
// (explore::reduce_to_cubic).  A message injected at s walks G' as dictated
// by T_n; when it reaches (any gadget of) t it flips to backward mode and
// retraces the walk to s using reversibility, carrying status=success.  If
// the sequence is exhausted first, it backtracks with status=failure —
// which, when T_n is universal for |Cs'|, *certifies* that t is not in s's
// component.
//
// Bookkeeping convention (see DESIGN.md §2.4 "Fixes/clarifications"):
//   * header.index = number of sequence symbols consumed so far (j);
//   * forward arrival processing happens at the head of departure edge d_j;
//   * turn-around resends over the arrival port with index unchanged;
//   * a backward message at the tail of d_j with j == 0 has fully rewound —
//     it is at s, and the route returns.  (The paper's "dir=back and v=s"
//     test fires early when the forward walk revisits s; checking j == 0 is
//     the correct form, and reversibility guarantees v == s then.)
//
// The per-node logic is the pure function `route_node_step`; it sees only
// what a real node would: its own name, its degree, the arrival port, the
// header, and the shared symbol oracle.  The session driver feeds it
// through a port-accurate Transport and never lets nodes keep state.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "explore/degree_reduce.h"
#include "explore/sequence.h"
#include "graph/graph.h"
#include "net/message.h"
#include "net/transport.h"

namespace uesr::core {

/// What a node knows about itself when handling a message.  Constructed
/// fresh per arrival; deliberately contains no mutable storage.
struct NodeView {
  graph::NodeId original_name;  ///< its name in the original namespace
  graph::Port degree;           ///< local degree in G' (always 3)
};

/// A node's decision: either forward the message out of a port, or
/// terminate the protocol (only ever happens at the source).
struct NodeDecision {
  bool terminate = false;
  net::Status final_status = net::Status::kInProgress;
  graph::Port out_port = 0;
  net::Header header;  ///< header to attach when forwarding
};

/// The stateless per-node step of Algorithm Route.  `in_port` is the port
/// the message arrived on.  Pure: no side effects, no node state.
NodeDecision route_node_step(const NodeView& node, graph::Port in_port,
                             const net::Header& header,
                             const explore::ExplorationSequence& seq);

/// How a session ends.  The paper's Route has exactly two outcomes — a
/// delivery or a certified failure (§2.4; a statement about the epoch the
/// walk completed in, §2.8).  The later layers add three no-verdict ends
/// that assert nothing about reachability: a lossy hop spent its retry
/// budget (kUncertified, core/lossy_route.h), a hybrid's two sides both
/// gave up (kExhausted, core/hybrid.h), an open-loop user left mid-walk
/// (kDeparted, core/traffic.h).
enum class Verdict : std::uint8_t {
  kInProgress,
  kDelivered,
  kCertified,
  kUncertified,
  kExhausted,
  kDeparted,
};

struct RouteResult {
  bool delivered = false;       ///< status carried back to s
  bool returned_to_source = true;  ///< the algorithm always terminates at s
  std::uint64_t forward_steps = 0;   ///< symbols consumed walking forward
  std::uint64_t total_transmissions = 0;
  std::uint64_t first_hit_step = 0;  ///< step index at which t was reached
  int header_bits = 0;               ///< exact O(log n) overhead used
};

/// Resumable execution of one Algorithm-Route message: each step() performs
/// exactly one transmission.  This is what lets the Corollary-2 combiner
/// interleave a guaranteed walk with a probabilistic one, transmission by
/// transmission.
class RouteSession {
 public:
  /// Starts a kRoute (or, with t == net::kNoTarget, kBroadcast) session.
  RouteSession(const explore::ReducedGraph& net,
               const explore::ExplorationSequence& seq, graph::NodeId s,
               graph::NodeId t);

  /// Performs one transmission.  No-op once finished().
  void step();

  bool finished() const { return finished_; }
  /// Final status; only meaningful once finished().
  net::Status status() const { return status_; }
  /// True the moment the forward walk first reaches the target (before the
  /// confirmation returns) — the "delivery instant" benches measure.
  bool target_reached() const { return target_reached_; }

  std::uint64_t transmissions() const { return transmissions_; }
  std::uint64_t forward_steps() const { return forward_steps_; }
  std::uint64_t first_hit_step() const { return first_hit_step_; }

  /// Original name of the node currently holding the message.
  graph::NodeId current_original() const;

 private:
  /// The symbol at index j, served from a block-filled window over the
  /// sequence (one virtual fill() per window instead of one virtual
  /// symbol() per transmission).  Pure pass-through semantically.
  explore::Symbol buffered_symbol(std::uint64_t j);
  void refill_symbols(std::uint64_t j);

  const explore::ReducedGraph* net_;
  const explore::ExplorationSequence* seq_;
  std::uint64_t seq_length_ = 0;  // cached seq_->length()
  // Hot-path caches: the packed cubic rotation words (valid only when the
  // reduced graph is cubic — always true for reduce_to_cubic outputs) and
  // the gadget->original projection.  Shaves the per-step pointer chase
  // through net_->cubic / net_->original_of.
  const std::uint32_t* rot3_ = nullptr;  // null unless cubic
  const graph::NodeId* original_of_ = nullptr;
  net::Header header_;
  net::Arrival at_{};          // where the message currently is
  graph::NodeId at_original_ = 0;  // original_of_[at_.node], kept in step
  bool injected_ = false;      // first step() injects d_0
  graph::NodeId start_gadget_ = 0;
  bool finished_ = false;
  bool target_reached_ = false;
  net::Status status_ = net::Status::kInProgress;
  std::uint64_t transmissions_ = 0;
  std::uint64_t forward_steps_ = 0;
  std::uint64_t first_hit_step_ = 0;
  // Symbol window of buf_len_ symbols starting at index buf_lo_ (1-based;
  // empty when buf_len_ == 0).  Filled forward ahead of the walk and
  // backward behind the rewind; j is in the window iff j - buf_lo_ <
  // buf_len_ (one unsigned compare covers both directions).
  std::vector<explore::Symbol> symbuf_;
  std::uint64_t buf_lo_ = 1;
  std::uint64_t buf_len_ = 0;
};

/// The guaranteed router of Theorem 1 over a fixed reduced network.
/// Not copyable state-wise interesting: holds only immutable structure.
class UesRouter {
 public:
  /// `net` and `seq` must describe the same size regime: seq should be
  /// universal (or empirically covering) for graphs of size
  /// >= net.cubic.num_nodes() for the failure certificate to be sound.
  UesRouter(const explore::ReducedGraph& net,
            std::shared_ptr<const explore::ExplorationSequence> seq,
            std::uint64_t namespace_size);

  /// Routes s -> t (original names).  Always terminates; `delivered` tells
  /// whether t was reached (== whether t is connected to s, when the
  /// sequence covers).
  RouteResult route(graph::NodeId s, graph::NodeId t) const;

  /// Broadcast from s: the walk visits every vertex of Cs (when the
  /// sequence covers) and returns to s.  `visited_originals` reports which
  /// original nodes saw the payload — ground truth for tests.
  struct BroadcastResult {
    std::vector<bool> visited_originals;
    std::uint64_t total_transmissions = 0;
    std::uint64_t distinct_visited = 0;
  };
  BroadcastResult broadcast(graph::NodeId s) const;

  const explore::ReducedGraph& network() const { return *net_; }
  const explore::ExplorationSequence& sequence() const { return *seq_; }
  std::uint64_t namespace_size() const { return namespace_size_; }

 private:
  const explore::ReducedGraph* net_;
  std::shared_ptr<const explore::ExplorationSequence> seq_;
  std::uint64_t namespace_size_;
};

}  // namespace uesr::core
