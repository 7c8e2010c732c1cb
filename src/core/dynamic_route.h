// Algorithm Route over a changing topology (the paper's actual setting:
// "networks with frequently changing topology", §1).
//
// The static RouteSession walks one fixed reduced graph; under churn the
// graph moves while the message is in flight, and every piece of the §2.4
// bookkeeping — the departure-edge indices, the reversal rule, the failure
// certificate — is stated relative to ONE topology.  The dynamic driver
// therefore treats the DynamicGraph's epoch stamp as part of the walk's
// validity: before every transmission it compares the graph's epoch() with
// the epoch its current walk started in, and on any change it RESTARTS —
// walks the new snapshot's EpochNetwork (its degree reduction and a T_n
// sized for it) and re-injects at s (the stateless model makes restarts
// free: no node has anything to forget).  Consequently every completed
// walk ran entirely within a single epoch, which is what keeps the §2.4
// semantics exact:
//
//   * delivered            — the forward walk reached t and the backward
//                            confirmation returned to s, all against one
//                            epoch's topology;
//   * failure_certified    — a full walk exhausted its sequence within one
//                            epoch: t was provably not in s's component AT
//                            completion_epoch() (the usual empirical-
//                            universality caveat of DESIGN.md §3 applies).
//                            The certificate says nothing about later
//                            epochs — links may come back.
//
// Termination: the session finishes as soon as the topology holds still
// long enough for one full walk (in particular always, once a finite
// schedule ends); a topology that changes forever faster than walks
// complete can starve the message forever, which is a property of the
// network, not the algorithm — the churn bench measures exactly this edge.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/route.h"
#include "explore/degree_reduce.h"
#include "explore/sequence.h"
#include "graph/dynamic.h"

namespace uesr::core {

/// One epoch's network: the snapshot's degree reduction and the cached T_n
/// sized for it.  Every walk of the epoch borrows it — a TrafficEngine
/// holds one per committed epoch for all its sessions, a standalone
/// DynamicRouteSession its own.
struct EpochNetwork {
  explore::ReducedGraph reduced;
  std::shared_ptr<const explore::ExplorationSequence> seq;
  std::uint64_t epoch = 0;
};

/// Builds `snapshot`'s network: one reduce_to_cubic plus one
/// explore::cached_standard_ues lookup of family `seq_seed`.
EpochNetwork epoch_network(const graph::Graph& snapshot,
                           std::uint64_t seq_seed, std::uint64_t epoch);

struct DynamicRouteOptions {
  /// Seed of the per-epoch T_n family (each restart sizes a fresh sequence
  /// for the new snapshot's reduction).
  std::uint64_t seq_seed = 0x5eed0001;
};

/// Resumable dynamic routing: each step() performs at most one transmission
/// against the graph's current epoch, restarting transparently when the
/// epoch moved since the previous step.
class DynamicRouteSession {
 public:
  /// `g` must outlive the session.
  DynamicRouteSession(const graph::DynamicGraph& g, graph::NodeId s,
                      graph::NodeId t, DynamicRouteOptions options = {});

  /// One transmission (or the free terminate step that ends a walk).
  /// No-op once finished().
  void step();

  bool finished() const { return finished_; }
  bool delivered() const { return delivered_; }
  /// Certified: a full failed walk completed within completion_epoch().
  bool failure_certified() const { return finished_ && !delivered_; }

  /// Transmissions across all restarts (discarded walks included — they
  /// were really sent).
  std::uint64_t transmissions() const;
  /// Epoch-change restarts performed so far.
  std::uint64_t restarts() const { return restarts_; }
  /// Epoch the in-flight (or final) walk runs in.
  std::uint64_t session_epoch() const { return net_.epoch; }
  /// Epoch the verdict is about; meaningful once finished().
  std::uint64_t completion_epoch() const { return completion_epoch_; }

 private:
  void rebuild();

  const graph::DynamicGraph* graph_;
  graph::NodeId s_, t_;
  DynamicRouteOptions options_;
  EpochNetwork net_;
  std::optional<RouteSession> inner_;
  std::uint64_t carried_transmissions_ = 0;  ///< from discarded walks
  std::uint64_t restarts_ = 0;
  bool finished_ = false;
  bool delivered_ = false;
  std::uint64_t completion_epoch_ = 0;
};

}  // namespace uesr::core
