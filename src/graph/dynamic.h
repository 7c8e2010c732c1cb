// Epoch-stamped mutable topology — the "ad hoc" in the paper's title.
//
// Every routing layer below this one works on an immutable graph::Graph;
// real ad hoc networks are "networks with frequently changing topology"
// (§1).  DynamicGraph models that as a sequence of epochs: mutators
// (add_edge / remove_edge / set_alive / set_positions / rederive_unit_disk)
// stage changes against a working edge set, and commit() seals them into a
// new epoch with a freshly built CSR snapshot (the PR 2 flat layout).  The
// epoch counter is monotone: it advances exactly when commit() finds staged
// changes, so `epoch()` is a version stamp a mid-walk router can compare to
// detect that the network moved under it (core::TrafficEngine does, and
// restarts every walk in flight).
//
// Model choices, relied on throughout the dynamic subsystem:
//   * The node namespace is fixed at construction.  "Churn" is modelled by
//     the alive flag: a node that leaves keeps its id but drops all
//     incident edges; a later join restores the id as an isolated node
//     (scenario generators re-add edges).  Names therefore stay stable
//     across epochs, which is what lets a restarted route keep targeting
//     the same t.
//   * The working state is a simple graph (no loops / parallel edges) —
//     the radio-graph regime every scenario generator produces.  Snapshot
//     ports are assigned in sorted edge order, so a given edge set always
//     yields the same port labelling (determinism contract).
//   * Readers of the committed epoch (snapshot(), positions_2d/3d()) never
//     see staged edits; only commit() publishes.
#pragma once

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "graph/geometric.h"
#include "graph/graph.h"

namespace uesr::graph {

class DynamicGraph {
 public:
  /// n alive, isolated nodes; epoch 0 is committed immediately.
  explicit DynamicGraph(NodeId n);

  /// Adopts the edge set of a (simple) graph as epoch 0, all nodes alive.
  /// Throws if g has loops or parallel edges.
  explicit DynamicGraph(const Graph& g);

  NodeId num_nodes() const { return num_nodes_; }

  /// Monotone version stamp of the committed topology.  Advances by one at
  /// every commit() that found staged changes; never otherwise.
  std::uint64_t epoch() const { return epoch_; }

  /// True when staged edits exist that commit() has not yet published.
  bool dirty() const { return dirty_; }

  // --- staged mutators (visible to readers only after commit()) ---------

  /// Stages edge {u, v}.  Returns false (and stages nothing) when the edge
  /// already exists, u == v, or either endpoint is not alive.
  bool add_edge(NodeId u, NodeId v);

  /// Stages removal of {u, v}; false when the edge is absent.
  bool remove_edge(NodeId u, NodeId v);

  /// Stages a join (alive = true) or leave (alive = false); a leave drops
  /// every incident edge.  Returns false when v already has that state.
  bool set_alive(NodeId v, bool alive);

  bool alive(NodeId v) const;

  /// Staged (working) edge state — what the next commit will publish.
  bool has_edge(NodeId u, NodeId v) const;
  std::size_t num_staged_edges() const { return edges_.size(); }

  /// Stages positions for every node (size must be num_nodes()).  Always
  /// marks the epoch dirty: a moved swarm is a new epoch even if the radio
  /// graph happens to coincide, and position-based routers read positions.
  void set_positions(std::vector<Point2> pos);
  void set_positions(std::vector<Point3> pos);

  bool has_positions_2d() const { return !committed_pos2_.empty(); }
  bool has_positions_3d() const { return !committed_pos3_.empty(); }

  /// Committed positions of the current epoch.
  const std::vector<Point2>& positions_2d() const { return committed_pos2_; }
  const std::vector<Point3>& positions_3d() const { return committed_pos3_; }

  /// Stages the radio graph induced by the *staged* positions: edge iff
  /// both endpoints alive and within `radius` (unit-disk, 2D or 3D —
  /// whichever positions were set; throws when neither).
  void rederive_unit_disk(double radius);

  /// Publishes staged edits.  When anything changed, advances epoch() and
  /// rebuilds the CSR snapshot; otherwise a no-op.  Returns epoch().
  std::uint64_t commit();

  /// The committed epoch's immutable CSR graph.  Valid until the next
  /// commit() that advances the epoch.
  const Graph& snapshot() const { return snapshot_; }

 private:
  using Edge = std::pair<NodeId, NodeId>;  // normalized u < v

  static Edge normalize(NodeId u, NodeId v);
  void check_node(NodeId v, const char* who) const;
  void rebuild_snapshot();

  NodeId num_nodes_ = 0;
  std::uint64_t epoch_ = 0;
  bool dirty_ = false;
  std::set<Edge> edges_;      ///< staged edge set
  std::vector<char> alive_;   ///< staged alive flags
  std::vector<Point2> pos2_;  ///< staged positions (empty = none)
  std::vector<Point3> pos3_;
  Graph snapshot_;            ///< committed CSR graph
  std::vector<Point2> committed_pos2_;
  std::vector<Point3> committed_pos3_;
};

}  // namespace uesr::graph
