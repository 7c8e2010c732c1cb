// Port-labelled undirected multigraph.
//
// This is the graph model of the paper (§2): every vertex v assigns its
// incident edge-ends ("ports") the labels 0..deg(v)-1 in an arbitrary way,
// and the labels at the two ends of an edge need not match.  Formally the
// structure is a *rotation map*: an involution over half-edges
//     rot(v, p) = (w, q)   with   rot(w, q) = (v, p).
// Self-loops are supported in both conventions:
//   * full loop  — occupies two ports of v: rot(v,p) = (v,q), p != q;
//   * half loop  — a fixed point rot(v,p) = (v,p) (Reingold's convention);
//     walking out of port p re-enters v on port p.
// Parallel edges are allowed.
//
// Storage is CSR-style: one flat half-edge array plus per-vertex offsets,
// so rotate(v, p) is a single load from half_edges_[offsets_[v] + p] —
// no per-vertex vector indirection on the walk hot path.  The ubiquitous
// 3-regular case (every ReducedGraph.cubic) is specialized further: a
// cubic graph stores no offsets and no 8-byte HalfEdge array at all —
// index 3*v + p selects one 32-bit word `far_node << 2 | far_port`, so a
// step is one load and million-gadget reduced graphs step at cache speed
// (see rotate3/is_cubic/rot3_data).  The word leaves 30 bits for the node,
// so cubic graphs are capped below 2^30 nodes (check_cubic_capacity).
// Packed words have one installer, behind from_rot3: the degree reduction
// writes them directly and a generic map of degree 3 everywhere is
// repacked into them.  Every path ends in one pass that checks the ranges
// and the involution and counts the edges.  The layout is an internal
// detail, observationally identical to the former
// vector<vector<HalfEdge>> representation (pinned by property tests).
//
// A Graph is immutable after construction (build it with GraphBuilder);
// relabelling — the operation universality quantifies over — produces a new
// Graph.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace uesr::graph {

using NodeId = std::uint32_t;
using Port = std::uint32_t;

/// Cubic graphs (and reductions headed for one) hold fewer nodes than
/// this: the packed rotation word keeps 30 bits for the far node.
inline constexpr std::uint64_t kMaxCubicNodes = std::uint64_t{1} << 30;

/// Throws std::length_error naming `nodes` when a cubic graph of that many
/// nodes cannot be stored (nodes >= kMaxCubicNodes).
void check_cubic_capacity(std::uint64_t nodes);

/// One end of an edge: the (vertex, port) pair.
struct HalfEdge {
  NodeId node = 0;
  Port port = 0;

  friend auto operator<=>(const HalfEdge&, const HalfEdge&) = default;
};

/// The cubic layout's word for half-edge (node, port < 4): `node << 2 |
/// port`, exact for node < kMaxCubicNodes.
constexpr std::uint32_t pack_rot3(NodeId node, Port port) {
  return node << 2 | port;
}
constexpr HalfEdge unpack_rot3(std::uint32_t word) {
  return {word >> 2, word & 3};
}

class Graph;

/// Mutable construction interface; `build()` validates and freezes.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId num_nodes);

  NodeId num_nodes() const { return static_cast<NodeId>(adj_.size()); }

  /// Adds a node, returns its id.
  NodeId add_node();

  /// Adds an undirected edge using the next free port on each endpoint.
  /// Returns the two half-edges created.  u == v creates a full loop.
  std::pair<HalfEdge, HalfEdge> add_edge(NodeId u, NodeId v);

  /// Adds a half-loop (rotation-map fixed point) on v; returns its half-edge.
  HalfEdge add_half_loop(NodeId v);

  Port degree(NodeId v) const;

  /// Validates the rotation map and produces the immutable Graph.
  Graph build() &&;

 private:
  std::vector<std::vector<HalfEdge>> adj_;
  void check_node(NodeId v, const char* who) const;
};

class Graph {
 public:
  Graph() = default;

  NodeId num_nodes() const { return num_nodes_; }

  /// Number of edges; a loop (full or half) counts as one edge.
  std::size_t num_edges() const { return num_edges_; }

  Port degree(NodeId v) const {
    return cubic_ ? 3 : static_cast<Port>(offsets_[v + 1] - offsets_[v]);
  }
  Port max_degree() const;
  Port min_degree() const;
  bool is_regular(Port d) const;

  /// True if every vertex has degree exactly 3 — the regime every
  /// ReducedGraph.cubic lives in.  Enables the offset-free rotate3 path.
  bool is_cubic() const { return cubic_; }

  /// The rotation map: the half-edge at the far end of (v, p).
  /// For a half-loop this is (v, p) itself.
  HalfEdge rotate(NodeId v, Port p) const {
    return cubic_ ? rotate3(v, p) : half_edges_[offsets_[v] + p];
  }

  /// Dense index of half-edge (v, p) in [0, sum of degrees): 3*v + p on a
  /// cubic graph, the CSR slot offsets_[v] + p otherwise — the same number
  /// either way.  Unchecked, like rotate().
  std::size_t half_edge_index(NodeId v, Port p) const {
    return cubic_ ? 3 * static_cast<std::size_t>(v) + p : offsets_[v] + p;
  }

  /// rotate() specialized for 3-regular graphs: port arithmetic is 3*v + p
  /// with no offset load — one 4-byte word load, a shift and a mask.
  /// Precondition: is_cubic().
  HalfEdge rotate3(NodeId v, Port p) const {
    return unpack_rot3(rot3_[3 * static_cast<std::size_t>(v) + p]);
  }

  /// Raw CSR half-edge array (length = sum of degrees), for perf-critical
  /// consumers that cache the pointer across millions of steps: entry
  /// offsets_[v] + p is rotate(v, p).  Non-cubic graphs only — a cubic
  /// graph stores no HalfEdge array (nullptr is returned); its consumers
  /// use the packed words of rot3_data() instead.
  /// Invalidated by destroying/assigning the graph, like vector::data.
  const HalfEdge* half_edge_data() const {
    return cubic_ ? nullptr : half_edges_.data();
  }

  /// The 3-regular packed rotation map: rot3_data()[3*v + p] is
  /// pack_rot3(rotate(v, p).node, rotate(v, p).port).  It is the whole cubic
  /// storage — 4 B per half-edge — and the word the multi-walk stepping
  /// kernel keeps as a walk's position.  Precondition: is_cubic();
  /// invalidated like vector::data.
  const std::uint32_t* rot3_data() const { return rot3_.data(); }

  /// The vertex reached when leaving v through port p.
  NodeId neighbor(NodeId v, Port p) const { return rotate(v, p).node; }

  bool is_half_loop(NodeId v, Port p) const {
    return rotate(v, p) == HalfEdge{v, p};
  }

  /// Any port of v whose far end is u; throws if u is not adjacent to v.
  /// With parallel edges the lowest such port is returned.
  Port port_to(NodeId v, NodeId u) const;

  /// True if some edge joins v and u (including v == u loops).
  bool adjacent(NodeId v, NodeId u) const;

  /// Distinct neighbours of v (excluding v itself unless it has a loop).
  std::vector<NodeId> neighbors(NodeId v) const;

  /// Checks the rotation-map involution; throws std::logic_error on
  /// violation.  Construction runs the same pass; public for tests.
  void validate() const;

  /// Returns a graph with ports renumbered: at each vertex v, old port p
  /// becomes perms[v][p].  perms[v] must be a permutation of 0..deg(v)-1.
  /// The edge set is unchanged — this is exactly the "any labelling" a
  /// universal exploration sequence must survive.
  Graph relabeled(const std::vector<std::vector<Port>>& perms) const;

  /// Relabels every vertex with an independent uniformly random permutation.
  Graph randomly_relabeled(util::Pcg32& rng) const;

  friend bool operator==(const Graph&, const Graph&) = default;

 private:
  friend Graph from_rotation(std::vector<std::size_t> offsets,
                             std::vector<HalfEdge> half_edges);
  friend Graph from_rot3(std::vector<std::uint32_t> words);

  /// Installs a flat rotation map (offsets.size() == n + 1), repacking a
  /// map of degree 3 everywhere for install_rot3.
  void adopt_flat(std::vector<std::size_t> offsets,
                  std::vector<HalfEdge> half_edges);
  void install_rot3(std::vector<std::uint32_t> words);

  NodeId num_nodes_ = 0;
  bool cubic_ = false;
  /// Generic storage: offsets_[v]..offsets_[v+1] delimit v's half-edges
  /// (size n + 1; empty for the default zero-node graph).  Cubic graphs
  /// leave BOTH vectors empty and use the packed words below instead.
  std::vector<std::size_t> offsets_;
  std::vector<HalfEdge> half_edges_;
  /// Cubic storage: entry 3*v + p is rotate(v, p) packed as
  /// `node << 2 | port`.  Deterministically derived from the rotation map,
  /// so the defaulted operator== stays observational.
  std::vector<std::uint32_t> rot3_;
  std::size_t num_edges_ = 0;
};

/// Convenience: build a graph from an explicit edge list over n nodes.
/// Ports are assigned in list order.  Accepts loops (u == v, full loops).
Graph from_edges(NodeId num_nodes,
                 const std::vector<std::pair<NodeId, NodeId>>& edges);

/// Build a graph from a fully explicit rotation map: adj[v][p] is the far
/// half-edge of (v, p).  Validates the involution.  This is the only way to
/// construct rotation maps that sequential port assignment cannot express
/// (e.g. parallel edges with crossed port orders).
Graph from_rotation(std::vector<std::vector<HalfEdge>> adj);

/// Flat-form overload: the rotation map already in CSR layout —
/// half_edges[offsets[v] + p] is the far half-edge of (v, p).  Requires
/// offsets.size() >= 1, offsets.front() == 0, offsets monotone and
/// offsets.back() == half_edges.size().  Lets bulk producers (disjoint
/// copies, edge lists, Reingold rotation maps) hand over storage without
/// building n per-vertex vectors first.
Graph from_rotation(std::vector<std::size_t> offsets,
                    std::vector<HalfEdge> half_edges);

/// Packed form: words[3*v + p] is pack_rot3 of the far half-edge of (v, p).
/// One pass checks them and throws by name: std::invalid_argument unless
/// words.size() is a multiple of 3, std::length_error past
/// check_cubic_capacity, std::logic_error for a far node >= n, a far port
/// of 3 or a broken involution.  No words is the zero-node Graph{}.
Graph from_rot3(std::vector<std::uint32_t> words);

/// Human-readable one-line summary ("n=8 m=12 deg=[3,3]").
std::string describe(const Graph& g);

}  // namespace uesr::graph
