// Degree reduction to 3-regular graphs (paper Fig. 1, after Koucký).
//
// Every vertex v of G becomes a cycle of c(v) = max(deg(v), 3) gadget
// vertices in G'; gadget j carries the original's j-th port as its
// "external" connection.  Port convention at every gadget vertex:
//
//     port 0 — cycle predecessor
//     port 1 — cycle successor
//     port 2 — external edge (the original edge), or a half-loop when the
//              original vertex had degree < 3 (padding)
//
// The result is exactly 3-regular, preserves connectivity component-wise,
// and its size is Σ max(deg v, 3) <= 2|E| + 3|V| — linear in the input and
// in particular "at most squaring" as the paper remarks.
//
// G' is written straight into packed rotation words, one sweep in gadget
// order, and installed by graph::from_rot3 after one validating pass.
//
// Routing operates on G'; the maps below translate between the two worlds
// (a message reaches original t when it reaches *any* gadget of t).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace uesr::explore {

struct ReducedGraph {
  graph::Graph cubic;  ///< the 3-regular graph G'

  /// gadget vertex -> its original vertex.
  std::vector<graph::NodeId> original_of;
  /// original vertex -> id of its gadget 0.
  std::vector<graph::NodeId> first_gadget;
  /// original vertex -> number of gadget vertices (cycle length).
  std::vector<graph::NodeId> gadget_count;

  /// The gadget vertex of original v that carries v's original port p.
  graph::NodeId gadget(graph::NodeId v, graph::Port p) const;

  /// Any canonical gadget for v (gadget 0) — where routing starts/ends.
  graph::NodeId entry_gadget(graph::NodeId v) const;

  /// True if gadget vertex gv belongs to original v.
  bool belongs_to(graph::NodeId gv, graph::NodeId v) const;
};

/// Builds G' from G.  Works for any multigraph including loops.
ReducedGraph reduce_to_cubic(const graph::Graph& g);

}  // namespace uesr::explore
