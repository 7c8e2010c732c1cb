// Graph serialization: a small text edge-list format (round-trippable,
// including half loops) and Graphviz DOT export for debugging/visualizing
// example outputs.
//
// Edge-list format:
//   line 1:  "uesr-graph <num_nodes>"
//   then one line per edge: "v p w q", meaning rot(v, p) = (w, q); a half
//   loop is its own far end ("v p v p").
// Every number is an unsigned decimal below 2^32, and each node's ports
// must be exactly 0..deg-1, so a round trip reproduces the rotation map
// exactly, not just the edge set.  Malformed input throws
// std::invalid_argument.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.h"

namespace uesr::graph {

std::string to_edge_list(const Graph& g);

/// Parses the edge-list format from a stream, line by line — the whole
/// input is never materialized, so million-edge files load in O(line)
/// transient memory on top of the graph itself.
Graph from_edge_list(std::istream& in);

/// String convenience: wraps the text in a stream and delegates.
Graph from_edge_list(const std::string& text);

/// Graphviz DOT (undirected); half loops rendered as self-edges labelled "h".
std::string to_dot(const Graph& g, const std::string& name = "G");

}  // namespace uesr::graph
