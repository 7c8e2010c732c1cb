// The exploration walk and its reversal (paper §2).
//
// A walk is represented by its *departure half-edges*: d_j = (v, p) means
// step j leaves vertex v through port p.  With arrival a_j = rot(d_j):
//
//   forward:  d_{j+1} = (a_j.node, (a_j.port + t_{j+1}) mod deg)
//   reverse:  a_{j-1} = (d_j.node, (d_j.port - t_j)   mod deg),
//             d_{j-1} = rot(a_{j-1})
//
// The reverse rule is the reversibility property the paper's backtracking
// confirmation relies on; `reverse_step(forward_step(x)) == x` is pinned by
// property tests across graphs, labellings, and sequences.
//
// The step loops below stream symbols in blocks (ExplorationSequence::fill)
// and, for the many-walks-per-graph callers (universality checking), reuse
// a WalkScratch so the per-start cost is the walk itself, not allocation.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "explore/sequence.h"
#include "graph/graph.h"

namespace uesr::explore {

/// (x mod deg) for x = port + reduced-symbol sums.  Exactly equivalent to
/// x % deg but skips the hardware divide in the ubiquitous x < 2*deg case
/// (forward steps reduce the symbol first: advance_port) — and keeps
/// that case a conditional move, not a branch: whether x wraps past deg is
/// data-dependent coin-flip noise a predictor cannot learn.
inline graph::Port wrap_port(std::uint32_t x, graph::Port deg) {
  if (x >= 2 * deg) return x % deg;  // cold: symbols are < deg in practice
  return x < deg ? x : x - deg;
}

/// (p + t) mod deg for the forward rule d_{j+1}.port = (a_j.port + t) mod
/// deg.  Reduces t first, so a symbol near 2^32 cannot wrap the uint32 sum
/// (wrap_port(1 + 0xFFFFFFFF, 3) is 0, but (1 + 0xFFFFFFFF) mod 3 is 1)
/// and every forward step agrees with reverse_step, which reduces t too.
inline graph::Port advance_port(graph::Port p, Symbol t, graph::Port deg) {
  return wrap_port(p + (t < deg ? t : t % deg), deg);
}

/// One forward step: given the departure half-edge of step j and symbol
/// t_{j+1}, the departure half-edge of step j+1.  Inline: the walk is a
/// serial load chain (each rotation depends on the previous), so keeping
/// the body visible lets callers hoist the graph's invariant loads out of
/// their step loops.
inline graph::HalfEdge forward_step(const graph::Graph& g,
                                    graph::HalfEdge d_j, Symbol t_next) {
  graph::HalfEdge a = g.rotate(d_j.node, d_j.port);
  return {a.node, advance_port(a.port, t_next, g.degree(a.node))};
}

/// One reverse step: given the departure half-edge of step j and symbol
/// t_j, the departure half-edge of step j-1.
inline graph::HalfEdge reverse_step(const graph::Graph& g,
                                    graph::HalfEdge d_j, Symbol t_j) {
  graph::Port deg = g.degree(d_j.node);
  graph::Port t = t_j < deg ? t_j : t_j % deg;
  // (port - t) mod deg without relying on signed arithmetic.
  graph::Port entry = wrap_port(d_j.port + deg - t, deg);
  return g.rotate(d_j.node, entry);
}

struct WalkTrace {
  /// Departure half-edges d_0 .. d_k (k = steps taken).
  std::vector<graph::HalfEdge> departures;
  /// Vertices in first-visit order; starts with the start vertex.
  std::vector<graph::NodeId> first_visits;
  /// visited[v] true iff the walk entered (or started at) v.
  std::vector<bool> visited;
};

/// Reusable buffers for running many walks over the same graph: the visited
/// set is an epoch-stamped array (O(1) reset per start instead of an O(n)
/// clear or a fresh allocation), and `symbols` holds the current fill()
/// block.  A default-constructed scratch adapts to any graph size; reuse
/// one instance across starts and labellings of same-sized graphs for the
/// full benefit.
struct WalkScratch {
  std::vector<std::uint32_t> visit_epoch;  ///< stamp per vertex
  std::uint32_t epoch = 0;                 ///< current stamp value
  std::vector<Symbol> symbols;             ///< block buffer for fill()

  /// Readies the scratch for a graph with n vertices; returns the stamp to
  /// mark visits with this walk.
  std::uint32_t begin_walk(std::size_t n);
};

/// Follows `seq` from the start half-edge for `steps` steps (capped at
/// seq.length()).  d_0 = start consumes no symbol; step j consumes t_j.
WalkTrace trace_walk(const graph::Graph& g, graph::HalfEdge start,
                     const ExplorationSequence& seq, std::uint64_t steps);

/// The departure half-edge after exactly j steps (d_j), computed without
/// storing the trace — the log-space replay a node performs.  j <= length.
graph::HalfEdge walk_position(const graph::Graph& g, graph::HalfEdge start,
                              const ExplorationSequence& seq, std::uint64_t j);

/// First step count at which all vertices of the component of start.node
/// are visited, or nullopt if the sequence is exhausted first.
std::optional<std::uint64_t> cover_time(const graph::Graph& g,
                                        graph::HalfEdge start,
                                        const ExplorationSequence& seq);

/// cover_time with the component size precomputed: `need` must equal the
/// size of the component of start.node (the wrapper above computes it with
/// one BFS; callers sweeping many starts of the same graph compute it once
/// and thread it through).  `scratch` is reused across calls.
std::optional<std::uint64_t> cover_time(const graph::Graph& g,
                                        graph::HalfEdge start,
                                        const ExplorationSequence& seq,
                                        std::size_t need,
                                        WalkScratch& scratch);

/// True if the walk visits every vertex of the component of start.node.
bool covers_component(const graph::Graph& g, graph::HalfEdge start,
                      const ExplorationSequence& seq);

/// covers_component with precomputed component size and reusable scratch.
bool covers_component(const graph::Graph& g, graph::HalfEdge start,
                      const ExplorationSequence& seq, std::size_t need,
                      WalkScratch& scratch);

/// Number of distinct vertices the full walk visits (start included).
std::size_t visited_count(const graph::Graph& g, graph::HalfEdge start,
                          const ExplorationSequence& seq,
                          WalkScratch& scratch);

/// Cover step and visited count from ONE walk: `cover_step` as cover_time,
/// and `visited` the distinct vertices seen up to that step (== need when
/// covered, the full-walk count otherwise).  What the adversarial
/// universality search scores labellings by without walking twice.
struct CoverOutcome {
  std::optional<std::uint64_t> cover_step;
  std::size_t visited = 0;
};
CoverOutcome cover_outcome(const graph::Graph& g, graph::HalfEdge start,
                           const ExplorationSequence& seq, std::size_t need,
                           WalkScratch& scratch);

}  // namespace uesr::explore
