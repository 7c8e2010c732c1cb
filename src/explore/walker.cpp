#include "explore/walker.h"

#include <algorithm>
#include <stdexcept>

#include "graph/algorithms.h"

namespace uesr::explore {

using graph::Graph;
using graph::HalfEdge;
using graph::NodeId;
using graph::Port;

std::uint32_t WalkScratch::begin_walk(std::size_t n) {
  if (visit_epoch.size() != n) {
    visit_epoch.assign(n, 0);
    epoch = 0;
  }
  if (++epoch == 0) {  // stamp wrapped: reset the array once per 2^32 walks
    std::fill(visit_epoch.begin(), visit_epoch.end(), 0u);
    epoch = 1;
  }
  return epoch;
}

WalkTrace trace_walk(const graph::Graph& g, graph::HalfEdge start,
                     const ExplorationSequence& seq, std::uint64_t steps) {
  if (start.node >= g.num_nodes() || start.port >= g.degree(start.node))
    throw std::invalid_argument("trace_walk: bad start half-edge");
  steps = std::min(steps, seq.length());
  WalkTrace tr;
  tr.visited.assign(g.num_nodes(), false);
  auto visit = [&](graph::NodeId v) {
    if (!tr.visited[v]) {
      tr.visited[v] = true;
      tr.first_visits.push_back(v);
    }
  };
  // Chain arrivals so each rotation map entry is loaded once per step.
  HalfEdge d = start;
  HalfEdge a = g.rotate(d.node, d.port);
  visit(d.node);
  tr.departures.reserve(steps + 1);
  tr.departures.push_back(d);
  // d_0 brings the walk to rot(d_0) before any symbol is consumed.
  visit(a.node);
  SymbolStream symbols(seq);
  for (std::uint64_t j = 1; j <= steps; ++j) {
    d = {a.node, advance_port(a.port, symbols.next(), g.degree(a.node))};
    a = g.rotate(d.node, d.port);
    tr.departures.push_back(d);
    visit(a.node);
  }
  return tr;
}

graph::HalfEdge walk_position(const graph::Graph& g, graph::HalfEdge start,
                              const ExplorationSequence& seq,
                              std::uint64_t j) {
  if (j > seq.length())
    throw std::out_of_range("walk_position: j beyond sequence");
  HalfEdge d = start;
  if (j == 0) return d;
  HalfEdge a = g.rotate(d.node, d.port);
  SymbolStream symbols(seq);
  for (std::uint64_t i = 1; i <= j; ++i) {
    d = {a.node, advance_port(a.port, symbols.next(), g.degree(a.node))};
    a = g.rotate(d.node, d.port);
  }
  return d;
}

namespace {

/// Shared cover loop: walks until `need` distinct vertices are stamped or
/// the sequence runs out.  Returns the cover step; `*out_seen` (optional)
/// receives the number of distinct vertices visited.
std::optional<std::uint64_t> cover_walk(const Graph& g, HalfEdge start,
                                        const ExplorationSequence& seq,
                                        std::size_t need, WalkScratch& scratch,
                                        std::size_t* out_seen) {
  const std::uint32_t stamp = scratch.begin_walk(g.num_nodes());
  std::size_t seen = 0;
  auto visit = [&](NodeId v) {
    if (scratch.visit_epoch[v] != stamp) {
      scratch.visit_epoch[v] = stamp;
      ++seen;
    }
  };
  HalfEdge d = start;
  HalfEdge a = g.rotate(d.node, d.port);
  visit(d.node);
  visit(a.node);
  if (seen == need) {
    if (out_seen) *out_seen = seen;
    return 0;
  }
  const std::uint64_t length = seq.length();
  std::uint64_t j = 0;
  // Geometric block ramp: a walk that covers in a few steps only pays for
  // a few symbols, while long walks amortize to full blocks.
  std::size_t block_size = 64;
  while (j < length) {
    const std::size_t block = static_cast<std::size_t>(
        std::min<std::uint64_t>(block_size, length - j));
    block_size = std::min(block_size * 2, SymbolStream::kBlock);
    scratch.symbols.resize(block);
    seq.fill(j + 1, block, scratch.symbols.data());
    for (std::size_t k = 0; k < block; ++k) {
      d = {a.node, advance_port(a.port, scratch.symbols[k], g.degree(a.node))};
      a = g.rotate(d.node, d.port);
      ++j;
      visit(a.node);
      if (seen == need) {
        if (out_seen) *out_seen = seen;
        return j;
      }
    }
  }
  if (out_seen) *out_seen = seen;
  return std::nullopt;
}

}  // namespace

std::optional<std::uint64_t> cover_time(const graph::Graph& g,
                                        graph::HalfEdge start,
                                        const ExplorationSequence& seq) {
  WalkScratch scratch;
  return cover_time(g, start, seq,
                    graph::component_of(g, start.node).size(), scratch);
}

std::optional<std::uint64_t> cover_time(const graph::Graph& g,
                                        graph::HalfEdge start,
                                        const ExplorationSequence& seq,
                                        std::size_t need,
                                        WalkScratch& scratch) {
  return cover_walk(g, start, seq, need, scratch, nullptr);
}

bool covers_component(const graph::Graph& g, graph::HalfEdge start,
                      const ExplorationSequence& seq) {
  return cover_time(g, start, seq).has_value();
}

bool covers_component(const graph::Graph& g, graph::HalfEdge start,
                      const ExplorationSequence& seq, std::size_t need,
                      WalkScratch& scratch) {
  return cover_time(g, start, seq, need, scratch).has_value();
}

std::size_t visited_count(const graph::Graph& g, graph::HalfEdge start,
                          const ExplorationSequence& seq,
                          WalkScratch& scratch) {
  std::size_t seen = 0;
  // need that can never be met: the walk always runs to exhaustion.
  cover_walk(g, start, seq, static_cast<std::size_t>(-1), scratch, &seen);
  return seen;
}

CoverOutcome cover_outcome(const graph::Graph& g, graph::HalfEdge start,
                           const ExplorationSequence& seq, std::size_t need,
                           WalkScratch& scratch) {
  CoverOutcome out;
  out.cover_step = cover_walk(g, start, seq, need, scratch, &out.visited);
  return out;
}

}  // namespace uesr::explore
