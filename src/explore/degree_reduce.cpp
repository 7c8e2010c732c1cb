#include "explore/degree_reduce.h"

#include <stdexcept>

namespace uesr::explore {

using graph::HalfEdge;
using graph::NodeId;
using graph::Port;

NodeId ReducedGraph::gadget(NodeId v, Port p) const {
  if (v >= first_gadget.size())
    throw std::invalid_argument("ReducedGraph::gadget: bad vertex");
  if (p >= gadget_count[v])
    throw std::invalid_argument("ReducedGraph::gadget: bad port");
  return first_gadget[v] + p;
}

NodeId ReducedGraph::entry_gadget(NodeId v) const {
  if (v >= first_gadget.size())
    throw std::invalid_argument("ReducedGraph::entry_gadget: bad vertex");
  return first_gadget[v];
}

bool ReducedGraph::belongs_to(NodeId gv, NodeId v) const {
  if (gv >= original_of.size())
    throw std::invalid_argument("ReducedGraph::belongs_to: bad gadget");
  return original_of[gv] == v;
}

ReducedGraph reduce_to_cubic(const graph::Graph& g) {
  ReducedGraph r;
  const NodeId n = g.num_nodes();
  r.first_gadget.resize(n);
  r.gadget_count.resize(n);
  // Summed in 64 bits and checked before the gadget arrays are allocated,
  // so a reduction past the packed layout's cap fails by name, not by wrap.
  std::uint64_t sum = 0;
  for (NodeId v = 0; v < n; ++v) {
    r.first_gadget[v] = static_cast<NodeId>(sum);
    r.gadget_count[v] = std::max<NodeId>(g.degree(v), 3);
    sum += r.gadget_count[v];
  }
  graph::check_cubic_capacity(sum);
  const auto total = static_cast<NodeId>(sum);
  r.original_of.resize(total);
  for (NodeId v = 0; v < n; ++v)
    for (NodeId j = 0; j < r.gadget_count[v]; ++j)
      r.original_of[r.first_gadget[v] + j] = v;

  // Build the 3-regular rotation map directly in flat CSR form: gadget
  // vertex gv's half-edges live at half[3*gv + port].
  std::vector<HalfEdge> half(3 * static_cast<std::size_t>(total));
  // Gadget cycles: port 1 of gadget j meets port 0 of gadget j+1 (mod c).
  for (NodeId v = 0; v < n; ++v) {
    NodeId base = r.first_gadget[v];
    NodeId c = r.gadget_count[v];
    for (NodeId j = 0; j < c; ++j) {
      NodeId cur = base + j;
      NodeId nxt = base + (j + 1) % c;
      half[3 * static_cast<std::size_t>(cur) + 1] = {nxt, 0};
      half[3 * static_cast<std::size_t>(nxt) + 0] = {cur, 1};
    }
  }
  // External edges: original port p of v is carried by gadget(v, p) port 2.
  for (NodeId v = 0; v < n; ++v) {
    Port d = g.degree(v);
    for (Port p = 0; p < d; ++p) {
      HalfEdge far = g.rotate(v, p);
      NodeId mine = r.first_gadget[v] + p;
      NodeId theirs = r.first_gadget[far.node] + far.port;
      // Involution holds: the far side writes the mirror entry on its turn.
      half[3 * static_cast<std::size_t>(mine) + 2] = {theirs, 2};
    }
    // Padding: unused external ports become half-loops.
    for (NodeId j = d; j < r.gadget_count[v]; ++j) {
      NodeId cur = r.first_gadget[v] + j;
      half[3 * static_cast<std::size_t>(cur) + 2] = {cur, 2};
    }
  }
  std::vector<std::size_t> offsets(static_cast<std::size_t>(total) + 1);
  for (std::size_t i = 0; i <= total; ++i) offsets[i] = 3 * i;
  r.cubic = graph::from_rotation(std::move(offsets), std::move(half));
  return r;
}

}  // namespace uesr::explore
