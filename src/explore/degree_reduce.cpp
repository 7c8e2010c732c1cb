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

  // Each gadget's three words (predecessor, successor, external edge or
  // padding half-loop) and its original_of entry, in gadget order.
  std::vector<std::uint32_t> words(3 * static_cast<std::size_t>(total));
  std::uint32_t* word = words.data();
  for (NodeId v = 0; v < n; ++v) {
    const NodeId base = r.first_gadget[v];
    const NodeId last = base + r.gadget_count[v] - 1;
    const Port d = g.degree(v);
    for (NodeId cur = base; cur <= last; ++cur) {
      const Port j = cur - base;
      r.original_of[cur] = v;
      *word++ = graph::pack_rot3(cur == base ? last : cur - 1, 1);
      *word++ = graph::pack_rot3(cur == last ? base : cur + 1, 0);
      if (j < d) {
        // Original port j of v; the far gadget writes the mirror word.
        const HalfEdge far = g.rotate(v, j);
        *word++ = graph::pack_rot3(r.first_gadget[far.node] + far.port, 2);
      } else {
        *word++ = graph::pack_rot3(cur, 2);  // padding: a half-loop
      }
    }
  }
  r.cubic = graph::from_rot3(std::move(words));
  return r;
}

}  // namespace uesr::explore
