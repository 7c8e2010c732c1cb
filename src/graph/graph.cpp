#include "graph/graph.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace uesr::graph {

namespace {

/// The one check of a rotation map: per half-edge in (v, p) order, the far
/// node, the far port and the involution, read through the `degree` and
/// `rotate` of the layout being installed.  Returns the edge count (a loop
/// counts as one), so installing a map takes this single pass.
template <class Degree, class Rotate>
std::size_t check_rotation(NodeId n, Degree degree, Rotate rotate) {
  std::size_t half_edges = 0;
  std::size_t half_loops = 0;
  for (NodeId v = 0; v < n; ++v)
    for (Port p = 0; p < degree(v); ++p, ++half_edges) {
      const HalfEdge far = rotate(v, p);
      if (far.node >= n)
        throw std::logic_error("Graph::validate: endpoint node out of range");
      if (far.port >= degree(far.node))
        throw std::logic_error("Graph::validate: endpoint port out of range");
      if (rotate(far.node, far.port) != HalfEdge{v, p})
        throw std::logic_error(
            "Graph::validate: rotation map is not an involution");
      half_loops += far == HalfEdge{v, p};
    }
  return (half_edges - half_loops) / 2 + half_loops;
}

}  // namespace

void check_cubic_capacity(std::uint64_t nodes) {
  if (nodes >= kMaxCubicNodes)
    throw std::length_error("cubic graph: " + std::to_string(nodes) +
                            " nodes, the packed rotation map holds fewer "
                            "than 2^30");
}

GraphBuilder::GraphBuilder(NodeId num_nodes) : adj_(num_nodes) {}

NodeId GraphBuilder::add_node() {
  adj_.emplace_back();
  return static_cast<NodeId>(adj_.size() - 1);
}

void GraphBuilder::check_node(NodeId v, const char* who) const {
  if (v >= adj_.size())
    throw std::invalid_argument(std::string(who) + ": node id out of range");
}

std::pair<HalfEdge, HalfEdge> GraphBuilder::add_edge(NodeId u, NodeId v) {
  check_node(u, "add_edge");
  check_node(v, "add_edge");
  if (u == v) {
    // Full loop: two ports on the same vertex pointing at each other.
    Port p = static_cast<Port>(adj_[v].size());
    adj_[v].push_back({v, p + 1});
    adj_[v].push_back({v, p});
    return {{v, p}, {v, p + 1}};
  }
  Port pu = static_cast<Port>(adj_[u].size());
  Port pv = static_cast<Port>(adj_[v].size());
  adj_[u].push_back({v, pv});
  adj_[v].push_back({u, pu});
  return {{u, pu}, {v, pv}};
}

HalfEdge GraphBuilder::add_half_loop(NodeId v) {
  check_node(v, "add_half_loop");
  Port p = static_cast<Port>(adj_[v].size());
  adj_[v].push_back({v, p});
  return {v, p};
}

Port GraphBuilder::degree(NodeId v) const {
  check_node(v, "degree");
  return static_cast<Port>(adj_[v].size());
}

Graph GraphBuilder::build() && { return from_rotation(std::move(adj_)); }

void Graph::adopt_flat(std::vector<std::size_t> offsets,
                       std::vector<HalfEdge> half_edges) {
  if (offsets.empty()) {
    if (!half_edges.empty())
      throw std::invalid_argument("Graph: half-edges without offsets");
  } else {
    if (offsets.front() != 0)
      throw std::invalid_argument("Graph: offsets must start at 0");
    for (std::size_t v = 0; v + 1 < offsets.size(); ++v)
      if (offsets[v] > offsets[v + 1])
        throw std::invalid_argument("Graph: offsets not monotone");
    if (offsets.back() != half_edges.size())
      throw std::invalid_argument("Graph: offsets do not cover half-edges");
  }
  // Normalize the zero-node representation (no offsets at all) so that
  // every construction path yields identical members and the defaulted
  // operator== stays purely observational.
  if (offsets.size() == 1) offsets.clear();
  const auto n =
      static_cast<NodeId>(offsets.empty() ? 0 : offsets.size() - 1);
  bool cubic = n > 0;
  for (NodeId v = 0; cubic && v < n; ++v)
    cubic = offsets[v + 1] - offsets[v] == 3;
  if (cubic) {
    // Repack into the cubic layout.  A far node past the graph becomes n
    // and a far port past 2 becomes 3, which install_rot3 rejects by name;
    // packed unclamped they could wrap into a valid-looking word.
    std::vector<std::uint32_t> words(half_edges.size());
    for (std::size_t i = 0; i < words.size(); ++i)
      words[i] = pack_rot3(std::min(half_edges[i].node, n),
                           std::min<Port>(half_edges[i].port, 3));
    install_rot3(std::move(words));
    return;
  }
  num_nodes_ = n;
  cubic_ = false;
  offsets_ = std::move(offsets);
  half_edges_ = std::move(half_edges);
  rot3_ = {};
  num_edges_ = check_rotation(
      n, [this](NodeId v) { return degree(v); },
      [this](NodeId v, Port p) { return half_edges_[offsets_[v] + p]; });
}

void Graph::install_rot3(std::vector<std::uint32_t> words) {
  if (words.size() % 3 != 0)
    throw std::invalid_argument(
        "Graph: packed rotation map length is not a multiple of 3");
  check_cubic_capacity(words.size() / 3);
  num_nodes_ = static_cast<NodeId>(words.size() / 3);
  num_edges_ = check_rotation(
      num_nodes_, [](NodeId) { return Port{3}; },
      [&words](NodeId v, Port p) {
        return unpack_rot3(words[3 * std::size_t{v} + p]);
      });
  cubic_ = num_nodes_ > 0;
  offsets_ = {};
  half_edges_ = {};
  rot3_ = std::move(words);
}

Port Graph::max_degree() const {
  Port d = 0;
  for (NodeId v = 0; v < num_nodes_; ++v) d = std::max<Port>(d, degree(v));
  return d;
}

Port Graph::min_degree() const {
  if (num_nodes_ == 0) return 0;
  Port d = degree(0);
  for (NodeId v = 1; v < num_nodes_; ++v) d = std::min<Port>(d, degree(v));
  return d;
}

bool Graph::is_regular(Port d) const {
  for (NodeId v = 0; v < num_nodes_; ++v)
    if (degree(v) != d) return false;
  return true;
}

Port Graph::port_to(NodeId v, NodeId u) const {
  for (Port p = 0; p < degree(v); ++p)
    if (rotate(v, p).node == u) return p;
  throw std::invalid_argument("port_to: vertices not adjacent");
}

bool Graph::adjacent(NodeId v, NodeId u) const {
  for (Port p = 0; p < degree(v); ++p)
    if (rotate(v, p).node == u) return true;
  return false;
}

std::vector<NodeId> Graph::neighbors(NodeId v) const {
  std::vector<NodeId> out;
  out.reserve(degree(v));
  for (Port p = 0; p < degree(v); ++p) out.push_back(rotate(v, p).node);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void Graph::validate() const {
  check_rotation(
      num_nodes_, [this](NodeId v) { return degree(v); },
      [this](NodeId v, Port p) { return rotate(v, p); });
}

Graph Graph::relabeled(const std::vector<std::vector<Port>>& perms) const {
  if (perms.size() != num_nodes_)
    throw std::invalid_argument("relabeled: one permutation per vertex");
  for (NodeId v = 0; v < num_nodes_; ++v) {
    if (perms[v].size() != degree(v))
      throw std::invalid_argument("relabeled: permutation size != degree");
    std::vector<bool> seen(perms[v].size(), false);
    for (Port p : perms[v]) {
      if (p >= perms[v].size() || seen[p])
        throw std::invalid_argument("relabeled: not a permutation");
      seen[p] = true;
    }
  }
  // Degrees are unchanged, so the offsets are those of this graph; only the
  // half-edge slots are permuted (both the local slot and the far port it
  // names).  Offsets are recomputed from degrees because the cubic layout
  // stores none.
  std::vector<std::size_t> offsets(static_cast<std::size_t>(num_nodes_) + 1);
  offsets[0] = 0;
  for (NodeId v = 0; v < num_nodes_; ++v)
    offsets[v + 1] = offsets[v] + degree(v);
  std::vector<HalfEdge> half_edges(offsets[num_nodes_]);
  for (NodeId v = 0; v < num_nodes_; ++v) {
    for (Port p = 0; p < degree(v); ++p) {
      HalfEdge far = rotate(v, p);
      half_edges[offsets[v] + perms[v][p]] = {far.node,
                                              perms[far.node][far.port]};
    }
  }
  return from_rotation(std::move(offsets), std::move(half_edges));
}

Graph Graph::randomly_relabeled(util::Pcg32& rng) const {
  std::vector<std::vector<Port>> perms(num_nodes());
  for (NodeId v = 0; v < num_nodes(); ++v) {
    perms[v].resize(degree(v));
    std::iota(perms[v].begin(), perms[v].end(), Port{0});
    std::shuffle(perms[v].begin(), perms[v].end(), rng);
  }
  return relabeled(perms);
}

Graph from_edges(NodeId num_nodes,
                 const std::vector<std::pair<NodeId, NodeId>>& edges) {
  GraphBuilder b(num_nodes);
  for (auto [u, v] : edges) b.add_edge(u, v);
  return std::move(b).build();
}

Graph from_rotation(std::vector<std::vector<HalfEdge>> adj) {
  std::vector<std::size_t> offsets(adj.size() + 1, 0);
  for (std::size_t v = 0; v < adj.size(); ++v)
    offsets[v + 1] = offsets[v] + adj[v].size();
  std::vector<HalfEdge> half_edges;
  half_edges.reserve(offsets.back());
  for (const std::vector<HalfEdge>& row : adj)
    half_edges.insert(half_edges.end(), row.begin(), row.end());
  return from_rotation(std::move(offsets), std::move(half_edges));
}

Graph from_rotation(std::vector<std::size_t> offsets,
                    std::vector<HalfEdge> half_edges) {
  Graph g;
  g.adopt_flat(std::move(offsets), std::move(half_edges));
  return g;
}

Graph from_rot3(std::vector<std::uint32_t> words) {
  Graph g;
  g.install_rot3(std::move(words));
  return g;
}

std::string describe(const Graph& g) {
  std::ostringstream os;
  os << "n=" << g.num_nodes() << " m=" << g.num_edges() << " deg=["
     << g.min_degree() << "," << g.max_degree() << "]";
  return os.str();
}

}  // namespace uesr::graph
