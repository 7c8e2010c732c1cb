#include "graph/io.h"

#include <algorithm>
#include <charconv>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace uesr::graph {

std::string to_edge_list(const Graph& g) {
  std::ostringstream os;
  os << "uesr-graph " << g.num_nodes() << "\n";
  // One line per half-edge pair, emitted from the lexicographically smaller
  // side; half loops emit themselves.  Exact rotation-map round trip.
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    for (Port p = 0; p < g.degree(v); ++p) {
      HalfEdge far = g.rotate(v, p);
      if (HalfEdge{v, p} <= far)
        os << v << " " << p << " " << far.node << " " << far.port << "\n";
    }
  return os.str();
}

namespace {

// One numeric field, digits only.  Stream extraction into uint32_t would
// read "-1" as 2^32 - 1 and "-4294967295" as 1; from_chars takes no sign
// for an unsigned type and reports overflow.
std::uint32_t parse_u32(const std::string& token, const std::string& line) {
  std::uint32_t v = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (ec != std::errc{} || ptr != end)
    throw std::invalid_argument("from_edge_list: bad number '" + token +
                                "' in: '" + line + "'");
  return v;
}

}  // namespace

Graph from_edge_list(std::istream& is) {
  std::string magic, count;
  if (!(is >> magic >> count) || magic != "uesr-graph")
    throw std::invalid_argument("from_edge_list: bad header");
  const NodeId n = parse_u32(count, magic + " " + count);
  constexpr const char* kSpace = " \t\r";
  std::string line;
  std::getline(is, line);  // remainder of the header line
  if (line.find_first_not_of(kSpace) != std::string::npos)
    throw std::invalid_argument("from_edge_list: junk after header: '" +
                                line + "'");
  // (at, far) half-edge records: memory grows with the records read,
  // never with a port value.
  std::vector<std::pair<HalfEdge, HalfEdge>> records;
  // One record per line, parsed line-by-line so EOF is distinguishable
  // from junk: the old `is >> v >> p >> w >> q` loop stopped silently on
  // the first parse failure, turning a truncated or corrupted record into
  // an accepted prefix.
  while (std::getline(is, line)) {
    if (line.find_first_not_of(kSpace) == std::string::npos) continue;
    std::istringstream ls(line);
    std::string field[4];
    if (!(ls >> field[0] >> field[1] >> field[2] >> field[3]))
      throw std::invalid_argument("from_edge_list: malformed line: '" +
                                  line + "'");
    ls >> std::ws;
    if (!ls.eof())
      throw std::invalid_argument("from_edge_list: trailing junk on line: '" +
                                  line + "'");
    const HalfEdge a{parse_u32(field[0], line), parse_u32(field[1], line)};
    const HalfEdge b{parse_u32(field[2], line), parse_u32(field[3], line)};
    if (a.node >= n || b.node >= n)
      throw std::invalid_argument("from_edge_list: node out of range");
    records.push_back({a, b});
    if (a != b) records.push_back({b, a});
  }
  // Each node's ports must be exactly 0..deg-1: once sorted, the k-th
  // record of a node carries port k.
  std::sort(records.begin(), records.end());
  std::vector<std::size_t> offsets(std::size_t{n} + 1, 0);
  std::vector<HalfEdge> half_edges;
  half_edges.reserve(records.size());
  for (const auto& [at, far] : records) {
    const std::size_t k = offsets[std::size_t{at.node} + 1]++;
    if (at.port != k)
      throw std::invalid_argument(at.port < k
                                      ? "from_edge_list: duplicate half-edge"
                                      : "from_edge_list: port gap");
    half_edges.push_back(far);
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  return from_rotation(std::move(offsets), std::move(half_edges));
}

Graph from_edge_list(const std::string& text) {
  std::istringstream is(text);
  return from_edge_list(is);
}

std::string to_dot(const Graph& g, const std::string& name) {
  std::ostringstream os;
  os << "graph " << name << " {\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    for (Port p = 0; p < g.degree(v); ++p) {
      HalfEdge far = g.rotate(v, p);
      if (g.is_half_loop(v, p))
        os << "  " << v << " -- " << v << " [label=\"h\"];\n";
      else if (HalfEdge{v, p} < far)
        os << "  " << v << " -- " << far.node << ";\n";
    }
  os << "}\n";
  return os.str();
}

}  // namespace uesr::graph
