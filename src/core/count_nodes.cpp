#include "core/count_nodes.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "explore/walker.h"
#include "net/message.h"
#include "net/transport.h"

namespace uesr::core {

using explore::ExplorationSequence;
using explore::ReducedGraph;
using explore::SymbolStream;
using explore::advance_port;
using explore::wrap_port;
using graph::HalfEdge;
using graph::NodeId;
using graph::Port;

SequenceFactory default_sequence_family(std::uint64_t seed) {
  return [seed](NodeId bound) {
    // Quadratic-length family: long enough to cover whp once the bound
    // reaches |Cs'| (random-walk cover time of 3-regular graphs is
    // O(n^2)); correctness does not depend on covering — the closure
    // check *verifies* coverage and otherwise doubles again.
    std::uint64_t len = std::max<std::uint64_t>(16, 8ULL * bound * bound);
    return std::make_shared<explore::RandomExplorationSequence>(
        seed ^ (0x9e37ULL * bound), len, bound);
  };
}

namespace {

/// Walks the message backward from arrival `at` until `index` reaches 0,
/// consuming symbols index..1 in descending blocks.
void backtrack(const graph::Graph& g, const ExplorationSequence& seq,
               net::Arrival& at, std::uint64_t index, std::uint64_t& tx) {
  std::vector<explore::Symbol> buf;
  while (index > 0) {
    const std::uint64_t count =
        std::min<std::uint64_t>(SymbolStream::kBlock, index);
    const std::uint64_t lo = index - count + 1;
    buf.resize(static_cast<std::size_t>(count));
    seq.fill(lo, count, buf.data());
    for (std::uint64_t k = count; k-- > 0;) {
      Port t = static_cast<Port>(buf[static_cast<std::size_t>(k)] % 3);
      Port out = wrap_port(at.port + 3 - t, 3);
      HalfEdge far = g.rotate(at.node, out);
      at = {far.node, far.port};
      ++tx;
      --index;
    }
  }
}

}  // namespace

graph::NodeId retrieve(const ReducedGraph& net, const ExplorationSequence& seq,
                       NodeId s, std::uint64_t i, std::uint64_t& tx) {
  if (i > seq.length())
    throw std::invalid_argument("retrieve: index beyond sequence");
  const graph::Graph& g = net.cubic;
  // Inject d_0 from s's entry gadget.
  HalfEdge d{net.entry_gadget(s), 0};
  net::Arrival at{g.rotate(d.node, d.port).node, g.rotate(d.node, d.port).port};
  ++tx;
  // Forward phase, symbols streamed in blocks.
  SymbolStream symbols(seq);
  for (std::uint64_t index = 0; index < i; ++index) {
    Port out = advance_port(at.port, symbols.next(), 3);
    HalfEdge far = g.rotate(at.node, out);
    at = {far.node, far.port};
    ++tx;
  }
  NodeId payload = at.node;  // the gadget's unique name
  // Turn around: resend over the arrival port to the tail of d_i.
  {
    HalfEdge far = g.rotate(at.node, at.port);
    at = {far.node, far.port};
    ++tx;
  }
  // Backward phase: undo steps i..1.
  backtrack(g, seq, at, i, tx);
  return payload;
}

graph::NodeId retrieve_neighbor(const ReducedGraph& net,
                                const ExplorationSequence& seq, NodeId s,
                                std::uint64_t i, Port j, std::uint64_t& tx) {
  if (j >= 3)
    throw std::invalid_argument("retrieve_neighbor: port out of range");
  if (i > seq.length())
    throw std::invalid_argument("retrieve_neighbor: index beyond sequence");
  const graph::Graph& g = net.cubic;
  HalfEdge d{net.entry_gadget(s), 0};
  net::Arrival at{g.rotate(d.node, d.port).node, g.rotate(d.node, d.port).port};
  ++tx;
  SymbolStream symbols(seq);
  for (std::uint64_t index = 0; index < i; ++index) {
    Port out = advance_port(at.port, symbols.next(), 3);
    HalfEdge far = g.rotate(at.node, out);
    at = {far.node, far.port};
    ++tx;
  }
  // Peek: park the arrival port in the header, hop out of port j and back.
  Port return_port = at.port;
  {
    HalfEdge far = g.rotate(at.node, j);  // kPeek
    at = {far.node, far.port};
    ++tx;
  }
  NodeId payload = at.node;
  {
    HalfEdge far = g.rotate(at.node, at.port);  // kReply
    at = {far.node, far.port};
    ++tx;
  }
  // Back at v_i (on port j); turn around through the parked port.
  {
    HalfEdge far = g.rotate(at.node, return_port);
    at = {far.node, far.port};
    ++tx;
  }
  backtrack(g, seq, at, i, tx);
  return payload;
}

namespace {

/// Probe interface shared by both execution modes; implementations must
/// charge identical transmission counts (the faithful costs).
class ProbeOracle {
 public:
  virtual ~ProbeOracle() = default;
  virtual NodeId retrieve(std::uint64_t i) = 0;
  virtual NodeId retrieve_neighbor(std::uint64_t i, Port j) = 0;
  /// s peeks through its own port j (local 1-hop probe): cost 2.
  virtual NodeId source_peek(Port j) = 0;
  std::uint64_t tx = 0;
  std::uint64_t probes = 0;
};

class FaithfulOracle final : public ProbeOracle {
 public:
  FaithfulOracle(const ReducedGraph& net, const ExplorationSequence& seq,
                 NodeId s)
      : net_(net), seq_(seq), s_(s) {}

  NodeId retrieve(std::uint64_t i) override {
    ++probes;
    return core::retrieve(net_, seq_, s_, i, tx);
  }
  NodeId retrieve_neighbor(std::uint64_t i, Port j) override {
    ++probes;
    return core::retrieve_neighbor(net_, seq_, s_, i, j, tx);
  }
  NodeId source_peek(Port j) override {
    ++probes;
    tx += 2;
    return net_.cubic.rotate(net_.entry_gadget(s_), j).node;
  }

 private:
  const ReducedGraph& net_;
  const ExplorationSequence& seq_;
  NodeId s_;
};

class FastOracle final : public ProbeOracle {
 public:
  FastOracle(const ReducedGraph& net, const ExplorationSequence& seq,
             NodeId s)
      : net_(net), s_(s) {
    // Simulate the walk centrally once, streaming symbols in blocks, and
    // record the head (arrival vertex) of every departure edge d_0..d_L.
    const graph::Graph& g = net.cubic;
    const std::uint64_t length = seq.length();
    heads_.reserve(static_cast<std::size_t>(length) + 1);
    HalfEdge d{net.entry_gadget(s), 0};
    HalfEdge a = g.rotate(d.node, d.port);
    heads_.push_back(a.node);
    SymbolStream symbols(seq);
    for (std::uint64_t j = 0; j < length; ++j) {
      d = {a.node, advance_port(a.port, symbols.next(), 3)};
      a = g.rotate(d.node, d.port);
      heads_.push_back(a.node);
    }
  }

  NodeId retrieve(std::uint64_t i) override {
    ++probes;
    tx += 2 * (i + 1);
    return heads_.at(i);
  }
  NodeId retrieve_neighbor(std::uint64_t i, Port j) override {
    ++probes;
    tx += 2 * (i + 1) + 2;
    // The walk arrived at v_i on some port; the neighbour through port j of
    // v_i, regardless of arrival port, is a static fact of the graph.
    return net_.cubic.rotate(heads_.at(i), j).node;
  }
  NodeId source_peek(Port j) override {
    ++probes;
    tx += 2;
    return net_.cubic.rotate(net_.entry_gadget(s_), j).node;
  }

  const std::vector<NodeId>& heads() const { return heads_; }

 private:
  const ReducedGraph& net_;
  NodeId s_;
  std::vector<NodeId> heads_;
};

/// Coordinator-side memo over retrieve: the coordinator of CountNodes may
/// remember names it already paid to fetch (it is not a network node, so
/// this breaks no log-space constraint of the *protocol*), but the paper's
/// cost model is preserved exactly — a memoized answer charges the same
/// tx/probes a real probe would, so reported totals are bit-identical in
/// both execution modes.  Only the wall-clock work collapses from O(L^2)
/// walks to O(L) walks plus O(L^2) array reads.
class MemoOracle final : public ProbeOracle {
 public:
  MemoOracle(ProbeOracle& inner, std::uint64_t length)
      : inner_(inner),
        memo_(static_cast<std::size_t>(length) + 1, kUnset) {}

  NodeId retrieve(std::uint64_t i) override {
    NodeId& slot = memo_.at(static_cast<std::size_t>(i));
    if (slot != kUnset) {
      ++probes;
      tx += 2 * (i + 1);  // what the probe would have cost on the wire
      return slot;
    }
    slot = inner_.retrieve(i);  // inner charges its own tx/probes
    return slot;
  }
  NodeId retrieve_neighbor(std::uint64_t i, Port j) override {
    return inner_.retrieve_neighbor(i, j);
  }
  NodeId source_peek(Port j) override { return inner_.source_peek(j); }

 private:
  static constexpr NodeId kUnset = ~NodeId{0};  // never a gadget name
  ProbeOracle& inner_;
  std::vector<NodeId> memo_;
};

/// The paper's membership scan: compare u against Retrieve(0..L) with
/// early exit.  The source also knows its own name without a probe.
bool is_visited(ProbeOracle& oracle, std::uint64_t L, NodeId s_gadget,
                NodeId u) {
  if (u == s_gadget) return true;
  for (std::uint64_t l = 0; l <= L; ++l)
    if (oracle.retrieve(l) == u) return true;
  return false;
}

}  // namespace

CountResult count_nodes(const ReducedGraph& net, NodeId s,
                        const SequenceFactory& family, CountMode mode) {
  if (s >= net.first_gadget.size())
    throw std::invalid_argument("count_nodes: source out of range");
  CountResult res;
  const NodeId s_gadget = net.entry_gadget(s);
  for (unsigned k = 1; k <= 30; ++k) {
    NodeId bound = NodeId{1} << k;
    auto seq = family(bound);
    if (!seq) throw std::invalid_argument("count_nodes: null sequence");
    const std::uint64_t L = seq->length();
    std::unique_ptr<ProbeOracle> inner;
    if (mode == CountMode::kFaithful)
      inner = std::make_unique<FaithfulOracle>(net, *seq, s);
    else
      inner = std::make_unique<FastOracle>(net, *seq, s);
    MemoOracle oracle(*inner, L);
    auto charged_tx = [&] { return inner->tx + oracle.tx; };
    auto charged_probes = [&] { return inner->probes + oracle.probes; };

    // --- closure check: every neighbour of a visited vertex is visited.
    bool closed = true;
    for (std::uint64_t i = 0; i <= L && closed; ++i)
      for (Port j = 0; j < 3 && closed; ++j) {
        NodeId u = oracle.retrieve_neighbor(i, j);
        if (!is_visited(oracle, L, s_gadget, u)) closed = false;
      }
    // The source's own neighbours (s is visited by definition).
    for (Port j = 0; j < 3 && closed; ++j) {
      NodeId u = oracle.source_peek(j);
      if (!is_visited(oracle, L, s_gadget, u)) closed = false;
    }

    res.transmissions += charged_tx();
    res.probes += charged_probes();
    inner->tx = oracle.tx = 0;
    inner->probes = oracle.probes = 0;
    if (!closed) continue;

    // --- counting phase: distinct names among Retrieve(0..L), plus s if
    // its name never appears among the heads.  The pairwise scan is the
    // paper's: the coordinator holds two names and a counter — O(log n).
    std::uint64_t count = 0;
    bool s_seen = false;
    for (std::uint64_t i = 0; i <= L; ++i) {
      NodeId vnew = oracle.retrieve(i);
      if (vnew == s_gadget) s_seen = true;
      bool fresh = true;
      for (std::uint64_t j = 0; j < i && fresh; ++j)
        if (oracle.retrieve(j) == vnew) fresh = false;
      if (fresh) ++count;
    }
    if (!s_seen) ++count;
    res.gadget_count = count;
    res.epochs = k;
    res.final_bound = bound;

    // Distinct *original* names: same pairwise structure over the
    // projection original_of(name) — gadget names are composite
    // (original, slot) pairs, so projecting is local to the coordinator.
    const NodeId s_orig = net.original_of[s_gadget];
    std::uint64_t orig_count = 0;
    bool s_orig_seen = false;
    for (std::uint64_t i = 0; i <= L; ++i) {
      NodeId oi = net.original_of[oracle.retrieve(i)];
      if (oi == s_orig) s_orig_seen = true;
      bool fresh = true;
      for (std::uint64_t j = 0; j < i && fresh; ++j)
        if (net.original_of[oracle.retrieve(j)] == oi) fresh = false;
      if (fresh) ++orig_count;
    }
    if (!s_orig_seen) ++orig_count;
    res.original_count = orig_count;
    res.transmissions += charged_tx();
    res.probes += charged_probes();
    return res;
  }
  throw std::runtime_error("count_nodes: no closure after 2^30 bound");
}

}  // namespace uesr::core
