// Cross-module property sweeps, parameterized over a zoo of topologies.
//
// These are the invariants the paper's correctness rests on, checked on
// every family at once:
//   P1  walk reversibility: reverse_step inverts forward_step everywhere;
//   P2  backtrack replay: a walked prefix rewinds to its exact start;
//   P3  degree reduction: 3-regular, size = sum max(deg,3), padding
//       half-loop count, external-edge mirror, component preservation;
//   P4  routing: delivered == BFS-reachable for all pairs; success cost
//       identity tx = 2*(fwd+1); failure cost identity tx = 2*(L+1);
//   P5  broadcast covers exactly the component;
//   P6  census (CountNodes) equals BFS component sizes;
//   P7  cover times are prefix-stable (a longer sequence with the same
//       seed covers at the same step);
//   P8  the CSR layout is observationally a rotation map;
//   P9  the lossy stack degenerates exactly: at loss = 0, zero jitter,
//       bidirectional links, the ARQ (net::WindowTransport) replays the
//       arrival sequence of net::Transport over the same walk in both
//       shapes the benches run — the stop-and-wait preset (window 1, one
//       frame per message) and a pipelined window (window 2, four frames)
//       — each frame acked once;
//   P10 both ARQ shapes degenerate to the same walk: at loss = 0 a
//       pipelined window is arrival-for-arrival identical to the
//       stop-and-wait preset on every topology;
//   P11 the fault layer at zero is invisible: corrupt = 0 plus an armed
//       all-zero-rate FaultPlan leaves the lossy channel byte-identical
//       (trace line for trace line) to the plain PR 7 transport;
//   P12 hostile input fails by name: seeded mutants of every zoo graph's
//       edge list either throw std::invalid_argument or parse to a graph
//       that round-trips, and so do util::Cli getters over random argv.
#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/api.h"
#include "core/count_nodes.h"
#include "explore/degree_reduce.h"
#include "explore/walker.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/geometric.h"
#include "graph/io.h"
#include "net/faults.h"
#include "net/transport.h"
#include "net/window.h"
#include "util/cli.h"
#include "util/rng.h"

namespace uesr {
namespace {

struct GraphCase {
  std::string name;
  std::function<graph::Graph()> make;
};

void PrintTo(const GraphCase& c, std::ostream* os) { *os << c.name; }

class GraphZoo : public ::testing::TestWithParam<GraphCase> {
 protected:
  graph::Graph g_ = GetParam().make();
};

// ---- P1: reversibility everywhere -----------------------------------

TEST_P(GraphZoo, ReverseInvertsForward) {
  // Degree-0 vertices have no half-edges to walk; everything else must
  // satisfy the inversion identity.
  for (graph::NodeId v = 0; v < g_.num_nodes(); ++v)
    for (graph::Port p = 0; p < g_.degree(v); ++p)
      for (explore::Symbol t = 0; t < 4; ++t) {
        graph::HalfEdge d{v, p};
        EXPECT_EQ(explore::reverse_step(g_, explore::forward_step(g_, d, t), t),
                  d);
      }
}

// ---- P2: a walked prefix rewinds exactly ------------------------------

TEST_P(GraphZoo, BacktrackReplayReturnsToStart) {
  if (g_.num_nodes() == 0 || g_.degree(0) == 0) GTEST_SKIP();
  explore::RandomExplorationSequence seq(99, 400, g_.num_nodes());
  graph::HalfEdge start{0, 0};
  auto tr = explore::trace_walk(g_, start, seq, 400);
  graph::HalfEdge d = tr.departures.back();
  for (std::uint64_t j = tr.departures.size() - 1; j >= 1; --j)
    d = explore::reverse_step(g_, d, seq.symbol(j));
  EXPECT_EQ(d, start);
}

// ---- P3: degree reduction invariants ----------------------------------

TEST_P(GraphZoo, ReductionIsCubicWithExactSize) {
  explore::ReducedGraph r = explore::reduce_to_cubic(g_);
  EXPECT_TRUE(r.cubic.is_regular(3));
  std::size_t expect = 0;
  for (graph::NodeId v = 0; v < g_.num_nodes(); ++v)
    expect += std::max<graph::Port>(g_.degree(v), 3);
  EXPECT_EQ(r.cubic.num_nodes(), expect);
}

TEST_P(GraphZoo, ReductionPadsExactlyTheMissingPorts) {
  explore::ReducedGraph r = explore::reduce_to_cubic(g_);
  std::size_t half_loops = 0;
  for (graph::NodeId v = 0; v < r.cubic.num_nodes(); ++v)
    for (graph::Port p = 0; p < 3; ++p)
      if (r.cubic.is_half_loop(v, p)) ++half_loops;
  std::size_t expect = 0;
  for (graph::NodeId v = 0; v < g_.num_nodes(); ++v) {
    // Original half-loops survive as gadget half-loops; padding adds one
    // per missing port below degree 3.
    if (g_.degree(v) < 3) expect += 3 - g_.degree(v);
    for (graph::Port p = 0; p < g_.degree(v); ++p)
      if (g_.is_half_loop(v, p)) ++expect;
  }
  EXPECT_EQ(half_loops, expect);
}

TEST_P(GraphZoo, ReductionMirrorsEveryOriginalEdge) {
  explore::ReducedGraph r = explore::reduce_to_cubic(g_);
  for (graph::NodeId v = 0; v < g_.num_nodes(); ++v)
    for (graph::Port p = 0; p < g_.degree(v); ++p) {
      graph::HalfEdge far = g_.rotate(v, p);
      EXPECT_EQ(r.cubic.rotate(r.gadget(v, p), 2),
                (graph::HalfEdge{r.gadget(far.node, far.port), 2}));
    }
}

TEST_P(GraphZoo, ReductionPreservesComponents) {
  explore::ReducedGraph r = explore::reduce_to_cubic(g_);
  auto orig = graph::connected_components(g_);
  auto red = graph::connected_components(r.cubic);
  for (graph::NodeId u = 0; u < g_.num_nodes(); ++u)
    for (graph::NodeId v = u + 1; v < g_.num_nodes(); ++v)
      EXPECT_EQ(orig[u] == orig[v],
                red[r.entry_gadget(u)] == red[r.entry_gadget(v)]);
}

// ---- P4/P5: routing and broadcast against ground truth ----------------

TEST_P(GraphZoo, RoutingMatchesReachabilityAllPairs) {
  if (g_.num_nodes() == 0) GTEST_SKIP();
  core::AdHocNetwork net(g_);
  for (graph::NodeId s = 0; s < g_.num_nodes(); ++s)
    for (graph::NodeId t = 0; t < g_.num_nodes(); ++t) {
      auto r = net.route(s, t);
      EXPECT_EQ(r.delivered, graph::has_path(g_, s, t))
          << s << " -> " << t;
    }
}

TEST_P(GraphZoo, SuccessAndFailureCostIdentities) {
  if (g_.num_nodes() < 2) GTEST_SKIP();
  core::AdHocNetwork net(g_);
  const std::uint64_t L = net.router().sequence().length();
  for (graph::NodeId t = 1; t < g_.num_nodes(); ++t) {
    auto r = net.route(0, t);
    if (r.delivered)
      EXPECT_EQ(r.total_transmissions, 2 * (r.forward_steps + 1));
    else
      EXPECT_EQ(r.total_transmissions, 2 * (L + 1));
  }
}

TEST_P(GraphZoo, BroadcastCoversExactlyTheComponent) {
  if (g_.num_nodes() == 0) GTEST_SKIP();
  core::AdHocNetwork net(g_);
  auto b = net.broadcast(0);
  auto comp = graph::component_of(g_, 0);
  EXPECT_EQ(b.distinct_visited, comp.size());
  std::vector<bool> in_comp(g_.num_nodes(), false);
  for (graph::NodeId v : comp) in_comp[v] = true;
  for (graph::NodeId v = 0; v < g_.num_nodes(); ++v)
    EXPECT_EQ(b.visited_originals[v], in_comp[v]) << "v=" << v;
}

// ---- P6: census --------------------------------------------------------

TEST_P(GraphZoo, CensusMatchesBfs) {
  if (g_.num_nodes() == 0) GTEST_SKIP();
  core::AdHocNetwork net(g_);
  auto c = net.count_component(0);
  EXPECT_EQ(c.original_count, graph::component_of(g_, 0).size());
  explore::ReducedGraph r = explore::reduce_to_cubic(g_);
  EXPECT_EQ(c.gadget_count,
            graph::component_of(r.cubic, r.entry_gadget(0)).size());
}

// ---- P7: cover prefix stability ----------------------------------------

TEST_P(GraphZoo, CoverTimeIsPrefixStable) {
  if (g_.num_nodes() == 0 || g_.degree(0) == 0) GTEST_SKIP();
  explore::RandomExplorationSequence short_seq(7, 2000, g_.num_nodes());
  explore::RandomExplorationSequence long_seq(7, 8000, g_.num_nodes());
  auto a = explore::cover_time(g_, {0, 0}, short_seq);
  auto b = explore::cover_time(g_, {0, 0}, long_seq);
  if (a.has_value()) {
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*a, *b);  // same seed => same prefix => same cover step
  }
}

// ---- P8: the CSR graph layout is observationally a rotation map --------

TEST_P(GraphZoo, CsrLayoutIsObservationallyARotationMap) {
  // Re-expressing the graph through from_rotation (the nested, layout-
  // agnostic constructor) must reproduce an identical graph: the storage
  // scheme cannot be observable.
  std::vector<std::vector<graph::HalfEdge>> adj(g_.num_nodes());
  for (graph::NodeId v = 0; v < g_.num_nodes(); ++v) {
    adj[v].resize(g_.degree(v));
    for (graph::Port p = 0; p < g_.degree(v); ++p)
      adj[v][p] = g_.rotate(v, p);
  }
  graph::Graph h = graph::from_rotation(std::move(adj));
  EXPECT_EQ(g_, h);
  EXPECT_NO_THROW(h.validate());
  // The cubic specialization agrees with the general path everywhere.
  if (g_.is_cubic()) {
    for (graph::NodeId v = 0; v < g_.num_nodes(); ++v)
      for (graph::Port p = 0; p < 3; ++p)
        EXPECT_EQ(g_.rotate3(v, p), g_.rotate(v, p));
  }
}

TEST_P(GraphZoo, RelabelInverseRoundTrip) {
  util::Pcg32 rng(17);
  std::vector<std::vector<graph::Port>> perms(g_.num_nodes());
  std::vector<std::vector<graph::Port>> inverse(g_.num_nodes());
  for (graph::NodeId v = 0; v < g_.num_nodes(); ++v) {
    perms[v].resize(g_.degree(v));
    std::iota(perms[v].begin(), perms[v].end(), graph::Port{0});
    std::shuffle(perms[v].begin(), perms[v].end(), rng);
    inverse[v].resize(perms[v].size());
    for (graph::Port p = 0; p < perms[v].size(); ++p)
      inverse[v][perms[v][p]] = p;
  }
  graph::Graph relabeled = g_.relabeled(perms);
  EXPECT_NO_THROW(relabeled.validate());
  EXPECT_EQ(relabeled.relabeled(inverse), g_);
}

// ---- P9: the lossy stack degenerates exactly --------------------------
// At loss 0 the ARQ hands back net::Transport's arrival, hop for hop, as
// the stop-and-wait preset and as a pipelined window alike: the lossy
// stack adds acks and framing, never a different walk.

TEST_P(GraphZoo, LossyTransportAtZeroLossReplaysTransport) {
  if (g_.num_nodes() == 0 || g_.degree(0) == 0) GTEST_SKIP();
  net::Transport perfect(g_);
  // Defaults: loss = 0, latency pinned at 1.
  net::WindowOptions sw_opt;
  sw_opt.window = sw_opt.frames_per_message = 1;
  net::WindowOptions sr_opt;
  sr_opt.window = 2;
  sr_opt.frames_per_message = 4;
  net::WindowTransport sw(g_, /*seed=*/0x5eed0009, {}, sw_opt);
  net::WindowTransport sr(g_, /*seed=*/0x5eed000b, {}, sr_opt);
  util::Pcg32 walk(0x99);
  graph::NodeId at = 0;
  for (int i = 0; i < 300; ++i) {
    const graph::Port out = walk.next_below(g_.degree(at));
    const net::Arrival a = perfect.send(at, out);
    const net::WindowOutcome b = sw.send(at, out);
    const net::WindowOutcome c = sr.send(at, out);
    ASSERT_TRUE(b.delivered) << "step " << i;
    ASSERT_TRUE(c.delivered) << "step " << i;
    ASSERT_EQ(a.node, b.arrival.node) << "step " << i;
    ASSERT_EQ(a.port, b.arrival.port) << "step " << i;
    ASSERT_EQ(a.node, c.arrival.node) << "step " << i;
    ASSERT_EQ(a.port, c.arrival.port) << "step " << i;
    at = a.node;
  }
  EXPECT_EQ(perfect.transmissions(), 300u);
  // Clean links: one DATA + one ACK per frame, no resends anywhere — the
  // preset sends exactly the perfect walk's frames, each acked once.
  EXPECT_EQ(sw.frames(), 2 * perfect.transmissions());
  EXPECT_EQ(sr.frames(),
            2 * sr_opt.frames_per_message * perfect.transmissions());
  EXPECT_EQ(sw.total_retransmits(), 0u);
  EXPECT_EQ(sr.total_retransmits(), 0u);
}

// ---- P10: both ARQ shapes degenerate to the same walk ------------------
// At loss 0 the sliding window is invisible to the routing layer: on every
// zoo topology, a pipelined window hands back the same arrival, hop for
// hop, as the stop-and-wait preset — the ARQ shape cannot change a walk.

TEST_P(GraphZoo, WindowArqAtZeroLossMatchesStopAndWaitArrivals) {
  if (g_.num_nodes() == 0 || g_.degree(0) == 0) GTEST_SKIP();
  net::WindowOptions sw_opt;
  sw_opt.window = sw_opt.frames_per_message = 1;
  net::WindowTransport sw(g_, /*seed=*/0x5eed000a, {}, sw_opt);
  net::WindowOptions wopt;
  wopt.frames_per_message = 4;
  wopt.window = 2;
  net::WindowTransport sr(g_, /*seed=*/0x5eed000b, {}, wopt);
  util::Pcg32 walk(0xa7);
  graph::NodeId at = 0;
  for (int i = 0; i < 200; ++i) {
    const graph::Port out = walk.next_below(g_.degree(at));
    const net::WindowOutcome a = sw.send(at, out);
    const net::WindowOutcome b = sr.send(at, out);
    ASSERT_TRUE(a.delivered) << "step " << i;
    ASSERT_TRUE(b.delivered) << "step " << i;
    ASSERT_EQ(a.arrival.node, b.arrival.node) << "step " << i;
    ASSERT_EQ(a.arrival.port, b.arrival.port) << "step " << i;
    EXPECT_EQ(a.retransmits, 0u) << "step " << i;
    EXPECT_EQ(b.retransmits, 0u) << "step " << i;
    at = a.arrival.node;
  }
  // Clean links: one DATA + one ACK per frame, no resends anywhere.
  EXPECT_EQ(sr.frames(), 200u * 2 * wopt.frames_per_message);
  EXPECT_EQ(sr.total_retransmits(), 0u);
  EXPECT_EQ(sw.total_retransmits(), 0u);
}

// ---- P11: the fault layer at zero is invisible -------------------------
// The §2.12 fault stack with every knob at zero — an explicit corrupt
// probability of 0.0, an armed FaultPlan sampled at all-zero rates (hence
// empty), an armed scripted no-op plan — must leave a LOSSY selective-
// repeat channel byte-identical: the replay trace, the arrivals, and the
// wire counts all match the plain PR 7 transport on every zoo topology.
// This is the regression pin that lets the fault layer ride inside
// EventSim without ever perturbing pre-chaos replay traces.

TEST_P(GraphZoo, FaultLayerAtZeroIsByteInvisible) {
  if (g_.num_nodes() == 0 || g_.degree(0) == 0) GTEST_SKIP();
  net::WindowOptions wopt;
  wopt.frames_per_message = 3;
  wopt.window = 2;
  wopt.max_retries = 32;
  std::vector<std::string> traces[2];
  std::vector<graph::HalfEdge> arrivals[2];
  std::uint64_t frames[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    net::LinkModel m;
    m.loss = 0.15;  // real retransmissions: deadlines and backoff in play
    m.latency_max = 4;
    if (run == 1) m.corrupt = 0.0;  // the corruption knob, explicitly zero
    net::WindowTransport tr(g_, /*seed=*/0x5eed000c, m, wopt);
    tr.sim().enable_trace(200000);
    if (run == 1) {
      net::ChaosConfig calm;  // every rate zero: samples an empty plan
      net::FaultPlan::sample(g_, calm, 0xfee1).arm(tr.sim());
      net::FaultPlan{}.fresh().arm(tr.sim());  // scripted no-op, fresh()'d
    }
    util::Pcg32 walk(0xb3);
    graph::NodeId at = 0;
    for (int i = 0; i < 120; ++i) {
      const graph::Port out = walk.next_below(g_.degree(at));
      const net::WindowOutcome o = tr.send(at, out);
      ASSERT_TRUE(o.delivered) << "run " << run << " step " << i;
      arrivals[run].push_back({o.arrival.node, o.arrival.port});
      at = o.arrival.node;
    }
    frames[run] = tr.frames();
    traces[run] = tr.sim().trace();
  }
  EXPECT_EQ(arrivals[0], arrivals[1]);
  EXPECT_EQ(frames[0], frames[1]);
  ASSERT_FALSE(traces[0].empty());
  ASSERT_EQ(traces[0].size(), traces[1].size());
  for (std::size_t i = 0; i < traces[0].size(); ++i)
    ASSERT_EQ(traces[0][i], traces[1][i]) << "trace line " << i;
}

// ---- P12: seeded parser fuzzing ----------------------------------------
// A fixed-seed in-repo mutator (no libFuzzer) over the edge list's tokens,
// each newline a token of its own: swap, delete and duplicate tokens, edit
// digits, and plant 0, 2^31, 2^32 - 1, 2^32 and -1 in node and port
// fields.  The header's node count stays at or below 2^20 (at most 4096
// here) unless it is malformed: an n-node graph needs O(n) memory by
// design, so a well-formed header of 2^32 - 1 nodes is a legitimate 32 GB
// request, not a parser fault.

void mutate(std::vector<std::string>& toks, util::Pcg32& rng) {
  static const char* const kField[] = {"0", "2147483648", "4294967295",
                                       "4294967296", "-1"};
  static const char* const kCount[] = {"0", "1", "7", "4096", "-1",
                                       "+3", "4294967296", "x"};
  // toks[0..2] are "uesr-graph", the node count and the header's newline.
  const std::uint32_t op = rng.next_below(6);
  if (op == 5 || toks.size() == 3) {
    toks[1] = kCount[rng.next_below(8)];
    return;
  }
  const auto pick = [&] { return 3 + rng.next_below(toks.size() - 3); };
  const std::size_t i = pick();
  std::string& tok = toks[i];
  if (op == 0) std::swap(tok, toks[pick()]);
  if (op == 1) toks.erase(toks.begin() + i);
  if (op == 2) toks.insert(toks.begin() + pick(), std::string(tok));
  if (op == 3) {  // replace, insert or drop one character
    const std::size_t at = rng.next_below(tok.size() + 1);
    const char digit = static_cast<char>('0' + rng.next_below(10));
    const std::uint32_t how = rng.next_below(3);
    if (how == 0 && at < tok.size()) tok[at] = digit;
    if (how == 1) tok.insert(tok.begin() + at, digit);
    if (how == 2 && at < tok.size()) tok.erase(at, 1);
  }
  if (op == 4) tok = kField[rng.next_below(5)];
}

TEST_P(GraphZoo, MutatedEdgeListsThrowOrRoundTrip) {
  std::vector<std::string> base;
  std::istringstream is(graph::to_edge_list(g_));
  for (std::string line; std::getline(is, line); base.emplace_back("\n")) {
    std::istringstream ls(line);
    for (std::string tok; ls >> tok;) base.push_back(tok);
  }
  util::Pcg32 rng(0xf022);
  int parsed = 0;
  int rejected = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    std::vector<std::string> toks = base;
    for (std::uint32_t e = 1 + rng.next_below(3); e > 0; --e)
      mutate(toks, rng);
    std::string text;
    for (const std::string& t : toks) text += t == "\n" ? t : t + " ";
    try {
      const graph::Graph h = graph::from_edge_list(text);
      ASSERT_EQ(graph::from_edge_list(graph::to_edge_list(h)), h) << text;
      ++parsed;
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

// Random argv over flag-shaped and random tokens: an absent flag reads as
// its default, and a present one's typed getters return or throw
// std::invalid_argument (any other exception fails the test).
TEST(CliFuzz, GettersReturnOrThrowInvalidArgument) {
  static const char* const kToken[] = {
      "--n", "--n=5", "--n=12abc", "--n=9223372036854775808", "--x=1e400",
      "--x=nan", "--x=0x10", "--b=on", "--b=maybe", "--=3", "--", "-", ""};
  static const char kAlphabet[] = "-=0123456789.eE+xnbtrufalsoy ";
  util::Pcg32 rng(0xc11);
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<std::string> args{"prog"};
    for (std::uint32_t k = rng.next_below(6); k > 0; --k) {
      std::string tok = kToken[rng.next_below(13)];
      for (std::uint32_t c = rng.next_below(4); c > 0; --c)
        tok += kAlphabet[rng.next_below(sizeof(kAlphabet) - 1)];
      args.push_back(tok);
    }
    std::vector<const char*> argv;
    for (const std::string& a : args) argv.push_back(a.c_str());
    const util::Cli cli(static_cast<int>(argv.size()), argv.data());
    for (const char* name : {"n", "x", "b", "", "-"}) {
      if (!cli.has(name)) {
        EXPECT_EQ(cli.get(name, "def"), "def");
        EXPECT_EQ(cli.get_int(name, -42), -42);
        EXPECT_EQ(cli.get_double(name, 0.25), 0.25);
        EXPECT_TRUE(cli.get_bool(name, true));
        continue;
      }
      const auto returns_or_names = [](auto getter) {
        try {
          getter();
        } catch (const std::invalid_argument&) {
        }
      };
      returns_or_names([&] { return cli.get_int(name, 0); });
      returns_or_names([&] { return cli.get_double(name, 0.0); });
      returns_or_names([&] { return cli.get_bool(name, false); });
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, GraphZoo,
    ::testing::Values(
        GraphCase{"path7", [] { return graph::path(7); }},
        GraphCase{"cycle9", [] { return graph::cycle(9); }},
        GraphCase{"star5", [] { return graph::star(5); }},
        GraphCase{"k5", [] { return graph::complete(5); }},
        GraphCase{"grid3x4", [] { return graph::grid(3, 4); }},
        GraphCase{"petersen", [] { return graph::petersen(); }},
        GraphCase{"binary_tree11", [] { return graph::binary_tree(11); }},
        GraphCase{"lollipop4_4", [] { return graph::lollipop(4, 4); }},
        GraphCase{"two_triangles",
                  [] {
                    return graph::from_edges(
                        6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
                  }},
        GraphCase{"three_islands",
                  [] {
                    return graph::from_edges(7,
                                             {{0, 1}, {2, 3}, {3, 4}, {2, 4}});
                  }},
        GraphCase{"loopy",
                  [] {
                    graph::GraphBuilder b(3);
                    b.add_edge(0, 1);
                    b.add_edge(0, 0);
                    b.add_half_loop(1);
                    b.add_edge(1, 2);
                    b.add_edge(1, 2);
                    b.add_half_loop(2);
                    return std::move(b).build();
                  }},
        GraphCase{"gnp12", [] { return graph::gnp(12, 0.25, 5); }},
        GraphCase{"cubic10",
                  [] { return graph::random_connected_regular(10, 3, 2); }},
        GraphCase{"tree13", [] { return graph::random_tree(13, 9); }},
        GraphCase{"disk10",
                  [] { return graph::unit_disk_2d(10, 0.45, 21).graph; }}),
    [](const ::testing::TestParamInfo<GraphCase>& info) {
      return info.param.name;
    });

// ---- relabeling invariance ---------------------------------------------
// The walk itself changes under a port relabelling, but Theorem 1's truth
// ("delivered iff reachable") must not.

TEST_P(GraphZoo, DeliveryTruthInvariantUnderRelabeling) {
  if (g_.num_nodes() < 2) GTEST_SKIP();
  util::Pcg32 rng(13);
  for (int trial = 0; trial < 3; ++trial) {
    graph::Graph relabeled = g_.randomly_relabeled(rng);
    core::AdHocNetwork net(relabeled);
    for (graph::NodeId t = 1; t < relabeled.num_nodes(); t += 2)
      EXPECT_EQ(net.route(0, t).delivered, graph::has_path(relabeled, 0, t))
          << "trial " << trial << " t=" << t;
  }
}

TEST_P(GraphZoo, CensusInvariantUnderRelabeling) {
  if (g_.num_nodes() == 0) GTEST_SKIP();
  util::Pcg32 rng(29);
  graph::Graph relabeled = g_.randomly_relabeled(rng);
  core::AdHocNetwork a(g_), b(relabeled);
  EXPECT_EQ(a.count_component(0).original_count,
            b.count_component(0).original_count);
}

// ---- sequence-seed sweep: routing determinism and seed independence ----

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, DeliveryIsSeedIndependentOnConnectedGraph) {
  graph::Graph g = graph::connected_gnp(14, 0.25, 3);
  core::Options opt;
  opt.seed = GetParam();
  core::AdHocNetwork net(g, opt);
  for (graph::NodeId t = 1; t < g.num_nodes(); t += 3)
    EXPECT_TRUE(net.route(0, t).delivered) << "seed " << GetParam();
}

TEST_P(SeedSweep, CensusIsSeedIndependent) {
  graph::Graph g = graph::from_edges(6, {{0, 1}, {1, 2}, {2, 3}, {4, 5}});
  explore::ReducedGraph r = explore::reduce_to_cubic(g);
  auto res = core::count_nodes(r, 0,
                               core::default_sequence_family(GetParam()));
  EXPECT_EQ(res.original_count, 4u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 42ULL, 999ULL,
                                           0xdeadbeefULL, 0x5eed0001ULL,
                                           77777ULL));

}  // namespace
}  // namespace uesr
