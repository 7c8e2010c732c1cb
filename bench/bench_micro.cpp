// E10: micro-benchmarks (google-benchmark) for the per-step costs that
// the paper's complexity claims are built from: symbol evaluation, walk
// steps, rotation-map products, degree reduction, probe round trips, and
// one ARQ message transfer over a lossy link.
// Index row: DESIGN.md §4 / EXPERIMENTS.md (E10) — expected shape lives there.
#include <benchmark/benchmark.h>

#include "core/count_nodes.h"
#include "core/multi_walk.h"
#include "core/route.h"
#include "explore/degree_reduce.h"
#include "explore/sequence.h"
#include "explore/universal.h"
#include "explore/walker.h"
#include "graph/catalog.h"
#include "graph/generators.h"
#include "net/window.h"
#include "reingold/products.h"
#include "reingold/rotation_map.h"

namespace {

using namespace uesr;

void BM_SymbolEvaluation(benchmark::State& state) {
  explore::RandomExplorationSequence seq(1, 1 << 20, 1024);
  std::uint64_t i = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq.symbol(i));
    i = i % (1 << 20) + 1;
  }
}
BENCHMARK(BM_SymbolEvaluation);

// Block symbol generation (ExplorationSequence::fill): the "after" shape of
// symbol access — one virtual call per block, counter hashes pipelined.
// Compare per-item time against BM_SymbolEvaluation.
void BM_SymbolFillBlock(benchmark::State& state) {
  explore::RandomExplorationSequence seq(1, 1 << 20, 1024);
  std::vector<explore::Symbol> block(
      static_cast<std::size_t>(state.range(0)));
  std::uint64_t i = 1;
  for (auto _ : state) {
    if (i + block.size() - 1 > seq.length()) i = 1;
    seq.fill(i, block.size(), block.data());
    i += block.size();
    benchmark::DoNotOptimize(block.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(block.size()));
}
BENCHMARK(BM_SymbolFillBlock)->Arg(64)->Arg(1024)->Arg(4096);

// Raw CSR rotation-map lookups, chained so each load depends on the last
// (the walk's true access pattern).  The 3-regular fast path is what every
// reduced-graph step pays.
void BM_FlatRotate(benchmark::State& state) {
  graph::Graph g = graph::random_connected_regular(
      static_cast<graph::NodeId>(state.range(0)), 3, 7);
  graph::HalfEdge he{0, 0};
  for (auto _ : state) {
    he = g.rotate3(he.node, he.port < 2 ? he.port + 1 : 0);
    benchmark::DoNotOptimize(he);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatRotate)->Arg(64)->Arg(16384);

// One full forward walk step, symbols consumed from fill() blocks exactly
// as the rewritten step loops (trace_walk, cover_time, RouteSession) do.
void BM_ForwardStep(benchmark::State& state) {
  graph::Graph g = graph::random_connected_regular(
      static_cast<graph::NodeId>(state.range(0)), 3, 7);
  explore::RandomExplorationSequence seq(2, 1 << 20, g.num_nodes());
  std::vector<explore::Symbol> block(explore::SymbolStream::kBlock);
  graph::HalfEdge d{0, 0};
  std::uint64_t i = 1;
  std::size_t pos = block.size();
  for (auto _ : state) {
    if (pos == block.size()) {
      if (i + block.size() - 1 > seq.length()) i = 1;
      seq.fill(i, block.size(), block.data());
      i += block.size();
      pos = 0;
    }
    d = explore::forward_step(g, d, block[pos++]);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForwardStep)->Arg(64)->Arg(1024)->Arg(16384);

void BM_RouteSessionStep(benchmark::State& state) {
  graph::Graph g = graph::random_connected_regular(256, 3, 9);
  explore::ReducedGraph red = explore::reduce_to_cubic(g);
  auto seq = explore::standard_ues(red.cubic.num_nodes());
  core::RouteSession session(red, *seq, 0, 255);
  for (auto _ : state) {
    if (session.finished())
      session = core::RouteSession(red, *seq, 0, 255);
    session.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouteSessionStep);

// Shared fixture for the multi-walk rows: one 2M-node cubic network whose
// rotation map (~72 MB packed) misses per-core cache the way a 10^6-node
// deployment does, so the SoA kernel's memory-level parallelism — not
// arithmetic — is what's measured.
const explore::ReducedGraph& multi_walk_net() {
  static const explore::ReducedGraph net = explore::reduce_to_cubic(
      graph::random_connected_regular(2'000'000, 3, 7));
  return net;
}

const explore::ExplorationSequence& multi_walk_seq() {
  static const auto seq =
      explore::standard_ues(multi_walk_net().cubic.num_nodes());
  return *seq;
}

// SoA block kernel: `lanes` concurrent walks stepped 64 slots per call
// (the engine's batch).  items/s = transmissions/s; compare against
// BM_SequentialWalkStep64's 64 scalar sessions for the E10 speedup row
// (acceptance: the 64-lane row is >= 2x the sequential baseline).
void BM_MultiWalkStep(benchmark::State& state) {
  const auto& net = multi_walk_net();
  const auto& seq = multi_walk_seq();
  const auto n = static_cast<graph::NodeId>(net.first_gadget.size());
  const auto lanes = static_cast<std::size_t>(state.range(0));
  core::MultiWalkArena arena(net, seq);
  std::vector<std::size_t> walks;
  std::uint64_t admitted = 0;
  auto fresh_pair = [&](graph::NodeId* s, graph::NodeId* t) {
    *s = static_cast<graph::NodeId>((admitted * 97 + 13) % n);
    *t = static_cast<graph::NodeId>((*s + n / 2 + 1 + admitted) % n);
    if (*t == *s) *t = (*s + 1) % n;
    ++admitted;
  };
  for (std::size_t i = 0; i < lanes; ++i) {
    graph::NodeId s, t;
    fresh_pair(&s, &t);
    walks.push_back(arena.admit(s, t));
  }
  const std::vector<std::uint64_t> budgets(lanes, 64);
  for (auto _ : state) {
    arena.step_block(walks.data(), walks.size(), budgets.data());
    // Recycle delivered walks so every iteration steps a full block
    // (expander hit times are ~n, well within a long bench run).
    for (std::size_t& w : walks)
      if (arena.finished(w)) {
        graph::NodeId s, t;
        fresh_pair(&s, &t);
        w = arena.admit(s, t);
      }
    benchmark::ClobberMemory();
  }
  std::uint64_t tx = 0;
  for (std::size_t w = 0; w < arena.size(); ++w) tx += arena.transmissions(w);
  state.counters["lanes"] = static_cast<double>(lanes);
  state.SetItemsProcessed(static_cast<std::int64_t>(tx));
}
BENCHMARK(BM_MultiWalkStep)->Arg(8)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

// The "before" shape: the same 64 walks as scalar RouteSessions, each
// granted 64 slots in turn — one dependent load chain at a time, no
// cross-walk overlap.
void BM_SequentialWalkStep64(benchmark::State& state) {
  const auto& net = multi_walk_net();
  const auto& seq = multi_walk_seq();
  const auto n = static_cast<graph::NodeId>(net.first_gadget.size());
  std::vector<core::RouteSession> sessions;
  std::uint64_t admitted = 0;
  auto fresh = [&]() {
    const auto s = static_cast<graph::NodeId>((admitted * 97 + 13) % n);
    auto t = static_cast<graph::NodeId>((s + n / 2 + 1 + admitted) % n);
    if (t == s) t = (s + 1) % n;
    ++admitted;
    return core::RouteSession(net, seq, s, t);
  };
  for (std::size_t i = 0; i < 64; ++i) sessions.push_back(fresh());
  std::uint64_t tx = 0;
  for (auto _ : state) {
    for (core::RouteSession& session : sessions) {
      if (session.finished()) session = fresh();
      std::uint64_t used = 0;
      std::uint64_t calls = 2 * 64 + 8;
      while (!session.finished() && used < 64 && calls-- > 0) {
        const std::uint64_t before = session.transmissions();
        session.step();
        used += session.transmissions() - before;
      }
      tx += used;
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tx));
}
BENCHMARK(BM_SequentialWalkStep64)->Unit(benchmark::kMicrosecond);

void BM_DegreeReduction(benchmark::State& state) {
  graph::Graph g = graph::gnp(static_cast<graph::NodeId>(state.range(0)),
                              8.0 / state.range(0), 3);
  for (auto _ : state) {
    auto r = explore::reduce_to_cubic(g);
    benchmark::DoNotOptimize(r.cubic.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
}
BENCHMARK(BM_DegreeReduction)->Arg(256)->Arg(2048)->Arg(16384);

void BM_RotationProductQuery(benchmark::State& state) {
  using namespace uesr::reingold;
  auto g = share(pad_to_regular(graph::cycle(64), 16));
  auto h = share(DenseRotationMap::from_graph(graph::cycle(16)));
  auto zz = power(zigzag(g, h), 2);
  std::uint64_t v = 0;
  std::uint32_t e = 0;
  for (auto _ : state) {
    Place p = zz->rotate({v % zz->num_vertices(), e % zz->degree()});
    benchmark::DoNotOptimize(p);
    v += 17;
    e += 3;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RotationProductQuery);

void BM_RetrieveProbe(benchmark::State& state) {
  graph::Graph g = graph::cycle(16);
  explore::ReducedGraph red = explore::reduce_to_cubic(g);
  auto seq = explore::standard_ues(red.cubic.num_nodes());
  std::uint64_t tx = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::retrieve(red, *seq, 0, static_cast<std::uint64_t>(state.range(0)),
                       tx));
  }
  state.SetItemsProcessed(state.iterations() * 2 * (state.range(0) + 1));
}
BENCHMARK(BM_RetrieveProbe)->Arg(16)->Arg(256)->Arg(4096);

// One selective-repeat message across one edge at loss 0.1: the per-hop
// cost of a lossy route — ARQ plus the EventSim run queue under it — which
// none of the engine rows above touch.  Args: window, frames per message.
void BM_WindowTransfer(benchmark::State& state) {
  const graph::Graph g = graph::cycle(8);
  net::LinkModel link;
  link.loss = 0.1;
  net::WindowOptions opt;
  opt.window = static_cast<std::uint32_t>(state.range(0));
  opt.frames_per_message = static_cast<std::uint32_t>(state.range(1));
  opt.max_retries = 16;
  net::WindowTransport arq(g, 7, link, opt);
  for (auto _ : state) benchmark::DoNotOptimize(arq.send(0, 0));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowTransfer)->Args({2, 2})->Args({16, 16});

// The same transfer on the graph every lossy lane runs on: a cubic
// reduction (of grid(32, 32), 3,972 gadgets), each transfer on the next
// half-edge in index order so the per-link channel keys vary.
void BM_WindowTransferCubic(benchmark::State& state) {
  const explore::ReducedGraph net =
      explore::reduce_to_cubic(graph::grid(32, 32));
  net::LinkModel link;
  link.loss = 0.1;
  net::WindowOptions opt;
  opt.window = static_cast<std::uint32_t>(state.range(0));
  opt.frames_per_message = static_cast<std::uint32_t>(state.range(1));
  opt.max_retries = 16;
  net::WindowTransport arq(net.cubic, 7, link, opt);
  const std::uint64_t half_edges = 3ULL * net.cubic.num_nodes();
  std::uint64_t h = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(arq.send(static_cast<graph::NodeId>(h / 3),
                                      static_cast<graph::Port>(h % 3)));
    if (++h == half_edges) h = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WindowTransferCubic)->Args({2, 2})->Args({16, 16});

void BM_CoverCheck(benchmark::State& state) {
  graph::Graph g = graph::random_connected_regular(
      static_cast<graph::NodeId>(state.range(0)), 3, 5);
  explore::RandomExplorationSequence seq(3, 64ULL * state.range(0) *
                                                state.range(0),
                                         g.num_nodes());
  for (auto _ : state) {
    benchmark::DoNotOptimize(explore::cover_time(g, {0, 0}, seq));
  }
}
BENCHMARK(BM_CoverCheck)->Arg(16)->Arg(64);

// Parallel verification harness (DESIGN.md §"Parallel verification
// harness").  Each benchmark carries a `threads` counter so BENCH_micro.json
// rows can be compared across thread counts next to the retained serial
// baselines above; the checked reports are bit-identical at every thread
// count — only the wall clock moves.

// covers_all_starts fanned over all 3n start half-edges of one cubic graph.
void BM_CoverCheckParallel(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  graph::Graph g = graph::random_connected_regular(64, 3, 5);
  explore::RandomExplorationSequence seq(3, 64ULL * 64 * 64, g.num_nodes());
  for (auto _ : state) {
    benchmark::DoNotOptimize(explore::covers_all_starts(g, seq, threads));
  }
  state.counters["threads"] = threads;
  state.SetItemsProcessed(state.iterations() * 3 * 64);  // walks
}
BENCHMARK(BM_CoverCheckParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Definition-3 exhaustive check, whole labelling space of the first n=6
// catalogue graph: 6^6 = 46656 labellings x 18 start edges, sharded by
// mixed-radix rank across workers.  The sequence covers every labelling
// (verified), so the sweep never early-exits and the measured work is the
// full space.
void BM_UniversalExhaustive(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  graph::Graph g = graph::connected_cubic_graphs(6, 1).front();
  explore::RandomExplorationSequence seq(0x5eed, 2048, 6);
  std::uint64_t walks = 0;
  for (auto _ : state) {
    auto rep = explore::check_universal_exhaustive(g, seq, threads);
    walks += rep.walks_checked;
    benchmark::DoNotOptimize(rep.universal);
  }
  state.counters["threads"] = threads;
  state.SetItemsProcessed(static_cast<std::int64_t>(walks));
}
BENCHMARK(BM_UniversalExhaustive)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The n=8 catalogue regime: a fixed 6^5-labelling shard (x 24 start edges)
// of the first 8-vertex cubic graph via check_universal_exhaustive_range —
// the same rank sharding that distributes the full 6^8 sweep across
// machines.
void BM_UniversalExhaustiveShard8(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  graph::Graph g = graph::connected_cubic_graphs(8, 1).front();
  explore::RandomExplorationSequence seq(0x5eed, 4096, 8);
  std::uint64_t walks = 0;
  for (auto _ : state) {
    auto rep = explore::check_universal_exhaustive_range(g, seq, 0, 7776,
                                                         threads);
    walks += rep.walks_checked;
    benchmark::DoNotOptimize(rep.universal);
  }
  state.counters["threads"] = threads;
  state.SetItemsProcessed(static_cast<std::int64_t>(walks));
}
BENCHMARK(BM_UniversalExhaustiveShard8)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
