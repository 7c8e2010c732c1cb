// Property tests pinning the SoA multi-walk kernel to RouteSession — the
// single-walk path stays the executable specification, and the arena must
// match it step for step: identical transmission counts, identical
// positions after every granted budget, identical verdicts.
#include "core/multi_walk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "core/route.h"
#include "explore/degree_reduce.h"
#include "explore/sequence.h"
#include "graph/generators.h"

namespace uesr::core {
namespace {

using explore::ReducedGraph;
using graph::NodeId;

/// The engine's slot-grant loop over the scalar reference: steps until the
/// budget is spent or the session finished (free steps use no budget).
void grant(RouteSession& s, std::uint64_t budget) {
  std::uint64_t used = 0;
  std::uint64_t calls = 2 * budget + 8;
  while (!s.finished() && used < budget && calls-- > 0) {
    const std::uint64_t before = s.transmissions();
    s.step();
    used += s.transmissions() - before;
  }
}

/// Asserts the arena walk and the reference session are in the same state.
void expect_lockstep(const MultiWalkArena& arena, std::size_t w,
                     const RouteSession& ref, const char* where) {
  ASSERT_EQ(arena.transmissions(w), ref.transmissions()) << where;
  ASSERT_EQ(arena.finished(w), ref.finished()) << where;
  ASSERT_EQ(arena.target_reached(w), ref.target_reached()) << where;
  ASSERT_EQ(arena.current_original(w), ref.current_original()) << where;
  if (ref.finished()) {
    ASSERT_EQ(arena.delivered(w), ref.status() == net::Status::kSuccess)
        << where;
  }
}

TEST(MultiWalk, SingleWalkLockstepEveryTransmission) {
  const graph::Graph g = graph::random_connected_regular(24, 3, 42);
  const ReducedGraph net = explore::reduce_to_cubic(g);
  const auto seq = explore::standard_ues(net.cubic.num_nodes(), 7);
  for (NodeId s = 0; s < 6; ++s)
    for (NodeId t = 6; t < 10; ++t) {
      MultiWalkArena arena(net, *seq);
      RouteSession ref(net, *seq, s, t);
      const std::size_t w = arena.admit(s, t);
      std::uint64_t guard = 10'000'000;
      while (!ref.finished() && guard-- > 0) {
        arena.step_walk(w, 1);
        grant(ref, 1);
        expect_lockstep(arena, w, ref, "budget-1 lockstep");
      }
      ASSERT_TRUE(ref.finished());
      ASSERT_TRUE(arena.finished(w));
    }
}

// The §2.8 restart: after rebind() to another epoch's network, a restarted
// walk runs exactly like a fresh RouteSession there, on top of the
// transmissions it already spent.
TEST(MultiWalk, RestartAfterRebindMatchesFreshWalk) {
  const ReducedGraph net_a =
      explore::reduce_to_cubic(graph::random_connected_regular(24, 3, 42));
  const ReducedGraph net_b =
      explore::reduce_to_cubic(graph::connected_gnp(24, 0.2, 9));
  const auto seq_a = explore::standard_ues(net_a.cubic.num_nodes(), 7);
  const auto seq_b = explore::standard_ues(net_b.cubic.num_nodes(), 7);
  for (NodeId s = 0; s < 4; ++s) {
    const NodeId t = 23 - s;
    MultiWalkArena arena(net_a, *seq_a);
    const std::size_t w = arena.admit(s, t);
    arena.step_walk(w, 5 + s);
    ASSERT_FALSE(arena.finished(w));
    const std::uint64_t spent = arena.transmissions(w);
    arena.rebind(net_b, *seq_b);
    arena.restart(w, s, t);
    RouteSession ref(net_b, *seq_b, s, t);
    std::uint64_t guard = 10'000'000;
    while (!ref.finished() && guard-- > 0) {
      arena.step_walk(w, 3);
      grant(ref, 3);
      ASSERT_EQ(arena.transmissions(w), spent + ref.transmissions());
      ASSERT_EQ(arena.current_original(w), ref.current_original());
    }
    ASSERT_TRUE(arena.finished(w));
    EXPECT_EQ(arena.delivered(w), ref.status() == net::Status::kSuccess);
  }
}

/// A wheel on `n` nodes around hub `hub`: the rim cycle over the other
/// nodes in id order, spokes to the first `spokes` of them, plus `chords`.
graph::Graph wheel(NodeId n, NodeId hub, NodeId spokes,
                   const std::vector<std::pair<NodeId, NodeId>>& chords) {
  std::vector<NodeId> rim;
  for (NodeId v = 0; v < n; ++v)
    if (v != hub) rim.push_back(v);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 0; i < spokes; ++i) edges.emplace_back(hub, rim[i]);
  for (std::size_t i = 0; i < rim.size(); ++i)
    edges.emplace_back(rim[i], rim[(i + 1) % rim.size()]);
  edges.insert(edges.end(), chords.begin(), chords.end());
  return graph::from_edges(n, edges);
}

// "At target" is a range test over t's gadgets.  A hub of degree 20 owns
// 20 gadgets, and walks arriving over its spokes land on whichever gadget
// carries that spoke, mostly not the entry one.  Its id neighbours 4 and 6
// own gadgets first - 1 and first + count, which must not count for the
// hub, nor the hub's for them.
TEST(MultiWalk, HighDegreeTargetRangeMatchesReference) {
  const NodeId hub = 5;
  const ReducedGraph net = explore::reduce_to_cubic(wheel(21, hub, 20, {}));
  ASSERT_EQ(net.gadget_count[hub], 20u);
  ASSERT_EQ(net.original_of[net.first_gadget[hub] - 1], hub - 1);
  ASSERT_EQ(net.original_of[net.first_gadget[hub] + 20], hub + 1);
  const auto seq = explore::standard_ues(net.cubic.num_nodes(), 13);
  for (NodeId t : {hub, NodeId{4}, NodeId{6}})
    for (NodeId s : {0, 3, 4, 6, 9, 14, 20}) {
      if (s == t) continue;
      MultiWalkArena arena(net, *seq);
      RouteSession ref(net, *seq, s, t);
      const std::size_t w = arena.admit(s, t);
      std::uint64_t guard = 1'000'000;
      while (!ref.finished() && guard-- > 0) {
        arena.step_walk(w, 1);
        grant(ref, 1);
        expect_lockstep(arena, w, ref, "high-degree target");
      }
      ASSERT_TRUE(arena.finished(w));
      EXPECT_TRUE(arena.delivered(w));
    }
}

// restart() re-derives t's gadget range on the new network.  Epoch 1
// drops half the hub's spokes and adds chords, so every target's
// first_gadget moves, and the hub's and node 12's gadget_count too.
TEST(MultiWalk, RestartMovesTheTargetRange) {
  const NodeId hub = 5;
  const ReducedGraph net_a =
      explore::reduce_to_cubic(wheel(21, hub, 20, {}));
  const ReducedGraph net_b = explore::reduce_to_cubic(
      wheel(21, hub, 10, {{0, 2}, {1, 3}, {12, 15}, {12, 18}}));
  for (NodeId t : {hub, NodeId{12}})
    ASSERT_NE(net_a.gadget_count[t], net_b.gadget_count[t]);
  const auto seq_a = explore::standard_ues(net_a.cubic.num_nodes(), 7);
  const auto seq_b = explore::standard_ues(net_b.cubic.num_nodes(), 7);
  for (NodeId t : {hub, NodeId{6}, NodeId{12}}) {
    ASSERT_NE(net_a.first_gadget[t], net_b.first_gadget[t]);
    for (NodeId s : {1, 8, 17}) {
      MultiWalkArena arena(net_a, *seq_a);
      const std::size_t w = arena.admit(s, t);
      arena.step_walk(w, 2 + s % 3);
      ASSERT_FALSE(arena.finished(w));
      const std::uint64_t spent = arena.transmissions(w);
      arena.rebind(net_b, *seq_b);
      arena.restart(w, s, t);
      RouteSession ref(net_b, *seq_b, s, t);
      std::uint64_t guard = 1'000'000;
      while (!ref.finished() && guard-- > 0) {
        arena.step_walk(w, 1);
        grant(ref, 1);
        ASSERT_EQ(arena.transmissions(w), spent + ref.transmissions());
        ASSERT_EQ(arena.target_reached(w), ref.target_reached());
        ASSERT_EQ(arena.current_original(w), ref.current_original());
        ASSERT_EQ(arena.finished(w), ref.finished());
      }
      ASSERT_TRUE(arena.finished(w));
      EXPECT_EQ(arena.delivered(w), ref.status() == net::Status::kSuccess);
    }
  }
}

TEST(MultiWalk, IrregularBudgetPatternMatchesReference) {
  // Budgets that straddle turn-around and terminate ticks in every phase
  // relation: the grant partition must never be observable.
  const graph::Graph g = graph::lollipop(7, 9);
  const ReducedGraph net = explore::reduce_to_cubic(g);
  const auto seq = explore::standard_ues(net.cubic.num_nodes(), 3);
  const std::uint64_t budgets[] = {1, 3, 64, 7, 2, 128, 5, 1, 31};
  for (NodeId t : {NodeId{3}, NodeId{12}, NodeId{15}}) {
    MultiWalkArena arena(net, *seq);
    RouteSession ref(net, *seq, 0, t);
    const std::size_t w = arena.admit(0, t);
    std::size_t b = 0;
    std::uint64_t guard = 10'000'000;
    while (!ref.finished() && guard-- > 0) {
      const std::uint64_t budget = budgets[b++ % std::size(budgets)];
      arena.step_walk(w, budget);
      grant(ref, budget);
      expect_lockstep(arena, w, ref, "irregular budgets");
    }
    ASSERT_TRUE(arena.finished(w));
  }
}

TEST(MultiWalk, FullBlockMatchesSixtyFourReferenceSessions) {
  // One arena block of 64 concurrent walks vs 64 scalar sessions: block
  // stepping (slot-major, prefetched, shared symbol windows) must be
  // invisible in every per-walk outcome.
  const graph::Graph g = graph::random_connected_regular(32, 3, 9);
  const ReducedGraph net = explore::reduce_to_cubic(g);
  const auto seq = explore::standard_ues(net.cubic.num_nodes(), 5);
  MultiWalkArena arena(net, *seq);
  std::vector<RouteSession> refs;
  std::vector<std::size_t> walks;
  for (std::size_t i = 0; i < 64; ++i) {
    const NodeId s = static_cast<NodeId>(i % 32);
    const NodeId t = static_cast<NodeId>((i * 7 + 5) % 32);
    if (s == t) continue;
    refs.emplace_back(net, *seq, s, t);
    walks.push_back(arena.admit(s, t));
  }
  const std::vector<std::uint64_t> budgets(walks.size(), 64);
  bool all_done = false;
  std::uint64_t guard = 1'000'000;
  while (!all_done && guard-- > 0) {
    arena.step_block(walks.data(), walks.size(), budgets.data());
    all_done = true;
    for (std::size_t i = 0; i < walks.size(); ++i) {
      grant(refs[i], 64);
      expect_lockstep(arena, walks[i], refs[i], "block of 64");
      all_done = all_done && refs[i].finished();
    }
  }
  ASSERT_TRUE(all_done);
}

TEST(MultiWalk, HeterogeneousBudgetsInOneBlockMatchReference) {
  // One step_block call per round with a different budget per walk —
  // idle (0), single-slot, short, full-round and random — must keep
  // every walk in lockstep with its scalar reference: each lane leaves
  // the sweep at its own budget, mid-rewind terminates included.
  const graph::Graph g = graph::random_connected_regular(32, 3, 9);
  const ReducedGraph net = explore::reduce_to_cubic(g);
  const auto seq = explore::standard_ues(net.cubic.num_nodes(), 5);
  MultiWalkArena arena(net, *seq);
  std::vector<RouteSession> refs;
  std::vector<std::size_t> walks;
  for (std::size_t i = 0; i < 150; ++i) {  // spans three blocks
    const NodeId s = static_cast<NodeId>(i % 32);
    const NodeId t = static_cast<NodeId>((i * 11 + 3) % 32);
    if (s == t) continue;
    refs.emplace_back(net, *seq, s, t);
    walks.push_back(arena.admit(s, t));
  }
  const std::uint64_t fixed[] = {0, 1, 3, 64};
  std::vector<std::uint64_t> budgets(walks.size());
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  bool all_done = false;
  for (int round = 0; !all_done && round < 100'000; ++round) {
    for (std::size_t i = 0; i < budgets.size(); ++i) {
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      budgets[i] = (i + round) % 5 < 4 ? fixed[(i + round) % 5]
                                       : (rng >> 33) % 100;
    }
    arena.step_block(walks.data(), walks.size(), budgets.data());
    all_done = true;
    for (std::size_t i = 0; i < walks.size(); ++i) {
      grant(refs[i], budgets[i]);
      expect_lockstep(arena, walks[i], refs[i], "heterogeneous budgets");
      all_done = all_done && refs[i].finished();
    }
  }
  ASSERT_TRUE(all_done);
}

/// Forwards to a real sequence and counts the symbols it is asked for.
class CountingSequence final : public explore::ExplorationSequence {
 public:
  explicit CountingSequence(const explore::ExplorationSequence& inner)
      : inner_(inner) {}
  std::uint64_t length() const override { return inner_.length(); }
  explore::Symbol symbol(std::uint64_t i) const override {
    ++symbols_;
    return inner_.symbol(i);
  }
  void fill(std::uint64_t i_begin, std::uint64_t count,
            explore::Symbol* out) const override {
    symbols_ += count;
    inner_.fill(i_begin, count, out);
  }
  graph::NodeId target_size() const override { return inner_.target_size(); }
  std::string name() const override { return inner_.name(); }
  std::uint64_t symbols() const { return symbols_; }

 private:
  const explore::ExplorationSequence& inner_;
  mutable std::uint64_t symbols_ = 0;
};

TEST(MultiWalk, SymbolWorkNeverOutrunsTheWalk) {
  // Symbols are a pure function of the index and the arena memoizes them
  // in one prefix that at most doubles per growth, so however finely the
  // slots are granted, the symbols computed stay within twice the deepest
  // index the walk reached plus the 1024-symbol first growth.  Symbol work
  // that scaled with grants instead (one refill per one-slot call) breaks
  // the bound.
  const graph::Graph g = graph::lollipop(7, 9);
  const ReducedGraph net = explore::reduce_to_cubic(g);
  const auto inner = explore::standard_ues(net.cubic.num_nodes(), 3);
  const CountingSequence seq(*inner);
  for (NodeId t : {NodeId{12}, NodeId{15}}) {
    MultiWalkArena arena(net, seq);
    RouteSession ref(net, *inner, 0, t);
    const std::size_t w = arena.admit(0, t);
    std::uint64_t calls = 0;
    std::uint64_t deepest = 0;
    const std::uint64_t before = seq.symbols();
    while (!arena.finished(w) && calls < 10'000'000) {
      arena.step_walk(w, 1);
      ++calls;
      deepest = std::max(deepest, arena.index(w));
      ASSERT_LE(seq.symbols() - before, 2 * deepest + 1024)
          << "call " << calls;
    }
    ASSERT_TRUE(arena.finished(w));
    while (!ref.finished()) ref.step();
    EXPECT_EQ(arena.transmissions(w), ref.transmissions());
    EXPECT_GT(calls, seq.symbols() - before);  // far fewer symbols than calls
  }
}

TEST(MultiWalk, SymbolsNearTwoToThe32StayInLockstep) {
  // The arena stores t_j mod 3; RouteSession reduces t_j before adding
  // the port.  Symbols whose uint32 sum with a port wraps must give the
  // same walk on both, forward to the target or to exhaustion and back.
  const graph::Graph g = graph::disjoint_copies(graph::lollipop(4, 3), 2);
  const ReducedGraph net = explore::reduce_to_cubic(g);
  const explore::Symbol big[] = {0xFFFFFFFFu, 0xFFFFFFFEu, 1, 2, 0xFFFFFFFEu};
  std::vector<explore::Symbol> symbols;
  for (int i = 0; i < 3000; ++i)
    symbols.push_back(big[(i * 3 + i / 11) % std::size(big)]);
  const explore::FixedExplorationSequence seq(symbols, net.cubic.num_nodes(),
                                              "big");
  for (NodeId t : {NodeId{3}, NodeId{6}, NodeId{9}}) {  // 9: other copy
    MultiWalkArena arena(net, seq);
    RouteSession ref(net, seq, 0, t);
    const std::size_t w = arena.admit(0, t);
    std::uint64_t guard = 100'000;
    while (!ref.finished() && guard-- > 0) {
      arena.step_walk(w, 1);
      grant(ref, 1);
      expect_lockstep(arena, w, ref, "symbols near 2^32");
    }
    ASSERT_TRUE(arena.finished(w));
  }
}

TEST(MultiWalk, CertificateWalkCrossesThePrefixCap) {
  // A 300-gadget reduction has T_n of 24 * 300^2 * 9 = 19,440,000
  // symbols, past the 2^24-symbol prefix.  A walk to the other component
  // runs all of it forward and rewinds it, crossing the cap both ways;
  // symbol by symbol near the cap it must match RouteSession.
  const graph::Graph g =
      graph::disjoint_copies(graph::random_connected_regular(50, 3, 5), 2);
  const ReducedGraph net = explore::reduce_to_cubic(g);
  const auto inner = explore::standard_ues(net.cubic.num_nodes(), 3);
  constexpr std::uint64_t kCap = MultiWalkArena::kPrefixCap;
  ASSERT_GT(inner->length(), kCap + 4096);
  const CountingSequence seq(*inner);
  MultiWalkArena arena(net, seq);
  RouteSession ref(net, *inner, 0, 70);  // 70 lives in the other copy
  const std::size_t w = arena.admit(0, 70);
  bool crossed_forward = false;
  std::uint64_t guard = 10'000'000;
  while (!ref.finished() && guard-- > 0) {
    const std::uint64_t j = arena.index(w);
    const std::uint64_t budget = j + 64 > kCap && j < kCap + 64 ? 1 : 4093;
    arena.step_walk(w, budget);
    grant(ref, budget);
    expect_lockstep(arena, w, ref, "across the prefix cap");
    crossed_forward = crossed_forward || arena.index(w) > kCap;
  }
  ASSERT_TRUE(crossed_forward);
  ASSERT_TRUE(arena.finished(w));
  EXPECT_FALSE(arena.delivered(w));
  EXPECT_EQ(arena.symbol_prefix_bytes(), kCap / 4);
  // The prefix is filled once; every symbol past it is hashed once going
  // forward and once rewinding.
  EXPECT_EQ(seq.symbols(), kCap + 2 * (inner->length() - kCap));
}

TEST(MultiWalk, RebindDropsThePrefixEvenAtTheSameAddress) {
  // After an epoch change the new sequence may live where the old one did;
  // the arena must read the new symbols, not the old prefix.
  const ReducedGraph net =
      explore::reduce_to_cubic(graph::lollipop(7, 9));
  auto symbols_of = [&](std::uint64_t seed) {
    const auto src = explore::standard_ues(net.cubic.num_nodes(), seed);
    std::vector<explore::Symbol> out(20'000);
    src->fill(1, out.size(), out.data());
    return out;
  };
  std::optional<explore::FixedExplorationSequence> seq;
  seq.emplace(symbols_of(1), net.cubic.num_nodes(), "epoch 0");
  const explore::ExplorationSequence* first = &*seq;
  MultiWalkArena arena(net, *seq);
  const std::size_t w = arena.admit(0, 15);
  arena.step_walk(w, 500);  // grows the prefix over epoch 0's symbols
  ASSERT_GT(arena.symbol_prefix_bytes(), 0u);
  seq.reset();
  seq.emplace(symbols_of(2), net.cubic.num_nodes(), "epoch 1");
  ASSERT_EQ(first, &*seq);
  arena.rebind(net, *seq);
  arena.restart(w, 0, 15);
  const std::uint64_t spent = arena.transmissions(w);
  RouteSession ref(net, *seq, 0, 15);
  std::uint64_t guard = 1'000'000;
  while (!ref.finished() && guard-- > 0) {
    arena.step_walk(w, 7);
    grant(ref, 7);
    ASSERT_EQ(arena.transmissions(w), spent + ref.transmissions());
    ASSERT_EQ(arena.current_original(w), ref.current_original());
  }
  ASSERT_TRUE(arena.finished(w));
  EXPECT_EQ(arena.delivered(w), ref.status() == net::Status::kSuccess);
}

TEST(MultiWalk, PartitionIntoBlocksIsInvisible) {
  // Stepping a walk set as one step_block call, as per-walk calls, or in
  // arbitrary sub-blocks yields bit-identical per-walk outcomes — the
  // property shard-count invariance rests on.
  const graph::Graph g = graph::petersen();
  const ReducedGraph net = explore::reduce_to_cubic(g);
  const auto seq = explore::standard_ues(net.cubic.num_nodes(), 1);
  auto make = [&](MultiWalkArena& a, std::vector<std::size_t>& w) {
    for (NodeId s = 0; s < 10; ++s)
      w.push_back(a.admit(s, (s + 4) % 10));
  };
  MultiWalkArena whole(net, *seq), split(net, *seq);
  std::vector<std::size_t> ww, sw;
  make(whole, ww);
  make(split, sw);
  const std::vector<std::uint64_t> sixteen(ww.size(), 16);
  for (int round = 0; round < 2000; ++round) {
    whole.step_block(ww.data(), ww.size(), sixteen.data());
    split.step_block(sw.data(), 3, sixteen.data());      // ids 0..2
    split.step_block(sw.data() + 3, 4, sixteen.data());  // ids 3..6
    for (std::size_t i = 7; i < sw.size(); ++i) split.step_walk(sw[i], 16);
  }
  for (std::size_t i = 0; i < ww.size(); ++i) {
    EXPECT_EQ(whole.transmissions(ww[i]), split.transmissions(sw[i])) << i;
    EXPECT_EQ(whole.finished(ww[i]), split.finished(sw[i])) << i;
    EXPECT_EQ(whole.delivered(ww[i]), split.delivered(sw[i])) << i;
    EXPECT_TRUE(whole.finished(ww[i])) << i;  // petersen walks are short
  }
}

TEST(MultiWalk, FailureCertificateOnDisconnectedTarget) {
  // Two disjoint clusters: cross-cluster walks must exhaust the sequence
  // and come back failure-certified, exactly like the reference.
  const graph::Graph g = graph::disjoint_copies(graph::k4(), 2);
  const ReducedGraph net = explore::reduce_to_cubic(g);
  const auto seq = explore::standard_ues(net.cubic.num_nodes(), 11);
  MultiWalkArena arena(net, *seq);
  const std::size_t w = arena.admit(0, 5);  // cluster 0 -> cluster 1
  RouteSession ref(net, *seq, 0, 5);
  while (!ref.finished()) ref.step();
  arena.step_walk(w, ref.transmissions() + 8);
  ASSERT_TRUE(arena.finished(w));
  EXPECT_FALSE(arena.delivered(w));
  EXPECT_FALSE(ref.status() == net::Status::kSuccess);
  EXPECT_EQ(arena.transmissions(w), ref.transmissions());
}

TEST(MultiWalk, RejectsDegenerateAndOutOfRange) {
  const ReducedGraph net = explore::reduce_to_cubic(graph::k4());
  const auto seq = explore::standard_ues(net.cubic.num_nodes(), 1);
  MultiWalkArena arena(net, *seq);
  EXPECT_THROW(arena.admit(1, 1), std::invalid_argument);
  EXPECT_THROW(arena.admit(4, 0), std::invalid_argument);
  EXPECT_THROW(arena.admit(0, 4), std::invalid_argument);
}

TEST(MultiWalk, RejectsOutOfRangeWalkIds) {
  const ReducedGraph net = explore::reduce_to_cubic(graph::petersen());
  const auto seq = explore::standard_ues(net.cubic.num_nodes(), 1);
  MultiWalkArena arena(net, *seq);
  const std::size_t a = arena.admit(0, 5);
  const std::size_t b = arena.admit(1, 6);
  // A hostile id anywhere in the call throws by name before any walk
  // moves, the valid ones in front of it included.
  for (const std::size_t bad : {std::size_t{2}, std::size_t{1000},
                                ~std::size_t{0}}) {
    const std::size_t walks[] = {a, b, bad};
    const std::uint64_t budgets[] = {64, 64, 64};
    try {
      arena.step_block(walks, 3, budgets);
      ADD_FAILURE() << "walk id " << bad << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(bad)),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW(arena.step_walk(bad, 1), std::invalid_argument);
    EXPECT_THROW(arena.restart(bad, 0, 5), std::invalid_argument);
  }
  for (const std::size_t w : {a, b}) {
    EXPECT_EQ(arena.transmissions(w), 0u);
    EXPECT_EQ(arena.index(w), 0u);
    EXPECT_FALSE(arena.finished(w));
  }
  arena.step_walk(a, 64);  // the arena is still usable
  EXPECT_GT(arena.transmissions(a), 0u);
}

TEST(MultiWalk, PrefixGrowsMidBlockInLockstep) {
  // One step_block call steps 64 walks whose starts are staggered, so
  // when the lead walk's index crosses 1024 and then 2048 the prefix
  // grows (and reallocates) in the middle of a sweep, with lanes behind
  // it still to read symbols in that same sweep.  Half the walks head for
  // the other copy (certificate walks that never turn), half for their
  // own (they deliver and rewind).  Every walk must match RouteSession
  // after every transmission.
  const ReducedGraph net =
      explore::reduce_to_cubic(graph::disjoint_copies(graph::petersen(), 2));
  const auto seq = explore::standard_ues(net.cubic.num_nodes(), 3);
  ASSERT_GT(seq->length(), 4096u + 64 * 40);
  MultiWalkArena arena(net, *seq);
  std::vector<RouteSession> refs;
  std::vector<std::size_t> walks;
  for (std::size_t i = 0; i < MultiWalkArena::kBlockLanes; ++i) {
    const NodeId s = static_cast<NodeId>(i % 10);
    const NodeId t = static_cast<NodeId>(i % 2 == 0 ? 10 + (i * 3) % 10
                                                    : (s + 1 + i % 9) % 10);
    refs.emplace_back(net, *seq, s, t);
    walks.push_back(arena.admit(s, t));
  }
  constexpr std::uint64_t kStagger = 40;  // walk i starts at call 40 i
  std::vector<std::uint64_t> budgets(walks.size());
  std::uint64_t sizes_seen = 0;
  std::size_t last_bytes = 0;
  // Walk 0 leads: it crosses 2048 near call 2050, with 51 walks behind.
  for (std::uint64_t call = 0; arena.index(walks[0]) <= 2100; ++call) {
    ASSERT_LT(call, 10'000u);
    for (std::size_t i = 0; i < walks.size(); ++i)
      budgets[i] = call >= kStagger * i ? 1 : 0;
    arena.step_block(walks.data(), walks.size(), budgets.data());
    for (std::size_t i = 0; i < walks.size(); ++i) {
      grant(refs[i], budgets[i]);
      expect_lockstep(arena, walks[i], refs[i], "prefix growth mid-block");
    }
    if (arena.symbol_prefix_bytes() != last_bytes) {
      last_bytes = arena.symbol_prefix_bytes();
      ++sizes_seen;
    }
  }
  // 1024, 2048 and 4096 symbols: two growths while other lanes stepped.
  EXPECT_EQ(sizes_seen, 3u);
  EXPECT_EQ(last_bytes, 4096u / 4);
}

TEST(MultiWalk, WalkStateStaysLean) {
  const ReducedGraph net = explore::reduce_to_cubic(graph::petersen());
  const auto seq = explore::standard_ues(net.cubic.num_nodes(), 1);
  MultiWalkArena arena(net, *seq);
  std::vector<std::size_t> walks;
  for (int i = 0; i < 1000; ++i) walks.push_back(arena.admit(0, 5));
  // 29 B per walk: u32 position + u8 flags + 2x u32 target range + 2x u64
  // (the §2.13 budget).
  EXPECT_EQ(arena.walk_state_bytes() / arena.size(), 29u);
  // Plus one symbol prefix per arena, however many walks share it.
  EXPECT_EQ(arena.symbol_prefix_bytes(), 0u);  // grown by stepping only
  const std::vector<std::uint64_t> budgets(walks.size(), 1'000'000);
  arena.step_block(walks.data(), walks.size(), budgets.data());
  EXPECT_TRUE(arena.finished(walks.back()));
  EXPECT_GT(arena.symbol_prefix_bytes(), 0u);
  EXPECT_LE(arena.symbol_prefix_bytes(), MultiWalkArena::kPrefixCap / 4);
}

}  // namespace
}  // namespace uesr::core
