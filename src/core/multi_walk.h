// Structure-of-arrays multi-walk stepping kernel for Algorithm Route.
//
// RouteSession executes one walk; a traffic shard executes hundreds of
// thousands over the SAME reduced graph, and at that scale the session
// object itself is the bottleneck: each step chases session-object
// pointers, consults a per-session symbol window, and leaves the memory
// system idle while one dependent rotation load resolves.  MultiWalkArena
// keeps walk state in parallel flat arrays (29 B per walk) and steps
// kBlockLanes walks per slot sweep against one shared packed cubic graph:
//
//   * slot-major sweeps — for each transmission slot, every lane in the
//     block advances once, so the block's rotation loads are all in
//     flight together (memory-level parallelism instead of one serial
//     load chain per walk);
//   * block-resident rows — a block's live rows (position, index, flags,
//     target range, transmissions pending) are copied into lane-indexed
//     local arrays, stepped there, and written back once when the block
//     ends; the rotation map, sequence length and prefix are locals too,
//     so no store in a sweep can alias them and nothing is reloaded from
//     the arena per step.  Each lane owns its row for the whole block, so
//     the walk ids of one step_block call must be distinct;
//   * software prefetch — each step touches its landing gadget's
//     rotation words &rot3[3*node] one slot ahead of their use, with one
//     prefetch: the 12 B span crosses a cache line for 2 gadgets in 16;
//   * one-load steps — a walk's position IS graph::Graph's packed cubic
//     word `node << 2 | port`: a step loads rot3[3*node + out] and stores
//     it verbatim, no offsets, no HalfEdge structs;
//   * range target test — original t owns the gadgets [first_gadget[t],
//     first_gadget[t] + gadget_count[t]), so "at target" is one unsigned
//     compare on the position in hand, with no original_of load;
//   * one symbol prefix — t_j mod 3 packed 2 bits per entry, grown inside
//     step_block on a miss at j to max(j, 2·len, 1024) symbols (capped at
//     kPrefixCap) with bulk fill()s; a read is one shift-and-mask load
//     and no walk holds symbol storage.  Mod 3 is exact (both step rules
//     reduce t_j first); past the cap a read hashes seq.symbol(j).  t_j
//     stays a pure function of j (Theorem 4), so the memo moves no walk.
//     rebind() drops it: a new epoch's sequence may reuse the old address.
//
// Semantics are pinned to RouteSession step for step: same transmission
// counts, same turn-around ticks, same verdicts (tests/core/
// multi_walk_test.cpp drives both in lockstep).  The arena handles
// exactly the hot case — kRoute sessions with s != t over a perfect-link
// cubic reduction; under churn the owner rebind()s it to each new epoch's
// network and restart()s the walks in flight (the §2.8 restart rule).
// Broadcasts, hybrids and lossy routes stay on the scalar lanes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "explore/degree_reduce.h"
#include "explore/sequence.h"
#include "graph/graph.h"

namespace uesr::core {

class MultiWalkArena {
 public:
  /// Lanes per block sweep: enough independent loads to saturate the
  /// memory system.
  static constexpr std::size_t kBlockLanes = 64;
  /// Most symbols the prefix memoizes: 2^24 at 2 bits each is 4 MiB,
  /// enough for a certificate walk of a few hundred gadgets to hash each
  /// symbol once.  The prefix only grows to the indices walks read.
  static constexpr std::uint64_t kPrefixCap = std::uint64_t{1} << 24;

  /// `net` must be cubic (every reduce_to_cubic output is) and, with
  /// `seq`, must outlive the arena.
  MultiWalkArena(const explore::ReducedGraph& net,
                 const explore::ExplorationSequence& seq);

  /// Moves the arena onto another epoch's network over the same original
  /// nodes (`net` cubic; with `seq`, outliving the arena).  Walk rows
  /// stay; every walk still in flight must be restart()ed before it steps
  /// again (its node is a gadget of the old reduction).  The symbol prefix
  /// is dropped, even when `seq` has the old sequence's address.
  void rebind(const explore::ReducedGraph& net,
              const explore::ExplorationSequence& seq);
  /// The §2.8 restart: walk w goes back to injection at its source s on
  /// the current network, index 0 and flags clear, with target t's gadget
  /// range re-derived there; its transmissions stay counted (they were
  /// really sent).  std::invalid_argument if w is not an admitted walk.
  void restart(std::size_t w, graph::NodeId s, graph::NodeId t);

  /// Admits the walk s -> t (original names, s != t); returns its walk
  /// index (dense, in admission order).  State is never freed: a finished
  /// walk keeps its 29 bytes until the arena dies.
  std::size_t admit(graph::NodeId s, graph::NodeId t);

  std::size_t size() const { return pos_.size(); }

  /// The kernel: grants each walks[k] (k < count) up to budgets[k]
  /// further transmissions, sweeping kBlockLanes walks per slot; a lane
  /// leaves the sweep when it spends its own budget.  Finished walks and
  /// zero budgets are skipped for free.  Each walk's trajectory depends
  /// only on the slots it is granted, never on the other walks, so any
  /// partition of a walk set into step_block calls yields bit-identical
  /// per-walk outcomes.  The ids in one call must be distinct (each lane
  /// owns its row for the whole block); std::invalid_argument, naming the
  /// id, if any is not an admitted walk — before any walk moves.
  void step_block(const std::size_t* walks, std::size_t count,
                  const std::uint64_t* budgets);

  /// Single-walk convenience (the property tests' budget-pattern driver).
  void step_walk(std::size_t w, std::uint64_t budget) {
    step_block(&w, 1, &budget);
  }

  bool finished(std::size_t w) const { return (flags_[w] & kFinished) != 0; }
  /// Status success; meaningful once finished() (mirrors RouteSession).
  bool delivered(std::size_t w) const {
    return (flags_[w] & kSuccess) != 0;
  }
  /// True from the forward landing on t on (mirrors RouteSession).
  bool target_reached(std::size_t w) const {
    return (flags_[w] & kSuccess) != 0 ||
           ((flags_[w] & kBackward) == 0 && at_target(w, gadget(w)));
  }
  std::uint64_t transmissions(std::size_t w) const { return tx_[w]; }
  /// Header index j (symbols consumed), for the lockstep property tests.
  std::uint64_t index(std::size_t w) const { return index_[w]; }
  /// Original name of the node currently holding the message.
  graph::NodeId current_original(std::size_t w) const {
    return net_->original_of[gadget(w)];
  }

  /// Heap bytes of per-walk state (the §2.13 memory accounting).
  std::size_t walk_state_bytes() const;
  /// Heap bytes of the shared symbol prefix: at most kPrefixCap / 4.
  std::size_t symbol_prefix_bytes() const {
    return prefix_.capacity() * sizeof(std::uint64_t);
  }

 private:
  static constexpr std::uint8_t kInjected = 1;
  static constexpr std::uint8_t kBackward = 2;
  static constexpr std::uint8_t kFinished = 4;
  static constexpr std::uint8_t kSuccess = 8;

  /// Target t as its gadgets [first, first + count) of the current network.
  struct GadgetRange {
    graph::NodeId first = 0;
    graph::NodeId count = 0;
  };
  GadgetRange range_of(graph::NodeId t) const {
    return {net_->first_gadget[t], net_->gadget_count[t]};
  }
  /// Whether `gadget` is one of walk w's target gadgets.
  bool at_target(std::size_t w, graph::NodeId gadget) const {
    return gadget - target_[w].first < target_[w].count;
  }
  /// The gadget walk w stands on.
  graph::NodeId gadget(std::size_t w) const {
    return graph::unpack_rot3(pos_[w]).node;
  }

  /// Throws std::invalid_argument unless s != t name nodes of the network.
  void check_pair(graph::NodeId s, graph::NodeId t) const;

  /// Throws std::invalid_argument, naming the id, unless every walks[k]
  /// (k < count) is an admitted walk.
  void check_walks(const std::size_t* walks, std::size_t count) const;

  /// Cold path of a symbol read at j past the prefix: grows the prefix to
  /// cover j (which may reallocate it), or hashes t_j past the cap.
  graph::Port symbol_miss(std::uint64_t j);

  // Shared immutable structure (borrowed; rebind() swaps it).
  const explore::ReducedGraph* net_ = nullptr;
  const explore::ExplorationSequence* seq_ = nullptr;
  std::uint64_t seq_length_ = 0;
  const std::uint32_t* rot3_ = nullptr;  // packed cubic rotation map

  // Per-walk SoA state, indexed by walk id.
  std::vector<std::uint32_t> pos_;      // gadget << 2 | arrival port
                                        // (start gadget, port 0 pre-inject)
  std::vector<std::uint8_t> flags_;
  std::vector<GadgetRange> target_;     // target's gadgets, this network
  std::vector<std::uint64_t> index_;    // header.index (symbols consumed)
  std::vector<std::uint64_t> tx_;

  // Symbol prefix: t_{k+1} mod 3 at bits 2*(k % 32) of word k / 32, for
  // k < prefix_len_.  Capacity never passes kPrefixCap / 32 words.
  std::vector<std::uint64_t> prefix_;
  std::uint64_t prefix_len_ = 0;
};

}  // namespace uesr::core
