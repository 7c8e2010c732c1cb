// Structure-of-arrays multi-walk stepping kernel for Algorithm Route.
//
// RouteSession executes one walk; a traffic shard executes hundreds of
// thousands over the SAME reduced graph, and at that scale the session
// object itself is the bottleneck: each step chases session-object
// pointers, consults a per-session symbol window, and leaves the memory
// system idle while one dependent rotation load resolves.  MultiWalkArena
// keeps walk state in parallel flat arrays (26 B per walk) and steps
// kBlockLanes walks per slot sweep against one shared packed cubic graph:
//
//   * slot-major sweeps — for each transmission slot, every lane in the
//     block advances once, so the block's rotation loads are all in
//     flight together (memory-level parallelism instead of one serial
//     load chain per walk);
//   * software prefetch — each sweep first touches every lane's next
//     half-edge region &far_nodes[3*node] one slot ahead of its use;
//   * branch-free rotate3 — the packed far-node/2-bit-port pair from
//     graph::Graph's cubic layout, no offsets, no HalfEdge structs;
//   * one symbol prefix — t_j mod 3 packed 2 bits per entry, grown inside
//     step_block on a miss at j to max(j, 2·len, 1024) symbols (capped at
//     kPrefixCap) with one bulk fill(); a read is one shift-and-mask load
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
  /// Most symbols the prefix memoizes: 2^20 at 2 bits each is 256 KiB.
  static constexpr std::uint64_t kPrefixCap = std::uint64_t{1} << 20;

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
  /// the current network, index 0 and flags clear; its transmissions stay
  /// counted (they were really sent).
  void restart(std::size_t w, graph::NodeId s);

  /// Admits the walk s -> t (original names, s != t); returns its walk
  /// index (dense, in admission order).  State is never freed: a finished
  /// walk keeps its 26 bytes until the arena dies.
  std::size_t admit(graph::NodeId s, graph::NodeId t);

  std::size_t size() const { return node_.size(); }

  /// The kernel: grants each walks[k] (k < count) up to budgets[k]
  /// further transmissions, sweeping kBlockLanes walks per slot; a lane
  /// leaves the sweep when it spends its own budget.  Finished walks and
  /// zero budgets are skipped for free.  Each walk's trajectory depends
  /// only on the slots it is granted, never on the other walks, so any
  /// partition of a walk set into step_block calls yields bit-identical
  /// per-walk outcomes.
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
  bool target_reached(std::size_t w) const {
    return (flags_[w] & kTargetReached) != 0;
  }
  std::uint64_t transmissions(std::size_t w) const { return tx_[w]; }
  /// Header index j (symbols consumed), for the lockstep property tests.
  std::uint64_t index(std::size_t w) const { return index_[w]; }
  /// Original name of the node currently holding the message.
  graph::NodeId current_original(std::size_t w) const;

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
  static constexpr std::uint8_t kTargetReached = 16;

  /// "No deferred target check" sentinel for step_lane's out-param (never
  /// a real gadget node: reductions keep 3n well under 2^32 - 1).
  static constexpr graph::NodeId kNoCheck = ~graph::NodeId{0};

  /// One step() of walk w.  kIsBackward is the walk's direction at entry
  /// (the sweeps keep lanes partitioned so it is statically known).
  /// Forward: returns whether the walk turned backward (always one
  /// transmission).  Backward: returns whether the walk is still stepping
  /// (false = the free terminate just finished it, zero transmissions).
  /// When the step needs a target check, writes the landing node to
  /// *landed (and prefetches original_of_ there) for the block's deferred
  /// flag sweep.
  template <bool kIsBackward>
  bool step_lane(std::size_t w, graph::NodeId* landed);

  /// Warms entry v's packed rotation lines (far-node triple + port word)
  /// one slot ahead of their use.
  void prefetch_node(graph::NodeId v) const {
    const std::size_t i = 3 * static_cast<std::size_t>(v);
    __builtin_prefetch(far_ + i, 0, 1);
    __builtin_prefetch(far_ + i + 2, 0, 1);  // 12 B span may cross a line
    __builtin_prefetch(ports_->word_of(i), 0, 1);
  }
  /// t_j mod 3 (1 <= j <= sequence length): one load from the prefix.
  graph::Port lane_symbol(std::uint64_t j) {
    if (j > prefix_len_) return symbol_miss(j);
    const std::uint64_t k = j - 1;
    return static_cast<graph::Port>((prefix_[k >> 5] >> (2 * (k & 31))) & 3);
  }
  /// Cold path: grows the prefix to cover j, or hashes t_j past the cap.
  graph::Port symbol_miss(std::uint64_t j);

  // Shared immutable structure (borrowed; rebind() swaps it).
  const explore::ReducedGraph* net_ = nullptr;
  const explore::ExplorationSequence* seq_ = nullptr;
  std::uint64_t seq_length_ = 0;
  const graph::NodeId* far_ = nullptr;  // packed cubic rotation map
  const util::PackedArray* ports_ = nullptr;
  const graph::NodeId* original_of_ = nullptr;

  // Per-walk SoA state, indexed by walk id.
  std::vector<graph::NodeId> node_;     // current gadget (start pre-inject)
  std::vector<std::uint8_t> port_;      // arrival port (0..2)
  std::vector<std::uint8_t> flags_;
  std::vector<graph::NodeId> target_;   // target original name
  std::vector<std::uint64_t> index_;    // header.index (symbols consumed)
  std::vector<std::uint64_t> tx_;

  // Symbol prefix: t_{k+1} mod 3 at bits 2*(k % 32) of word k / 32, for
  // k < prefix_len_.  Capacity never passes kPrefixCap / 32 words.
  std::vector<std::uint64_t> prefix_;
  std::uint64_t prefix_len_ = 0;
};

}  // namespace uesr::core
