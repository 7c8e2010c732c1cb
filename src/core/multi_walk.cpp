#include "core/multi_walk.h"

#include <algorithm>
#include <stdexcept>

#include "explore/walker.h"

namespace uesr::core {

using explore::Symbol;
using explore::advance_port;
using explore::wrap_port;
using graph::NodeId;
using graph::Port;

namespace {

Port mod3(Symbol t) { return static_cast<Port>(t < 3 ? t : t % 3); }

}  // namespace

MultiWalkArena::MultiWalkArena(const explore::ReducedGraph& net,
                               const explore::ExplorationSequence& seq) {
  rebind(net, seq);
}

void MultiWalkArena::rebind(const explore::ReducedGraph& net,
                            const explore::ExplorationSequence& seq) {
  if (!net.cubic.is_cubic())
    throw std::invalid_argument("MultiWalkArena: reduced graph must be cubic");
  net_ = &net;
  seq_ = &seq;
  seq_length_ = seq.length();
  far_ = net.cubic.far_node_data();
  ports_ = &net.cubic.far_ports();
  original_of_ = net.original_of.data();
  prefix_.clear();  // keeps its capacity for the next epoch
  prefix_len_ = 0;
}

void MultiWalkArena::restart(std::size_t w, NodeId s) {
  if (s >= net_->first_gadget.size())
    throw std::invalid_argument("MultiWalkArena: source out of range");
  node_[w] = net_->entry_gadget(s);  // pre-injection: start gadget
  port_[w] = 0;
  flags_[w] = 0;
  index_[w] = 0;
}

std::size_t MultiWalkArena::admit(NodeId s, NodeId t) {
  const auto n_orig = static_cast<NodeId>(net_->first_gadget.size());
  if (s >= n_orig)
    throw std::invalid_argument("MultiWalkArena: source out of range");
  if (t >= n_orig)
    throw std::invalid_argument("MultiWalkArena: target out of range");
  if (s == t)
    throw std::invalid_argument(
        "MultiWalkArena: s == t never transmits; handle it at admission");
  const std::size_t w = node_.size();
  node_.push_back(net_->entry_gadget(s));  // pre-injection: start gadget
  port_.push_back(0);
  flags_.push_back(0);
  target_.push_back(t);
  index_.push_back(0);
  tx_.push_back(0);
  return w;
}

NodeId MultiWalkArena::current_original(std::size_t w) const {
  return original_of_[node_[w]];
}

std::size_t MultiWalkArena::walk_state_bytes() const {
  return node_.size() * (sizeof(NodeId) * 2 + 2 + sizeof(std::uint64_t) * 2);
}

Port MultiWalkArena::symbol_miss(std::uint64_t j) {
  const std::uint64_t limit = std::min(seq_length_, kPrefixCap);
  if (j > limit) return mod3(seq_->symbol(j));
  const std::uint64_t len =
      std::min(limit, std::max({j, 2 * prefix_len_, std::uint64_t{1024}}));
  const std::size_t words = static_cast<std::size_t>((len + 31) / 32);
  prefix_.reserve(words);  // exact, so capacity stays within the cap
  prefix_.resize(words, 0);
  std::vector<Symbol> fresh(static_cast<std::size_t>(len - prefix_len_));
  seq_->fill(prefix_len_ + 1, fresh.size(), fresh.data());
  for (std::uint64_t k = prefix_len_; k < len; ++k)
    prefix_[k >> 5] |= std::uint64_t{mod3(fresh[k - prefix_len_])}
                       << (2 * (k & 31));
  prefix_len_ = len;
  return lane_symbol(j);
}

template <bool kIsBackward>
bool MultiWalkArena::step_lane(std::size_t w, NodeId* landed) {
  std::uint8_t flags = flags_[w];
  Port out;
  if constexpr (!kIsBackward) {
    if ((flags & kInjected) == 0) {
      // Injection: s sends along d_0 = (start, port 0); consumes no
      // symbol.
      const std::size_t i = 3 * static_cast<std::size_t>(node_[w]);
      const NodeId far = far_[i];
      node_[w] = far;
      port_[w] = static_cast<std::uint8_t>(ports_->get(i));
      flags_[w] = flags | kInjected;
      prefetch_node(far);
      // The target check is the flag sweep's: request the line now so the
      // dependent original_of_ load resolves while other lanes step.
      __builtin_prefetch(original_of_ + far, 0, 1);
      *landed = far;
      return false;
    }
    // Forward arrival processing at the head of departure edge d_j.  The
    // at_target test is the latched flag, not an original_of_ load: the
    // flag sweep that latched it ran the slot the walk LANDED on the
    // target, and a forward walk standing anywhere else has it clear
    // (once set, the very next arrival turns the walk around).
    const bool at_target = (flags & kTargetReached) != 0;
    const bool exhausted = index_[w] >= seq_length_;
    if (at_target || exhausted) {
      // Turn around: resend over the arrival port; index unchanged.
      flags |= kBackward;
      if (at_target) flags |= kSuccess;
      flags_[w] = flags;
      out = port_[w];
    } else {
      const std::uint64_t next = index_[w] + 1;
      index_[w] = next;
      out = advance_port(port_[w], lane_symbol(next), 3);
    }
  } else {
    if (index_[w] == 0) {
      // Fully rewound at s: terminate — a free bookkeeping step.
      flags_[w] = flags | kFinished;
      return false;
    }
    const std::uint64_t j = index_[w];
    out = wrap_port(port_[w] + 3 - lane_symbol(j), 3);
    index_[w] = j - 1;
  }
  const std::size_t i = 3 * static_cast<std::size_t>(node_[w]) + out;
  const NodeId far = far_[i];
  node_[w] = far;
  port_[w] = static_cast<std::uint8_t>(ports_->get(i));
  prefetch_node(far);
  // flags_ is NOT stored here: the fall-through paths never change it
  // (injection, turn-around, and terminate store at their own sites).
  if (!kIsBackward && (flags & kBackward) == 0) {
    __builtin_prefetch(original_of_ + far, 0, 1);
    *landed = far;
  }
  if constexpr (!kIsBackward) return (flags & kBackward) != 0;
  return true;
}

void MultiWalkArena::step_block(const std::size_t* walks, std::size_t count,
                                const std::uint64_t* budgets) {
  for (std::size_t base = 0; base < count; base += kBlockLanes) {
    const std::size_t lanes = std::min(kBlockLanes, count - base);
    const std::uint64_t* budget = budgets + base;
    // Lanes live in direction-partitioned lists (scratch-row indices):
    // interleaved directions would make the forward/backward branch
    // effectively random per step, and the mispredicts would dominate the
    // sweep.  Every step consumes exactly one
    // slot (the backward terminate consumes zero and retires its lane),
    // so the slot index doubles as every live lane's spent budget — no
    // per-lane accounting on the hot path.  Budget retirements happen in
    // a separate pass, only at the slots where the smallest live budget
    // runs out (`next_stop`).
    std::size_t fwd_a[kBlockLanes];
    std::size_t fwd_b[kBlockLanes];
    std::size_t bwd_a[kBlockLanes];
    std::size_t bwd_b[kBlockLanes];
    std::size_t* fwd = fwd_a;
    std::size_t* bwd = bwd_a;
    std::size_t* fwd_next = fwd_b;
    std::size_t* bwd_next = bwd_b;
    std::size_t nf = 0;
    std::size_t nb = 0;
    std::uint64_t next_stop = ~std::uint64_t{0};
    for (std::size_t r = 0; r < lanes; ++r) {
      const std::size_t w = walks[base + r];
      if (finished(w) || budget[r] == 0) continue;
      if ((flags_[w] & kBackward) != 0)
        bwd[nb++] = r;
      else
        fwd[nf++] = r;
      next_stop = std::min(next_stop, budget[r]);
      prefetch_node(node_[w]);  // warm the first slot's rotation loads
    }
    for (std::uint64_t slot = 0; nf + nb > 0; ++slot) {
      // Step sweep: one transmission slot for each live lane; each step
      // prefetches its landing node's rotation entry for the next slot.
      // Target checks are deferred: a forward lane records where it
      // landed and prefetches original_of_ there, so the flag sweep below
      // never stalls on the load that depends on the rotation load.
      NodeId landed[kBlockLanes];
      std::size_t landed_w[kBlockLanes];
      std::size_t checks = 0;
      std::size_t nf2 = 0;
      std::size_t nb2 = 0;
      for (std::size_t k = 0; k < nf; ++k) {
        const std::size_t r = fwd[k];
        const std::size_t w = walks[base + r];
        NodeId land = kNoCheck;
        const bool turned = step_lane<false>(w, &land);
        if (land != kNoCheck) {
          landed[checks] = land;
          landed_w[checks++] = w;
        }
        if (turned)
          bwd_next[nb2++] = r;
        else
          fwd_next[nf2++] = r;
      }
      for (std::size_t k = 0; k < nb; ++k) {
        const std::size_t r = bwd[k];
        const std::size_t w = walks[base + r];
        NodeId land = kNoCheck;
        if (step_lane<true>(w, &land)) {
          bwd_next[nb2++] = r;
        } else {
          // The free terminate: the walk finished having spent one slot
          // per prior sweep this call.  A lane whose budget runs out
          // mid-rewind instead leaves the terminate for the next call —
          // exactly the scalar engine-loop semantics (completed_at is
          // unaffected: the terminate uses zero slots).
          tx_[w] += slot;
        }
      }
      std::swap(fwd, fwd_next);
      std::swap(bwd, bwd_next);
      nf = nf2;
      nb = nb2;
      // Flag sweep: latch kTargetReached for every lane that moved onto
      // its target this slot.  This is the ONLY original_of_ read on the
      // stepping path — the next slot's arrival processing consumes the
      // latched flag instead of re-deriving it.
      for (std::size_t c = 0; c < checks; ++c)
        if (original_of_[landed[c]] == target_[landed_w[c]])
          flags_[landed_w[c]] |= kTargetReached;
      if (slot + 1 < next_stop) continue;
      // Budget sweep: lanes whose budget this slot spent leave the block
      // having spent one slot per sweep; the rest set the next stop.
      const std::uint64_t spent = slot + 1;
      next_stop = ~std::uint64_t{0};
      auto retire_spent = [&](std::size_t* list, std::size_t& len) {
        std::size_t kept = 0;
        for (std::size_t k = 0; k < len; ++k) {
          const std::size_t r = list[k];
          if (budget[r] == spent) {
            tx_[walks[base + r]] += spent;
          } else {
            list[kept++] = r;
            next_stop = std::min(next_stop, budget[r]);
          }
        }
        len = kept;
      };
      retire_spent(fwd, nf);
      retire_spent(bwd, nb);
    }
  }
}

}  // namespace uesr::core
