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
  rot3_ = net.cubic.rot3_data();
  prefix_.clear();  // keeps its capacity for the next epoch
  prefix_len_ = 0;
}

void MultiWalkArena::check_pair(NodeId s, NodeId t) const {
  const auto n_orig = static_cast<NodeId>(net_->first_gadget.size());
  if (s >= n_orig)
    throw std::invalid_argument("MultiWalkArena: source out of range");
  if (t >= n_orig)
    throw std::invalid_argument("MultiWalkArena: target out of range");
  if (s == t)
    throw std::invalid_argument(
        "MultiWalkArena: s == t never transmits; handle it at admission");
}

void MultiWalkArena::restart(std::size_t w, NodeId s, NodeId t) {
  check_pair(s, t);
  pos_[w] = graph::pack_rot3(net_->entry_gadget(s), 0);  // pre-injection
  flags_[w] = 0;
  target_[w] = range_of(t);
  index_[w] = 0;
}

std::size_t MultiWalkArena::admit(NodeId s, NodeId t) {
  check_pair(s, t);
  const std::size_t w = pos_.size();
  pos_.push_back(graph::pack_rot3(net_->entry_gadget(s), 0));
  flags_.push_back(0);
  target_.push_back(range_of(t));
  index_.push_back(0);
  tx_.push_back(0);
  return w;
}

std::size_t MultiWalkArena::walk_state_bytes() const {
  return pos_.size() * (sizeof(std::uint32_t) + 1 + sizeof(GadgetRange) +
                        sizeof(std::uint64_t) * 2);
}

Port MultiWalkArena::symbol_miss(std::uint64_t j) {
  const std::uint64_t limit = std::min(seq_length_, kPrefixCap);
  if (j > limit) return mod3(seq_->symbol(j));
  const std::uint64_t len =
      std::min(limit, std::max({j, 2 * prefix_len_, std::uint64_t{1024}}));
  const std::size_t words = static_cast<std::size_t>((len + 31) / 32);
  prefix_.reserve(words);  // exact, so capacity stays within the cap
  prefix_.resize(words, 0);
  // Filled in chunks of at most 2^19 symbols, so growth near the cap needs
  // 2 MiB of scratch, not 4 bytes per new symbol.
  std::vector<Symbol> fresh(static_cast<std::size_t>(
      std::min(len - prefix_len_, std::uint64_t{1} << 19)));
  for (std::uint64_t k = prefix_len_; k < len;) {
    const std::uint64_t count = std::min<std::uint64_t>(len - k, fresh.size());
    seq_->fill(k + 1, count, fresh.data());
    for (std::uint64_t i = 0; i < count; ++i, ++k)
      prefix_[k >> 5] |= std::uint64_t{mod3(fresh[i])} << (2 * (k & 31));
  }
  prefix_len_ = len;
  return lane_symbol(j);
}

template <bool kIsBackward>
bool MultiWalkArena::step_lane(std::size_t w) {
  std::uint8_t flags = flags_[w];
  const graph::HalfEdge at = graph::unpack_rot3(pos_[w]);
  // Injection (s sends along d_0: port 0, which a pre-injection position
  // carries) and the turn-around (resend over the arrival port) both leave
  // through the position's own port.
  Port out = at.port;
  if constexpr (!kIsBackward) {
    if ((flags & kInjected) == 0) {
      flags_[w] = flags | kInjected;  // consumes no symbol
    } else if (at_target(w, at.node)) {
      // Arrival processing at the head of d_j: turn around, index kept.
      flags |= kBackward | kSuccess;
      flags_[w] = flags;
    } else if (index_[w] >= seq_length_) {
      flags |= kBackward;
      flags_[w] = flags;
    } else {
      const std::uint64_t next = index_[w] + 1;
      index_[w] = next;
      out = advance_port(out, lane_symbol(next), 3);
    }
  } else {
    const std::uint64_t j = index_[w];
    if (j == 0) {
      // Fully rewound at s: terminate — a free bookkeeping step.
      flags_[w] = flags | kFinished;
      return false;
    }
    out = wrap_port(out + 3 - lane_symbol(j), 3);
    index_[w] = j - 1;
  }
  // The step: the far end's packed word is the new position, verbatim.
  const std::uint32_t next = rot3_[3 * static_cast<std::size_t>(at.node) + out];
  pos_[w] = next;
  prefetch_node(graph::unpack_rot3(next).node);
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
      prefetch_node(gadget(w));  // warm the first slot's rotation loads
    }
    for (std::uint64_t slot = 0; nf + nb > 0; ++slot) {
      // Step sweep: one transmission slot for each live lane; each step
      // prefetches its landing node's rotation words for the next slot.
      std::size_t nf2 = 0;
      std::size_t nb2 = 0;
      for (std::size_t k = 0; k < nf; ++k) {
        const std::size_t r = fwd[k];
        if (step_lane<false>(walks[base + r]))
          bwd_next[nb2++] = r;
        else
          fwd_next[nf2++] = r;
      }
      for (std::size_t k = 0; k < nb; ++k) {
        const std::size_t r = bwd[k];
        const std::size_t w = walks[base + r];
        if (step_lane<true>(w)) {
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
