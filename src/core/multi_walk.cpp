#include "core/multi_walk.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "explore/walker.h"

namespace uesr::core {

using explore::Symbol;
using explore::advance_port;
using explore::wrap_port;
using graph::NodeId;
using graph::Port;

namespace {

Port mod3(Symbol t) { return static_cast<Port>(t < 3 ? t : t % 3); }

/// t_j mod 3 read from a prefix holding it (1 <= j <= its length).
Port prefix_symbol(const std::uint64_t* prefix, std::uint64_t j) {
  const std::uint64_t k = j - 1;
  return static_cast<Port>((prefix[k >> 5] >> (2 * (k & 31))) & 3);
}

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
  check_walks(&w, 1);
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
  return prefix_symbol(prefix_.data(), j);
}

void MultiWalkArena::check_walks(const std::size_t* walks,
                                 std::size_t count) const {
  for (std::size_t k = 0; k < count; ++k)
    if (walks[k] >= pos_.size())
      throw std::invalid_argument(
          "MultiWalkArena: walk id " + std::to_string(walks[k]) +
          " out of range (" + std::to_string(pos_.size()) + " walks)");
}

void MultiWalkArena::step_block(const std::size_t* walks, std::size_t count,
                                const std::uint64_t* budgets) {
  check_walks(walks, count);
  // Shared state lives in locals: the block's rows are local arrays too,
  // so no store in the sweeps can alias a member and nothing is reloaded
  // from *this per step.  Only symbol_miss() touches the prefix — it may
  // reallocate it — so `symbol` re-reads both prefix copies after it.
  const std::uint32_t* const rot3 = rot3_;
  const std::uint64_t seq_length = seq_length_;
  const std::uint64_t* prefix = prefix_.data();
  std::uint64_t prefix_len = prefix_len_;
  auto symbol = [&](std::uint64_t j) {  // t_j mod 3, 1 <= j <= seq_length
    if (j <= prefix_len) [[likely]]
      return prefix_symbol(prefix, j);
    const Port t = symbol_miss(j);
    prefix = prefix_.data();
    prefix_len = prefix_len_;
    return t;
  };
  // Warms the landing gadget's rotation words one slot ahead of their use.
  // One line is enough: the 12 B span crosses a line boundary only when
  // 12v mod 64 is 56 or 60, for 2 gadgets in 16.
  auto prefetch = [rot3](std::uint32_t position) {
    __builtin_prefetch(rot3 + 3 * static_cast<std::size_t>(position >> 2), 0,
                       1);
  };
  for (std::size_t base = 0; base < count; base += kBlockLanes) {
    const std::size_t lanes = std::min(kBlockLanes, count - base);
    const std::size_t* walk = walks + base;
    const std::uint64_t* budget = budgets + base;
    // Block-resident rows, indexed by lane: read once here, stepped in
    // place, written back once when the block ends (walk ids are distinct,
    // so no two lanes share a row).  `spent` is the lane's transmissions
    // this call, added to tx_ at write-back.
    std::uint32_t pos[kBlockLanes];
    std::uint64_t index[kBlockLanes];
    std::uint8_t flags[kBlockLanes];
    GadgetRange target[kBlockLanes];
    std::uint64_t spent[kBlockLanes];
    std::uint64_t loaded = 0;  // bit r: lane r steps and is written back
    // Lanes live in direction-partitioned lists: interleaved directions
    // would make the forward/backward branch effectively random per step,
    // and the mispredicts would dominate the sweep.  Every step consumes
    // exactly one slot (the backward terminate consumes zero and retires
    // its lane), so the slot index doubles as every live lane's spent
    // budget — no per-lane accounting on the hot path.  Budget
    // retirements happen in a separate pass, only at the slots where the
    // smallest live budget runs out (`next_stop`).
    static_assert(kBlockLanes <= 64, "one `loaded` bit per lane");
    std::uint8_t lists[4][kBlockLanes];
    std::uint8_t* fwd = lists[0];
    std::uint8_t* bwd = lists[1];
    std::uint8_t* fwd_next = lists[2];
    std::uint8_t* bwd_next = lists[3];
    std::size_t nf = 0;
    std::size_t nb = 0;
    std::uint64_t next_stop = ~std::uint64_t{0};
    for (std::size_t r = 0; r < lanes; ++r) {
      const std::size_t w = walk[r];
      if ((flags_[w] & kFinished) != 0 || budget[r] == 0) continue;
      loaded |= std::uint64_t{1} << r;
      pos[r] = pos_[w];
      index[r] = index_[w];
      flags[r] = flags_[w];
      target[r] = target_[w];
      spent[r] = 0;
      if ((flags[r] & kBackward) != 0)
        bwd[nb++] = static_cast<std::uint8_t>(r);
      else
        fwd[nf++] = static_cast<std::uint8_t>(r);
      next_stop = std::min(next_stop, budget[r]);
      prefetch(pos[r]);  // warm the first slot's rotation loads
    }
    for (std::uint64_t slot = 0; nf + nb > 0; ++slot) {
      // Step sweep: one transmission slot for each live lane.  Injection
      // (s sends along d_0: port 0, which a pre-injection position
      // carries) and the turn-around (resend over the arrival port) both
      // leave through the position's own port; the far end's packed word
      // is the new position, verbatim.
      std::size_t nf2 = 0;
      std::size_t nb2 = 0;
      for (std::size_t k = 0; k < nf; ++k) {
        const std::uint8_t r = fwd[k];
        const graph::HalfEdge at = graph::unpack_rot3(pos[r]);
        Port out = at.port;
        std::uint8_t f = flags[r];
        if ((f & kInjected) == 0) {
          f |= kInjected;  // consumes no symbol
        } else if (at.node - target[r].first < target[r].count) {
          // Arrival processing at the head of d_j: turn around, index kept.
          f |= kBackward | kSuccess;
        } else if (index[r] >= seq_length) {
          f |= kBackward;
        } else {
          const std::uint64_t j = index[r] + 1;
          index[r] = j;
          out = advance_port(out, symbol(j), 3);
        }
        flags[r] = f;
        const std::uint32_t next = rot3[3 * std::size_t{at.node} + out];
        pos[r] = next;
        prefetch(next);
        if ((f & kBackward) != 0)
          bwd_next[nb2++] = r;
        else
          fwd_next[nf2++] = r;
      }
      for (std::size_t k = 0; k < nb; ++k) {
        const std::uint8_t r = bwd[k];
        const std::uint64_t j = index[r];
        if (j == 0) {
          // Fully rewound at s: terminate — a free bookkeeping step.  The
          // walk spent one slot per prior sweep this call.  A lane whose
          // budget runs out mid-rewind instead leaves the terminate for
          // the next call — exactly the scalar engine-loop semantics
          // (completed_at is unaffected: the terminate uses zero slots).
          flags[r] |= kFinished;
          spent[r] = slot;
          continue;
        }
        const graph::HalfEdge at = graph::unpack_rot3(pos[r]);
        const Port out = wrap_port(at.port + 3 - symbol(j), 3);
        index[r] = j - 1;
        const std::uint32_t next = rot3[3 * std::size_t{at.node} + out];
        pos[r] = next;
        prefetch(next);
        bwd_next[nb2++] = r;
      }
      std::swap(fwd, fwd_next);
      std::swap(bwd, bwd_next);
      nf = nf2;
      nb = nb2;
      if (slot + 1 < next_stop) continue;
      // Budget sweep: lanes whose budget this slot spent leave the block
      // having spent one slot per sweep; the rest set the next stop.
      const std::uint64_t used = slot + 1;
      next_stop = ~std::uint64_t{0};
      auto retire_spent = [&](std::uint8_t* list, std::size_t& len) {
        std::size_t kept = 0;
        for (std::size_t k = 0; k < len; ++k) {
          const std::uint8_t r = list[k];
          if (budget[r] == used) {
            spent[r] = used;
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
    for (std::size_t r = 0; r < lanes; ++r) {
      if ((loaded >> r & 1) == 0) continue;
      const std::size_t w = walk[r];
      pos_[w] = pos[r];
      index_[w] = index[r];
      flags_[w] = flags[r];
      tx_[w] += spent[r];
    }
  }
}

}  // namespace uesr::core
