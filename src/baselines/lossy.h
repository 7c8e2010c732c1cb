// Loss-tolerant baselines + the one per-pair lossy report kernel (E13,
// E15).
//
// Once links lose frames, the comparison set changes character: flooding's
// redundancy (every node retransmits on every port) is natural loss
// armour, and Haas–Halpern–Li GOSSIP routing (PAPERS.md) — retransmit with
// probability p — is the classic knob between flooding's cost and a single
// walker's fragility.  Neither certifies anything under loss (a wave that
// died may just have been unlucky), while UES Route over an ARQ keeps
// SOUND certificates and pays for them with acks, retries, and a new
// "uncertified after budget" outcome (core/lossy_route.h).  E13 measures
// exactly this trade; E15 adds the full fault stack (corruption, crash
// windows, brownouts — DESIGN.md §2.12), which changes WHICH sessions
// complete, never what a completed session's certificate means.  Every
// verdict is audited against the ground-truth component map.
//
// Every per-transmission loss draw and every gossip coin comes from the
// attempt's own Pcg32 (seeded per trial by the kernel, PR 3 convention),
// frontiers are scanned in ascending node order, so each attempt is a pure
// function of (graph, parameters, seed) — replayable, shardable, and
// thread-count invariant in the kernel below (pinned by the lossy
// ThreadInvariance tests).
#pragma once

#include <cstdint>

#include "baselines/flooding.h"
#include "core/lossy_route.h"
#include "graph/graph.h"

namespace uesr::baselines {

/// Synchronous flooding where every transmission is independently lost
/// with probability `loss`: nodes that first heard the message in round
/// r-1 retransmit once on all ports in round r; a lost copy simply never
/// arrives (no acks, no retries — flooding's armour is redundancy).
/// Transmissions count every copy put on the wire, lost ones included.
/// Never certifies: under loss a dead wave proves nothing.  Throws
/// std::invalid_argument unless `loss` is in [0, 1] (NaN included).
FloodResult flood_lossy(const graph::Graph& g, graph::NodeId s,
                        graph::NodeId t, double loss, std::uint64_t seed);

/// Gossip (p-flooding): like flood_lossy, but a node that first hears the
/// message retransmits with probability `p` (the source always
/// transmits).  p = 1 is flood_lossy exactly.  Throws
/// std::invalid_argument unless `loss` and `p` are in [0, 1].
FloodResult gossip_lossy(const graph::Graph& g, graph::NodeId s,
                         graph::NodeId t, double loss, double p,
                         std::uint64_t seed);

/// One experiment cell, summed over the trial pairs.  Every field is
/// thread-count invariant (pinned by the lossy and chaos ThreadInvariance
/// tests).
struct LossyCell {
  int pairs = 0;
  int delivered = 0;    ///< UES deliveries
  int certified = 0;    ///< UES failure certificates
  int uncertified = 0;  ///< retry budget spent — no verdict
  /// Verdicts contradicting ground truth: a delivery of an unreachable
  /// (or never-visited) target, or a failure certificate on a reachable
  /// one.  The §2.10 / §2.12 acceptance gate; expected 0 always.
  int unsound = 0;
  std::uint64_t hops = 0;         ///< successful link transfers
  std::uint64_t frames = 0;       ///< wire frames incl. acks/retries/losses
  std::uint64_t retransmits = 0;  ///< timeout-driven resends
  std::uint64_t corrupted = 0;    ///< frames the channel damaged
  std::uint64_t crash_drops = 0;  ///< frames dropped by crashed endpoints
  int flood_delivered = 0;
  std::uint64_t flood_transmissions = 0;
  int gossip_delivered = 0;
  std::uint64_t gossip_transmissions = 0;

  friend bool operator==(const LossyCell&, const LossyCell&) = default;
};

/// Runs `pairs` independent (s, t) trials (s != t, drawn serially from
/// Pcg32(seed)) of UES over `cfg`'s channel and ARQ vs lossy flooding vs
/// gossip (p = 0.65) at loss `cfg.link.loss`, and sums the audited
/// outcomes.  Trial i keys every stream off trial = counter_hash(seed, i):
///   * the UES channel is a static session's epoch 0 with net_seed = trial
///     (so `cfg.net_seed` is unused);
///   * when `cfg.chaos` is set, the trial arms the plan
///     FaultPlan::sample(cubic, *cfg.chaos, counter_hash(trial, 1)) as its
///     `faults` (so `cfg.chaos_seed` is unused, and `cfg.faults` must be
///     empty: std::invalid_argument otherwise);
///   * the flood draws come from counter_hash(trial, 1), the gossip draws
///     from counter_hash(trial, 2).
/// Trials fan out over `threads` lanes (0 = UESR_THREADS / hardware) with
/// chunk results merged in index order: the returned cell is
/// bit-identical for any thread count.
LossyCell lossy_experiment(const graph::Graph& g, int pairs,
                           const core::LossyTrafficConfig& cfg,
                           std::uint64_t seed, unsigned threads = 0);

}  // namespace uesr::baselines
