// Loss-tolerant baselines + the E13 report kernel.
//
// Once links lose frames, the comparison set changes character: flooding's
// redundancy (every node retransmits on every port) is natural loss
// armour, and Haas–Halpern–Li GOSSIP routing (PAPERS.md) — retransmit with
// probability p — is the classic knob between flooding's cost and a single
// walker's fragility.  Neither certifies anything under loss (a wave that
// died may just have been unlucky), while UES Route over stop-and-wait ARQ
// keeps SOUND certificates and pays for them with acks, retries, and
// a new "uncertified after budget" outcome (core/lossy_route.h).  E13
// measures exactly this trade.
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
#include "graph/graph.h"
#include "net/sim.h"

namespace uesr::baselines {

/// Synchronous flooding where every transmission is independently lost
/// with probability `loss`: nodes that first heard the message in round
/// r-1 retransmit once on all ports in round r; a lost copy simply never
/// arrives (no acks, no retries — flooding's armour is redundancy).
/// Transmissions count every copy put on the wire, lost ones included.
/// Never certifies: under loss a dead wave proves nothing.
FloodResult flood_lossy(const graph::Graph& g, graph::NodeId s,
                        graph::NodeId t, double loss, std::uint64_t seed);

/// Gossip (p-flooding): like flood_lossy, but a node that first hears the
/// message retransmits with probability `p` (the source always
/// transmits).  p = 1 is flood_lossy exactly.
FloodResult gossip_lossy(const graph::Graph& g, graph::NodeId s,
                         graph::NodeId t, double loss, double p,
                         std::uint64_t seed);

/// Channel/protocol knobs of one E13 cell.
struct LossyParams {
  double loss = 0.0;         ///< per-transmission loss probability
  double dup = 0.0;          ///< channel duplication probability (UES links)
  double gossip_p = 0.65;    ///< gossip retransmission probability
  net::SimTime latency_min = 1;  ///< UES link latency bounds
  net::SimTime latency_max = 1;
  /// Stop-and-wait retry budget: at most max_retries + 1 DATA copies per
  /// hop (net::WindowOptions::max_retries).
  std::uint32_t max_retries = 8;
  net::SimTime rto = 8;  ///< initial retransmission timeout (adaptive RTO)
};

/// One experiment cell, summed over the trial pairs.  Every field is
/// thread-count invariant (pinned by the lossy ThreadInvariance tests).
struct LossyCell {
  int pairs = 0;
  int ues_delivered = 0;
  int ues_certified = 0;    ///< sound failure certificates
  int ues_uncertified = 0;  ///< retry budget spent — no verdict
  /// Certificates contradicting ground-truth reachability (delivery of an
  /// unreachable target, or failure certificate on a reachable one) — the
  /// §2.10 acceptance gate; expected 0 always.
  int ues_errors = 0;
  std::uint64_t ues_hops = 0;    ///< successful link transfers
  std::uint64_t ues_frames = 0;  ///< wire frames incl. acks/retries/losses
  int flood_delivered = 0;
  std::uint64_t flood_transmissions = 0;
  int gossip_delivered = 0;
  std::uint64_t gossip_transmissions = 0;

  friend bool operator==(const LossyCell&, const LossyCell&) = default;
};

/// Runs `pairs` independent (s, t) trials (s != t, drawn serially from
/// Pcg32(seed)) of UES-over-stop-and-wait vs lossy flooding vs gossip on
/// `g` under `params`, and sums the outcomes.  Trial i's channel and
/// baseline streams derive from counter_hash(seed, i) — never shared —
/// and trials fan out over `threads` lanes (0 = UESR_THREADS / hardware)
/// with chunk results merged in index order: the returned cell is
/// bit-identical for any thread count.
LossyCell lossy_experiment(const graph::Graph& g, int pairs,
                           const LossyParams& params, std::uint64_t seed,
                           unsigned threads = 0);

}  // namespace uesr::baselines
