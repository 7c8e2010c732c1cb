// The E15 chaos-soundness kernel: UES routing over the full fault stack —
// loss, duplication, corruption, node crash/recovery, link brownouts —
// with every verdict audited against ground truth.
//
// The claim under test (DESIGN.md §2.12): faults change WHICH sessions
// complete, never what a completed session's certificate means.  Crashes
// and corruption only delay or kill frames — a walk that completes is
// bit-identical to the lossless walk, so kDelivered still proves the
// target processed the payload and kFailureCertified still proves
// non-reachability in the static graph (§3 caveat as ever); everything
// else degrades to kUncertified.  `unsound` counts verdicts contradicting
// the ground-truth component map (or a delivery whose walk never touched
// the target) — the acceptance gate is unsound == 0 in EVERY cell of the
// E15 crash-rate x corruption-rate sweep, and the seeded chaos fuzzer
// asserts it over hundreds of sampled FaultPlans across the graph zoo.
//
// Determinism: trial i's channel seed and its sampled FaultPlan derive
// from counter_hash(seed, i) sub-streams (PR 3 convention), trials fan
// out over threads with in-order merge — every cell is bit-identical for
// any thread count (pinned by the chaos ThreadInvariance test).
#pragma once

#include <cstdint>

#include "core/lossy_route.h"
#include "graph/graph.h"
#include "net/faults.h"
#include "net/sim.h"

namespace uesr::baselines {

/// Channel + fault + protocol knobs of one E15 cell.
struct ChaosParams {
  double loss = 0.0;     ///< per-transmission loss probability
  double dup = 0.0;      ///< channel duplication probability
  double corrupt = 0.0;  ///< baseline per-delivery corruption probability
  net::SimTime latency_min = 1;  ///< link latency bounds
  net::SimTime latency_max = 1;
  /// Crash / brownout / corruption-burst sampling knobs; each trial arms
  /// FaultPlan::sample(cubic, chaos, counter_hash(trial, 1)).
  net::ChaosConfig chaos{};
  /// ARQ budgets / timeouts; window shape under selective repeat only
  /// (core::ArqKind).
  net::WindowOptions window{};
  core::ArqKind arq = core::ArqKind::kStopAndWait;
};

/// One experiment cell, summed over the trial pairs.  Every field is
/// thread-count invariant.
struct ChaosCell {
  int pairs = 0;
  int delivered = 0;
  int certified = 0;    ///< sound failure certificates
  int uncertified = 0;  ///< budget spent under faults — no verdict
  /// Verdicts contradicting ground truth: delivery of an unreachable (or
  /// never-visited) target, or a failure certificate on a reachable one.
  /// The §2.12 acceptance gate; expected 0 always.
  int unsound = 0;
  std::uint64_t hops = 0;         ///< successful link transfers
  std::uint64_t frames = 0;       ///< wire frames incl. acks/retries
  std::uint64_t corrupted = 0;    ///< frames the channel damaged
  std::uint64_t crash_drops = 0;  ///< frames dropped by crashed endpoints
  std::uint64_t retransmits = 0;  ///< timeout-driven resends

  friend bool operator==(const ChaosCell&, const ChaosCell&) = default;
};

/// Runs `pairs` independent (s, t) trials (s != t, drawn serially from
/// Pcg32(seed)) of UES-over-ARQ on `g` under `params`, each trial over its
/// own channel (seed counter_hash(trial, 0)) with its own sampled
/// FaultPlan (seed counter_hash(trial, 1)), and sums the audited
/// outcomes.  Bit-identical for any thread count (0 = UESR_THREADS /
/// hardware).
ChaosCell chaos_experiment(const graph::Graph& g, int pairs,
                           const ChaosParams& params, std::uint64_t seed,
                           unsigned threads = 0);

}  // namespace uesr::baselines
