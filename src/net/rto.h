// Adaptive retransmission-timeout estimation for the ARQ in net/window.h
// (selective repeat, and stop-and-wait as its window-1 preset).
//
// The classic Jacobson/Karels estimator in integer arithmetic (the RFC
// 6298 shape): SRTT and RTTVAR are kept as fixed-point accumulators
// (srtt scaled by 8, rttvar by 4) so the update rules
//
//   rttvar <- 3/4 rttvar + 1/4 |srtt - R|
//   srtt   <- 7/8 srtt   + 1/8 R
//   rto    <- srtt + max(G, 4 * rttvar)      clamped to [min, max]
//
// are exact integer recurrences — a pure function of the sample sequence,
// with no floating point anywhere near the schedule.  That is what keeps
// the determinism contract intact: the RTO an ARQ arms is a pure function
// of (seed, call sequence), so enable_trace() replays stay byte-identical
// and every report stays thread-count invariant no matter how adaptively
// the deadlines move.
//
// Karn's rule is split between this class and its callers:
//   * callers feed sample() ONLY from frames that were never retransmitted
//     (a retransmitted frame's ack is ambiguous — it may confirm any copy,
//     so its RTT is unusable);
//   * backoff() doubles the working RTO on timeout and the backed-off
//     value KEEPS being used for subsequent transfers until a fresh sample
//     re-derives rto from the estimators — exactly Karn's "reuse the
//     backed-off timer until an unambiguous sample" discipline.
//
// With adaptive = false the estimator degrades to the PR 6 behaviour:
// sample() is a no-op and rto() stays pinned at `initial` (callers then
// apply their own per-transfer doubling), so existing fixed-RTO tests and
// benches replay unchanged.
#pragma once

#include <cstdint>

#include "net/sim.h"

namespace uesr::net {

struct RtoOptions {
  SimTime initial = 8;  ///< RTO before the first sample; must be > 0
  SimTime min = 4;      ///< adaptive floor (keeps rto > any 1-tick jitter)
  SimTime max = 1024;   ///< backoff/estimate ceiling; must be >= initial
  /// Timer granularity G: the lower bound on the variance term, so a
  /// perfectly constant RTT still leaves one tick of slack between the
  /// expected ack and the deadline (ties in the event queue break by push
  /// order, so a deadline set exactly at the ack's arrival time would fire
  /// first — G = 2 keeps adaptation spuriousness-free on constant links).
  SimTime granularity = 2;
  bool adaptive = true;  ///< false: rto() == initial forever (PR 6 mode)
};

class RtoEstimator {
 public:
  explicit RtoEstimator(RtoOptions options = {});

  /// The RTO to arm next, already clamped to [min, max].
  SimTime rto() const { return rto_; }
  /// Smoothed RTT (0 until the first sample) — surfaced in outcomes.
  SimTime srtt() const { return srtt8_ >> 3; }
  std::uint64_t samples() const { return samples_; }

  /// Feed one unambiguous RTT measurement (Karn: the caller guarantees the
  /// acked frame was never retransmitted).  Recomputes rto from the
  /// estimators, ending any backoff.  No-op when !adaptive.
  void sample(SimTime rtt);

  /// Timeout fired: double the working RTO (clamped to max).  The doubled
  /// value persists across transfers until the next sample().  Applied in
  /// adaptive mode only — fixed-RTO callers keep their own local doubling
  /// so PR 6 schedules replay bit-identically.
  void backoff();

  const RtoOptions& options() const { return options_; }

 private:
  SimTime clamp(SimTime t) const;

  RtoOptions options_;
  SimTime rto_;
  std::uint64_t srtt8_ = 0;    ///< SRTT << 3
  std::uint64_t rttvar4_ = 0;  ///< RTTVAR << 2
  std::uint64_t samples_ = 0;
};

}  // namespace uesr::net
