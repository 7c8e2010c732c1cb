// Adaptive retransmission-timeout estimation for the ARQ in net/window.h
// (selective repeat, and stop-and-wait as its window-1 preset).  It is
// the ARQ's only timeout rule: one estimator per transport.
//
// The classic Jacobson/Karels estimator in integer arithmetic (the RFC
// 6298 shape): SRTT and RTTVAR are kept as fixed-point accumulators
// (srtt scaled by 8, rttvar by 4) so the update rules
//
//   rttvar <- 3/4 rttvar + 1/4 |srtt - R|
//   srtt   <- 7/8 srtt   + 1/8 R
//   rto    <- srtt + max(G, 4 * rttvar)      clamped to [kRtoMin, kRtoMax]
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
#pragma once

#include <cstdint>

#include "net/sim.h"

namespace uesr::net {

/// Floor of the working RTO (keeps rto above any 1-tick jitter).
inline constexpr SimTime kRtoMin = 4;
/// Ceiling of backoff and estimate; the initial RTO must not exceed it.
inline constexpr SimTime kRtoMax = 1024;
/// Timer granularity G: the lower bound on the variance term, so a
/// perfectly constant RTT still leaves one tick of slack between the
/// expected ack and the deadline (ties in the event queue break by push
/// order, so a deadline set exactly at the ack's arrival time would fire
/// first — G = 2 keeps adaptation spuriousness-free on constant links).
inline constexpr SimTime kRtoGranularity = 2;

class RtoEstimator {
 public:
  /// `initial` is the RTO before the first sample, in (0, kRtoMax].
  explicit RtoEstimator(SimTime initial);

  /// The RTO to arm next, already clamped to [kRtoMin, kRtoMax].
  SimTime rto() const { return rto_; }
  /// Smoothed RTT (0 until the first sample) — surfaced in outcomes.
  SimTime srtt() const { return srtt8_ >> 3; }
  std::uint64_t samples() const { return samples_; }

  /// Feed one unambiguous RTT measurement (Karn: the caller guarantees the
  /// acked frame was never retransmitted).  Recomputes rto from the
  /// estimators, ending any backoff.
  void sample(SimTime rtt);

  /// Timeout fired: double the working RTO (clamped to kRtoMax).  The
  /// doubled value persists across transfers until the next sample().
  void backoff();

 private:
  SimTime rto_;
  std::uint64_t srtt8_ = 0;    ///< SRTT << 3
  std::uint64_t rttvar4_ = 0;  ///< RTTVAR << 2
  std::uint64_t samples_ = 0;
};

}  // namespace uesr::net
