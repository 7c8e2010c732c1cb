// The Corollary-2 combiner: run a fast probabilistic router in parallel
// with the guaranteed UES router and stop as soon as either decides.
//
// The paper's observation: if a probabilistic algorithm delivers in
// expected time T(n) with failure probability n^{-omega(1)}, interleaving
// it 1:1 with the guaranteed walker yields expected time O(T(n)) — at most
// a factor-2 slowdown plus a vanishing correction — while inheriting the
// guarantee: if t is unreachable, the UES walker eventually returns with a
// *certified* failure, so the combined algorithm always terminates.
// HybridResult::verdict() reports that end as a core::Verdict, read off
// the winning side.
//
// The probabilistic side is abstracted as a TokenWalker so any baseline
// (random walk, greedy, whatever) can plug in; baselines/ provides
// implementations.
#pragma once

#include <cstdint>

#include "core/route.h"

namespace uesr::core {

/// One message walking the network, advanced one transmission at a time.
class TokenWalker {
 public:
  virtual ~TokenWalker() = default;
  virtual void step() = 0;                 ///< one transmission
  virtual bool delivered() const = 0;      ///< has it reached the target?
  virtual bool exhausted() const = 0;      ///< gave up (TTL etc.)
  virtual std::uint64_t transmissions() const = 0;
};

enum class HybridWinner {
  kProbabilistic,
  kGuaranteed,
  kCertifiedFailure,
  /// Neither side decided: the token exhausted and the guaranteed session
  /// was already finished when the combiner took over, so no walk the
  /// combiner itself drove produced a verdict.
  kExhausted,
};

struct HybridResult {
  /// Which side decided; verdict() reads the outcome off it.
  HybridWinner winner = HybridWinner::kCertifiedFailure;
  std::uint64_t probabilistic_transmissions = 0;
  std::uint64_t guaranteed_transmissions = 0;
  std::uint64_t total_transmissions = 0;

  /// kDelivered when either side reached t; kCertified only when the UES
  /// walker finished with a failure certificate (t provably not in s's
  /// component, given a covering sequence); kExhausted when both walkers
  /// were done without deciding (token exhausted, guaranteed session
  /// already finished on entry).  A stale pre-finished session proves
  /// nothing about this run, so the honest report is "gave up", exactly
  /// like a TTL expiry.
  Verdict verdict() const {
    return winner == HybridWinner::kCertifiedFailure ? Verdict::kCertified
           : winner == HybridWinner::kExhausted      ? Verdict::kExhausted
                                                     : Verdict::kDelivered;
  }
};

/// Resumable execution of the Corollary-2 interleave: each step() advances
/// the protocol by (at most) one transmission, alternating sides, so a
/// scheduler multiplexing many sessions (core::TrafficEngine) can drive
/// hybrids on the same per-transmission clock as everything else.
///
/// Termination is unconditional, including for sessions handed over in a
/// terminal state: a finished guaranteed session is never stepped, an
/// exhausted token is never stepped, and once *both* sides are immovable
/// without a delivery the session finishes with verdict kExhausted instead
/// of spinning.  A guaranteed session that finishes under our own stepping
/// still yields the usual certified failure; one that was already finished
/// (and undelivered) on entry is stale — it certifies nothing about this
/// run.
class HybridSession {
 public:
  /// Both sessions must outlive this object.
  HybridSession(TokenWalker& probabilistic, RouteSession& guaranteed);

  /// One transmission slot (a few bookkeeping-only decisions are free).
  /// No-op once finished().
  void step();

  bool finished() const { return finished_; }

  /// The verdict; meaningful once finished().
  const HybridResult& result() const { return result_; }

 private:
  enum class Side : std::uint8_t { kProbabilistic, kGuaranteed };

  void finish(HybridWinner winner);

  TokenWalker* probabilistic_;
  RouteSession* guaranteed_;
  Side turn_ = Side::kProbabilistic;
  bool finished_ = false;
  HybridResult result_;
};

/// Alternates probabilistic and guaranteed transmissions until the first
/// of: the probabilistic token delivers; the guaranteed walk reaches t;
/// the guaranteed walk terminates with a failure certificate; or both
/// walkers are done without delivery (token exhausted + guaranteed session
/// already finished), in which case the verdict is kExhausted and
/// uncertified.  Equivalent to driving a HybridSession to completion.
HybridResult route_hybrid(TokenWalker& probabilistic,
                          RouteSession& guaranteed);

}  // namespace uesr::core
