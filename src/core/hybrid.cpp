#include "core/hybrid.h"

namespace uesr::core {

HybridSession::HybridSession(TokenWalker& probabilistic,
                             RouteSession& guaranteed)
    : probabilistic_(&probabilistic), guaranteed_(&guaranteed) {}

void HybridSession::finish(HybridWinner winner) {
  finished_ = true;
  result_.winner = winner;
  result_.probabilistic_transmissions = probabilistic_->transmissions();
  result_.guaranteed_transmissions = guaranteed_->transmissions();
  result_.total_transmissions =
      result_.probabilistic_transmissions + result_.guaranteed_transmissions;
}

void HybridSession::step() {
  if (finished_) return;
  // Free decision checks: a side that already decided costs nothing.
  if (probabilistic_->delivered())
    return finish(HybridWinner::kProbabilistic);
  if (guaranteed_->target_reached()) return finish(HybridWinner::kGuaranteed);
  const bool prob_done = probabilistic_->exhausted();
  const bool guar_done = guaranteed_->finished();
  if (prob_done && guar_done) {
    // Both immovable, nothing delivered.  guar_done here implies the
    // session was finished before we ever stepped it (a finish under our
    // stepping ends the protocol at that step), so there is no fresh
    // certificate — this is the state the old for(;;) livelocked in.
    return finish(HybridWinner::kExhausted);
  }
  // 1:1 interleave; a side that cannot move forfeits its turn for free.
  if (turn_ == Side::kProbabilistic && prob_done)
    turn_ = Side::kGuaranteed;
  else if (turn_ == Side::kGuaranteed && guar_done)
    turn_ = Side::kProbabilistic;
  if (turn_ == Side::kProbabilistic) {
    turn_ = Side::kGuaranteed;
    probabilistic_->step();
    if (probabilistic_->delivered()) finish(HybridWinner::kProbabilistic);
  } else {
    turn_ = Side::kProbabilistic;
    guaranteed_->step();
    if (guaranteed_->target_reached()) {
      finish(HybridWinner::kGuaranteed);
    } else if (guaranteed_->finished()) {
      // Finished without reaching t under our own stepping: a full walk
      // exhausted its sequence — the failure certificate.
      finish(HybridWinner::kCertifiedFailure);
    }
  }
}

HybridResult route_hybrid(TokenWalker& probabilistic,
                          RouteSession& guaranteed) {
  HybridSession session(probabilistic, guaranteed);
  while (!session.finished()) session.step();
  return session.result();
}

}  // namespace uesr::core
