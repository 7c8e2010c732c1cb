// The one ARQ: selective-repeat sliding-window ack/retransmit over the
// lossy event simulator (SNIPPETS.md's selective-repeat sender/receiver
// queues reduced to their invariant).  Stop-and-wait is its window-1
// preset: `window = frames_per_message = 1` puts one DATA frame on the
// wire, sets one deadline, and resends with backoff until an ACK returns
// or the retry budget is spent.
//
// One send() moves one MESSAGE of `frames_per_message` frames across the
// edge at (from, out_port), keeping up to `window` frames in flight at
// once:
//
//   * the sender launches frames into the window, gives each in-flight
//     frame its own retransmission deadline, waits on the earliest one
//     (EventSim::next_before), and resends exactly the frames whose
//     deadlines pass unacked (selective repeat — never go-back-N's
//     wasteful replay).  The deadlines live here, not in the simulator's
//     queue, so an ack only marks its frame: nothing is ever cancelled;
//   * the receiver buffers out-of-order arrivals in a bitmap and acks
//     EVERY copy it sees (acks get lost too) with a (frame, cumulative)
//     pair: the selective half retires that frame from the sender's
//     window, the cumulative half retires every frame below it — so one
//     surviving ack can repair many lost ones;
//   * frames are processed exactly once and the message is complete only
//     when the receiver's cumulative counter covers it — exactly-once,
//     in-order delivery by construction.
//
// The result is the strongest one-hop contract a lossy channel admits:
//
//   * delivered == true   — every frame of the message was acked: the far
//                           end provably holds the whole message, in
//                           order, and processed it exactly once.
//   * delivered == false  — some frame spent its per-frame retry budget
//                           and the sender KNOWS NOTHING: any subset of
//                           frames and acks may be the lost half (the
//                           two-generals gap).  `message_arrived` reports
//                           the ground truth the simulator happens to
//                           know, for soundness tests only; no protocol
//                           on the sender side may read it.
//
// This is what lets sessions written against Transport's send-semantics
// run unchanged over loss: a send that returns delivered means exactly
// what Transport::send's return means, and a failed one aborts the
// session into the "uncertified after budget" verdict (DESIGN.md §2.10).
//
// Timeouts come from the shared Jacobson/Karn estimator (net/rto.h):
// never-retransmitted frames feed it unambiguous RTT samples, timeouts
// back it off, and the backed-off value persists across transfers until
// the next clean sample.  Every schedule remains a pure function of
// (graph, seed, call sequence) — the adaptation consumes no randomness of
// its own — so enable_trace() replay stays byte-identical and reports
// thread-count invariant (pinned by the window replay-regression test).
//
// Window 1 pays one RTT per frame; E14 sweeps window x loss and reports
// virtual time per delivered message against that pacing.
//
// Fault semantics (DESIGN.md §2.12): a corrupted copy fails the frame
// check sequence and is dropped unprocessed — corruption degrades to loss
// and the per-frame deadlines recover it.  Node crash amnesia follows the
// TCP-SACK reneging discipline: the receiver's in-order delivered prefix
// (`cum`) is durable app state, but the out-of-order buffer above it is
// VOLATILE — a crash/recovery of the receiving node wipes it (tracked by
// the simulator's crash epoch).  Selective acks are therefore only
// advisory: `delivered` requires a CUMULATIVE ack covering the whole
// message (the watermark), never just every-frame-selectively-acked — so
// a receiver that reneged can cost liveness (the transfer dies into the
// two-generals gap) but never soundness, and the durable prefix plus
// globally-unique frame ids mean recovery can never double-deliver.
// Crash-free, watermark-completion is provably identical to
// all-frames-acked (receiver state is monotone), so the PR 7 replay pins
// hold byte for byte.  At window 1 the out-of-order buffer is always
// empty: a crashing peer costs retries, never a second processing.
//
// Model note: the ARQ needs O(window) bits of LINK-layer state per
// endpoint (the open transfer id and the in-flight bitmap; O(1) at window
// 1).  The ROUTING layer above stays stateless — nodes still store nothing
// between messages; the paper's model constrains the routing layer, not
// the radio.
#pragma once

#include <cstdint>
#include <vector>

#include "net/rto.h"
#include "net/sim.h"
#include "net/transport.h"

namespace uesr::net {

struct WindowOptions {
  /// In-flight frame cap; 1 is stop-and-wait pacing.  >= 1.
  std::uint32_t window = 8;
  /// Frames per message (the segmentation that makes the window matter
  /// across one hop).  In [1, 2^15).
  std::uint32_t frames_per_message = 8;
  /// Per-frame retransmission budget (the wire sees at most
  /// max_retries + 1 DATA copies of a frame); a single frame exhausting it
  /// aborts the whole transfer.  Must be < 2^16 - 1.
  std::uint32_t max_retries = 8;
  /// RTO before the transport's first RTT sample, in (0, kRtoMax]; the
  /// transport's one Jacobson/Karn estimator adapts it from there.
  SimTime rto_initial = 8;
};

/// What one sliding-window message transfer accomplished.
struct WindowOutcome {
  bool delivered = false;        ///< all frames acked: exactly-once, in order
  bool message_arrived = false;  ///< ground truth: receiver holds all frames
  Arrival arrival{};             ///< far end; valid once any DATA arrived
  std::uint32_t data_copies = 0;  ///< DATA frames put on the wire
  std::uint32_t ack_copies = 0;   ///< ACK frames put on the wire
  std::uint32_t retransmits = 0;  ///< timeout-driven DATA resends
  std::uint32_t backoffs = 0;     ///< RTO doublings applied
  std::uint32_t rtt_samples = 0;  ///< clean samples fed to the estimator
  /// Arrived copies the CRC rejected (corruption degraded to loss).
  std::uint32_t corrupt_drops = 0;
  /// Receiver crash/recovery cycles observed mid-transfer (each wiped the
  /// volatile out-of-order buffer — the amnesia events).
  std::uint32_t receiver_resets = 0;
  SimTime srtt = 0;     ///< smoothed RTT after this transfer (0: none)
  SimTime elapsed = 0;  ///< virtual time the transfer consumed
};

class WindowTransport {
 public:
  /// The graph must outlive the transport.  Throws on invalid options.
  WindowTransport(const graph::Graph& g, std::uint64_t seed,
                  LinkModel defaults = {}, WindowOptions options = {});

  /// One selective-repeat message transfer across the edge at
  /// (from, out_port), blocking in VIRTUAL time: drives the simulator
  /// until every frame is acked or some frame's retry budget is spent.
  /// Every DATA and ACK copy counts one wire transmission.  Throws
  /// std::invalid_argument ("WindowTransport::send: ...") for a half-edge
  /// outside the graph, before anything is read or sent.
  WindowOutcome send(graph::NodeId from, graph::Port out_port);

  /// Total wire frames (DATA + ACK copies, lost ones included).
  std::uint64_t frames() const { return sim_.transmissions(); }

  // --- transport-lifetime retransmission aggregates ------------------------
  std::uint64_t total_retransmits() const { return total_retransmits_; }
  std::uint64_t total_backoffs() const { return total_backoffs_; }
  /// The one timeout estimator, shared by every link and transfer.
  const RtoEstimator& estimator() const { return estimator_; }

  /// The underlying simulator, for per-link overrides and one-sided flips.
  EventSim& sim() { return sim_; }
  const EventSim& sim() const { return sim_; }

 private:
  EventSim sim_;
  WindowOptions options_;
  RtoEstimator estimator_;
  std::uint64_t transfers_ = 0;  ///< send() calls so far (transfer ids)
  std::uint64_t total_retransmits_ = 0;
  std::uint64_t total_backoffs_ = 0;
  /// One frame's state within a transfer: the sender's half, then the
  /// receiver's bitmap bit.
  struct FrameState {
    SimTime sent_at = 0;  ///< launch time of the latest copy
    Deadline deadline{};  ///< when the latest copy counts as lost
    std::uint32_t attempt = 0;  ///< retransmissions so far
    bool acked = false;
    bool received = false;  ///< receiver holds it (volatile above `cum`)
  };
  /// Per-transfer scratch, indexed by frame: kept across send() calls so a
  /// transfer reuses its capacity (each send() resets it with assign()).
  std::vector<FrameState> frame_;
};

}  // namespace uesr::net
