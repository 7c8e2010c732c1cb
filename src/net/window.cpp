#include "net/window.h"

#include <algorithm>
#include <stdexcept>

namespace uesr::net {

namespace {

// Frame-id packing, 64 bits: | transfer k (33b) | cum (15b) | frame (15b) |
// kind (1b) |.  DATA leaves cum zero; ACKs carry (frame, cumulative).
// Transfer ids make late copies of finished transfers recognizably stale.
constexpr std::uint64_t kKindAck = 1;
constexpr std::uint64_t kFieldMask = 0x7fff;  // 15 bits

std::uint64_t data_id(std::uint64_t k, std::uint32_t f) {
  return (k << 31) | (static_cast<std::uint64_t>(f) << 1);
}
std::uint64_t ack_id(std::uint64_t k, std::uint32_t f, std::uint32_t cum) {
  return (k << 31) | (static_cast<std::uint64_t>(cum) << 16) |
         (static_cast<std::uint64_t>(f) << 1) | kKindAck;
}
std::uint64_t transfer_of(std::uint64_t id) { return id >> 31; }
bool is_ack(std::uint64_t id) { return (id & kKindAck) != 0; }
std::uint32_t frame_of(std::uint64_t id) {
  return static_cast<std::uint32_t>((id >> 1) & kFieldMask);
}
std::uint32_t cum_of(std::uint64_t id) {
  return static_cast<std::uint32_t>((id >> 16) & kFieldMask);
}

}  // namespace

WindowTransport::WindowTransport(const graph::Graph& g, std::uint64_t seed,
                                 LinkModel defaults, WindowOptions options)
    : sim_(g, seed, defaults),
      options_(options),
      estimator_(options.rto_initial) {
  if (options_.window == 0)
    throw std::invalid_argument("WindowTransport: window >= 1");
  if (options_.frames_per_message == 0 ||
      options_.frames_per_message > kFieldMask)
    throw std::invalid_argument(
        "WindowTransport: frames_per_message in [1, 2^15)");
  if (options_.max_retries >= 0xffff)
    throw std::invalid_argument("WindowTransport: max_retries too large");
}

WindowOutcome WindowTransport::send(graph::NodeId from,
                                    graph::Port out_port) {
  // One check per transfer: every DATA copy leaves on (from, out_port) and
  // every ACK on the half-edge rotate() returns for it, so the frame path
  // below runs unchecked.
  sim_.check_half_edge(from, out_port, "WindowTransport::send");
  const graph::HalfEdge back = sim_.graph().rotate(from, out_port);
  const std::uint64_t k = transfers_++;
  const std::uint32_t F = options_.frames_per_message;
  WindowOutcome out;
  const SimTime start = sim_.now();
  frame_.assign(F, FrameState{});
  std::uint32_t base = 0;      // lowest unacked frame (window left edge)
  std::uint32_t next_new = 0;  // next never-launched frame
  std::uint32_t inflight = 0;
  // The highest CUMULATIVE ack seen.  `delivered` requires watermark == F,
  // never just all-frames-selectively-acked: a selectively-acked frame may
  // be reneged by a receiver crash (the volatile buffer wipe below), but a
  // cumulative ack certifies the DURABLE in-order prefix.  Crash-free the
  // two conditions coincide (receiver state is monotone).
  std::uint32_t watermark_seen = 0;
  // Receiver state: the out-of-order buffer bitmap (FrameState::received)
  // + cumulative counter.  The bitmap above `cum` is VOLATILE — wiped when
  // the receiving node's crash epoch moves; [0, cum) is the durable
  // delivered prefix.
  std::uint32_t cum = 0;  // frames [0, cum) delivered in order
  std::uint64_t rx_epoch = sim_.epoch_of(back.node);

  const auto launch = [&](std::uint32_t f) {
    FrameState& fs = frame_[f];
    fs.sent_at = sim_.now();
    sim_.transmit(from, out_port, data_id(k, f));
    ++out.data_copies;
    fs.deadline = sim_.deadline(estimator_.rto());
  };
  const auto fill = [&] {
    while (next_new < F && inflight < options_.window) {
      launch(next_new);
      ++inflight;
      ++next_new;
    }
  };
  const auto retire = [&](std::uint32_t f, bool clean_sample) {
    FrameState& fs = frame_[f];
    if (fs.acked) return;
    fs.acked = true;
    --inflight;
    // Karn's rule: only a frame that was never retransmitted yields an
    // unambiguous RTT (its ack cannot be confirming an earlier copy).
    if (clean_sample && fs.attempt == 0) {
      estimator_.sample(sim_.now() - fs.sent_at);
      ++out.rtt_samples;
    }
  };

  fill();
  for (;;) {
    // Wait on the earliest deadline among the unacked in-flight frames
    // [base, next_new).  There is none only after a renege (everything
    // selectively acked, watermark short): then drain the queue dry.
    std::uint32_t due = F;
    for (std::uint32_t j = base; j < next_new; ++j)
      if (!frame_[j].acked &&
          (due == F || frame_[j].deadline < frame_[due].deadline))
        due = j;
    const auto ev =
        due < F ? sim_.next_before(frame_[due].deadline) : sim_.next();
    if (!ev) {
      // The queue ran dry (the transfer ends undelivered), or frame
      // `due`'s deadline passed unacked.
      if (due == F) break;
      FrameState& fs = frame_[due];
      if (fs.attempt >= options_.max_retries) break;  // budget spent: dies
      ++fs.attempt;
      ++out.retransmits;
      ++total_retransmits_;
      // Backoff discipline: only the window's OLDEST unacked frame doubles
      // the shared estimator (TCP's single-timer semantics).  A burst that
      // loses k frames must cost one doubling per RTO period, not 2^k —
      // per-frame doubling would explode the timeout and erase the
      // pipeline's advantage.
      if (due == base) {
        estimator_.backoff();
        ++out.backoffs;
        ++total_backoffs_;
      }
      launch(due);
      continue;
    }
    if (ev->corrupted) {
      // CRC failure: dropped unprocessed, recovered by retransmission.
      ++out.corrupt_drops;
      continue;
    }
    if (transfer_of(ev->frame_id) != k) continue;  // stale transfer's frame
    const std::uint32_t f = frame_of(ev->frame_id);
    if (!is_ack(ev->frame_id)) {
      // Receiver: amnesia check first — a crash/recovery since the last
      // arrival wiped the volatile out-of-order buffer (the durable
      // prefix [0, cum) survives, so nothing is ever delivered twice).
      if (const std::uint64_t epoch = sim_.epoch_of(back.node);
          epoch != rx_epoch) {
        rx_epoch = epoch;
        ++out.receiver_resets;
        for (std::uint32_t j = cum; j < F; ++j) frame_[j].received = false;
      }
      // Buffer the frame (exactly once — dups and late copies hit the
      // bitmap), slide the cumulative counter, ack EVERY copy.
      if (!out.message_arrived) out.arrival = Arrival{ev->node, ev->port};
      if (!frame_[f].received) {
        frame_[f].received = true;
        while (cum < F && frame_[cum].received) ++cum;
      }
      if (cum == F) out.message_arrived = true;
      sim_.transmit(back.node, back.port, ack_id(k, f, cum));
      ++out.ack_copies;
      continue;
    }
    // Sender: one ack retires its frame selectively and everything below
    // its cumulative watermark.
    retire(f, /*clean_sample=*/true);
    const std::uint32_t watermark = std::min(cum_of(ev->frame_id), F);
    watermark_seen = std::max(watermark_seen, watermark);
    for (std::uint32_t j = base; j < watermark; ++j)
      retire(j, /*clean_sample=*/false);
    while (base < F && frame_[base].acked) ++base;
    if (base == F) {
      if (watermark_seen >= F) {
        out.delivered = true;
        break;
      }
      // Everything selectively acked but the cumulative watermark never
      // covered the message: the receiver reneged (crash wipe).  Nothing
      // left to send — keep draining in case a full-cover ack is still in
      // flight, else the transfer ends undelivered.
      continue;
    }
    fill();
  }
  out.srtt = estimator_.srtt();
  out.elapsed = sim_.now() - start;
  return out;
}

}  // namespace uesr::net
