#include "net/window.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "explore/degree_reduce.h"
#include "graph/generators.h"
#include "net/faults.h"
#include "net/rto.h"
#include "util/rng.h"

namespace uesr::net {
namespace {

using graph::Graph;
using graph::NodeId;
using graph::Port;

/// Stop-and-wait: the window-1, one-frame preset of `o`'s budgets.
WindowOptions stop_and_wait(WindowOptions o = {}) {
  o.window = o.frames_per_message = 1;
  return o;
}

std::string shape(const WindowOptions& o) {
  return "window " + std::to_string(o.window) + ", frames " +
         std::to_string(o.frames_per_message);
}

/// Every copy is duplicated, and the 1..13-tick jitter makes the adaptive
/// RTO fire spuriously, so each frame reaches the receiver several times.
/// Each transfer must still deliver once, to the far end of its edge, and
/// copies left queued by finished transfers must never deliver a later one.
void expect_exactly_once_under_duplication(const WindowOptions& opts) {
  Graph g = graph::from_edges(2, {{0, 1}});
  LinkModel m;
  m.dup = 1.0;
  m.latency_min = 1;
  m.latency_max = 13;
  WindowTransport wt(g, 3, m, opts);
  NodeId at = 0;
  for (int i = 0; i < 20; ++i) {
    const WindowOutcome out = wt.send(at, 0);
    ASSERT_TRUE(out.delivered) << "transfer " << i;
    ASSERT_TRUE(out.message_arrived);
    ASSERT_EQ(out.arrival.node, 1 - at);
    at = out.arrival.node;
  }
  wt.sim().set_link_up(at, 0, false);  // only stale copies can still arrive
  const WindowOutcome dead = wt.send(at, 0);
  EXPECT_FALSE(dead.delivered);
  EXPECT_FALSE(dead.message_arrived);
}

// ---------------------------------------------------------------------------
// RtoEstimator (net/rto.h): the Jacobson/Karn state of the ARQ.
// ---------------------------------------------------------------------------

TEST(RtoEstimator, FirstSampleSeedsSrttAndRto) {
  RtoEstimator est(8);  // kRtoMin 4, kRtoMax 1024, kRtoGranularity 2
  EXPECT_EQ(est.rto(), 8u);
  EXPECT_EQ(est.samples(), 0u);
  est.sample(10);
  // RFC 6298 seeding: SRTT = R, RTTVAR = R/2, RTO = SRTT + max(G, 4*RTTVAR).
  EXPECT_EQ(est.srtt(), 10u);
  EXPECT_EQ(est.rto(), 30u);
  EXPECT_EQ(est.samples(), 1u);
}

TEST(RtoEstimator, ConstantRttConvergesTight) {
  RtoEstimator est(8);
  for (int i = 0; i < 64; ++i) est.sample(2);
  EXPECT_EQ(est.srtt(), 2u);
  // The integer recurrence parks rttvar4 at 3 on a constant stream (the
  // decay term 3 >> 2 truncates to 0), so rto settles at srtt + 3 = 5 —
  // one tick above the granularity floor, still spuriousness-free.
  EXPECT_EQ(est.rto(), 5u);
}

TEST(RtoEstimator, BackoffDoublesAndClampsAtMax) {
  RtoEstimator est(300);
  est.backoff();
  EXPECT_EQ(est.rto(), 600u);
  est.backoff();
  EXPECT_EQ(est.rto(), kRtoMax);  // clamped
  est.backoff();
  EXPECT_EQ(est.rto(), kRtoMax);
}

TEST(RtoEstimator, BackoffPersistsUntilFreshSample) {
  RtoEstimator est(8);
  est.sample(2);
  const SimTime calm = est.rto();
  est.backoff();
  est.backoff();
  EXPECT_GT(est.rto(), calm);  // Karn: stays backed off...
  est.sample(2);
  EXPECT_LE(est.rto(), calm);  // ...until an unambiguous sample lands.
}

TEST(RtoEstimator, ValidatesOptions) {
  EXPECT_THROW(RtoEstimator{0}, std::invalid_argument);
  EXPECT_THROW(RtoEstimator{kRtoMax + 1}, std::invalid_argument);
  EXPECT_EQ(RtoEstimator{kRtoMax}.rto(), kRtoMax);
  EXPECT_EQ(RtoEstimator{2}.rto(), kRtoMin);  // clamped up to the floor
}

// ---------------------------------------------------------------------------
// WindowTransport semantics.
// ---------------------------------------------------------------------------

TEST(WindowTransport, PerfectChannelSendsEachFrameOnce) {
  Graph g = graph::from_edges(2, {{0, 1}});
  WindowOptions opts;
  opts.window = 8;
  opts.frames_per_message = 8;
  WindowTransport wt(g, 3, {}, opts);
  WindowOutcome out = wt.send(0, 0);
  EXPECT_TRUE(out.delivered);
  EXPECT_TRUE(out.message_arrived);
  EXPECT_EQ(out.arrival.node, 1u);
  EXPECT_EQ(out.arrival.port, 0u);
  EXPECT_EQ(out.data_copies, 8u);
  EXPECT_EQ(out.ack_copies, 8u);
  EXPECT_EQ(out.retransmits, 0u);
  EXPECT_EQ(wt.frames(), 16u);
}

// The deadlines live in the transport, so a delivered transfer leaves
// nothing behind in the simulator's queue: it stays bounded by the frames
// actually in flight, however many transfers run.
TEST(WindowTransport, DeliveredTransferLeavesNothingQueued) {
  const Graph g = graph::cycle(6);
  WindowOptions window4;
  window4.window = window4.frames_per_message = 4;
  for (const WindowOptions& opts : {stop_and_wait(), window4}) {
    WindowTransport wt(g, 3, {}, opts);
    NodeId at = 0;
    for (int i = 0; i < 20; ++i) {
      const WindowOutcome out = wt.send(at, 0);
      ASSERT_TRUE(out.delivered) << shape(opts);
      EXPECT_EQ(wt.sim().pending(), 0u) << shape(opts) << ", send " << i;
      at = out.arrival.node;
    }
  }
}

TEST(WindowTransport, PipelineBeatsStopAndWaitPacingAtLossZero) {
  // The whole point of the window: on a perfect unit-latency link a full
  // window moves F frames in ~one RTT, while window = 1 pays F RTTs.
  Graph g = graph::from_edges(2, {{0, 1}});
  WindowOptions pipelined;
  pipelined.window = 8;
  pipelined.frames_per_message = 8;
  WindowOptions paced = pipelined;
  paced.window = 1;
  WindowTransport fast(g, 3, {}, pipelined);
  WindowTransport slow(g, 3, {}, paced);
  const WindowOutcome a = fast.send(0, 0);
  const WindowOutcome b = slow.send(0, 0);
  ASSERT_TRUE(a.delivered);
  ASSERT_TRUE(b.delivered);
  EXPECT_EQ(a.elapsed, 2u);       // launch burst, one RTT
  EXPECT_EQ(b.elapsed, 8u * 2u);  // one frame per RTT
}

TEST(WindowTransport, DeliveredImpliesArrivedUnderChaos) {
  // Soundness under the full fault menu: whenever the sender claims
  // delivery, the receiver really holds every frame.
  Graph g = graph::connected_gnp(8, 0.4, 17);
  LinkModel m;
  m.loss = 0.3;
  m.dup = 0.5;
  m.latency_min = 1;
  m.latency_max = 20;
  WindowOptions opts;
  opts.window = 4;
  opts.frames_per_message = 6;
  opts.max_retries = 20;
  WindowTransport wt(g, 23, m, opts);
  util::Pcg32 walk(9);
  NodeId at = 0;
  int delivered = 0;
  for (int i = 0; i < 120; ++i) {
    const Port out_port = walk.next_below(g.degree(at));
    WindowOutcome out = wt.send(at, out_port);
    if (out.delivered) {
      EXPECT_TRUE(out.message_arrived);
      const graph::HalfEdge far = g.rotate(at, out_port);
      ASSERT_EQ(out.arrival.node, far.node);
      ASSERT_EQ(out.arrival.port, far.port);
      at = out.arrival.node;
      ++delivered;
    }
  }
  EXPECT_GT(delivered, 0);
  EXPECT_GT(wt.total_retransmits(), 0u);
}

TEST(WindowTransport, StaleFramesOfEarlierTransfersAreIgnored) {
  // High-jitter duplication leaves stragglers of transfer k in the queue
  // when transfer k+1 starts; they must not satisfy or poison it.
  Graph g = graph::connected_gnp(8, 0.4, 17);
  LinkModel m;
  m.dup = 0.8;
  m.loss = 0.3;
  m.latency_min = 1;
  m.latency_max = 40;
  WindowOptions pipelined;
  pipelined.window = 2;
  pipelined.frames_per_message = 3;
  pipelined.max_retries = 20;
  pipelined.rto_initial = 4;
  for (const WindowOptions& opts : {pipelined, stop_and_wait(pipelined)}) {
    SCOPED_TRACE(shape(opts));
    WindowTransport wt(g, 23, m, opts);
    util::Pcg32 walk(9);
    NodeId at = 0;
    int ok = 0;
    for (int i = 0; i < 200; ++i) {
      const Port out_port = walk.next_below(g.degree(at));
      WindowOutcome out = wt.send(at, out_port);
      if (out.delivered) {
        // The arrival must be the genuine far end of the edge we sent on —
        // never a stale frame's endpoint.
        const graph::HalfEdge far = g.rotate(at, out_port);
        ASSERT_EQ(out.arrival.node, far.node);
        ASSERT_EQ(out.arrival.port, far.port);
        ASSERT_TRUE(out.message_arrived);
        at = out.arrival.node;
        ++ok;
      }
    }
    EXPECT_GT(ok, 150);  // generous budget: most transfers confirm
  }
}

TEST(WindowTransport, DuplicationAloneCannotBreakExactlyOnce) {
  expect_exactly_once_under_duplication(WindowOptions{});
}

TEST(WindowTransport, DeadChannelSpendsEveryFrameBudgetThenDies) {
  Graph g = graph::from_edges(2, {{0, 1}});
  LinkModel dead;
  dead.loss = 1.0;
  WindowOptions opts;
  opts.window = 4;
  opts.frames_per_message = 8;
  opts.max_retries = 3;
  WindowTransport wt(g, 3, dead, opts);
  WindowOutcome out = wt.send(0, 0);
  EXPECT_FALSE(out.delivered);
  EXPECT_FALSE(out.message_arrived);
  EXPECT_EQ(out.ack_copies, 0u);
  // All 4 in-flight frames retransmit in lockstep until the first one's
  // budget dies: window * (max_retries + 1) DATA copies.
  EXPECT_EQ(out.data_copies, 4u * 4u);
  EXPECT_EQ(out.retransmits, 4u * 3u);
}

TEST(WindowTransport, ForwardDirectionDownFailsCleanly) {
  Graph g = graph::from_edges(2, {{0, 1}});
  WindowOptions pipelined;
  pipelined.window = 2;
  pipelined.frames_per_message = 4;
  pipelined.max_retries = 3;
  for (const WindowOptions& opts : {pipelined, stop_and_wait(pipelined)}) {
    SCOPED_TRACE(shape(opts));
    WindowTransport wt(g, 3, {}, opts);
    wt.sim().set_link_up(0, 0, false);
    WindowOutcome out = wt.send(0, 0);
    EXPECT_FALSE(out.delivered);
    EXPECT_FALSE(out.message_arrived);
    EXPECT_EQ(out.data_copies, opts.window * (opts.max_retries + 1));
    EXPECT_EQ(out.ack_copies, 0u);
    EXPECT_EQ(out.rtt_samples, 0u);
  }
}

TEST(WindowTransport, RetransmitsThroughLossUntilAcked) {
  Graph g = graph::from_edges(2, {{0, 1}});
  LinkModel m;
  m.loss = 0.5;
  WindowOptions pipelined;
  pipelined.window = 2;
  pipelined.frames_per_message = 4;
  pipelined.max_retries = 64;  // generous: delivery near-certain
  for (const WindowOptions& opts : {pipelined, stop_and_wait(pipelined)}) {
    SCOPED_TRACE(shape(opts));
    int delivered = 0;
    std::uint64_t retransmits = 0;
    for (int i = 0; i < 40; ++i) {
      WindowTransport wt(g, /*seed=*/1000 + i, m, opts);
      WindowOutcome out = wt.send(0, 0);
      delivered += out.delivered;
      retransmits += out.retransmits;
      EXPECT_EQ(out.data_copies, opts.frames_per_message + out.retransmits);
      if (out.delivered) {
        EXPECT_TRUE(out.message_arrived);
      }
    }
    EXPECT_EQ(delivered, 40);    // P(fail) ~ 0.5^65 per side per frame
    EXPECT_GT(retransmits, 0u);  // loss really forced retries
  }
}

TEST(WindowTransport, AckDirectionDownArrivesButNeverConfirms) {
  // The two-generals gap at window scale: all data crosses, every ack
  // dies, the sender must claim nothing.
  Graph g = graph::from_edges(2, {{0, 1}});
  WindowOptions opts;
  opts.window = 4;
  opts.frames_per_message = 4;
  opts.max_retries = 3;
  WindowTransport wt(g, 3, {}, opts);
  wt.sim().set_link_up(1, 0, false);  // kill only the ack direction
  WindowOutcome out = wt.send(0, 0);
  EXPECT_FALSE(out.delivered);
  EXPECT_TRUE(out.message_arrived);
  EXPECT_EQ(out.arrival.node, 1u);
  // The receiver acked every copy, in vain.
  EXPECT_EQ(out.ack_copies, out.data_copies);
}

TEST(WindowTransport, AdaptiveRtoConvergesOnCleanLink) {
  Graph g = graph::from_edges(2, {{0, 1}});
  WindowOptions opts;
  opts.window = 2;
  opts.frames_per_message = 4;
  WindowTransport wt(g, 3, {}, opts);
  EXPECT_EQ(wt.estimator().rto(), 8u);  // seeded from rto_initial
  for (int i = 0; i < 16; ++i) {
    WindowOutcome out = wt.send(0, 0);
    ASSERT_TRUE(out.delivered);
    EXPECT_EQ(out.retransmits, 0u);
    EXPECT_EQ(out.rtt_samples, 4u);  // every frame a clean Karn sample
  }
  EXPECT_EQ(wt.estimator().srtt(), 2u);  // unit latency each way
  EXPECT_EQ(wt.estimator().rto(), 5u);   // srtt + settled variance term
  EXPECT_EQ(wt.estimator().samples(), 16u * 4u);
}

TEST(WindowTransport, KarnBackoffThenRecovery) {
  Graph g = graph::from_edges(2, {{0, 1}});
  WindowOptions opts;
  opts.window = 2;
  opts.frames_per_message = 4;
  opts.max_retries = 4;
  WindowTransport wt(g, 3, {}, opts);
  wt.sim().set_link_up(0, 0, false);  // forward dead: timeouts only
  WindowOutcome failed = wt.send(0, 0);
  EXPECT_FALSE(failed.delivered);
  EXPECT_GT(failed.backoffs, 0u);
  // Karn: every copy was ambiguous or lost — no samples, and the backed-off
  // RTO persists past the failed transfer.
  EXPECT_EQ(failed.rtt_samples, 0u);
  const SimTime backed_off = wt.estimator().rto();
  EXPECT_GT(backed_off, opts.rto_initial);
  wt.sim().set_link_up(0, 0, true);
  WindowOutcome healed = wt.send(0, 0);
  EXPECT_TRUE(healed.delivered);
  EXPECT_EQ(healed.rtt_samples, 4u);
  EXPECT_LT(wt.estimator().rto(), backed_off);  // fresh samples recover
}

TEST(WindowTransport, DeterministicAcrossIdenticalRuns) {
  const Graph g = graph::connected_gnp(10, 0.35, 6);
  LinkModel m;
  m.loss = 0.25;
  m.dup = 0.25;
  m.latency_min = 1;
  m.latency_max = 9;
  WindowOptions opts;
  opts.window = 4;
  opts.frames_per_message = 5;
  opts.max_retries = 10;
  std::vector<std::uint64_t> frames(2);
  std::vector<std::uint64_t> retx(2);
  std::vector<int> delivered(2, 0);
  for (int run = 0; run < 2; ++run) {
    WindowTransport wt(g, 0x5eed, m, opts);
    util::Pcg32 walk(7);
    NodeId at = 0;
    for (int i = 0; i < 100; ++i) {
      const Port p = walk.next_below(g.degree(at));
      WindowOutcome out = wt.send(at, p);
      if (out.delivered) {
        at = out.arrival.node;
        ++delivered[run];
      }
    }
    frames[run] = wt.frames();
    retx[run] = wt.total_retransmits();
  }
  EXPECT_EQ(frames[0], frames[1]);
  EXPECT_EQ(retx[0], retx[1]);
  EXPECT_EQ(delivered[0], delivered[1]);
}

TEST(WindowTransport, ValidatesOptions) {
  Graph g = graph::from_edges(2, {{0, 1}});
  WindowOptions opts;
  opts.window = 0;
  EXPECT_THROW(WindowTransport(g, 1, {}, opts), std::invalid_argument);
  opts = {};
  opts.frames_per_message = 0;
  EXPECT_THROW(WindowTransport(g, 1, {}, opts), std::invalid_argument);
  opts = {};
  opts.frames_per_message = 1u << 15;
  EXPECT_THROW(WindowTransport(g, 1, {}, opts), std::invalid_argument);
  opts = {};
  opts.max_retries = 0xffff;
  EXPECT_THROW(WindowTransport(g, 1, {}, opts), std::invalid_argument);
}

/// The named error `send(from, port)` must throw, before it reads the
/// graph or puts anything on the wire.
void expect_rejected(WindowTransport& arq, NodeId from, Port port,
                     const std::string& what) {
  try {
    arq.send(from, port);
    ADD_FAILURE() << "send(" << from << ", " << port << ") did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "WindowTransport::send: " + what);
  }
  EXPECT_EQ(arq.frames(), 0u);
}

TEST(WindowTransport, SendRejectsHostileHalfEdge) {
  // A cubic reduction (the packed 3v + p layout) and a generic graph (the
  // CSR layout), each probed past its last node and past a node's degree.
  const explore::ReducedGraph red =
      explore::reduce_to_cubic(graph::grid(3, 3));
  const Graph generic = graph::from_edges(3, {{0, 1}, {1, 2}});
  for (const Graph* g : {&red.cubic, &generic}) {
    SCOPED_TRACE(g->is_cubic() ? "cubic" : "generic");
    WindowTransport arq(*g, 5);
    const NodeId n = g->num_nodes();
    expect_rejected(arq, n, 0, "node out of range");
    expect_rejected(arq, n + 1000, 0, "node out of range");
    expect_rejected(arq, 0, g->degree(0), "port out of range");
    expect_rejected(arq, n - 1, 1000, "port out of range");
    // A valid half-edge still transfers afterwards.
    EXPECT_TRUE(arq.send(0, 0).delivered);
  }
}

TEST(WindowTransport, FullCorruptionDegradesToLossAndDiesOnBudget) {
  Graph g = graph::from_edges(2, {{0, 1}});
  LinkModel m;
  m.corrupt = 1.0;
  WindowOptions opts;
  opts.window = 4;
  opts.frames_per_message = 4;
  opts.max_retries = 3;
  WindowTransport wt(g, 3, m, opts);
  WindowOutcome out = wt.send(0, 0);
  EXPECT_FALSE(out.delivered);
  EXPECT_FALSE(out.message_arrived);  // dropped unprocessed — never arrived
  // Every copy arrived and was rejected by the CRC.
  EXPECT_EQ(out.data_copies, 4u * 4u);
  EXPECT_EQ(out.corrupt_drops, out.data_copies);
  EXPECT_EQ(wt.sim().frames_corrupted(), out.data_copies);
  EXPECT_EQ(out.ack_copies, 0u);  // no frame ever passed the CRC
}

TEST(WindowTransport, ModerateCorruptionIsRecoveredByRetransmission) {
  Graph g = graph::from_edges(2, {{0, 1}});
  LinkModel m;
  m.corrupt = 0.25;
  WindowOptions opts;
  opts.window = 4;
  opts.frames_per_message = 8;
  opts.max_retries = 64;
  int delivered = 0;
  std::uint64_t drops = 0;
  for (int i = 0; i < 30; ++i) {
    WindowTransport wt(g, /*seed=*/700 + i, m, opts);
    WindowOutcome out = wt.send(0, 0);
    delivered += out.delivered;
    drops += out.corrupt_drops;
    if (out.delivered) {
      EXPECT_TRUE(out.message_arrived);
    }
  }
  EXPECT_EQ(delivered, 30);
  EXPECT_GT(drops, 0u);
}

TEST(WindowTransport, ReceiverCrashAmnesiaNeverFalselyDelivers) {
  // The reneging discipline under fire: crash windows wipe the receiver's
  // out-of-order buffer mid-transfer.  Whatever happens, `delivered` must
  // imply the receiver really holds the whole message (the §2.12 soundness
  // half).  Liveness is the documented cost: the sender never resends a
  // selectively-acked frame, so a wiped bitmap usually strands the
  // transfer in the two-generals gap until the budget kills it.
  Graph g = graph::from_edges(2, {{0, 1}});
  LinkModel m;
  m.loss = 0.15;
  m.latency_min = 1;
  m.latency_max = 4;
  WindowOptions opts;
  opts.window = 4;
  opts.frames_per_message = 12;
  opts.max_retries = 64;
  int delivered = 0;
  std::uint64_t resets = 0;
  for (int i = 0; i < 40; ++i) {
    WindowTransport wt(g, /*seed=*/900 + i, m, opts);
    FaultAction crash;
    crash.kind = FaultAction::Kind::kCrash;
    crash.node = 1;
    FaultAction recover;
    recover.kind = FaultAction::Kind::kRecover;
    recover.node = 1;
    // Two crash windows inside the transfer's natural lifetime.
    wt.sim().schedule_fault(3, crash);
    wt.sim().schedule_fault(9, recover);
    wt.sim().schedule_fault(20, crash);
    wt.sim().schedule_fault(28, recover);
    WindowOutcome out = wt.send(0, 0);
    if (out.delivered) {
      ++delivered;
      EXPECT_TRUE(out.message_arrived) << "seed " << 900 + i;
    }
    resets += out.receiver_resets;
  }
  EXPECT_GT(delivered, 0);   // a window that misses the bitmap still lands
  EXPECT_LT(delivered, 40);  // and reneging really costs transfers
  EXPECT_GT(resets, 0u);     // the wipe really happened mid-transfer
}

TEST(WindowTransport, StopAndWaitReceiverCrashCostsRetriesOnly) {
  // At window 1 the receiver's out-of-order buffer is always empty, so
  // there is nothing to renege: a receiver that crashes and recovers
  // mid-transfer costs retries, never a lost or second processing.  Crash
  // drops account for the frames the down window swallowed.
  Graph g = graph::from_edges(2, {{0, 1}});
  WindowOptions opts = stop_and_wait();
  opts.max_retries = 32;
  WindowTransport wt(g, 3, {}, opts);
  FaultAction crash;
  crash.kind = FaultAction::Kind::kCrash;
  crash.node = 1;
  FaultAction recover;
  recover.kind = FaultAction::Kind::kRecover;
  recover.node = 1;
  wt.sim().schedule_fault(1, crash);  // swallow the first copies
  wt.sim().schedule_fault(40, recover);
  WindowOutcome out = wt.send(0, 0);
  EXPECT_TRUE(out.delivered);
  EXPECT_TRUE(out.message_arrived);
  EXPECT_GT(out.retransmits, 0u);  // the window really cost retries
  EXPECT_EQ(out.receiver_resets, 1u);
  EXPECT_GT(wt.sim().frames_crash_dropped(), 0u);
  EXPECT_EQ(wt.sim().crash_epochs(1), 1u);
}

// ---------------------------------------------------------------------------
// ReliableTransport: the stop-and-wait preset (window 1, one frame per
// message) of WindowTransport, checked against the exact one-DATA-frame
// accounting of a stop-and-wait ARQ.  The suite keeps the name of the
// reliable stop-and-wait transport whose behaviour the preset carries.
// ---------------------------------------------------------------------------

TEST(ReliableTransport, PerfectChannelIsOneDataOneAck) {
  Graph g = graph::from_edges(2, {{0, 1}});
  WindowTransport rt(g, 3, {}, stop_and_wait());
  WindowOutcome out = rt.send(0, 0);
  EXPECT_TRUE(out.delivered);
  EXPECT_TRUE(out.message_arrived);
  EXPECT_EQ(out.arrival.node, 1u);
  EXPECT_EQ(out.arrival.port, 0u);
  EXPECT_EQ(out.data_copies, 1u);
  EXPECT_EQ(out.ack_copies, 1u);
  EXPECT_EQ(rt.frames(), 2u);
}

TEST(ReliableTransport, BudgetExhaustionSpendsExactlyMaxRetriesPlusOne) {
  Graph g = graph::from_edges(2, {{0, 1}});
  LinkModel dead;
  dead.loss = 1.0;
  WindowOptions opts = stop_and_wait();
  opts.max_retries = 5;
  WindowTransport rt(g, 3, dead, opts);
  WindowOutcome out = rt.send(0, 0);
  EXPECT_FALSE(out.delivered);
  EXPECT_FALSE(out.message_arrived);
  EXPECT_EQ(out.data_copies, 6u);  // initial + 5 retries
  EXPECT_EQ(out.retransmits, 5u);
  EXPECT_EQ(out.ack_copies, 0u);
}

// The two-generals gap made concrete: data crosses, every ack dies.  The
// sender must report not-delivered while the simulator's ground truth
// records the arrival — exactly the case that turns failure certificates
// into "uncertified after budget" one layer up.
TEST(ReliableTransport, AckDirectionDownArrivesButNeverConfirms) {
  Graph g = graph::from_edges(2, {{0, 1}});
  WindowOptions opts = stop_and_wait();
  opts.max_retries = 3;
  WindowTransport rt(g, 3, {}, opts);
  rt.sim().set_link_up(1, 0, false);  // kill the 1 -> 0 (ack) direction only
  WindowOutcome out = rt.send(0, 0);
  EXPECT_FALSE(out.delivered);
  EXPECT_TRUE(out.message_arrived);
  EXPECT_EQ(out.arrival.node, 1u);
  EXPECT_EQ(out.data_copies, 4u);
  EXPECT_EQ(out.ack_copies, 4u);  // the receiver acked every copy, in vain
}

TEST(ReliableTransport, DuplicationAloneCannotBreakExactlyOnce) {
  expect_exactly_once_under_duplication(stop_and_wait());
}

TEST(ReliableTransport, AdaptiveRtoConvergesOnCleanLink) {
  Graph g = graph::from_edges(2, {{0, 1}});
  WindowTransport rt(g, 3, {}, stop_and_wait());
  EXPECT_EQ(rt.estimator().rto(), 8u);  // the first copy arms rto_initial
  for (int i = 0; i < 16; ++i) {
    WindowOutcome out = rt.send(0, 0);
    ASSERT_TRUE(out.delivered);
    EXPECT_EQ(out.retransmits, 0u);
    EXPECT_EQ(out.rtt_samples, 1u);  // one clean Karn sample per transfer
  }
  EXPECT_EQ(rt.estimator().srtt(), 2u);  // unit latency each way
  // The working RTO tracked the measured RTT down from the initial 8.
  EXPECT_EQ(rt.estimator().rto(), 5u);
  EXPECT_EQ(rt.estimator().samples(), 16u);
}

TEST(ReliableTransport, KarnBackoffPersistsAcrossTransfersUntilSampled) {
  Graph g = graph::from_edges(2, {{0, 1}});
  WindowOptions opts = stop_and_wait();
  opts.max_retries = 4;
  WindowTransport rt(g, 3, {}, opts);
  rt.sim().set_link_up(0, 0, false);  // forward dead: timeouts only
  WindowOutcome failed = rt.send(0, 0);
  EXPECT_FALSE(failed.delivered);
  EXPECT_GT(failed.backoffs, 0u);
  EXPECT_EQ(failed.rtt_samples, 0u);  // ambiguous copies feed nothing
  const SimTime backed_off = rt.estimator().rto();
  EXPECT_GT(backed_off, opts.rto_initial);
  rt.sim().set_link_up(0, 0, true);
  // Karn: the backed-off timeout is still the one the first copy after
  // healing arms; the clean sample then ends the backoff.
  EXPECT_EQ(rt.estimator().rto(), backed_off);
  WindowOutcome healed = rt.send(0, 0);
  EXPECT_TRUE(healed.delivered);
  EXPECT_EQ(healed.retransmits, 0u);
  EXPECT_EQ(healed.rtt_samples, 1u);
  EXPECT_LT(rt.estimator().rto(), backed_off);
}

TEST(ReliableTransport, BackoffDeterministicAcrossRuns) {
  Graph g = graph::from_edges(2, {{0, 1}});
  LinkModel m;
  m.loss = 0.7;
  WindowOptions opts = stop_and_wait();
  opts.max_retries = 10;
  std::uint64_t frames[2];
  bool delivered[2];
  for (int run = 0; run < 2; ++run) {
    WindowTransport rt(g, /*seed=*/0xbeef, m, opts);
    WindowOutcome out = rt.send(0, 0);
    frames[run] = rt.frames();
    delivered[run] = out.delivered;
  }
  EXPECT_EQ(frames[0], frames[1]);
  EXPECT_EQ(delivered[0], delivered[1]);
}

TEST(ReliableTransport, FullCorruptionDegradesToLossAndSpendsTheBudget) {
  Graph g = graph::from_edges(2, {{0, 1}});
  LinkModel m;
  m.corrupt = 1.0;  // every copy arrives, none passes the CRC
  WindowOptions opts = stop_and_wait();
  opts.max_retries = 5;
  WindowTransport rt(g, 3, m, opts);
  WindowOutcome out = rt.send(0, 0);
  EXPECT_FALSE(out.delivered);
  EXPECT_FALSE(out.message_arrived);  // dropped unprocessed — never arrived
  EXPECT_EQ(out.data_copies, 6u);
  EXPECT_EQ(out.corrupt_drops, 6u);  // each copy was rejected on arrival
  EXPECT_EQ(out.ack_copies, 0u);     // a rejected frame is never acked
  EXPECT_EQ(rt.sim().frames_corrupted(), 6u);
}

TEST(ReliableTransport, ModerateCorruptionIsRecoveredByRetransmission) {
  Graph g = graph::from_edges(2, {{0, 1}});
  LinkModel m;
  m.corrupt = 0.3;
  WindowOptions opts = stop_and_wait();
  opts.max_retries = 64;
  int delivered = 0;
  std::uint64_t drops = 0;
  for (int i = 0; i < 40; ++i) {
    WindowTransport rt(g, /*seed=*/500 + i, m, opts);
    WindowOutcome out = rt.send(0, 0);
    delivered += out.delivered;
    drops += out.corrupt_drops;
  }
  EXPECT_EQ(delivered, 40);  // corruption is just loss to the protocol
  EXPECT_GT(drops, 0u);      // and it really happened
}

TEST(ReliableTransport, ValidatesOptions) {
  Graph g = graph::cycle(3);
  WindowOptions zero_rto = stop_and_wait();
  zero_rto.rto_initial = 0;
  EXPECT_THROW(WindowTransport(g, 3, {}, zero_rto), std::invalid_argument);
  WindowOptions huge_rto = stop_and_wait();
  huge_rto.rto_initial = kRtoMax + 1;
  EXPECT_THROW(WindowTransport(g, 3, {}, huge_rto), std::invalid_argument);
}

// Golden pin of the stop-and-wait preset over a lockstep grid: loss x dup
// x jitter x corruption x sampled chaos plans, 72 configurations of 60
// transfers each.  The digest hashes every outcome field, the RTO armed
// for the first copy, frames() and now() after every transfer, and the
// estimator's sample count; it was recorded while the transport still had
// fixed-RTO and per-link modes, so the one shared estimator reproduces
// those runs transfer for transfer.
TEST(WindowTransport, StopAndWaitPresetMatchesGoldenGrid) {
  const Graph g = graph::connected_gnp(10, 0.35, 6);
  std::vector<ChaosConfig> plans(3);  // none; crashes + brownouts; bursts
  plans[1].crash_rate = 0.05;
  plans[1].brownout_rate = 0.03;
  plans[2].crash_rate = 0.02;
  plans[2].corrupt_burst_rate = 0.1;
  plans[2].brownout_rate = 0.02;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  std::uint64_t seed = 0;
  std::uint64_t delivered = 0;
  std::uint64_t undelivered = 0;
  for (double loss : {0.0, 0.15, 0.4})
    for (double dup : {0.0, 0.3})
      for (SimTime jitter : {SimTime{1}, SimTime{9}})
        for (double corrupt : {0.0, 0.1})
          for (const ChaosConfig& plan : plans) {
            LinkModel m;
            m.loss = loss;
            m.dup = dup;
            m.latency_min = 1;
            m.latency_max = jitter;
            m.corrupt = corrupt;
            WindowOptions opts = stop_and_wait();
            opts.max_retries = 4;
            opts.rto_initial = 5;
            WindowTransport arq(g, ++seed, m, opts);
            FaultPlan::sample(g, plan, seed).arm(arq.sim());
            util::Pcg32 walk(seed);
            NodeId at = 0;
            for (int i = 0; i < 60; ++i) {
              const Port p = walk.next_below(g.degree(at));
              mix(arq.estimator().rto());
              const WindowOutcome out = arq.send(at, p);
              mix(out.delivered);
              mix(out.message_arrived);
              mix(out.arrival.node);
              mix(out.arrival.port);
              mix(out.data_copies);
              mix(out.ack_copies);
              mix(out.retransmits);
              mix(out.backoffs);
              mix(out.rtt_samples);
              mix(out.corrupt_drops);
              mix(out.srtt);
              mix(out.elapsed);
              mix(arq.frames());
              mix(arq.sim().now());
              if (out.delivered) {
                at = out.arrival.node;
                ++delivered;
              } else {
                ++undelivered;
              }
            }
            mix(arq.total_retransmits());
            mix(arq.total_backoffs());
            mix(arq.estimator().samples());
          }
  EXPECT_EQ(delivered, 4121u);
  EXPECT_EQ(undelivered, 199u);
  EXPECT_EQ(h, 0xbee2e1449cefd900ULL);
}

// The replay-regression gate for the new frame types: a 10k-event chaos
// trace driven entirely through selective-repeat transfers must replay
// byte-identically — the adaptation consumes no randomness, so the
// schedule is a pure function of (graph, seed, call sequence).
TEST(WindowTransportReplay, TenThousandEventTraceIsByteIdentical) {
  const Graph g = graph::connected_gnp(12, 0.3, 5);
  LinkModel m;
  m.loss = 0.3;
  m.dup = 0.3;
  m.latency_min = 1;
  m.latency_max = 13;
  WindowOptions opts;
  opts.window = 4;
  opts.frames_per_message = 6;
  opts.max_retries = 12;
  constexpr std::size_t kLimit = 10000;
  std::vector<std::string> traces[2];
  for (int run = 0; run < 2; ++run) {
    WindowTransport wt(g, 0xabcdef, m, opts);
    wt.sim().enable_trace(kLimit);
    util::Pcg32 walk(99);
    NodeId at = 0;
    while (wt.sim().trace().size() < kLimit) {
      const Port p = walk.next_below(g.degree(at));
      WindowOutcome out = wt.send(at, p);
      if (out.delivered) at = out.arrival.node;
    }
    traces[run] = wt.sim().trace();
  }
  ASSERT_EQ(traces[0].size(), kLimit);
  ASSERT_EQ(traces[1].size(), kLimit);
  for (std::size_t i = 0; i < kLimit; ++i)
    ASSERT_EQ(traces[0][i], traces[1][i]) << "trace line " << i;
}

}  // namespace
}  // namespace uesr::net
