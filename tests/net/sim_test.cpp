#include "net/sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "util/rng.h"

namespace uesr::net {
namespace {

using graph::Graph;
using graph::NodeId;
using graph::Port;

LinkModel perfect() {
  LinkModel m;
  m.latency_min = m.latency_max = 1;
  m.loss = 0.0;
  m.dup = 0.0;
  return m;
}

TEST(EventSim, PerfectLinkDeliversToFarEnd) {
  Graph g = graph::from_edges(3, {{0, 1}, {1, 2}});
  EventSim sim(g, 7, perfect());
  sim.send(0, 0, 42);
  auto ev = sim.next();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, SimEventKind::kArrival);
  EXPECT_EQ(ev->node, 1u);
  EXPECT_EQ(ev->port, 0u);
  EXPECT_EQ(ev->from, 0u);
  EXPECT_EQ(ev->frame_id, 42u);
  EXPECT_EQ(ev->time, 1u);
  EXPECT_FALSE(ev->duplicate);
  EXPECT_EQ(sim.now(), 1u);
  EXPECT_FALSE(sim.next().has_value());
  EXPECT_EQ(sim.transmissions(), 1u);
}

TEST(EventSim, HeapOrdersByTimeThenPushSeq) {
  Graph g = graph::cycle(4);
  LinkModel slow = perfect();
  slow.latency_min = slow.latency_max = 5;
  EventSim sim(g, 7, perfect());
  sim.set_link_model(0, 0, slow);
  sim.send(0, 0, 1);  // arrives at t=5
  sim.send(1, 1, 2);  // arrives at t=1
  FaultAction burst;
  burst.kind = FaultAction::Kind::kGlobalCorrupt;
  burst.corrupt = 1.0;
  sim.schedule_fault(5, burst);        // t=5, queued before the deadline
  const Deadline d = sim.deadline(5);  // t=5, after everything so far
  sim.send(0, 0, 3);                   // t=5, pushed after the deadline
  EXPECT_EQ(d.time, 5u);
  auto a = sim.next_before(d);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->frame_id, 2u);
  auto b = sim.next_before(d);  // the deadline's time, lower push seq
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->kind, SimEventKind::kArrival);
  EXPECT_EQ(b->frame_id, 1u);
  EXPECT_EQ(sim.link_model(0, 0).corrupt, 0.0);
  // The deadline fires before frame 3, once the fault has applied.
  EXPECT_FALSE(sim.next_before(d).has_value());
  EXPECT_EQ(sim.now(), 5u);
  EXPECT_EQ(sim.link_model(0, 0).corrupt, 1.0);
  EXPECT_EQ(sim.pending(), 1u);
  auto c = sim.next();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->frame_id, 3u);
  EXPECT_EQ(c->time, 5u);
  // A deadline that has already passed fires at once and never moves
  // the clock back.
  sim.send(0, 0, 4);  // arrives at t=10
  ASSERT_TRUE(sim.next().has_value());
  EXPECT_FALSE(sim.next_before(d).has_value());
  EXPECT_EQ(sim.now(), 10u);
}

TEST(EventSim, FullLossDropsEverything) {
  Graph g = graph::cycle(4);
  LinkModel lossy = perfect();
  lossy.loss = 1.0;
  EventSim sim(g, 7, lossy);
  for (int i = 0; i < 10; ++i) sim.send(0, 0, i);
  EXPECT_FALSE(sim.next().has_value());
  EXPECT_EQ(sim.transmissions(), 10u);  // lost frames were really sent
  EXPECT_EQ(sim.frames_lost(), 10u);
}

TEST(EventSim, FullDuplicationDeliversFlaggedSecondCopy) {
  Graph g = graph::cycle(4);
  LinkModel dup = perfect();
  dup.dup = 1.0;
  EventSim sim(g, 7, dup);
  sim.send(0, 0, 5);
  auto a = sim.next();
  auto b = sim.next();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->frame_id, 5u);
  EXPECT_EQ(b->frame_id, 5u);
  EXPECT_NE(a->duplicate, b->duplicate);  // exactly one copy is the dup
  EXPECT_EQ(sim.frames_duplicated(), 1u);
  EXPECT_EQ(sim.transmissions(), 1u);  // duplication is the channel's doing
}

TEST(EventSim, LatencyJitterStaysInBounds) {
  Graph g = graph::cycle(4);
  LinkModel jitter = perfect();
  jitter.latency_min = 3;
  jitter.latency_max = 9;
  EventSim sim(g, 21, jitter);
  for (int i = 0; i < 50; ++i) {
    EventSim one(g, 21 + i, jitter);
    one.send(2, 0, 0);
    auto ev = one.next();
    ASSERT_TRUE(ev.has_value());
    EXPECT_GE(ev->time, 3u);
    EXPECT_LE(ev->time, 9u);
  }
}

TEST(EventSim, OneSidedLinkDownBlocksOnlyThatDirection) {
  Graph g = graph::from_edges(2, {{0, 1}});
  EventSim sim(g, 7, perfect());
  sim.set_link_up(0, 0, false);  // kill 0 -> 1 only
  EXPECT_FALSE(sim.link_up(0, 0));
  EXPECT_TRUE(sim.link_up(1, 0));
  sim.send(0, 0, 1);  // into the dead direction: lost at departure
  sim.send(1, 0, 2);  // reverse direction still works
  auto ev = sim.next();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->frame_id, 2u);
  EXPECT_EQ(ev->node, 0u);
  EXPECT_FALSE(sim.next().has_value());
  EXPECT_EQ(sim.frames_lost(), 1u);
}

TEST(EventSim, MidFlightDisconnectKillsInFlightFrames) {
  Graph g = graph::from_edges(2, {{0, 1}});
  EventSim sim(g, 7, perfect());
  sim.send(0, 0, 1);           // in flight
  sim.set_link_up(0, 0, false);  // dies before delivery
  EXPECT_FALSE(sim.next().has_value());
  EXPECT_EQ(sim.frames_died_midflight(), 1u);
  // Re-enabling the link does not resurrect dead frames but serves new ones.
  sim.set_link_up(0, 0, true);
  sim.send(0, 0, 2);
  auto ev = sim.next();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->frame_id, 2u);
}

TEST(EventSim, ValidatesArguments) {
  Graph g = graph::cycle(3);
  EventSim sim(g, 7);
  EXPECT_THROW(sim.send(5, 0, 0), std::invalid_argument);
  EXPECT_THROW(sim.send(0, 7, 0), std::invalid_argument);
  EXPECT_THROW(sim.set_link_up(9, 0, false), std::invalid_argument);
  LinkModel bad;
  bad.loss = 1.5;
  EXPECT_THROW(sim.set_link_model(0, 0, bad), std::invalid_argument);
  LinkModel inverted;
  inverted.latency_min = 5;
  inverted.latency_max = 2;
  EXPECT_THROW(EventSim(g, 7, inverted), std::invalid_argument);
}

// One 32-bit draw picks a latency, so a span it cannot cover is an error,
// not a silently truncated range.
TEST(EventSim, LatencySpanBeyondThirtyTwoBitsIsRejected) {
  Graph g = graph::cycle(3);
  LinkModel wide;
  wide.latency_min = 3;
  wide.latency_max = 3 + 0xffffffffULL;
  EXPECT_THROW(EventSim(g, 7, wide), std::invalid_argument);
  EventSim sim(g, 7);
  EXPECT_THROW(sim.set_link_model(0, 0, wide), std::invalid_argument);
  wide.latency_max = 3 + 0xfffffffeULL;  // the widest span one draw covers
  EXPECT_NO_THROW(EventSim(g, 7, wide));
  EXPECT_NO_THROW(sim.set_link_model(0, 0, wide));
}

// ---------------------------------------------------------------------------
// Deterministic-replay regression suite (the ROADMAP contract, pinned).
// A scripted random run issues sends/deadlines/flips; the trace must be
// a pure function of (seed, script).
// ---------------------------------------------------------------------------

LinkModel chaos() {
  LinkModel m;
  m.latency_min = 1;
  m.latency_max = 7;
  m.loss = 0.2;
  m.dup = 0.15;
  return m;
}

/// One pop of a scripted run: waits on the held deadline if there is
/// one (dropping it once it fires), else pops plainly.
void scripted_pop(EventSim& sim, std::optional<Deadline>& due) {
  if (!due) {
    sim.next();
  } else if (!sim.next_before(*due)) {
    due.reset();
  }
}

/// Issues `ops` scripted operations against the sim, interleaving sends,
/// deadlines, one-sided flips and pops — all drawn from the script seed.
void drive(EventSim& sim, const Graph& g, std::uint64_t script_seed, int ops) {
  util::Pcg32 script(script_seed);
  std::optional<Deadline> due;
  for (int i = 0; i < ops; ++i) {
    const NodeId v = script.next_below(g.num_nodes());
    const Port p = script.next_below(g.degree(v));
    switch (script.next_below(8)) {
      case 0:
        due = sim.deadline(1 + script.next_below(16));
        break;
      case 1:
        sim.set_link_up(v, p, false);
        break;
      case 2:
        sim.set_link_up(v, p, true);
        break;
      case 3:
      case 4:
        scripted_pop(sim, due);
        break;
      default:
        sim.send(v, p, i);
        break;
    }
  }
  while (sim.next().has_value()) {
  }
}

TEST(EventSimReplay, SameSeedGivesByteIdenticalEventTrace) {
  const Graph g = graph::connected_gnp(12, 0.3, 5);
  constexpr std::size_t kLimit = 10000;
  std::vector<std::string> traces[2];
  for (int run = 0; run < 2; ++run) {
    EventSim sim(g, /*seed=*/0xabcdef, chaos());
    sim.enable_trace(kLimit);
    drive(sim, g, /*script_seed=*/99, /*ops=*/4000);
    traces[run] = sim.trace();
  }
  ASSERT_FALSE(traces[0].empty());
  ASSERT_EQ(traces[0].size(), traces[1].size());
  for (std::size_t i = 0; i < traces[0].size(); ++i)
    ASSERT_EQ(traces[0][i], traces[1][i]) << "trace line " << i;
}

TEST(EventSimReplay, DifferentSeedMovesTheSchedule) {
  const Graph g = graph::connected_gnp(12, 0.3, 5);
  std::vector<std::string> traces[2];
  for (int run = 0; run < 2; ++run) {
    EventSim sim(g, /*seed=*/100 + run, chaos());
    sim.enable_trace(10000);
    drive(sim, g, 99, 2000);
    traces[run] = sim.trace();
  }
  EXPECT_NE(traces[0], traces[1]);
}

TEST(EventSimReplay, MidSimulationRerunReproducesTheSuffix) {
  const Graph g = graph::connected_gnp(10, 0.35, 6);
  constexpr int kPrefixOps = 1500;
  constexpr int kSuffixOps = 1500;
  // Run A: prefix + suffix in one life.
  EventSim a(g, 0x5eed, chaos());
  a.enable_trace(100000);
  drive(a, g, 7, kPrefixOps);
  const std::size_t cut = a.trace().size();
  drive(a, g, 8, kSuffixOps);
  // Run B: a fresh sim re-runs the prefix script, then continues with the
  // same suffix script — the suffix must match byte for byte.
  EventSim b(g, 0x5eed, chaos());
  b.enable_trace(100000);
  drive(b, g, 7, kPrefixOps);
  ASSERT_EQ(b.trace().size(), cut);
  drive(b, g, 8, kSuffixOps);
  ASSERT_EQ(a.trace().size(), b.trace().size());
  for (std::size_t i = cut; i < a.trace().size(); ++i)
    ASSERT_EQ(a.trace()[i], b.trace()[i]) << "suffix line " << i;
}

TEST(EventSimReplay, CountersAreReplayedExactly) {
  const Graph g = graph::connected_gnp(12, 0.3, 5);
  std::uint64_t tx[2], lost[2], dup[2], died[2];
  for (int run = 0; run < 2; ++run) {
    EventSim sim(g, 0xfeed, chaos());
    drive(sim, g, 13, 3000);
    tx[run] = sim.transmissions();
    lost[run] = sim.frames_lost();
    dup[run] = sim.frames_duplicated();
    died[run] = sim.frames_died_midflight();
  }
  EXPECT_EQ(tx[0], tx[1]);
  EXPECT_EQ(lost[0], lost[1]);
  EXPECT_EQ(dup[0], dup[1]);
  EXPECT_EQ(died[0], died[1]);
  EXPECT_GT(lost[0], 0u);  // the chaos model really exercised loss
  EXPECT_GT(dup[0], 0u);
}

// ---------------------------------------------------------------------------
// Fault-injection layer: frame corruption, node crash/recovery and
// scheduled faults.
// ---------------------------------------------------------------------------

TEST(EventSimFaults, FullCorruptionFlagsEveryDeliveryWithOneFlippedBit) {
  Graph g = graph::from_edges(2, {{0, 1}});
  LinkModel m = perfect();
  m.corrupt = 1.0;
  EventSim sim(g, 7, m);
  sim.send(0, 0, 42);
  auto ev = sim.next();
  ASSERT_TRUE(ev.has_value());
  EXPECT_TRUE(ev->corrupted);
  // The damage model flips exactly one bit of the frame id (the CRC the
  // ARQ layers check is the flag, but the payload really is different).
  EXPECT_EQ(std::popcount(ev->frame_id ^ 42u), 1);
  EXPECT_EQ(sim.frames_corrupted(), 1u);
  EXPECT_EQ(sim.frames_delivered(), 1u);  // corrupt copies still arrive
}

TEST(EventSimFaults, CorruptProbabilityIsValidated) {
  Graph g = graph::cycle(3);
  LinkModel bad = perfect();
  bad.corrupt = 1.5;
  EXPECT_THROW(EventSim(g, 7, bad), std::invalid_argument);
  EventSim sim(g, 7, perfect());
  EXPECT_THROW(sim.set_link_model(0, 0, bad), std::invalid_argument);
}

TEST(EventSimFaults, NaNProbabilitiesAreRejected) {
  Graph g = graph::cycle(3);
  EventSim sim(g, 7, perfect());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double bad : {nan, -0.1, 1.5}) {
    for (double LinkModel::*knob :
         {&LinkModel::loss, &LinkModel::dup, &LinkModel::corrupt}) {
      LinkModel m = perfect();
      m.*knob = bad;
      EXPECT_THROW(EventSim(g, 7, m), std::invalid_argument) << bad;
      EXPECT_THROW(sim.set_link_model(0, 0, m), std::invalid_argument) << bad;
    }
    FaultAction burst;
    burst.kind = FaultAction::Kind::kGlobalCorrupt;
    burst.corrupt = bad;
    EXPECT_THROW(sim.schedule_fault(0, burst), std::invalid_argument) << bad;
  }
}

TEST(EventSimFaults, CrashedNodeDropsSendsAtDeparture) {
  Graph g = graph::from_edges(2, {{0, 1}});
  EventSim sim(g, 7, perfect());
  sim.set_node_crashed(0, true);
  EXPECT_TRUE(sim.node_crashed(0));
  sim.send(0, 0, 1);
  EXPECT_FALSE(sim.next().has_value());
  EXPECT_EQ(sim.transmissions(), 1u);  // the send was really attempted
  EXPECT_EQ(sim.frames_crash_dropped(), 1u);
  EXPECT_EQ(sim.frames_lost(), 0u);  // crash drops are not channel loss
}

TEST(EventSimFaults, CrashedNodeDropsArrivalsAtDeliveryInstant) {
  Graph g = graph::from_edges(2, {{0, 1}});
  EventSim sim(g, 7, perfect());
  sim.send(0, 0, 1);             // in flight toward node 1
  sim.set_node_crashed(1, true);  // crashes before delivery
  EXPECT_FALSE(sim.next().has_value());
  EXPECT_EQ(sim.frames_crash_dropped(), 1u);
  // Recovery serves new frames again.
  sim.set_node_crashed(1, false);
  sim.send(0, 0, 2);
  auto ev = sim.next();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->frame_id, 2u);
}

TEST(EventSimFaults, RecoveryBumpsTheCrashEpochOncePerDownUpCycle) {
  Graph g = graph::cycle(3);
  EventSim sim(g, 7, perfect());
  EXPECT_EQ(sim.crash_epochs(1), 0u);
  sim.set_node_crashed(1, true);
  EXPECT_EQ(sim.crash_epochs(1), 0u);  // going down is not amnesia yet
  sim.set_node_crashed(1, false);
  EXPECT_EQ(sim.crash_epochs(1), 1u);
  sim.set_node_crashed(1, false);  // redundant up: no phantom epoch
  EXPECT_EQ(sim.crash_epochs(1), 1u);
  sim.set_node_crashed(1, true);
  sim.set_node_crashed(1, false);
  EXPECT_EQ(sim.crash_epochs(1), 2u);
}

TEST(EventSimFaults, ScheduledCrashWindowOpensAndClosesAtExactTimes) {
  Graph g = graph::from_edges(2, {{0, 1}});
  EventSim sim(g, 7, perfect());
  FaultAction crash;
  crash.kind = FaultAction::Kind::kCrash;
  crash.node = 1;
  FaultAction recover;
  recover.kind = FaultAction::Kind::kRecover;
  recover.node = 1;
  sim.schedule_fault(2, crash);    // window [2, 4) in virtual time
  sim.schedule_fault(4, recover);
  sim.send(0, 0, 1);  // arrives t=1: before the window — delivered
  auto a = sim.next();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->frame_id, 1u);
  sim.send(0, 0, 2);  // arrives t=2: the crash applies first — dropped
  EXPECT_FALSE(sim.next().has_value());
  EXPECT_EQ(sim.frames_crash_dropped(), 1u);
  EXPECT_EQ(sim.now(), 4u);  // the recover fault advanced the clock
  EXPECT_FALSE(sim.node_crashed(1));
  EXPECT_EQ(sim.crash_epochs(1), 1u);
  sim.send(0, 0, 3);  // after the window: delivered again
  auto c = sim.next();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->frame_id, 3u);
}

TEST(EventSimFaults, GlobalCorruptFaultAppliesToOverriddenLinksToo) {
  Graph g = graph::from_edges(2, {{0, 1}});
  EventSim sim(g, 7, perfect());
  LinkModel slow = perfect();
  slow.latency_min = slow.latency_max = 2;
  sim.set_link_model(0, 0, slow);  // per-link override in place
  FaultAction burst;
  burst.kind = FaultAction::Kind::kGlobalCorrupt;
  burst.corrupt = 1.0;
  sim.schedule_fault(0, burst);
  EXPECT_FALSE(sim.next().has_value());  // applies the fault, queue empty
  sim.send(0, 0, 1);  // drawn under the burst: corrupted
  sim.send(1, 0, 2);  // default-model direction: corrupted too
  auto a = sim.next();
  auto b = sim.next();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(a->corrupted);
  EXPECT_TRUE(b->corrupted);
  EXPECT_EQ(sim.frames_corrupted(), 2u);
}

TEST(EventSimFaults, ScheduleFaultValidatesTargets) {
  Graph g = graph::cycle(3);
  EventSim sim(g, 7, perfect());
  FaultAction crash;
  crash.kind = FaultAction::Kind::kCrash;
  crash.node = 9;
  EXPECT_THROW(sim.schedule_fault(0, crash), std::invalid_argument);
  FaultAction brown;
  brown.kind = FaultAction::Kind::kLinkDown;
  brown.node = 0;
  brown.port = 7;
  EXPECT_THROW(sim.schedule_fault(0, brown), std::invalid_argument);
  FaultAction burst;
  burst.kind = FaultAction::Kind::kGlobalCorrupt;
  burst.corrupt = 2.0;
  EXPECT_THROW(sim.schedule_fault(0, burst), std::invalid_argument);
  EXPECT_THROW(sim.set_node_crashed(9, true), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Run-queue pin: the exact schedule of a scripted run, with a caller
// holding many deadlines at once (as a selective-repeat window does) and
// abandoning some of them.  The digest must not move when the queue's
// internals change.

/// FNV-1a over 64-bit words, low byte first.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

TEST(EventSimQueue, ScriptedScheduleIsPinned) {
  const Graph g = graph::connected_gnp(12, 0.3, 5);
  LinkModel m;
  m.latency_min = 1;
  m.latency_max = 9;
  m.dup = 0.2;
  m.corrupt = 0.1;
  EventSim sim(g, /*seed=*/0x9ee7, m);
  util::Pcg32 script(2024);
  Fnv fnv;
  std::vector<Deadline> held;  // taken, not yet fired or abandoned
  std::uint64_t fired = 0;
  std::uint64_t abandoned = 0;
  auto observe = [&] {
    fnv.add(sim.now());
    fnv.add(sim.pending());
  };
  // Waits on the earliest held deadline; returns false once nothing is
  // held and the queue is empty.
  auto pop = [&] {
    const auto due = std::min_element(held.begin(), held.end());
    const bool waited = due != held.end();
    const auto ev = waited ? sim.next_before(*due) : sim.next();
    fnv.add(ev.has_value());
    if (ev) {
      for (std::uint64_t w :
           {std::uint64_t{static_cast<std::uint8_t>(ev->kind)}, ev->time,
            ev->seq, std::uint64_t{ev->node}, std::uint64_t{ev->port},
            std::uint64_t{ev->from}, std::uint64_t{ev->from_port},
            ev->frame_id, std::uint64_t{ev->duplicate},
            std::uint64_t{ev->corrupted}})
        fnv.add(w);
    } else if (waited) {
      fnv.add(due->time);
      fnv.add(due->seq);
      held.erase(due);
      ++fired;
    }
    observe();
    return ev.has_value() || waited;
  };
  for (std::uint64_t i = 0; i < 8000; ++i) {
    const NodeId v = script.next_below(g.num_nodes());
    const Port p = script.next_below(g.degree(v));
    // Alternate phases: deadlines pile up and get abandoned, then pops
    // drain them.
    const bool drain = (i / 400) % 2 == 1;
    const std::uint32_t op = script.next_below(20);
    if (op < (drain ? 2u : 7u)) {
      held.push_back(sim.deadline(1 + script.next_below(1100)));
    } else if (op < (drain ? 4u : 16u)) {
      if (held.empty()) continue;
      const std::size_t k = script.next_below(
          static_cast<std::uint32_t>(held.size()));
      held[k] = held.back();
      held.pop_back();
      ++abandoned;
    } else if (op < (drain ? 6u : 18u)) {
      sim.send(v, p, i);
    } else if (op < (drain ? 7u : 19u)) {
      FaultAction a;
      // Recoveries and heals outnumber crashes and kills, so most nodes
      // stay up and frames keep landing.
      using K = FaultAction::Kind;
      constexpr K kKinds[] = {K::kCrash,   K::kRecover,  K::kRecover,
                              K::kRecover, K::kLinkDown, K::kLinkUp,
                              K::kLinkUp,  K::kGlobalCorrupt};
      a.kind = kKinds[script.next_below(8)];
      a.node = v;
      a.port = p;
      a.corrupt = 0.3;
      sim.schedule_fault(script.next_below(16), a);
    } else {
      pop();
      continue;
    }
    observe();
  }
  while (pop()) {
  }
  EXPECT_GT(fired, 0u);
  EXPECT_GT(abandoned, 0u);
  EXPECT_TRUE(held.empty());
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(fnv.h, 0xe4b981f5edaf3371ULL);
}

/// The chaos drive: sends, deadlines taken and abandoned, and scheduled
/// faults, all drawn from one script stream — the fault-layer replay
/// anchor.
void drive_faults(EventSim& sim, const Graph& g, std::uint64_t script_seed,
                  int ops) {
  util::Pcg32 script(script_seed);
  std::optional<Deadline> due;
  for (int i = 0; i < ops; ++i) {
    const NodeId v = script.next_below(g.num_nodes());
    const Port p = script.next_below(g.degree(v));
    switch (script.next_below(12)) {
      case 0:
        due = sim.deadline(1 + script.next_below(16));
        break;
      case 1: {
        FaultAction a;
        a.kind = FaultAction::Kind::kCrash;
        a.node = v;
        sim.schedule_fault(script.next_below(8), a);
        break;
      }
      case 2: {
        FaultAction a;
        a.kind = FaultAction::Kind::kRecover;
        a.node = v;
        sim.schedule_fault(script.next_below(8), a);
        break;
      }
      case 3: {
        FaultAction a;
        a.kind = script.next_below(2) ? FaultAction::Kind::kLinkDown
                                      : FaultAction::Kind::kLinkUp;
        a.node = v;
        a.port = p;
        sim.schedule_fault(script.next_below(8), a);
        break;
      }
      case 4: {
        FaultAction a;
        a.kind = FaultAction::Kind::kGlobalCorrupt;
        a.corrupt = script.next_below(2) ? 0.5 : 0.0;
        sim.schedule_fault(script.next_below(8), a);
        break;
      }
      case 5:
        due.reset();  // abandons the held deadline, if any
        break;
      case 6:
      case 7:
        scripted_pop(sim, due);
        break;
      default:
        sim.send(v, p, i);
        break;
    }
  }
  while (sim.next().has_value()) {
  }
}

TEST(EventSimFaults, FaultScheduleReplayIsByteIdentical) {
  const Graph g = graph::connected_gnp(12, 0.3, 5);
  LinkModel m = chaos();
  m.corrupt = 0.1;
  std::vector<std::string> traces[2];
  std::uint64_t corrupted[2], crashed[2], delivered[2];
  for (int run = 0; run < 2; ++run) {
    EventSim sim(g, /*seed=*/0xabcdef, m);
    sim.enable_trace(100000);
    drive_faults(sim, g, /*script_seed=*/99, /*ops=*/4000);
    traces[run] = sim.trace();
    corrupted[run] = sim.frames_corrupted();
    crashed[run] = sim.frames_crash_dropped();
    delivered[run] = sim.frames_delivered();
  }
  ASSERT_FALSE(traces[0].empty());
  ASSERT_EQ(traces[0].size(), traces[1].size());
  for (std::size_t i = 0; i < traces[0].size(); ++i)
    ASSERT_EQ(traces[0][i], traces[1][i]) << "trace line " << i;
  EXPECT_EQ(corrupted[0], corrupted[1]);
  EXPECT_EQ(crashed[0], crashed[1]);
  EXPECT_EQ(delivered[0], delivered[1]);
  EXPECT_GT(corrupted[0], 0u);  // the chaos regime really fired
  EXPECT_GT(crashed[0], 0u);
}

}  // namespace
}  // namespace uesr::net
