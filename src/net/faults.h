// Seeded fault plans: scripted or sampled schedules of node crashes,
// link brownouts, and corruption bursts over simulator time (the chaos
// layer of DESIGN.md §2.12).
//
// A FaultPlan is PURE DATA — a time-sorted list of (at, FaultAction)
// entries.  arm(sim) schedules every entry into the simulator's event
// queue (EventSim::schedule_fault), where next() applies them silently at
// their exact virtual instants, interleaved with arrivals and deadlines — so
// a crash window can open in the middle of one reliable transfer and
// close in the middle of the next.  Because the plan is data and the
// simulator's channel draws are (seed, link, event)-keyed, an armed plan
// changes WHICH events survive but never how the channel rolls — replays
// stay bit-identical, and a plan with no entries leaves every trace
// byte-for-byte what it was without the fault layer.
//
// Plans come from two places:
//   * scripted — crash()/brownout()/corruption_burst() append matched
//     open/close pairs by hand (the unit-test and experiment-pin path);
//   * sampled  — FaultPlan::sample(g, ChaosConfig, seed) rolls windows
//     from per-entity counter_hash streams: per node an independent crash
//     schedule, per directed link a brownout schedule, one global
//     corruption-burst schedule.  Same (graph, config, seed) → identical
//     plan, always — the chaos fuzzer's replay handle.
//
// fresh() returns a copy by value (the PR 4 Scenario convention: replays
// from const contexts); plans are never merged, each is armed on its own.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "net/sim.h"

namespace uesr::net {

/// Knobs for FaultPlan::sample — how much chaos, over how long.  All
/// rates are per-slot Bernoulli probabilities of OPENING a window at a
/// slot boundary; windows never overlap per entity (the scan skips to a
/// window's close before rolling again).
struct ChaosConfig {
  /// Plan horizon in virtual time; no window opens at or after it.  > 0.
  SimTime horizon = 1 << 12;
  /// Scan granularity: window-open rolls happen every `slot` ticks.  > 0.
  SimTime slot = 64;

  /// Per-slot P(a given node opens a crash window).  In [0, 1].
  double crash_rate = 0.0;
  SimTime crash_min = 32;   ///< crash window length bounds (inclusive)
  SimTime crash_max = 256;

  /// Per-slot P(a global corruption burst opens).  In [0, 1].
  double corrupt_burst_rate = 0.0;
  /// Corruption probability during a burst (kGlobalCorrupt level); bursts
  /// close back to 0.  In [0, 1].
  double corrupt_level = 0.5;
  SimTime burst_min = 16;   ///< burst length bounds (inclusive)
  SimTime burst_max = 128;

  /// Per-slot P(a given directed link opens a brownout).  In [0, 1].
  double brownout_rate = 0.0;
  SimTime brownout_min = 16;  ///< brownout length bounds (inclusive)
  SimTime brownout_max = 128;

  friend bool operator==(const ChaosConfig&, const ChaosConfig&) = default;
};

/// A deterministic, replayable schedule of fault actions over sim time.
class FaultPlan {
 public:
  /// One scheduled state flip.
  struct Entry {
    SimTime at = 0;
    FaultAction action{};
    friend bool operator==(const Entry&, const Entry&) = default;
  };

  FaultPlan() = default;

  // --- scripted construction ----------------------------------------------
  /// Node v is down over [at, until): kCrash at `at`, kRecover at `until`.
  FaultPlan& crash(graph::NodeId v, SimTime at, SimTime until);
  /// The directed link departing (u, p) is down over [at, until).
  FaultPlan& brownout(graph::NodeId u, graph::Port p, SimTime at,
                      SimTime until);
  /// Global corruption probability is `level` over [at, until), 0 after.
  FaultPlan& corruption_burst(SimTime at, SimTime until, double level);

  /// Rolls a plan from (graph, config, seed): per-node crash windows from
  /// counter_hash(counter_hash(seed, 1), v), one global burst stream from
  /// counter_hash(seed, 2), per-directed-link brownouts from
  /// counter_hash(counter_hash(seed, 3), link).  Pure function of its
  /// arguments; throws on out-of-range config.
  static FaultPlan sample(const graph::Graph& g, const ChaosConfig& cfg,
                          std::uint64_t seed);

  /// Schedules every entry into `sim` at absolute plan time (entries whose
  /// time already passed fire immediately).  Arm once, right after the
  /// simulator is built; the sim validates targets against its own graph.
  void arm(EventSim& sim) const;

  /// A rewound copy (trivially the plan itself — it is pure data).  The
  /// PR 4 Scenario::fresh() convention, so session rebuilds can re-arm.
  FaultPlan fresh() const { return *this; }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  const std::vector<Entry>& entries() const { return entries_; }

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;

 private:
  void add(SimTime at, const FaultAction& action);

  std::vector<Entry> entries_;  ///< kept stably sorted by `at`
};

}  // namespace uesr::net
