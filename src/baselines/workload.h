// Replayable traffic workloads + the E12/E14 report kernel.
//
// A Workload is a schedule of core::SessionSpec admissions — who talks to
// whom, what kind of session, and at which shared-clock tick it arrives.
// Every generator here is a PURE FUNCTION of its parameters (arrivals,
// endpoints and kinds all derive from the seed via Pcg32/counter_hash;
// nothing global), so a workload can be replayed bit-identically: the same
// call produces the same schedule, which is what lets the ThreadInvariance
// traffic tests and bench_traffic_throughput rerun one workload at
// different thread counts and demand identical cells (PR 3 convention).
//
// Families, mirroring how traffic actually arrives at a network:
//   * poisson_workload  — open-arrival unicast: route sessions between
//     uniform pairs, exponential inter-arrival times (the M/·/· shape the
//     gossip literature evaluates under).
//   * hotspot_workload  — every message targets one sink (data collection
//     at a gateway; the worst case for locality).
//   * all_pairs_workload — one route session per ordered pair, all at
//     tick 0: the gossip/closure regime, and the N >= 1024 burst the E12
//     acceptance row runs.
//   * mixed_workload    — route/hybrid/broadcast blend on a deterministic
//     pattern, exercising every lane kind the engine multiplexes.
//
// traffic_experiment() admits a workload into a TrafficEngine (static
// graph or churn-overlaid scenario, perfect or lossy links), runs it, and
// folds the per-session reports into one audited TrafficCell — the kernel
// shared by the E12 and E14 benches, the busy_network example, and the
// traffic ThreadInvariance tests.  open_loop_traffic_experiment() is its
// streamed counterpart.  Every cell checks each delivery and certificate
// against ground-truth reachability: `unsound` counts contradictions.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/traffic.h"
#include "graph/churn.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace uesr::baselines {

/// The standard probabilistic token for hybrid traffic: a TTL'd
/// RandomWalkSession (the Corollary-2 pairing the paper discusses).
core::WalkerFactory random_walk_factory();

struct Workload {
  std::string name;
  std::vector<core::SessionSpec> sessions;
};

/// `sessions` route sessions between uniform random pairs (s != t);
/// inter-arrival times are Exp(mean_interarrival) clock ticks.
Workload poisson_workload(graph::NodeId n, int sessions,
                          double mean_interarrival, std::uint64_t seed);

/// Poisson arrivals, uniform sources, every session targeting `sink`.
Workload hotspot_workload(graph::NodeId n, int sessions, graph::NodeId sink,
                          double mean_interarrival, std::uint64_t seed);

/// One route session per ordered pair (s, t), s != t, all admitted at
/// tick 0 — n·(n-1) concurrent sessions.
Workload all_pairs_workload(graph::NodeId n);

/// Poisson arrivals with kinds on a fixed pattern: every 4th session a
/// Corollary-2 hybrid (token TTL `hybrid_ttl`), every 16th a broadcast,
/// routes otherwise.
Workload mixed_workload(graph::NodeId n, int sessions,
                        double mean_interarrival, std::uint64_t hybrid_ttl,
                        std::uint64_t seed);

/// A core::ArrivalSource generating a Poisson arrival/departure process
/// lazily — the open-loop counterpart of poisson_workload, built for
/// horizons where materializing the schedule up front (millions of specs)
/// would dominate memory.  Every draw derives from one Pcg32 stream seeded
/// by `seed`, so the stream is a PURE FUNCTION of its Config: fresh()
/// hands back a rewound clone, and replaying it yields bit-identical
/// specs — the property the open-loop purity tests pin.
///
/// Endpoints are CLUSTER-LOCAL: on a disjoint_copies(cluster, k) topology
/// of `clusters` copies of `cluster_size` nodes, each session picks one
/// cluster uniformly and a distinct (s, t) pair inside it.  That keeps
/// per-session UES hit times bounded by the cluster size, which is what
/// makes the million-scale E12 row feasible (a uniform pair on one
/// connected 10^6-node graph would need ~n^2 steps per walk).
class OpenLoopWorkload final : public core::ArrivalSource {
 public:
  struct Config {
    graph::NodeId cluster_size = 2;  ///< nodes per cluster (>= 2)
    graph::NodeId clusters = 1;      ///< disjoint copies (>= 1)
    std::uint64_t sessions = 0;      ///< total arrivals before nullopt
    double mean_interarrival = 0.0;  ///< Exp inter-arrival ticks (0 = burst)
    /// Mean Exp session lifetime in ticks; 0 = sessions never depart.
    /// Draws clamp to >= 1 so depart_at > admit_at always holds.
    double mean_lifetime = 0.0;
    std::uint64_t seed = 1;
  };

  explicit OpenLoopWorkload(const Config& cfg);

  /// Human-readable cell label (mirrors the closed-loop generators).
  const std::string& name() const { return name_; }

  /// A rewound clone: same Config, stream restarted from the seed.
  OpenLoopWorkload fresh() const { return OpenLoopWorkload(cfg_); }

  std::optional<core::SessionSpec> next() override;

 private:
  Config cfg_;
  std::string name_;
  util::Pcg32 rng_;
  double at_ = 0.0;           ///< continuous arrival time accumulator
  std::uint64_t emitted_ = 0;
};

/// One experiment cell: per-session verdicts folded in session-id order,
/// each kDelivered / kCertified route verdict AUDITED against ground-truth
/// reachability at the epoch it names.  Every field is thread-count
/// invariant (pinned by the ThreadInvariance suites).
struct TrafficCell {
  int sessions = 0;
  int delivered = 0;    ///< deliveries, broadcasts included
  int certified = 0;    ///< failure certificates
  int uncertified = 0;  ///< lossy: a retry budget spent, no verdict
  int exhausted = 0;    ///< hybrid: both sides gave up, no verdict
  int departed = 0;     ///< open loop: the user left before a verdict
  /// Verdicts contradicting ground truth at the epoch they are about, or
  /// naming an epoch the schedule never committed — expected 0 always.
  /// Broadcasts assert no reachability and are not audited.
  int unsound = 0;
  /// Frames put on the wire: perfect-link transmissions, or lossy DATA +
  /// ACK copies, lost ones included.
  std::uint64_t wire_frames = 0;
  std::uint64_t hops = 0;         ///< lossy: successful link transfers
  std::uint64_t retransmits = 0;  ///< lossy: timeout-driven resends
  std::uint64_t restarts = 0;     ///< dynamic-mode epoch restarts
  std::uint64_t final_clock = 0;  ///< shared-clock tick the engine drained at
  /// Lossy: channel virtual time summed over DELIVERED sessions;
  /// vtime_delivered / delivered is the virtual-time-per-delivered-route
  /// number the selective-repeat vs stop-and-wait comparison reports.
  std::uint64_t vtime_delivered = 0;
  /// Per-session wire frames, p50/p99 over finished sessions (departures
  /// excluded: their partial walks never completed).  On perfect links
  /// these equal per-session latency in clock ticks: one slot per frame,
  /// and free steps cost nothing (pinned by the SharedClockAccounting
  /// test).
  double p50_tx = 0.0;
  double p99_tx = 0.0;

  friend bool operator==(const TrafficCell&, const TrafficCell&) = default;
};

/// Static topology: admits `w` into a TrafficEngine over `g` and runs it
/// to completion.  With `lossy` set, every route session runs over its
/// own lossy channel + ARQ (TrafficOptions::lossy).  threads: worker lanes
/// (0 = UESR_THREADS / hardware); the returned cell is bit-identical for
/// any value.  Ground truth is connected_components(g).
TrafficCell traffic_experiment(
    const graph::Graph& g, const Workload& w, std::uint64_t seq_seed,
    unsigned threads,
    const std::optional<core::LossyTrafficConfig>& lossy = std::nullopt);

/// Churn-overlaid: the same, over a scenario advancing one epoch every
/// `epoch_period` ticks for `max_epochs` epochs (then frozen).  With
/// `lossy` set, links flap (scenario epochs) AND drop frames (lossy
/// channel) in one replayable run.  Ground truth comes from an independent
/// replay of the scenario, keyed by the DynamicGraph::epoch() stamp each
/// verdict names.
TrafficCell traffic_experiment(
    const graph::Scenario& scenario, std::uint64_t epoch_period,
    std::uint64_t max_epochs, const Workload& w, std::uint64_t seq_seed,
    unsigned threads,
    const std::optional<core::LossyTrafficConfig>& lossy = std::nullopt);

/// E12 open-loop kernel: streams `cfg` into a sharded TrafficEngine over
/// `g` via attach_arrivals() and folds the drained reports.  `shards`
/// follows TrafficOptions::shards (0 = one per worker lane); the cell is
/// bit-identical for any threads/shards value.
TrafficCell open_loop_traffic_experiment(const graph::Graph& g,
                                         const OpenLoopWorkload::Config& cfg,
                                         std::uint64_t seq_seed,
                                         unsigned threads, unsigned shards);

}  // namespace uesr::baselines
