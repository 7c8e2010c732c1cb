#include "baselines/workload.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "baselines/random_walk.h"
#include "graph/algorithms.h"
#include "graph/dynamic.h"
#include "util/rng.h"
#include "util/stats.h"

namespace uesr::baselines {

using graph::NodeId;

core::WalkerFactory random_walk_factory() {
  return [](const graph::Graph& g, NodeId s, NodeId t, std::uint64_t ttl,
            std::uint64_t seed) -> std::unique_ptr<core::TokenWalker> {
    return std::make_unique<RandomWalkSession>(g, s, t, ttl, seed);
  };
}

namespace {

void check_workload_args(NodeId n, int sessions, double mean_interarrival,
                         const char* who) {
  if (n < 2) throw std::invalid_argument(std::string(who) + ": n >= 2");
  if (sessions < 0)
    throw std::invalid_argument(std::string(who) + ": sessions >= 0");
  if (!(mean_interarrival >= 0.0))
    throw std::invalid_argument(std::string(who) +
                                ": mean_interarrival >= 0");
}

/// Exponential inter-arrival draw (mean ticks); 0 mean = all at tick 0.
double exp_draw(util::Pcg32& rng, double mean) {
  if (mean == 0.0) return 0.0;
  // 1 - u in (0, 1], so the log argument never hits zero.
  return -mean * std::log(1.0 - rng.next_double());
}

NodeId other_than(util::Pcg32& rng, NodeId n, NodeId avoid) {
  NodeId v = rng.next_below(n);
  return v == avoid ? (v + 1) % n : v;
}

}  // namespace

Workload poisson_workload(NodeId n, int sessions, double mean_interarrival,
                          std::uint64_t seed) {
  check_workload_args(n, sessions, mean_interarrival, "poisson_workload");
  util::Pcg32 rng(seed);
  Workload w;
  std::ostringstream name;
  name << "poisson(n=" << n << ",N=" << sessions << ",ia=" << mean_interarrival
       << ",seed=" << seed << ")";
  w.name = name.str();
  double at = 0.0;
  for (int i = 0; i < sessions; ++i) {
    at += exp_draw(rng, mean_interarrival);
    core::SessionSpec spec;
    spec.kind = core::TrafficKind::kRoute;
    spec.s = rng.next_below(n);
    spec.t = other_than(rng, n, spec.s);
    spec.admit_at = static_cast<std::uint64_t>(at);
    w.sessions.push_back(spec);
  }
  return w;
}

Workload hotspot_workload(NodeId n, int sessions, NodeId sink,
                          double mean_interarrival, std::uint64_t seed) {
  check_workload_args(n, sessions, mean_interarrival, "hotspot_workload");
  if (sink >= n)
    throw std::invalid_argument("hotspot_workload: sink out of range");
  util::Pcg32 rng(seed);
  Workload w;
  std::ostringstream name;
  name << "hotspot(n=" << n << ",N=" << sessions << ",sink=" << sink
       << ",seed=" << seed << ")";
  w.name = name.str();
  double at = 0.0;
  for (int i = 0; i < sessions; ++i) {
    at += exp_draw(rng, mean_interarrival);
    core::SessionSpec spec;
    spec.kind = core::TrafficKind::kRoute;
    spec.s = other_than(rng, n, sink);
    spec.t = sink;
    spec.admit_at = static_cast<std::uint64_t>(at);
    w.sessions.push_back(spec);
  }
  return w;
}

Workload all_pairs_workload(NodeId n) {
  if (n < 2) throw std::invalid_argument("all_pairs_workload: n >= 2");
  Workload w;
  std::ostringstream name;
  name << "all-pairs(n=" << n << ",N=" << (std::uint64_t{n} * (n - 1)) << ")";
  w.name = name.str();
  for (NodeId s = 0; s < n; ++s)
    for (NodeId t = 0; t < n; ++t) {
      if (s == t) continue;
      core::SessionSpec spec;
      spec.kind = core::TrafficKind::kRoute;
      spec.s = s;
      spec.t = t;
      w.sessions.push_back(spec);
    }
  return w;
}

Workload mixed_workload(NodeId n, int sessions, double mean_interarrival,
                        std::uint64_t hybrid_ttl, std::uint64_t seed) {
  check_workload_args(n, sessions, mean_interarrival, "mixed_workload");
  util::Pcg32 rng(seed);
  Workload w;
  std::ostringstream name;
  name << "mixed(n=" << n << ",N=" << sessions << ",seed=" << seed << ")";
  w.name = name.str();
  double at = 0.0;
  for (int i = 0; i < sessions; ++i) {
    at += exp_draw(rng, mean_interarrival);
    core::SessionSpec spec;
    spec.s = rng.next_below(n);
    spec.t = other_than(rng, n, spec.s);
    spec.admit_at = static_cast<std::uint64_t>(at);
    if (i % 16 == 15) {
      spec.kind = core::TrafficKind::kBroadcast;
    } else if (i % 4 == 3) {
      spec.kind = core::TrafficKind::kHybrid;
      spec.hybrid_ttl = hybrid_ttl;
    } else {
      spec.kind = core::TrafficKind::kRoute;
    }
    w.sessions.push_back(spec);
  }
  return w;
}

OpenLoopWorkload::OpenLoopWorkload(const Config& cfg)
    : cfg_(cfg), rng_(cfg.seed) {
  if (cfg.cluster_size < 2)
    throw std::invalid_argument("OpenLoopWorkload: cluster_size >= 2");
  if (cfg.clusters < 1)
    throw std::invalid_argument("OpenLoopWorkload: clusters >= 1");
  // Node ids run up to cluster_size * clusters - 1: the product must not
  // wrap a NodeId, or endpoints land in the wrong cluster.
  if (std::uint64_t{cfg.cluster_size} * cfg.clusters >
      std::numeric_limits<NodeId>::max())
    throw std::invalid_argument(
        "OpenLoopWorkload: cluster_size * clusters overflows NodeId");
  if (!(cfg.mean_interarrival >= 0.0) || !(cfg.mean_lifetime >= 0.0))
    throw std::invalid_argument("OpenLoopWorkload: negative mean");
  std::ostringstream name;
  name << "open-loop(k=" << cfg.clusters << "x" << cfg.cluster_size
       << ",N=" << cfg.sessions << ",ia=" << cfg.mean_interarrival
       << ",life=" << cfg.mean_lifetime << ",seed=" << cfg.seed << ")";
  name_ = name.str();
}

std::optional<core::SessionSpec> OpenLoopWorkload::next() {
  if (emitted_ >= cfg_.sessions) return std::nullopt;
  ++emitted_;
  at_ += exp_draw(rng_, cfg_.mean_interarrival);
  const NodeId c = rng_.next_below(cfg_.clusters);
  const NodeId base = c * cfg_.cluster_size;
  core::SessionSpec spec;
  spec.kind = core::TrafficKind::kRoute;
  spec.s = base + rng_.next_below(cfg_.cluster_size);
  spec.t = base + other_than(rng_, cfg_.cluster_size, spec.s - base);
  spec.admit_at = static_cast<std::uint64_t>(at_);
  if (cfg_.mean_lifetime > 0.0) {
    const double life = exp_draw(rng_, cfg_.mean_lifetime);
    spec.depart_at =
        spec.admit_at + std::max<std::uint64_t>(
                            1, static_cast<std::uint64_t>(life));
  }
  return spec;
}

namespace {

/// Component labels keyed by the epoch a verdict names.
using GroundTruth = std::map<std::uint64_t, std::vector<NodeId>>;

/// Replays `scenario` independently of the engine (scenario replays are
/// exact, so this is the topology sequence the engine committed) and
/// labels every epoch it commits.  The key is the DynamicGraph::epoch()
/// stamp the engine reports as completion_epoch, not the advance count:
/// an advance that commits no change leaves the stamp where it was.
GroundTruth ground_truth(const graph::Scenario& scenario,
                         std::uint64_t max_epochs) {
  auto replay = scenario.fresh();
  graph::DynamicGraph dg = replay->initial();
  GroundTruth truth;
  truth[dg.epoch()] = graph::connected_components(dg.snapshot());
  for (std::uint64_t e = 0; e < max_epochs; ++e) {
    replay->advance(dg);
    if (!truth.count(dg.epoch()))
      truth[dg.epoch()] = graph::connected_components(dg.snapshot());
  }
  return truth;
}

/// Folds finished reports into a cell and audits every route verdict
/// against `truth`.  Serial and in session-id order — the audit must be as
/// deterministic as the cells it guards.
TrafficCell summarize(const core::TrafficEngine& engine,
                      const GroundTruth& truth) {
  TrafficCell cell;
  cell.final_clock = engine.clock();
  util::Samples tx;
  for (const core::SessionReport& r : engine.reports()) {
    ++cell.sessions;
    const core::Verdict v = r.verdict();
    cell.delivered += v == core::Verdict::kDelivered;
    cell.certified += v == core::Verdict::kCertified;
    cell.uncertified += v == core::Verdict::kUncertified;
    cell.exhausted += v == core::Verdict::kExhausted;
    cell.departed += v == core::Verdict::kDeparted;
    cell.wire_frames += r.transmissions;
    cell.hops += r.hops;
    cell.retransmits += r.retransmits;
    cell.restarts += r.restarts;
    if (v == core::Verdict::kDelivered) cell.vtime_delivered += r.virtual_time;
    if (r.finished && v != core::Verdict::kDeparted)
      tx.add(static_cast<double>(r.transmissions));
    // Only deliveries and certificates assert reachability; a broadcast
    // (t == net::kNoTarget) names no target to check.
    if ((v != core::Verdict::kDelivered && v != core::Verdict::kCertified) ||
        r.kind == core::TrafficKind::kBroadcast)
      continue;
    const auto it = truth.find(r.completion_epoch);
    if (it == truth.end()) {  // a verdict about an epoch that never existed
      ++cell.unsound;
      continue;
    }
    const bool reachable = it->second[r.s] == it->second[r.t];
    cell.unsound += v == core::Verdict::kDelivered ? !reachable : reachable;
  }
  if (tx.count() > 0) {
    cell.p50_tx = tx.percentile(50.0);
    cell.p99_tx = tx.percentile(99.0);
  }
  return cell;
}

core::TrafficOptions options(
    std::uint64_t seq_seed, unsigned threads,
    const std::optional<core::LossyTrafficConfig>& lossy) {
  core::TrafficOptions opt;
  opt.seq_seed = seq_seed;
  opt.threads = threads;
  opt.hybrid_walker = random_walk_factory();
  opt.lossy = lossy;
  return opt;
}

}  // namespace

TrafficCell traffic_experiment(
    const graph::Graph& g, const Workload& w, std::uint64_t seq_seed,
    unsigned threads, const std::optional<core::LossyTrafficConfig>& lossy) {
  core::TrafficEngine engine(g, options(seq_seed, threads, lossy));
  engine.admit_all(w.sessions);
  engine.run();
  return summarize(engine, {{0, graph::connected_components(g)}});
}

TrafficCell traffic_experiment(
    const graph::Scenario& scenario, std::uint64_t epoch_period,
    std::uint64_t max_epochs, const Workload& w, std::uint64_t seq_seed,
    unsigned threads, const std::optional<core::LossyTrafficConfig>& lossy) {
  core::TrafficOptions opt = options(seq_seed, threads, lossy);
  opt.epoch_period = epoch_period;
  opt.max_epochs = max_epochs;
  core::TrafficEngine engine(scenario, opt);
  engine.admit_all(w.sessions);
  engine.run();
  return summarize(engine, ground_truth(scenario, max_epochs));
}

TrafficCell open_loop_traffic_experiment(const graph::Graph& g,
                                         const OpenLoopWorkload::Config& cfg,
                                         std::uint64_t seq_seed,
                                         unsigned threads, unsigned shards) {
  core::TrafficOptions opt = options(seq_seed, threads, std::nullopt);
  opt.shards = shards;
  core::TrafficEngine engine(g, opt);
  OpenLoopWorkload source(cfg);
  engine.attach_arrivals(source);
  engine.run();
  return summarize(engine, {{0, graph::connected_components(g)}});
}

}  // namespace uesr::baselines
