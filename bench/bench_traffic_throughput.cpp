// E12 (traffic engine): many simultaneous route sessions over one shared
// topology — the first experiment where "heavy traffic" is a measured
// axis, not a metaphor.
//
// Shape expected: on static connected rows every session ends in a
// delivery and certificates are exactly the cross-component pairs; the
// all-pairs row multiplexes >= 1024 concurrent sessions through one
// engine; on the churn-overlaid rows every session still terminates with
// a delivery or an epoch-exact certificate while all sessions share ONE
// schedule (unlike E11, which replays the schedule per attempt).  Every
// row is audited: `unsound` counts deliveries and certificates that
// contradict the ground-truth topology of the epoch they name, and reads
// 0 on every row; `uncert` stays 0 on these perfect links.  p50/p99
// completion transmissions and latency summarize the per-session cost
// distribution; `routes/s` and `s` are the only machine-dependent
// columns.
//
// The closing open-loop row is the million-scale regime: >= 1M
// cluster-local sessions with Poisson arrivals AND departures streamed
// through the sharded engine's SoA arena fast path on a >= 10^6-node
// clustered topology.
//
// Sessions fan out over the shared threads knob inside
// core::TrafficEngine; every data cell is bit-identical for any --threads
// and --shards split (pinned by the ThreadInvariance and ShardInvariance
// suites).
// Index row: DESIGN.md §4 / EXPERIMENTS.md (E12) — expected shape lives there.
#include "bench_common.h"

#include <memory>
#include <string>
#include <vector>

#include "baselines/workload.h"
#include "graph/churn.h"
#include "graph/generators.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace uesr;
  const unsigned threads = bench::threads_knob(argc, argv);
  bench::banner("E12 / traffic engine — concurrent session throughput",
                "ROADMAP regime: N simultaneous route/broadcast/hybrid "
                "sessions on one shared transmission clock, each completing "
                "with its exact per-session certificate");
  bench::report_threads(threads);

  util::Table t({"workload", "topology", "sessions", "ok", "cert", "uncert",
                 "exh", "dep", "unsound", "p50 tx", "p99 tx", "restarts",
                 "routes/s", "s"});
  const std::uint64_t kSeqSeed = 0x5eed0001;

  auto add_row = [&](const std::string& topology, const std::string& name,
                     const baselines::TrafficCell& cell, double seconds) {
    t.row()
        .cell(name)
        .cell(topology)
        .cell(cell.sessions)
        .cell(cell.delivered)
        .cell(cell.certified)
        .cell(cell.uncertified)
        .cell(cell.exhausted)
        .cell(cell.departed)
        .cell(cell.unsound)
        .cell(cell.p50_tx, 0)
        .cell(cell.p99_tx, 0)
        .cell(cell.restarts)
        .cell(seconds > 0 ? cell.sessions / seconds : 0.0, 0)
        .cell(seconds, 3);
  };

  // --- static rows -------------------------------------------------------
  struct StaticRow {
    std::string topology;
    graph::Graph g;
    baselines::Workload w;
  };
  std::vector<StaticRow> rows;
  rows.push_back({"connected-gnp(48)", graph::connected_gnp(48, 0.12, 19),
                  baselines::poisson_workload(48, 256, 2.0, 101)});
  rows.push_back({"grid(8x8)", graph::grid(8, 8),
                  baselines::hotspot_workload(64, 256, 0, 2.0, 103)});
  // The N >= 1024 acceptance row: every ordered pair at tick 0.
  rows.push_back({"connected-gnp(34)", graph::connected_gnp(34, 0.18, 23),
                  baselines::all_pairs_workload(34)});
  // Smaller mesh for the mixed row: its broadcasts walk the full T_n of
  // the reduced graph, which grows ~n'^2 log n'.
  rows.push_back({"torus(5x5)", graph::torus(5, 5),
                  baselines::mixed_workload(25, 192, 1.5, 4096, 107)});
  for (const StaticRow& row : rows) {
    bench::Timer timer;
    const baselines::TrafficCell cell =
        baselines::traffic_experiment(row.g, row.w, kSeqSeed, threads);
    add_row(row.topology, row.w.name, cell, timer.seconds());
  }

  // --- churn-overlaid rows (one shared schedule for ALL sessions) --------
  struct DynamicRow {
    std::unique_ptr<graph::Scenario> scenario;
    baselines::Workload w;
  };
  std::vector<DynamicRow> dyn;
  dyn.push_back({std::make_unique<graph::NodeChurnScenario>(
                     graph::connected_gnp(32, 0.2, 29), /*p_leave=*/0.08,
                     /*p_join=*/0.5, 109),
                 baselines::poisson_workload(32, 128, 3.0, 113)});
  dyn.push_back({std::make_unique<graph::LinkFlapScenario>(
                     graph::connected_gnp(36, 0.14, 31),
                     /*flaps_per_epoch=*/3, 127),
                 baselines::hotspot_workload(36, 128, 0, 3.0, 131)});
  const std::uint64_t kPeriod = 64;
  const std::uint64_t kMaxEpochs = 48;
  for (const DynamicRow& row : dyn) {
    bench::Timer timer;
    const baselines::TrafficCell cell = baselines::traffic_experiment(
        *row.scenario, kPeriod, kMaxEpochs, row.w, kSeqSeed, threads);
    add_row(row.scenario->name(), row.w.name, cell, timer.seconds());
  }

  // --- million-scale open-loop row (the PR 9 acceptance artifact) --------
  // >= 1M cluster-local sessions streamed through the sharded engine's
  // arena fast path on a >= 10^6-node clustered topology.  Arrivals AND
  // departures are open-loop (Poisson); the row is bit-identical for any
  // threads/shards split (pinned by the ShardInvariance suite).
  {
    const graph::NodeId kClusterSize = 8;
    const graph::NodeId kClusters = 131072;  // 8 * 131072 = 1,048,576 nodes
    const graph::Graph big = graph::disjoint_copies(
        graph::connected_gnp(kClusterSize, 0.45, 211), kClusters);
    baselines::OpenLoopWorkload::Config cfg;
    cfg.cluster_size = kClusterSize;
    cfg.clusters = kClusters;
    cfg.sessions = 1'048'576;
    cfg.mean_interarrival = 0.002;  // ~all admitted within ~2.1k slots
    cfg.mean_lifetime = 2048.0;     // patient, but a tail departs
    cfg.seed = 977;
    bench::Timer timer;
    const baselines::TrafficCell cell = baselines::open_loop_traffic_experiment(
        big, cfg, kSeqSeed, threads, /*shards=*/4 * threads);
    add_row("clusters(8x131072)", baselines::OpenLoopWorkload(cfg).name(),
            cell, timer.seconds());
  }

  t.print(std::cout);
  std::cout << "\nok + cert + exh + dep == sessions on every row (each "
               "session ends with its exact verdict or an open-loop "
               "departure; perfect links never leave one uncertified) and "
               "unsound == 0 on every row (no delivery or certificate "
               "contradicts the ground-truth topology of its epoch); the "
               "all-pairs row multiplexes >= 1024 concurrent "
               "sessions and the open-loop row streams >= 1M sessions over a "
               ">= 10^6-node clustered topology; restarts appear only on the "
               "churn-overlaid rows, whose shared schedule is the regime "
               "E11's per-attempt replays cannot express\n";
  return 0;
}
