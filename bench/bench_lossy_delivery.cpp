// E13 (asynchronous lossy links): what survives when frames are lost —
// UES-over-stop-and-wait vs flooding vs Haas–Halpern–Li gossip.
//
// Shape expected: on the connected graph, flooding degrades gracefully
// (its redundancy is loss armour — delivery stays high as loss grows) and
// gossip sits between flooding and the single walker in both delivery and
// cost; UES keeps `err == 0` on EVERY row — a delivered verdict or a
// failure certificate is never wrong under loss — but trades delivery for
// `uncert` outcomes as loss grows, because a hop that spends its retry
// budget ends the session with no verdict (DESIGN.md §2.10).  On the
// two-component graph the cert column is exactly the cross-component
// pairs that complete their walk.  The second table sweeps the retry
// budget at fixed loss: UES delivery cliffs when the budget drops below
// what the loss rate demands, and recovers to ~100% with headroom.
//
// Trials fan out over the shared threads knob via
// baselines::lossy_experiment, whose cells are bit-identical for any
// --threads value (pinned by the lossy ThreadInvariance tests).
// Index row: DESIGN.md §4 / EXPERIMENTS.md (E13) — expected shape lives there.
#include "bench_common.h"

#include <vector>

#include "baselines/lossy.h"
#include "core/lossy_route.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace uesr;
  const unsigned threads = bench::threads_knob(argc, argv);
  bench::banner("E13 / lossy links — delivery and certification under loss",
                "frames lost, duplicated, delayed: flooding degrades "
                "gracefully, gossip sits between, and UES over stop-and-wait "
                "keeps sound certificates — paying with acks, retries, and "
                "uncertified-after-budget outcomes");
  bench::report_threads(threads);

  const int kPairs = 40;
  const std::vector<double> kLoss = {0.0, 0.01, 0.05, 0.1, 0.25};

  struct Row {
    const char* name;
    graph::Graph g;
  };
  std::vector<Row> graphs;
  graphs.push_back({"gnp n=24 (connected)", graph::connected_gnp(24, 0.18, 41)});
  graphs.push_back({"2x gnp n=12 (split)",
                    graph::disjoint_union(graph::connected_gnp(12, 0.3, 43),
                                          graph::connected_gnp(12, 0.3, 44))});

  for (const Row& row : graphs) {
    std::cout << "\n### " << row.name << "\n\n";
    util::Table t({"loss", "pairs", "ues ok", "ues cert", "ues uncert",
                   "ues err", "ues frames", "flood ok", "flood tx",
                   "gossip ok", "gossip tx", "s"});
    for (double loss : kLoss) {
      core::LossyTrafficConfig cfg;
      cfg.link.loss = loss;
      cfg.link.dup = 0.01;
      bench::Timer timer;
      const baselines::LossyCell cell =
          baselines::lossy_experiment(row.g, kPairs, cfg, /*seed=*/131,
                                      threads);
      t.row()
          .cell(loss, 2)
          .cell(cell.pairs)
          .cell(cell.delivered)
          .cell(cell.certified)
          .cell(cell.uncertified)
          .cell(cell.unsound)
          .cell(cell.frames)
          .cell(cell.flood_delivered)
          .cell(cell.flood_transmissions)
          .cell(cell.gossip_delivered)
          .cell(cell.gossip_transmissions)
          .cell(timer.seconds(), 3);
    }
    t.print(std::cout);
  }

  std::cout << "\n### retry-budget cliff (gnp n=24, loss=0.1)\n\n";
  util::Table b({"max_retries", "pairs", "ues ok", "ues cert", "ues uncert",
                 "ues err", "ues frames", "s"});
  for (std::uint32_t budget : {0u, 1u, 2u, 4u, 8u, 16u}) {
    core::LossyTrafficConfig cfg;
    cfg.link.loss = 0.1;
    cfg.window.max_retries = budget;
    bench::Timer timer;
    const baselines::LossyCell cell = baselines::lossy_experiment(
        graphs[0].g, kPairs, cfg, /*seed=*/131, threads);
    b.row()
        .cell(budget)
        .cell(cell.pairs)
        .cell(cell.delivered)
        .cell(cell.certified)
        .cell(cell.uncertified)
        .cell(cell.unsound)
        .cell(cell.frames)
        .cell(timer.seconds(), 3);
  }
  b.print(std::cout);

  std::cout << "\nues err == 0 on every row: no verdict ever contradicts "
               "ground truth — loss converts verdicts into uncertified "
               "outcomes, never into wrong certificates\n";
  return 0;
}
