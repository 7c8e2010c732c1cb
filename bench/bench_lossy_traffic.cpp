// E14 (lossy traffic engine): >= 1024 concurrent sessions over per-session
// lossy channels + adaptive ARQ, with links that flap AND drop in one
// replayable scenario.
//
// Shape expected: `unsound == 0` on EVERY row — the engine never emits a
// wrong certificate; budget exhaustion degrades sessions to `uncert`
// instead.  In the loss x window sweep, window = 1 is stop-and-wait pacing
// (one frame per RTT): its virtual time per delivered route towers over
// the pipelined windows, and the gap widens with loss because selective
// repeat resends only the frames that died while window = 1 serialises
// every recovery.  Window 8 vs 32 is nearly flat — the 16-frame payload
// caps the usable pipeline depth.  The churn table composes loss with
// epoch flaps at >= 1024 sessions: delivery dips, restarts appear, and
// soundness still holds on every row.
//
// Sessions fan out over the shared threads knob via
// baselines::traffic_experiment with a core::LossyTrafficConfig, whose
// cells are bit-identical for any --threads value (pinned by the
// lossy-traffic ThreadInvariance tests).
// Index row: DESIGN.md §4 / EXPERIMENTS.md (E14) — expected shape lives there.
#include "bench_common.h"

#include <vector>

#include "baselines/workload.h"
#include "graph/churn.h"
#include "graph/generators.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace uesr;
  const unsigned threads = bench::threads_knob(argc, argv);
  bench::banner(
      "E14 / lossy traffic engine — guaranteed delivery under composed "
      "loss, churn, and load",
      "concurrent route sessions over per-session lossy channels + "
      "adaptive selective-repeat ARQ: certificates stay sound under every "
      "composition; loss only ever degrades sessions to uncertified");
  bench::report_threads(threads);

  // --- Table 1: loss x window, static topology -----------------------------
  // window = 1 is the stop-and-wait baseline; the payload is 16 frames per
  // hop so the pipeline has something to fill.
  const graph::Graph g = graph::connected_gnp(16, 0.25, 41);
  const baselines::Workload w16 = baselines::all_pairs_workload(16);
  std::cout << "\n### loss x window sweep (gnp n=16, " << w16.sessions.size()
            << " sessions, 16 frames/hop, selective repeat)\n\n";
  util::Table t({"loss", "window", "ok", "cert", "uncert", "unsound",
                 "wire frames", "retx", "vtime/ok", "s"});
  for (double loss : {0.0, 0.05, 0.1, 0.25}) {
    for (std::uint32_t window : {1u, 8u, 32u}) {
      core::LossyTrafficConfig cfg;
      cfg.link.loss = loss;
      cfg.arq = core::ArqKind::kSelectiveRepeat;
      cfg.window.frames_per_message = 16;
      cfg.window.window = window;
      cfg.window.max_retries = 16;
      bench::Timer timer;
      const baselines::TrafficCell cell = baselines::traffic_experiment(
          g, w16, /*seq_seed=*/131, threads, cfg);
      t.row()
          .cell(loss, 2)
          .cell(window)
          .cell(cell.delivered)
          .cell(cell.certified)
          .cell(cell.uncertified)
          .cell(cell.unsound)
          .cell(cell.wire_frames)
          .cell(cell.retransmits)
          .cell(cell.delivered > 0
                    ? static_cast<double>(cell.vtime_delivered) /
                          cell.delivered
                    : 0.0,
                1)
          .cell(timer.seconds(), 3);
    }
  }
  t.print(std::cout);
  std::cout << "\nwindow = 1 (stop-and-wait pacing) pays the most virtual "
               "time per delivered route at every loss rate; the pipelined "
               "windows close the gap and unsound == 0 everywhere\n";

  // --- Table 2: >= 1024 sessions, loss + churn composed --------------------
  // all-pairs on 34 nodes = 1122 concurrent sessions, links flapping one
  // epoch per 96 ticks AND dropping 10% of frames.
  graph::NodeChurnScenario sc(graph::connected_gnp(34, 0.16, 29),
                              /*p_leave=*/0.05, /*p_join=*/0.45, 107);
  const baselines::Workload w34 = baselines::all_pairs_workload(34);
  std::cout << "\n### composed regime: " << w34.sessions.size()
            << " sessions, loss=0.1, node churn (n=34, 24 epochs)\n\n";
  util::Table c({"arq", "ok", "cert", "uncert", "unsound", "restarts",
                 "wire frames", "retx", "vtime/ok", "clock", "s"});
  for (core::ArqKind arq :
       {core::ArqKind::kStopAndWait, core::ArqKind::kSelectiveRepeat}) {
    core::LossyTrafficConfig cfg;
    cfg.link.loss = 0.1;
    cfg.arq = arq;
    cfg.window.frames_per_message = 8;
    cfg.window.window = 8;
    cfg.window.max_retries = 8;
    bench::Timer timer;
    const baselines::TrafficCell cell = baselines::traffic_experiment(
        sc, /*epoch_period=*/96, /*max_epochs=*/24, w34, /*seq_seed=*/131,
        threads, cfg);
    c.row()
        .cell(arq == core::ArqKind::kStopAndWait ? "stop-and-wait"
                                                 : "selective-repeat")
        .cell(cell.delivered)
        .cell(cell.certified)
        .cell(cell.uncertified)
        .cell(cell.unsound)
        .cell(cell.restarts)
        .cell(cell.wire_frames)
        .cell(cell.retransmits)
        .cell(cell.delivered > 0
                  ? static_cast<double>(cell.vtime_delivered) /
                        cell.delivered
                  : 0.0,
              1)
        .cell(cell.final_clock)
        .cell(timer.seconds(), 3);
  }
  c.print(std::cout);
  std::cout << "\nunsound == 0 on every row: across " << w34.sessions.size()
            << " concurrent sessions with links flapping and dropping at "
               "once, no delivered verdict and no failure certificate ever "
               "contradicts the ground-truth topology of its completion "
               "epoch\n";
  return 0;
}
