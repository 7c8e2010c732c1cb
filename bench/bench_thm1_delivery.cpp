// E2 (Theorem 1, delivery): guaranteed delivery on arbitrary topologies
// and exact failure certification, vs the baselines.
//
// Shape expected: UES delivers on 100% of connected pairs on EVERY
// topology class (including the non-planar / 3D ones where geometric
// methods break) and returns certified failures exactly on the
// disconnected pairs.  Random walk with a TTL misses some pairs; flooding
// delivers everything but needs per-node state (model violation).
//
// Trials fan out over the shared threads knob: the pair list is drawn
// serially up front (same pairs as ever), each trial's random-walk
// baseline is seeded per trial index, and per-chunk counters merge in
// chunk order — every data cell is identical for any --threads value
// (only the wall-clock `s` column moves).
// Index row: DESIGN.md §4 / EXPERIMENTS.md (E2) — expected shape lives there.
#include "bench_common.h"

#include <cmath>
#include <memory>
#include <vector>

#include "baselines/flooding.h"
#include "baselines/random_walk.h"
#include "core/api.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/geometric.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace uesr;
  const unsigned threads = bench::threads_knob(argc, argv);
  bench::banner("E2 / Thm 1 — guaranteed delivery",
                "paper: the UES router delivers iff a path exists, on any "
                "static topology, with stateless nodes");
  bench::report_threads(threads);
  util::ThreadPool pool(threads);

  struct Net {
    std::string name;
    graph::Graph g;
  };
  std::vector<Net> nets;
  nets.push_back({"gnp(40,.08) multi-comp", graph::gnp(40, 0.08, 11)});
  nets.push_back({"udg2d(50,.18) sparse", graph::unit_disk_2d(50, 0.18, 7).graph});
  nets.push_back({"udg3d(50,.28) sparse", graph::unit_disk_3d(50, 0.28, 9).graph});
  nets.push_back({"cubic(40) non-planar", graph::random_connected_regular(40, 3, 5)});
  nets.push_back({"torus(6x6)", graph::torus(6, 6)});
  nets.push_back({"lollipop(8,24)", graph::lollipop(8, 24)});
  nets.push_back({"two islands", graph::from_edges(30, [] {
                    std::vector<std::pair<graph::NodeId, graph::NodeId>> e;
                    for (graph::NodeId v = 0; v + 1 < 15; ++v)
                      e.push_back({v, v + 1});
                    for (graph::NodeId v = 15; v + 1 < 30; ++v)
                      e.push_back({v, v + 1});
                    return e;
                  }())});

  util::Table t({"topology", "pairs", "connected", "ues ok", "ues certified-fail",
                 "rw(ttl) ok", "flood ok", "errors", "s"});
  const int kPairs = 60;
  for (auto& [name, g] : nets) {
    core::AdHocNetwork net(g);
    // TTL sized at ~10 n^1.5: plenty for fast-mixing graphs, tight for
    // slow ones — exposing the "sufficiently unlucky" failure mode of §1.2.
    auto ttl = static_cast<std::uint64_t>(
        10.0 * std::pow(static_cast<double>(g.num_nodes()), 1.5));
    // The pair list is drawn serially, exactly as the serial driver did.
    util::Pcg32 rng(123);
    std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs(kPairs);
    for (auto& [s, tgt] : pairs) {
      s = rng.next_below(g.num_nodes());
      tgt = rng.next_below(g.num_nodes());
    }

    struct Part {
      int connected = 0, ues_ok = 0, certified = 0, rw_ok = 0, fl_ok = 0,
          errors = 0;
    };
    bench::Timer timer;
    Part merged = util::parallel_reduce<Part>(
        pool, pairs.size(), util::default_chunk(pairs.size(), pool.size()),
        Part{},
        [&](const util::ChunkRange& c) {
          Part part;
          for (std::uint64_t i = c.begin; i < c.end; ++i) {
            const auto [s, tgt] = pairs[i];
            bool truth = graph::has_path(g, s, tgt);
            part.connected += truth;
            auto r = net.route(s, tgt);  // const, stateless: shared safely
            if (r.delivered != truth) ++part.errors;  // should never happen
            part.ues_ok += r.delivered;
            part.certified += (!truth && !r.delivered);
            // The random walk is stateful (per-route RNG stream): give
            // trial i its own instance seeded by the trial index so the
            // outcome is a pure function of (seed, i).
            baselines::RandomWalkRouter rw(g, ttl, util::counter_hash(77, i));
            part.rw_ok += rw.route(s, tgt).delivered;
            part.fl_ok += baselines::flood(g, s, tgt).delivered;
          }
          return part;
        },
        [](Part acc, Part p) {
          acc.connected += p.connected;
          acc.ues_ok += p.ues_ok;
          acc.certified += p.certified;
          acc.rw_ok += p.rw_ok;
          acc.fl_ok += p.fl_ok;
          acc.errors += p.errors;
          return acc;
        });
    t.row()
        .cell(name)
        .cell(kPairs)
        .cell(merged.connected)
        .cell(merged.ues_ok)
        .cell(merged.certified)
        .cell(merged.rw_ok)
        .cell(merged.fl_ok)
        .cell(merged.errors)
        .cell(timer.seconds(), 3);
  }
  t.print(std::cout);
  std::cout << "\nues ok == connected and errors == 0 on every row: "
               "delivery iff reachable, failures certified\n";
  return 0;
}
