// Position-based routing baselines: greedy geographic forwarding and
// GPSR/GFG-style greedy-plus-face routing.
//
// These are the algorithms the paper's introduction positions itself
// against ([5, 9]; and [2] for the 3D impossibility).  Greedy forwarding
// needs only positions but dies in local minima; adding face routing on a
// planarized graph (Gabriel subgraph) recovers guaranteed delivery — but
// only in 2D, because face routing has no 3D analogue (Durocher,
// Kirkpatrick, Narayanan 2008).  The UES router needs neither positions
// nor planarity, which is precisely the gap it closes; bench E9 puts
// numbers on this story.
//
// The perimeter mode implemented here is GPSR's right-hand-rule traversal
// with face switching on edges crossing the (entry-point -> t) segment and
// recovery to greedy once strictly closer than the entry point.  Delivery
// rates are measured, not assumed, in the benches.
#pragma once

#include <cstdint>

#include "graph/geometric.h"

namespace uesr::baselines {

struct GeoAttempt {
  bool delivered = false;
  bool stuck = false;            ///< greedy died in a local minimum
  std::uint64_t transmissions = 0;
};

/// Pure greedy on 2D positions: forward to the neighbour strictly closest
/// to t; fail at a local minimum.
GeoAttempt greedy_route_2d(const graph::Positioned2& net, graph::NodeId s,
                           graph::NodeId t, std::uint64_t hop_limit = 0);

/// Pure greedy on 3D positions.
GeoAttempt greedy_route_3d(const graph::Positioned3& net, graph::NodeId s,
                           graph::NodeId t, std::uint64_t hop_limit = 0);

/// GPSR/GFG: greedy with perimeter-mode recovery on a *planar* embedded
/// graph (pass the Gabriel subgraph).  hop_limit == 0 picks a generous
/// default (16 * n).
GeoAttempt gpsr_route(const graph::Positioned2& planar, graph::NodeId s,
                      graph::NodeId t, std::uint64_t hop_limit = 0);

}  // namespace uesr::baselines
