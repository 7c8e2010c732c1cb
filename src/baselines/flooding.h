// Flooding baseline.
//
// Classic guaranteed broadcast/routing: every node retransmits the message
// once on all its ports.  Delivery is guaranteed and failure is certified
// (if the wave dies out without reaching t, t is unreachable) — but the
// scheme VIOLATES the paper's model: each node must remember whether it
// has already forwarded the message, i.e. Omega(1) persistent bits per
// node *per message in flight*, which the O(log n)-space stateless model
// forbids.  It is included as the throughput/latency yardstick the
// stateless walker should be compared against.
#pragma once

#include <cstdint>

#include "graph/graph.h"

namespace uesr::baselines {

struct FloodResult {
  bool delivered = false;
  std::uint64_t transmissions = 0;  ///< every port of every reached node
  std::uint32_t rounds = 0;         ///< synchronous rounds until t heard it
  std::uint64_t nodes_reached = 0;
};

/// Simulates synchronous flooding from s until the wave covers Cs (or
/// reaches t, whichever the caller cares about; the full wave cost is
/// reported because flooding cannot be "called back").
FloodResult flood(const graph::Graph& g, graph::NodeId s, graph::NodeId t);

}  // namespace uesr::baselines
