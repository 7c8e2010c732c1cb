#include "baselines/geo.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace uesr::baselines {

using graph::NodeId;
using graph::Point2;
using graph::Point3;
using graph::Port;

namespace {

template <typename Net, typename Dist>
GeoAttempt greedy_generic(const Net& net, NodeId s, NodeId t,
                          std::uint64_t hop_limit, Dist dist_to_t) {
  const auto& g = net.graph;
  if (s >= g.num_nodes() || t >= g.num_nodes())
    throw std::invalid_argument("greedy: node out of range");
  if (hop_limit == 0) hop_limit = 4ULL * g.num_nodes() + 16;
  GeoAttempt a;
  NodeId cur = s;
  while (cur != t && a.transmissions < hop_limit) {
    double best = dist_to_t(cur);
    NodeId next = cur;
    for (Port p = 0; p < g.degree(cur); ++p) {
      NodeId w = g.neighbor(cur, p);
      double d = dist_to_t(w);
      if (d < best) {
        best = d;
        next = w;
      }
    }
    if (next == cur) {
      a.stuck = true;  // local minimum
      return a;
    }
    cur = next;
    ++a.transmissions;
  }
  a.delivered = cur == t;
  return a;
}

/// Angle of the vector u -> v.
double angle_of(const Point2& u, const Point2& v) {
  return std::atan2(v.y - u.y, v.x - u.x);
}

/// Neighbour of u whose edge is next counterclockwise strictly after
/// `base_angle`; among equal angles picks the lowest port.  Requires
/// deg(u) >= 1.
NodeId next_ccw(const graph::Positioned2& net, NodeId u, double base_angle) {
  const auto& g = net.graph;
  NodeId best = g.neighbor(u, 0);
  double best_delta = 10.0;  // > 2*pi
  constexpr double kTau = 6.283185307179586;
  for (Port p = 0; p < g.degree(u); ++p) {
    NodeId w = g.neighbor(u, p);
    if (w == u) continue;
    double a = angle_of(net.positions[u], net.positions[w]);
    double delta = a - base_angle;
    while (delta <= 1e-12) delta += kTau;
    while (delta > kTau) delta -= kTau;
    if (delta < best_delta) {
      best_delta = delta;
      best = w;
    }
  }
  return best;
}

int orient(const Point2& a, const Point2& b, const Point2& c) {
  double cr = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
  constexpr double kEps = 1e-12;
  return cr > kEps ? 1 : (cr < -kEps ? -1 : 0);
}

/// Proper intersection of open segments ab and cd.
bool crosses(const Point2& a, const Point2& b, const Point2& c,
             const Point2& d) {
  int o1 = orient(a, b, c), o2 = orient(a, b, d);
  int o3 = orient(c, d, a), o4 = orient(c, d, b);
  return o1 != o2 && o3 != o4 && o1 != 0 && o2 != 0 && o3 != 0 && o4 != 0;
}

}  // namespace

GeoAttempt greedy_route_2d(const graph::Positioned2& net, NodeId s, NodeId t,
                           std::uint64_t hop_limit) {
  return greedy_generic(net, s, t, hop_limit, [&](NodeId v) {
    return graph::distance(net.positions[v], net.positions[t]);
  });
}

GeoAttempt greedy_route_3d(const graph::Positioned3& net, NodeId s, NodeId t,
                           std::uint64_t hop_limit) {
  return greedy_generic(net, s, t, hop_limit, [&](NodeId v) {
    return graph::distance(net.positions[v], net.positions[t]);
  });
}

GeoAttempt gpsr_route(const graph::Positioned2& net, NodeId s, NodeId t,
                      std::uint64_t hop_limit) {
  const auto& g = net.graph;
  if (s >= g.num_nodes() || t >= g.num_nodes())
    throw std::invalid_argument("gpsr: node out of range");
  if (hop_limit == 0) hop_limit = 16ULL * g.num_nodes() + 64;
  const Point2 tp = net.positions[t];
  auto dist_t = [&](NodeId v) { return graph::distance(net.positions[v], tp); };

  GeoAttempt a;
  NodeId cur = s;
  bool perimeter = false;
  Point2 entry{};          // Lp: position where perimeter mode was entered
  double entry_dist = 0.0;
  NodeId prev = s;         // previous node in perimeter traversal
  NodeId first_u = 0, first_v = 0;  // first perimeter edge (loop detection)
  bool have_first = false;

  while (cur != t && a.transmissions < hop_limit) {
    if (!perimeter) {
      // Greedy forwarding.
      double best = dist_t(cur);
      NodeId next = cur;
      for (Port p = 0; p < g.degree(cur); ++p) {
        NodeId w = g.neighbor(cur, p);
        double d = dist_t(w);
        if (d < best) {
          best = d;
          next = w;
        }
      }
      if (next != cur) {
        cur = next;
        ++a.transmissions;
        continue;
      }
      if (g.degree(cur) == 0) {
        a.stuck = true;
        return a;
      }
      // Local minimum: enter perimeter mode on the face hit by ray cur->t.
      perimeter = true;
      entry = net.positions[cur];
      entry_dist = dist_t(cur);
      double base = std::atan2(tp.y - entry.y, tp.x - entry.x);
      NodeId next_p = next_ccw(net, cur, base);
      prev = cur;
      first_u = cur;
      first_v = next_p;
      have_first = true;
      cur = next_p;
      ++a.transmissions;
      continue;
    }
    // Perimeter mode.
    if (dist_t(cur) < entry_dist) {
      perimeter = false;  // recovered: strictly closer than the local min
      continue;
    }
    // Right-hand rule: next edge counterclockwise after the reverse edge.
    double back = angle_of(net.positions[cur], net.positions[prev]);
    NodeId next = next_ccw(net, cur, back);
    // Face change: skip edges that properly cross the (entry -> t) chord.
    int guard = 0;
    while (crosses(net.positions[cur], net.positions[next], entry, tp) &&
           guard++ < static_cast<int>(g.degree(cur))) {
      next = next_ccw(net, cur,
                      angle_of(net.positions[cur], net.positions[next]));
    }
    if (have_first && cur == first_u && next == first_v) {
      // Completed a full tour without progress: t unreachable from here
      // (or the heuristic failed); report as stuck, uncertified.
      a.stuck = true;
      return a;
    }
    prev = cur;
    cur = next;
    ++a.transmissions;
  }
  a.delivered = cur == t;
  return a;
}

}  // namespace uesr::baselines
