#include "net/faults.h"

#include <algorithm>
#include <stdexcept>

#include "util/rng.h"

namespace uesr::net {

namespace {

void check_window(SimTime at, SimTime until, const char* who) {
  if (until <= at)
    throw std::invalid_argument(std::string("FaultPlan::") + who +
                                ": until must be > at");
}

void check_prob(double p, const char* what) {
  if (!(p >= 0.0 && p <= 1.0))
    throw std::invalid_argument(std::string("ChaosConfig: ") + what +
                                " must be in [0, 1]");
}

void check_span(SimTime lo, SimTime hi, const char* what) {
  if (lo == 0 || hi < lo)
    throw std::invalid_argument(std::string("ChaosConfig: need 0 < ") + what +
                                "_min <= " + what + "_max");
}

void validate(const ChaosConfig& cfg) {
  if (cfg.horizon == 0)
    throw std::invalid_argument("ChaosConfig: horizon must be > 0");
  if (cfg.slot == 0)
    throw std::invalid_argument("ChaosConfig: slot must be > 0");
  check_prob(cfg.crash_rate, "crash_rate");
  check_prob(cfg.corrupt_burst_rate, "corrupt_burst_rate");
  check_prob(cfg.corrupt_level, "corrupt_level");
  check_prob(cfg.brownout_rate, "brownout_rate");
  check_span(cfg.crash_min, cfg.crash_max, "crash");
  check_span(cfg.burst_min, cfg.burst_max, "burst");
  check_span(cfg.brownout_min, cfg.brownout_max, "brownout");
}

/// One entity's window schedule: scan slot boundaries over [0, horizon),
/// open a window with probability `rate`, skip past its close before
/// rolling again (windows never overlap per entity).  `open`/`close`
/// append the matched action pair.  Window lengths are inclusive-uniform
/// in [lo, hi].
template <typename Open, typename Close>
void scan_windows(util::Pcg32& rng, const ChaosConfig& cfg, double rate,
                  SimTime lo, SimTime hi, Open&& open, Close&& close) {
  if (rate <= 0.0) return;  // keep zero-rate streams entirely unconsumed
  for (SimTime t = 0; t < cfg.horizon;) {
    if (rng.next_double() < rate) {
      const SimTime len = lo + rng.next_below(static_cast<std::uint32_t>(
                                   hi - lo + 1));
      const SimTime until = std::min<SimTime>(t + len, cfg.horizon);
      open(t);
      close(until);
      t = until + cfg.slot;
    } else {
      t += cfg.slot;
    }
  }
}

}  // namespace

void FaultPlan::add(SimTime at, const FaultAction& action) {
  Entry e;
  e.at = at;
  e.action = action;
  // Keep the list stably time-sorted so arm order (and therefore the
  // simulator's tie-break seq order) is a pure function of plan content.
  const auto pos = std::upper_bound(
      entries_.begin(), entries_.end(), at,
      [](SimTime t, const Entry& x) { return t < x.at; });
  entries_.insert(pos, e);
}

FaultPlan& FaultPlan::crash(graph::NodeId v, SimTime at, SimTime until) {
  check_window(at, until, "crash");
  FaultAction down;
  down.kind = FaultAction::Kind::kCrash;
  down.node = v;
  FaultAction up;
  up.kind = FaultAction::Kind::kRecover;
  up.node = v;
  add(at, down);
  add(until, up);
  return *this;
}

FaultPlan& FaultPlan::brownout(graph::NodeId u, graph::Port p, SimTime at,
                               SimTime until) {
  check_window(at, until, "brownout");
  FaultAction down;
  down.kind = FaultAction::Kind::kLinkDown;
  down.node = u;
  down.port = p;
  FaultAction up;
  up.kind = FaultAction::Kind::kLinkUp;
  up.node = u;
  up.port = p;
  add(at, down);
  add(until, up);
  return *this;
}

FaultPlan& FaultPlan::corruption_burst(SimTime at, SimTime until,
                                       double level) {
  check_window(at, until, "corruption_burst");
  check_prob(level, "corrupt_level");
  FaultAction on;
  on.kind = FaultAction::Kind::kGlobalCorrupt;
  on.corrupt = level;
  FaultAction off;
  off.kind = FaultAction::Kind::kGlobalCorrupt;
  off.corrupt = 0.0;
  add(at, on);
  add(until, off);
  return *this;
}

FaultPlan FaultPlan::sample(const graph::Graph& g, const ChaosConfig& cfg,
                            std::uint64_t seed) {
  validate(cfg);
  FaultPlan plan;
  // Per-node crash windows: node v's schedule is a pure function of
  // (seed, v), so adding chaos to one node never reshuffles another's.
  const std::uint64_t crash_seed = util::counter_hash(seed, 1);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    util::Pcg32 rng(util::counter_hash(crash_seed, v));
    scan_windows(rng, cfg, cfg.crash_rate, cfg.crash_min, cfg.crash_max,
                 [&](SimTime at) {
                   FaultAction a;
                   a.kind = FaultAction::Kind::kCrash;
                   a.node = v;
                   plan.add(at, a);
                 },
                 [&](SimTime at) {
                   FaultAction a;
                   a.kind = FaultAction::Kind::kRecover;
                   a.node = v;
                   plan.add(at, a);
                 });
  }
  // One global corruption-burst schedule.
  {
    util::Pcg32 rng(util::counter_hash(seed, 2));
    scan_windows(rng, cfg, cfg.corrupt_burst_rate, cfg.burst_min,
                 cfg.burst_max,
                 [&](SimTime at) {
                   FaultAction a;
                   a.kind = FaultAction::Kind::kGlobalCorrupt;
                   a.corrupt = cfg.corrupt_level;
                   plan.add(at, a);
                 },
                 [&](SimTime at) {
                   FaultAction a;
                   a.kind = FaultAction::Kind::kGlobalCorrupt;
                   a.corrupt = 0.0;
                   plan.add(at, a);
                 });
  }
  // Per-directed-link brownouts, keyed by the (u, p) half-edge so the
  // stream survives any re-indexing of links.
  const std::uint64_t brown_seed = util::counter_hash(seed, 3);
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (graph::Port p = 0; p < g.degree(u); ++p) {
      util::Pcg32 rng(
          util::counter_hash(brown_seed, util::counter_hash(u, p)));
      scan_windows(rng, cfg, cfg.brownout_rate, cfg.brownout_min,
                   cfg.brownout_max,
                   [&](SimTime at) {
                     FaultAction a;
                     a.kind = FaultAction::Kind::kLinkDown;
                     a.node = u;
                     a.port = p;
                     plan.add(at, a);
                   },
                   [&](SimTime at) {
                     FaultAction a;
                     a.kind = FaultAction::Kind::kLinkUp;
                     a.node = u;
                     a.port = p;
                     plan.add(at, a);
                   });
    }
  }
  return plan;
}

void FaultPlan::arm(EventSim& sim) const {
  const SimTime now = sim.now();
  for (const Entry& e : entries_)
    sim.schedule_fault(e.at > now ? e.at - now : 0, e.action);
}

}  // namespace uesr::net
