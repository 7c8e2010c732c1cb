#include "net/sim.h"

#include <algorithm>
#include <stdexcept>

#include "util/rng.h"

namespace uesr::net {

using graph::NodeId;
using graph::Port;

namespace {

constexpr std::uint64_t kForever = ~std::uint64_t{0};

void validate_model(const LinkModel& m, const char* who) {
  if (m.latency_max < m.latency_min)
    throw std::invalid_argument(std::string(who) +
                                ": latency_max < latency_min");
  // One 32-bit draw picks the latency, so the span must fit below 2^32 - 1.
  if (m.latency_max - m.latency_min >= 0xffffffffULL)
    throw std::invalid_argument(std::string(who) +
                                ": latency_max - latency_min >= 2^32 - 1");
  // Written so that NaN fails too (every comparison with NaN is false).
  if (!(m.loss >= 0.0 && m.loss <= 1.0))
    throw std::invalid_argument(std::string(who) + ": loss outside [0, 1]");
  if (!(m.dup >= 0.0 && m.dup <= 1.0))
    throw std::invalid_argument(std::string(who) + ": dup outside [0, 1]");
  if (!(m.corrupt >= 0.0 && m.corrupt <= 1.0))
    throw std::invalid_argument(std::string(who) +
                                ": corrupt outside [0, 1]");
}

SimTime draw_latency(const LinkModel& m, util::Pcg32& rng) {
  const SimTime span = m.latency_max - m.latency_min;
  if (span == 0) return m.latency_min;
  // validate_model keeps span + 1 within 32 bits.
  return m.latency_min + rng.next_below(static_cast<std::uint32_t>(span + 1));
}

/// The seeded bit-flip of a corrupted copy: one random bit of the frame id
/// (the payload this simulator carries) is damaged; the `corrupted` flag is
/// the frame check sequence catching it.
void damage(SimEvent& ev, util::Pcg32& rng) {
  ev.frame_id ^= 1ULL << rng.next_below(64);
  ev.corrupted = true;
}

}  // namespace

EventSim::EventSim(const graph::Graph& g, std::uint64_t seed,
                   LinkModel defaults)
    : graph_(&g), seed_(seed), default_model_(defaults) {
  validate_model(defaults, "EventSim");
  offsets_.resize(g.num_nodes() + 1, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    offsets_[v + 1] = offsets_[v] + g.degree(v);
  models_.resize(offsets_.back());
  link_seeds_.resize(offsets_.back());
  for (std::uint64_t l = 0; l < link_seeds_.size(); ++l)
    link_seeds_[l] = util::counter_hash(seed_, l);
  down_.resize(offsets_.back(), false);
  crashed_.resize(g.num_nodes(), false);
  crash_epochs_.resize(g.num_nodes(), 0);
}

void EventSim::check_half_edge(NodeId u, Port p, const char* who) const {
  if (u >= graph_->num_nodes())
    throw std::invalid_argument(std::string(who) + ": node out of range");
  if (p >= graph_->degree(u))
    throw std::invalid_argument(std::string(who) + ": port out of range");
}

void EventSim::check_node(NodeId v, const char* who) const {
  if (v >= graph_->num_nodes())
    throw std::invalid_argument(std::string(who) + ": node out of range");
}

void EventSim::set_link_model(NodeId u, Port p, const LinkModel& m) {
  check_half_edge(u, p, "EventSim::set_link_model");
  validate_model(m, "EventSim::set_link_model");
  models_[link_id(u, p)] = m;
}

const LinkModel& EventSim::link_model(NodeId u, Port p) const {
  check_half_edge(u, p, "EventSim::link_model");
  const auto& o = models_[link_id(u, p)];
  return o ? *o : default_model_;
}

void EventSim::set_link_up(NodeId u, Port p, bool up) {
  check_half_edge(u, p, "EventSim::set_link_up");
  down_[link_id(u, p)] = !up;
}

bool EventSim::link_up(NodeId u, Port p) const {
  check_half_edge(u, p, "EventSim::link_up");
  return !down_[link_id(u, p)];
}

void EventSim::set_node_crashed(NodeId v, bool crashed) {
  check_node(v, "EventSim::set_node_crashed");
  if (crashed_[v] && !crashed) ++crash_epochs_[v];  // recovery: amnesia
  crashed_[v] = crashed;
}

bool EventSim::node_crashed(NodeId v) const {
  check_node(v, "EventSim::node_crashed");
  return crashed_[v];
}

std::uint64_t EventSim::crash_epochs(NodeId v) const {
  check_node(v, "EventSim::crash_epochs");
  return crash_epochs_[v];
}

std::uint64_t EventSim::link_index(NodeId u, Port p) const {
  check_half_edge(u, p, "EventSim::link_index");
  return link_id(u, p);
}

void EventSim::record(std::string line) {
  if (trace_.size() < trace_limit_) trace_.push_back(std::move(line));
}

void EventSim::push(SimTime at, SimEvent ev) {
  ev.time = at;
  ev.seq = next_seq_++;
  // The new seq is the largest, so the event pops after every queued
  // event due at the same time: it goes in front of all of them.
  queue_.insert(std::partition_point(
                    queue_.begin(), queue_.end(),
                    [at](const SimEvent& q) { return q.time > at; }),
                ev);
}

void EventSim::send(NodeId from, Port out_port, std::uint64_t frame_id) {
  check_half_edge(from, out_port, "EventSim::send");
  const std::uint64_t link = link_id(from, out_port);
  const std::uint64_t event = next_send_++;
  ++transmissions_;
  auto stamp = [&](const char* outcome) {
    if (trace_limit_ == 0) return;
    record("S t=" + std::to_string(now_) + " ev=" + std::to_string(event) +
           " link=" + std::to_string(from) + "." + std::to_string(out_port) +
           " f=" + std::to_string(frame_id) + " " + outcome);
  };
  if (crashed_[from]) {  // a crashed node transmits nothing (no draws)
    ++frames_crashed_;
    stamp("crash");
    return;
  }
  if (down_[link]) {  // transmitting into a dead direction: nothing receives
    ++frames_lost_;
    stamp("down");
    return;
  }
  const LinkModel& m = models_[link] ? *models_[link] : default_model_;
  // Per-(link, event) stream: the schedule is a pure function of the seed
  // and the call sequence (ROADMAP's deterministic-replay contract).  Draw
  // order is fixed: loss, latency, dup, dup-latency, THEN the corruption
  // draws — so at corrupt = 0 the stream is consumed exactly as pre-fault
  // replays did (P11).
  util::Pcg32 rng(util::counter_hash(link_seeds_[link], event));
  if (m.loss > 0.0 && rng.next_double() < m.loss) {
    ++frames_lost_;
    stamp("lost");
    return;
  }
  const graph::HalfEdge far = graph_->rotate(from, out_port);
  SimEvent ev;
  ev.kind = SimEventKind::kArrival;
  ev.node = far.node;
  ev.port = far.port;
  ev.from = from;
  ev.from_port = out_port;
  ev.frame_id = frame_id;
  const SimTime latency = draw_latency(m, rng);
  SimEvent dup_ev;
  SimTime dup_latency = 0;
  const bool spawn_dup = m.dup > 0.0 && rng.next_double() < m.dup;
  if (spawn_dup) {
    dup_ev = ev;
    dup_ev.duplicate = true;
    dup_latency = draw_latency(m, rng);
  }
  if (m.corrupt > 0.0 && rng.next_double() < m.corrupt) {
    ++frames_corrupted_;
    damage(ev, rng);
  }
  if (spawn_dup && m.corrupt > 0.0 && rng.next_double() < m.corrupt) {
    ++frames_corrupted_;
    damage(dup_ev, rng);
  }
  push(now_ + latency, ev);
  stamp(ev.corrupted ? "sent corrupt" : "sent");
  if (spawn_dup) {
    ++frames_duplicated_;
    push(now_ + dup_latency, dup_ev);
    stamp(dup_ev.corrupted ? "dup corrupt" : "dup");
  }
}

void EventSim::schedule_fault(SimTime delay, const FaultAction& action) {
  switch (action.kind) {
    case FaultAction::Kind::kCrash:
    case FaultAction::Kind::kRecover:
      check_node(action.node, "EventSim::schedule_fault");
      break;
    case FaultAction::Kind::kLinkDown:
    case FaultAction::Kind::kLinkUp:
      check_half_edge(action.node, action.port, "EventSim::schedule_fault");
      break;
    case FaultAction::Kind::kGlobalCorrupt:
      if (!(action.corrupt >= 0.0 && action.corrupt <= 1.0))
        throw std::invalid_argument(
            "EventSim::schedule_fault: corrupt outside [0, 1]");
      break;
  }
  SimEvent ev;
  ev.kind = SimEventKind::kFault;
  ev.frame_id = fault_actions_.size();  // index into fault_actions_
  fault_actions_.push_back(action);
  push(now_ + delay, ev);
}

void EventSim::apply_fault(const FaultAction& f) {
  switch (f.kind) {
    case FaultAction::Kind::kCrash:
      crashed_[f.node] = true;
      break;
    case FaultAction::Kind::kRecover:
      if (crashed_[f.node]) ++crash_epochs_[f.node];
      crashed_[f.node] = false;
      break;
    case FaultAction::Kind::kLinkDown:
      down_[link_id(f.node, f.port)] = true;
      break;
    case FaultAction::Kind::kLinkUp:
      down_[link_id(f.node, f.port)] = false;
      break;
    case FaultAction::Kind::kGlobalCorrupt:
      default_model_.corrupt = f.corrupt;
      for (auto& o : models_)
        if (o) o->corrupt = f.corrupt;
      break;
  }
  if (trace_limit_ != 0)
    record("F t=" + std::to_string(now_) + " " + to_string(f));
}

std::optional<SimEvent> EventSim::next_before(const Deadline& d) {
  if (auto ev = pop_before(d)) return ev;
  now_ = std::max(now_, d.time);
  return std::nullopt;
}

std::optional<SimEvent> EventSim::next() {
  return pop_before({kForever, kForever});
}

std::optional<SimEvent> EventSim::pop_before(const Deadline& d) {
  while (!queue_.empty() &&
         Deadline{queue_.back().time, queue_.back().seq} < d) {
    const SimEvent ev = queue_.back();
    queue_.pop_back();
    now_ = ev.time;
    if (ev.kind == SimEventKind::kFault) {
      apply_fault(fault_actions_[ev.frame_id]);
      continue;
    }
    if (down_[link_id(ev.from, ev.from_port)]) {
      // The direction died while the frame was in flight.
      ++frames_died_;
      if (trace_limit_ != 0) record("D " + to_string(ev));
      continue;
    }
    if (crashed_[ev.node]) {
      // Nobody is listening at the far end at this delivery instant.
      ++frames_crashed_;
      if (trace_limit_ != 0) record("C " + to_string(ev));
      continue;
    }
    ++frames_delivered_;
    if (trace_limit_ != 0) record("E " + to_string(ev));
    return ev;
  }
  return std::nullopt;
}

std::string to_string(const SimEvent& ev) {
  return "t=" + std::to_string(ev.time) + " seq=" + std::to_string(ev.seq) +
         " arr node=" + std::to_string(ev.node) + " port=" +
         std::to_string(ev.port) + " from=" + std::to_string(ev.from) + "." +
         std::to_string(ev.from_port) + " f=" + std::to_string(ev.frame_id) +
         (ev.duplicate ? " dup" : "") + (ev.corrupted ? " corrupt" : "");
}

std::string to_string(const FaultAction& f) {
  switch (f.kind) {
    case FaultAction::Kind::kCrash:
      return "crash v=" + std::to_string(f.node);
    case FaultAction::Kind::kRecover:
      return "recover v=" + std::to_string(f.node);
    case FaultAction::Kind::kLinkDown:
      return "linkdown " + std::to_string(f.node) + "." +
             std::to_string(f.port);
    case FaultAction::Kind::kLinkUp:
      return "linkup " + std::to_string(f.node) + "." +
             std::to_string(f.port);
    case FaultAction::Kind::kGlobalCorrupt:
      return "corrupt p=" + std::to_string(f.corrupt);
  }
  return "?";
}

}  // namespace uesr::net
