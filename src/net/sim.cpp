#include "net/sim.h"

#include <algorithm>
#include <stdexcept>

namespace uesr::net {

using graph::NodeId;
using graph::Port;

namespace {

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

/// First entry of a vector sorted by `key_of` whose key is not below k.
template <typename Vec, typename Key, typename KeyOf>
auto lower(Vec& v, Key k, KeyOf key_of) {
  return std::partition_point(v.begin(), v.end(),
                              [&](const auto& e) { return key_of(e) < k; });
}

}  // namespace

EventSim::EventSim(const graph::Graph& g, std::uint64_t seed,
                   LinkModel defaults)
    : graph_(&g), seed_(seed), default_model_(defaults) {
  validate_model(defaults, "EventSim");
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

const LinkModel& EventSim::model_of(std::uint64_t link) const {
  const auto it =
      lower(models_, link, [](const ModelOverride& o) { return o.link; });
  return it != models_.end() && it->link == link ? it->model : default_model_;
}

bool EventSim::link_down(std::uint64_t link) const {
  return std::binary_search(down_.begin(), down_.end(), link);
}

const EventSim::NodeCrash* EventSim::crash_state(NodeId v) const {
  const auto it =
      lower(crashes_, v, [](const NodeCrash& c) { return c.node; });
  return it != crashes_.end() && it->node == v ? &*it : nullptr;
}

void EventSim::set_link_model(NodeId u, Port p, const LinkModel& m) {
  check_half_edge(u, p, "EventSim::set_link_model");
  validate_model(m, "EventSim::set_link_model");
  const std::uint64_t link = graph_->half_edge_index(u, p);
  auto it =
      lower(models_, link, [](const ModelOverride& o) { return o.link; });
  if (it != models_.end() && it->link == link)
    it->model = m;
  else
    models_.insert(it, ModelOverride{link, m});
}

const LinkModel& EventSim::link_model(NodeId u, Port p) const {
  check_half_edge(u, p, "EventSim::link_model");
  return model_of(graph_->half_edge_index(u, p));
}

void EventSim::set_link_up(NodeId u, Port p, bool up) {
  check_half_edge(u, p, "EventSim::set_link_up");
  const std::uint64_t link = graph_->half_edge_index(u, p);
  const auto it = std::lower_bound(down_.begin(), down_.end(), link);
  const bool listed = it != down_.end() && *it == link;
  if (up && listed) down_.erase(it);
  if (!up && !listed) down_.insert(it, link);
}

bool EventSim::link_up(NodeId u, Port p) const {
  check_half_edge(u, p, "EventSim::link_up");
  return !link_down(graph_->half_edge_index(u, p));
}

void EventSim::set_node_crashed(NodeId v, bool crashed) {
  check_node(v, "EventSim::set_node_crashed");
  auto it = lower(crashes_, v, [](const NodeCrash& c) { return c.node; });
  if (it == crashes_.end() || it->node != v) {
    if (!crashed) return;  // never crashed: nothing to recover from
    it = crashes_.insert(it, NodeCrash{v, false, 0});
  }
  if (it->crashed && !crashed) ++it->epochs;  // recovery: amnesia
  it->crashed = crashed;
}

bool EventSim::node_crashed(NodeId v) const {
  check_node(v, "EventSim::node_crashed");
  const NodeCrash* c = crash_state(v);
  return c != nullptr && c->crashed;
}

std::uint64_t EventSim::crash_epochs(NodeId v) const {
  check_node(v, "EventSim::crash_epochs");
  return epoch_of(v);
}

std::uint64_t EventSim::link_index(NodeId u, Port p) const {
  check_half_edge(u, p, "EventSim::link_index");
  return graph_->half_edge_index(u, p);
}

void EventSim::record(std::string line) {
  if (trace_.size() < trace_limit_) trace_.push_back(std::move(line));
}

void EventSim::record_event(const char* outcome, const SimEvent& ev) {
  record(outcome + to_string(ev));
}

void EventSim::stamp(std::uint64_t event, NodeId from, Port out_port,
                     std::uint64_t frame_id, const char* outcome) {
  record("S t=" + std::to_string(now_) + " ev=" + std::to_string(event) +
         " link=" + std::to_string(from) + "." + std::to_string(out_port) +
         " f=" + std::to_string(frame_id) + " " + outcome);
}

bool EventSim::drop_at_departure(NodeId from, Port out_port,
                                 std::uint64_t event, std::uint64_t frame_id) {
  const NodeCrash* c = crashes_.empty() ? nullptr : crash_state(from);
  if (c != nullptr && c->crashed) {  // a crashed node transmits nothing
    ++frames_crashed_;
    if (trace_limit_ != 0) stamp(event, from, out_port, frame_id, "crash");
    return true;
  }
  if (link_down(graph_->half_edge_index(from, out_port))) {
    // Transmitting into a dead direction: nothing receives.
    ++frames_lost_;
    if (trace_limit_ != 0) stamp(event, from, out_port, frame_id, "down");
    return true;
  }
  return false;
}

void EventSim::transmit_copies(const LinkModel& m, util::Pcg32& rng,
                               SimTime at, std::uint64_t event, NodeId from,
                               Port out_port, std::uint64_t frame_id) {
  Queued ev{at, 0, frame_id, from, out_port};
  Queued dup = ev;
  const bool spawn_dup = m.dup > 0.0 && rng.next_double() < m.dup;
  if (spawn_dup) {
    dup.time = now_ + draw_latency(m, rng);
    dup.tag = kDuplicate;
  }
  // The seeded bit-flip of a corrupted copy: one random bit of the frame
  // id (the payload this simulator carries) is damaged; the `corrupted`
  // flag is the frame check sequence catching it.
  const auto damage = [&](Queued& e) {
    ++frames_corrupted_;
    e.frame_id ^= 1ULL << rng.next_below(64);
    e.tag |= kCorrupted;
  };
  if (m.corrupt > 0.0 && rng.next_double() < m.corrupt) damage(ev);
  if (spawn_dup && m.corrupt > 0.0 && rng.next_double() < m.corrupt)
    damage(dup);
  ev.tag |= next_seq_++ << 2;
  enqueue(ev);
  if (trace_limit_ != 0)
    stamp(event, from, out_port, frame_id,
          (ev.tag & kCorrupted) != 0 ? "sent corrupt" : "sent");
  if (spawn_dup) {
    ++frames_duplicated_;
    dup.tag |= next_seq_++ << 2;
    enqueue(dup);
    if (trace_limit_ != 0)
      stamp(event, from, out_port, frame_id,
            (dup.tag & kCorrupted) != 0 ? "dup corrupt" : "dup");
  }
}

bool EventSim::drop_at_delivery(const SimEvent& ev) {
  if (!down_.empty() &&
      link_down(graph_->half_edge_index(ev.from, ev.from_port))) {
    // The direction died while the frame was in flight.
    ++frames_died_;
    if (trace_limit_ != 0) record_event("D ", ev);
    return true;
  }
  const NodeCrash* c = crashes_.empty() ? nullptr : crash_state(ev.node);
  if (c != nullptr && c->crashed) {
    // Nobody is listening at the far end at this delivery instant.
    ++frames_crashed_;
    if (trace_limit_ != 0) record_event("C ", ev);
    return true;
  }
  return false;
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
  // The entry's frame_id indexes the payload in fault_actions_.
  enqueue({now_ + delay, next_seq_++ << 2, fault_actions_.size(), kFaultFrom,
           0});
  fault_actions_.push_back(action);
}

void EventSim::apply_fault(const FaultAction& f) {
  switch (f.kind) {
    case FaultAction::Kind::kCrash:
    case FaultAction::Kind::kRecover:
      set_node_crashed(f.node, f.kind == FaultAction::Kind::kCrash);
      break;
    case FaultAction::Kind::kLinkDown:
    case FaultAction::Kind::kLinkUp:
      set_link_up(f.node, f.port, f.kind == FaultAction::Kind::kLinkUp);
      break;
    case FaultAction::Kind::kGlobalCorrupt:
      default_model_.corrupt = f.corrupt;
      for (ModelOverride& o : models_) o.model.corrupt = f.corrupt;
      break;
  }
  if (trace_limit_ != 0)
    record("F t=" + std::to_string(now_) + " " + to_string(f));
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
