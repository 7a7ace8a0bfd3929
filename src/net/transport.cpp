#include "net/transport.h"

#include <algorithm>

namespace gcs {

namespace {
std::uint64_t dir_key(NodeId from, NodeId to) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
         static_cast<std::uint32_t>(to);
}
}  // namespace

Transport::Transport(Simulator& sim, DynamicGraph& graph, std::uint64_t seed)
    : sim_(sim),
      graph_(graph),
      delay_draw_(seed, Domain::kDelay),
      sends_(static_cast<std::size_t>(graph.size()), 0) {
  // Channel dispatch: the thunk's static_cast call is a direct call, so
  // fired deliveries never go through a vtable.
  channel_ = sim_.register_dispatch_channel(this, [](void* self, const SimEvent& ev) {
    static_cast<Transport*>(self)->dispatch(ev);
  });
}

void Transport::set_directional_delay(NodeId from, NodeId to, Duration delay) {
  directional_override_[dir_key(from, to)] = delay;
}

void Transport::clear_directional_delay(NodeId from, NodeId to) {
  directional_override_.erase(dir_key(from, to));
}

Duration Transport::pick_delay(NodeId from, NodeId to, const EdgeParams& params) {
  const std::uint64_t k = sends_[static_cast<std::size_t>(from)]++;
  if (!directional_override_.empty()) {  // adversarial runs only
    const auto it = directional_override_.find(dir_key(from, to));
    if (it != directional_override_.end()) {
      return std::clamp(it->second, params.msg_delay_min, params.msg_delay_max);
    }
  }
  switch (delay_mode_) {
    case DelayMode::kUniform:
      return delay_draw_.uniform(params.msg_delay_min, params.msg_delay_max, from, to, k);
    case DelayMode::kMin: return params.msg_delay_min;
    case DelayMode::kMax: return params.msg_delay_max;
  }
  return params.msg_delay_max;
}

bool Transport::send(NodeId from, NodeId to, const Payload& payload) {
  const NeighborView* nv = graph_.find_neighbor(from, to);
  if (nv == nullptr) return false;
  send_fanout(from, std::span(nv, 1), payload);
  return true;
}

void Transport::send_fanout(NodeId from, std::span<const NeighborView> views,
                            const Payload& payload) {
  // ONE payload for every delivery scheduled here: each holds a reference,
  // and the last firing (or drop) reclaims the slot. A send to a node this
  // replica does not execute leaves through the outbound hook and holds
  // none, so those are left out of the count — which draws nothing, keeping
  // the delay draws in view order.
  const auto local = static_cast<std::uint32_t>(
      executed_ == nullptr
          ? views.size()
          : std::count_if(views.begin(), views.end(),
                          [this](const NeighborView& nv) { return !is_outbound(nv.id); }));
  const std::uint64_t ref = local == 0 ? 0 : arena_.put(payload, local);
  SimEvent ev = SimEvent::delivery(channel_, from, kNoNode, sim_.now(), ref);
  for (const NeighborView& nv : views) {
    const Duration delay = pick_delay(from, nv.id, *nv.params);
    ++sent_;
    if (is_outbound(nv.id)) {
      outbound_(from, nv.id, sim_.now(), sim_.now() + delay, payload);
      continue;
    }
    ev.node = nv.id;
    sim_.schedule_event_after(delay, ev);
  }
}

void Transport::inject_delivery(NodeId from, NodeId to, Time sent_at, Time arrival,
                                const Payload& payload) {
  sim_.schedule_event_at(
      arrival, SimEvent::delivery(channel_, from, to, sent_at, arena_.put(payload, 1)));
}

void Transport::dispatch(const SimEvent& ev) {
  const std::uint64_t ref = ev.payload_ref;
  // The payload line has been cold since send time; start pulling it in now
  // so the miss overlaps the graph lookup below.
  MessageArena::prefetch(ref);
  if (trace_ != nullptr) {
    trace_->on_event_fired(sim_.now(), ev.node, EventKind::kDelivery);
  }
  // §3.1 delivery rule: guaranteed iff the edge existed in the receiver's
  // view throughout the transit interval; we drop otherwise.
  const NeighborView* back = graph_.find_neighbor(ev.node, ev.from);
  if (back == nullptr || back->since > ev.sent_at) {
    ++dropped_;
    arena_.release(ref);
    return;
  }
  ++delivered_;
  if (sink_ != nullptr) {
    Delivery d;
    d.from = ev.from;
    d.to = ev.node;
    d.sent_at = ev.sent_at;
    d.delivered_at = sim_.now();
    // Edge params are immutable after creation, so the receiver-known
    // transit floor can be re-read here instead of riding in every event.
    d.known_min_delay = back->params->msg_delay_min;
    // This event's own reference keeps the slot live until the release
    // below, and arena slots are address-stable, so handlers may send new
    // messages while reading this payload.
    d.payload = arena_.peek(ref);
    sink_->on_delivery(d);
  }
  arena_.release(ref);
}

}  // namespace gcs
