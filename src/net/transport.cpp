#include "net/transport.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

namespace gcs {

namespace {
std::uint64_t dir_key(NodeId from, NodeId to) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
         static_cast<std::uint32_t>(to);
}

// The inline-blob delivery path stores the Payload bytes directly in the
// kernel's 32-byte blob slot; both properties are what make that a plain
// block copy with no destructor obligations.
static_assert(std::is_trivially_copyable_v<Payload>,
              "inline delivery path copies Payload as raw bytes");
static_assert(sizeof(Payload) <= sizeof(InlineBlob),
              "Payload must fit the kernel's inline blob slot");

InlineBlob to_blob(const Payload& payload) {
  InlineBlob blob{};
  std::memcpy(blob.bytes, &payload, sizeof(Payload));
  return blob;
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

bool Transport::send(NodeId from, NodeId to, Payload payload) {
  const NeighborView* nv = graph_.find_neighbor(from, to);
  if (nv == nullptr) return false;
  send_via(from, *nv, std::move(payload));
  return true;
}

void Transport::send_via(NodeId from, const NeighborView& to, Payload&& payload) {
  // Degree 1: inline the payload beside the kernel slot — no arena slot to
  // acquire at send or reclaim at fire (see send_fanout's degree rule).
  const Duration delay = pick_delay(from, to.id, *to.params);
  ++sent_;
  if (is_outbound(to.id)) {
    outbound_(from, to.id, sim_.now(), sim_.now() + delay, payload);
    return;
  }
  SimEvent ev = SimEvent::delivery(channel_, from, to.id, sim_.now(), 0);
  ev.flags = kEventFlagInlineBlob;
  sim_.schedule_event_after(delay, ev, to_blob(payload));
}

void Transport::send_fanout(NodeId from, const std::vector<NeighborView>& views,
                            Payload payload) {
  if (views.empty()) return;
  // Degree-adaptive path choice, made once per send: at fan-out degree <= 2
  // (lines, rings, sparse meshes) MessageArena bookkeeping costs more than
  // simply copying the 32 payload bytes per delivery, so the payload rides
  // inline in the kernel's blob side array. Dense fan-out keeps the arena:
  // ONE payload for the whole neighborhood; every delivery holds a
  // reference, the last firing (or drop) reclaims the slot.
  // A partial replica always takes the inline path: outbound sends do not
  // schedule kernel events here, so arena reference counts sized to the
  // full fan-out would never balance. Payload content, delay draws and
  // delivery times are identical either way.
  if (views.size() <= 2 || executed_ != nullptr) {
    SimEvent ev = SimEvent::delivery(channel_, from, kNoNode, sim_.now(), 0);
    ev.flags = kEventFlagInlineBlob;
    const InlineBlob blob = to_blob(payload);
    for (const NeighborView& nv : views) {
      const Duration delay = pick_delay(from, nv.id, *nv.params);
      ++sent_;
      if (is_outbound(nv.id)) {
        outbound_(from, nv.id, sim_.now(), sim_.now() + delay, payload);
        continue;
      }
      ev.node = nv.id;
      sim_.schedule_event_after(delay, ev, blob);
    }
    return;
  }
  const std::uint64_t ref =
      arena_.put(std::move(payload), static_cast<std::uint32_t>(views.size()));
  SimEvent ev = SimEvent::delivery(channel_, from, kNoNode, sim_.now(), ref);
  for (const NeighborView& nv : views) {
    const Duration delay = pick_delay(from, nv.id, *nv.params);
    ++sent_;
    ev.node = nv.id;
    sim_.schedule_event_after(delay, ev);
  }
}

void Transport::inject_delivery(NodeId from, NodeId to, Time sent_at, Time arrival,
                                const Payload& payload) {
  SimEvent ev = SimEvent::delivery(channel_, from, to, sent_at, 0);
  ev.flags = kEventFlagInlineBlob;
  sim_.schedule_event_at(arrival, ev, to_blob(payload));
}

void Transport::dispatch(const SimEvent& ev) {
  const bool inline_blob = (ev.flags & kEventFlagInlineBlob) != 0;
  const std::uint64_t ref = ev.payload_ref;
  if (!inline_blob) {
    // The payload line has been cold since send time; start pulling it in
    // now so the miss overlaps the graph lookup below. (The inline path has
    // no such line: the kernel already staged the payload bytes.)
    MessageArena::prefetch(ref);
  }
  if (trace_ != nullptr) {
    trace_->on_event_fired(sim_.now(), ev.node, EventKind::kDelivery);
  }
  // §3.1 delivery rule: guaranteed iff the edge existed in the receiver's
  // view throughout the transit interval; we drop otherwise.
  const NeighborView* back = graph_.find_neighbor(ev.node, ev.from);
  if (back == nullptr || back->since > ev.sent_at) {
    ++dropped_;
    if (!inline_blob) arena_.release(ref);
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
    // Inline path: reconstitute the Payload from the kernel's staging slot
    // into a stack object (trivially copyable, so the memcpy is the exact
    // inverse of to_blob's; the bytes live on the handler's hot stack
    // frame). Arena path: hand out a pointer into the arena — this event's
    // own reference keeps the slot live until the release below, and arena
    // slots are address-stable, so handlers may send new messages while
    // reading this payload.
    Payload staged;
    if (inline_blob) {
      std::memcpy(&staged, sim_.fired_blob().bytes, sizeof(Payload));
      d.payload = &staged;
    } else {
      d.payload = arena_.peek(ref);
    }
    sink_->on_delivery(d);
  }
  if (!inline_blob) arena_.release(ref);
}

}  // namespace gcs
