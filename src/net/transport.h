// Message transport over the dynamic graph.
//
// Semantics follow §3.1: a message sent at time t over edge e arrives within
// [t + msg_delay_min, t + msg_delay_max] provided the edge exists in the
// receiver's view throughout transit; otherwise it is dropped (the paper
// allows either). Delay values can be sampled or adversarially pinned per
// direction, which the §8 lower-bound construction uses.
#pragma once

#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/dynamic_graph.h"
#include "net/arena.h"
#include "net/message.h"
#include "sim/event.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace gcs {

enum class DelayMode {
  /// Uniform in [msg_delay_min, msg_delay_max], keyed by (from, to, from's
  /// send count): independent of other nodes' sends, so island shards
  /// reproduce serial delays exactly (see src/runner/island_runner.h).
  kUniform,
  kMin,  ///< always msg_delay_min
  kMax,  ///< always msg_delay_max
  kEdgeUniform = kUniform,  ///< alias the performance ledger still names
};

/// Receiver of delivered messages. An interface rather than a std::function
/// so the per-delivery call is a plain virtual dispatch.
class DeliverySink {
 public:
  virtual ~DeliverySink() = default;
  virtual void on_delivery(const Delivery& d) = 0;
};

/// Service-mode bypass (src/rt): when installed, every send that passes the
/// sender-view check is handed here instead of being scheduled as a kernel
/// delivery — the real transport (pipe rings, UDP sockets) carries it, and
/// the receiving process injects it back through DeliverySink. The in-sim
/// delay model, drop rule and arena are all bypassed; with no egress set
/// the transport behaves exactly as before.
class TransportEgress {
 public:
  virtual ~TransportEgress() = default;
  virtual void send(NodeId from, NodeId to, Time sent_at, const Payload& payload) = 0;
};

class Transport {
 public:
  using Handler = std::function<void(const Delivery&)>;

  Transport(Simulator& sim, DynamicGraph& graph, std::uint64_t seed = 23);

  /// The engine's delivery path. A set sink takes precedence over the
  /// closure handler (which remains for tests and ad-hoc probes).
  void set_sink(DeliverySink* sink) { sink_ = sink; }
  void set_handler(Handler handler) { handler_ = std::move(handler); }
  void set_delay_mode(DelayMode mode) { delay_mode_ = mode; }
  /// Divert outbound messages to a real transport (nullptr restores the
  /// in-sim delivery path).
  void set_egress(TransportEgress* egress) { egress_ = egress; }

  /// Probe of delivery firings (time, receiver, kDelivery); nullptr detaches.
  void set_kernel_trace(KernelTraceSink* trace) { trace_ = trace; }

  /// Island-parallel routing (src/runner/island_runner): when a local mask is
  /// installed, a send whose destination is NOT local to this shard is handed
  /// to `capture` — with the sender-drawn delay already folded into `arrival`
  /// — instead of being scheduled here; the runner injects it into the owning
  /// shard at the next window barrier. Pass nullptr/empty to restore. The
  /// mask must outlive the routing and have one byte per node (nonzero =
  /// local). Mutually exclusive with an egress.
  using CrossCapture = std::function<void(NodeId from, NodeId to, Time sent_at,
                                          Time arrival, const Payload& payload)>;
  void set_island_routing(const std::vector<std::uint8_t>* local_mask,
                          CrossCapture capture) {
    local_mask_ = local_mask;
    cross_capture_ = std::move(capture);
  }

  /// Schedule a delivery captured on another shard. Fires through the normal
  /// dispatch path (trace, drop rule, sink) at absolute time `arrival`, so
  /// the receiver observes exactly what the serial engine would have.
  void inject_delivery(NodeId from, NodeId to, Time sent_at, Time arrival,
                       const Payload& payload);

  /// Pin the delay of all future messages from `from` to `to` (clamped to
  /// the edge's [min,max]). Used by adversarial executions.
  void set_directional_delay(NodeId from, NodeId to, Duration delay);
  void clear_directional_delay(NodeId from, NodeId to);

  /// Send if the edge exists in the sender's view; returns false otherwise.
  /// Unicasts take the inline-payload path: the 32 payload bytes ride in the
  /// kernel's blob side array beside the event slot (no allocation, and the
  /// MessageArena is not touched — only send_fanout at degree > 2 uses it).
  bool send(NodeId from, NodeId to, Payload payload);

  /// Fan-out fast path: send along an entry of `from`'s own neighbor view
  /// (skips the view lookup the caller has already done). Inline-payload
  /// path, like send().
  void send_via(NodeId from, const NeighborView& to, Payload&& payload);

  /// Broadcast fast path for the engine's beacon duty. Degree-adaptive
  /// (picked here, at send time): for fan-out degree <= 2 the payload rides
  /// INLINE in the kernel's blob side array (one 32-byte copy per delivery —
  /// cheaper than MessageArena bookkeeping on sparse topologies); for larger
  /// degree ONE payload is moved into the arena and every scheduled delivery
  /// references it (reclaimed when the last one fires or drops) — zero
  /// per-edge payload construction. Behaviorally identical — including the
  /// delay draws — to calling send_via for each entry of `views` in order.
  void send_fanout(NodeId from, const std::vector<NeighborView>& views,
                   Payload payload);

  /// Kernel callback for in-flight kDelivery events, reached through the
  /// registered dispatch channel (a direct call).
  void dispatch(const SimEvent& ev);

  /// The in-flight payload store (exposed for tests and diagnostics).
  [[nodiscard]] const MessageArena& arena() const { return arena_; }

  [[nodiscard]] std::uint64_t sent_count() const { return sent_; }
  [[nodiscard]] std::uint64_t delivered_count() const { return delivered_; }
  [[nodiscard]] std::uint64_t dropped_count() const { return dropped_; }

 private:
  [[nodiscard]] Duration pick_delay(NodeId from, NodeId to, const EdgeParams& params);
  [[nodiscard]] bool is_cross(NodeId to) const {
    return local_mask_ != nullptr && (*local_mask_)[static_cast<std::size_t>(to)] == 0;
  }

  Simulator& sim_;
  DynamicGraph& graph_;
  MessageArena arena_;
  std::uint8_t channel_ = kNoChannel;  ///< registered dispatch channel
  KeyedDraw delay_draw_;
  std::vector<std::uint64_t> sends_;  ///< per sender: sends so far, the delay draw's k
  const std::vector<std::uint8_t>* local_mask_ = nullptr;
  CrossCapture cross_capture_;
  DeliverySink* sink_ = nullptr;
  TransportEgress* egress_ = nullptr;
  Handler handler_;
  KernelTraceSink* trace_ = nullptr;
  DelayMode delay_mode_ = DelayMode::kUniform;
  std::unordered_map<std::uint64_t, Duration> directional_override_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace gcs
