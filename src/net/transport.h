// Message transport over the dynamic graph.
//
// Semantics follow §3.1: a message sent at time t over edge e arrives within
// [t + msg_delay_min, t + msg_delay_max] provided the edge exists in the
// receiver's view throughout transit; otherwise it is dropped (the paper
// allows either). Delay values can be sampled or adversarially pinned per
// direction, which the §8 lower-bound construction uses.
//
// A partial replica (an island shard, a runtime node) executes only some
// nodes. Every send it makes still passes the sender-view check and draws
// its keyed delay; a send to a node it does not execute then leaves through
// the outbound hook instead of being scheduled here, and whoever carries it
// brings it back in on the executing replica (inject_delivery on a shard,
// the engine's DeliverySink at runtime).
//
// Every delivery scheduled here — unicast, fan-out or injected — keeps its
// payload in the transport's MessageArena (net/arena.h): one slot per send
// that schedules anything here, one reference per scheduled delivery,
// released when that delivery fires or is dropped.
#pragma once

#include <functional>
#include <span>
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

class Transport {
 public:
  /// Receives every send whose destination this replica does not execute,
  /// with the sender-drawn delay already folded into `arrival` (see
  /// set_outbound).
  using Outbound = std::function<void(NodeId from, NodeId to, Time sent_at,
                                      Time arrival, const Payload& payload)>;

  Transport(Simulator& sim, DynamicGraph& graph, std::uint64_t seed = 23);

  /// The engine's delivery path.
  void set_sink(DeliverySink* sink) { sink_ = sink; }
  void set_delay_mode(DelayMode mode) { delay_mode_ = mode; }

  /// Probe of delivery firings (time, receiver, kDelivery); nullptr detaches.
  void set_kernel_trace(KernelTraceSink* trace) { trace_ = trace; }

  /// Partial replica (EngineConfig::executed): `executed` holds one byte per
  /// node, nonzero = executed here, and must stay valid while sends run; nullptr
  /// (the default) means every node is executed. The engine installs its
  /// own expansion here, so engine and transport cannot disagree.
  void set_executed(const std::vector<std::uint8_t>* executed) { executed_ = executed; }
  /// A send to a node this replica does not execute is not scheduled here:
  /// after the usual sender-view check and delay draw it goes to `hook`,
  /// which carries it to the replica that does (the island runner's barrier
  /// exchange, the runtime's wire transport).
  void set_outbound(Outbound hook) { outbound_ = std::move(hook); }
  [[nodiscard]] bool has_outbound() const { return static_cast<bool>(outbound_); }

  /// Schedule a delivery that another replica's outbound hook captured.
  /// Fires through the normal dispatch path (trace, drop rule, sink) at
  /// absolute time `arrival`, so the receiver observes exactly what the
  /// serial engine would have.
  void inject_delivery(NodeId from, NodeId to, Time sent_at, Time arrival,
                       const Payload& payload);

  /// Pin the delay of all future messages from `from` to `to` (clamped to
  /// the edge's [min,max]). Used by adversarial executions.
  void set_directional_delay(NodeId from, NodeId to, Duration delay);
  void clear_directional_delay(NodeId from, NodeId to);

  /// Send if the edge exists in the sender's view; returns false otherwise.
  /// A one-entry send_fanout along the sender's view of the edge.
  bool send(NodeId from, NodeId to, const Payload& payload);

  /// Send along every entry of `from`'s own neighbor view (the engine's
  /// beacon duty; skips the view lookup the caller has already done). ONE
  /// arena payload serves the whole fan-out, referenced once per delivery
  /// scheduled here; outbound sends hold no reference. Delays are drawn in
  /// view order, so the result equals one send() per entry.
  void send_fanout(NodeId from, std::span<const NeighborView> views,
                   const Payload& payload);

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
  [[nodiscard]] bool is_outbound(NodeId to) const {
    return executed_ != nullptr && (*executed_)[static_cast<std::size_t>(to)] == 0;
  }

  Simulator& sim_;
  DynamicGraph& graph_;
  MessageArena arena_;
  std::uint8_t channel_ = kNoChannel;  ///< registered dispatch channel
  KeyedDraw delay_draw_;
  std::vector<std::uint64_t> sends_;  ///< per sender: sends so far, the delay draw's k
  const std::vector<std::uint8_t>* executed_ = nullptr;
  Outbound outbound_;
  DeliverySink* sink_ = nullptr;
  KernelTraceSink* trace_ = nullptr;
  DelayMode delay_mode_ = DelayMode::kUniform;
  std::unordered_map<std::uint64_t, Duration> directional_override_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace gcs
