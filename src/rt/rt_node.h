// One live runtime node: a full local Scenario stack (kernel, graph,
// transport, estimate layer, engine, AOPT) slaved to a wall clock, with the
// in-sim delivery path diverted onto a real transport.
//
// Every node runs its own *partial replica* of the scenario
// (EngineConfig::executed = {self}): the replica executes timers, probes and
// trigger evaluation for exactly one node; every other node exists only as
// an addressing/topology mirror — the one-node case of an island shard.
// Every send is therefore outbound: the transport's outbound hook (the same
// one island shards use) hands it to the RtTransport. Inbound frames are
// injected back through the engine's DeliverySink, which closes the
// instant-coalesced evaluation loop exactly as a kernel delivery would. The
// Engine and AoptNode code paths are byte-for-byte the ones the simulator
// exercises — that is the point of the seam.
//
// Membership (optional, enable_detector): a LivenessDetector observes the
// ingress stream and drives the local DynamicGraph — silence evicts an edge
// (destroy_edge_instant -> Engine::on_edge_lost), any frame from a down
// peer re-creates it, after which the AOPT insertion protocol runs over the
// wire exactly as the paper prescribes for a newly appeared edge.
// LivenessPing frames are a runtime-layer concern: answered and consumed at
// ingress, never injected into the engine.
//
// Crash/restart (chaos): request_crash()/request_restart() set an atomic
// flag consumed inside pump() on the node's own thread (the kernel is not
// thread-safe). While down the node executes nothing and discards ingress.
// A restart discards the backlog, fast-forwards the kernel to the wall
// clock with egress muted (backlogged timers fire without leaking frames
// from the dead period), then drops every edge and rejoins through detector
// probes + the insertion protocol.
#pragma once

#include <atomic>
#include <functional>
#include <optional>

#include "rt/liveness.h"
#include "rt/rt_transport.h"
#include "rt/time_source.h"
#include "runner/scenario.h"

namespace gcs {

class RtNode {
 public:
  /// `spec` is the SHARED scenario description — every node of a cluster is
  /// constructed from the same spec (same seed, same topology, same drift
  /// table), which is what keeps the replicas' world views consistent.
  /// `self` selects which node this replica executes.
  RtNode(ScenarioSpec spec, NodeId self, RtTransport& net, TimeSource& clock);

  /// Arm the failure detector over this node's t=0 topology neighbors.
  /// Call before start().
  void enable_detector(const DetectorConfig& config);

  /// Build the t=0 topology and start the engine (timers for `self` only).
  /// Model time must be at 0: call before the clock has been pumped.
  void start();

  /// One executor step: advance the kernel to the wall clock, drain the
  /// ingress and close the delivery instant. Returns the model time reached.
  /// Call from this node's thread only (the replica is single-threaded).
  Time pump();

  /// Schedule `fn` at an absolute model time on this node's kernel (used by
  /// the cluster to sample clocks at exact grid points, race-free: the
  /// closure runs on this node's thread inside pump()).
  void at(Time model_time, std::function<void()> fn) {
    scenario_.sim().schedule_at(model_time, std::move(fn));
  }

  // ------------------------------------------------------- chaos admin
  /// Thread-safe: the transition happens at the node's next pump().
  void request_crash();
  void request_restart();
  [[nodiscard]] bool is_down() const {
    const int a = admin_.load(std::memory_order_acquire);
    return a == kDown || a == kCrashRequested;
  }
  /// True while samples reflect a live, caught-up node (up and not inside
  /// the muted restart fast-forward). Node-thread only.
  [[nodiscard]] bool sampling_live() const {
    return !muted_ && admin_.load(std::memory_order_relaxed) == kUp;
  }
  [[nodiscard]] std::uint64_t restarts() const { return restarts_; }

  /// Monotone logical-clock rejoin from a persisted epoch anchor (gcsd):
  /// raises L to `anchor` if it is ahead, through the upward-safe path that
  /// preserves the M >= L invariant. A lower anchor is a no-op — the clock
  /// never steps backwards.
  void recover_logical(ClockValue anchor);

  [[nodiscard]] NodeId self() const { return self_; }
  ClockValue logical() { return scenario_.engine().logical(self_); }
  ClockValue hardware() { return scenario_.engine().hardware(self_); }
  [[nodiscard]] Scenario& scenario() { return scenario_; }
  [[nodiscard]] Engine& engine() { return scenario_.engine(); }
  /// Null until enable_detector + start.
  [[nodiscard]] const LivenessDetector* detector() const {
    return detector_ ? &*detector_ : nullptr;
  }

  [[nodiscard]] std::uint64_t egress_count() const { return egress_; }
  [[nodiscard]] std::uint64_t ingress_count() const { return ingress_; }
  /// Frames refused at injection (peer absent from our view / mis-addressed).
  [[nodiscard]] std::uint64_t rejected_count() const { return rejected_; }
  /// Frames discarded while crashed.
  [[nodiscard]] std::uint64_t discarded_count() const { return discarded_; }

 private:
  enum Admin : int { kUp, kCrashRequested, kDown, kRestartRequested };

  static ScenarioSpec localize(ScenarioSpec spec, NodeId self);
  void handle_ingress(const WireMsg& m);
  void inject(const WireMsg& m);
  /// Detector said a down peer spoke: re-create the edge (insertion rule).
  void revive_edge(NodeId peer);
  /// Run the detector state machines and apply what they ask for. Returns
  /// true if anything happened (caller must flush the instant).
  bool apply_liveness(Time now);
  void send_ping(NodeId peer, std::uint32_t kind, std::uint32_t seq);
  void do_restart();

  NodeId self_;
  RtTransport& net_;
  TimeSource& clock_;
  Scenario scenario_;
  std::optional<DetectorConfig> detector_config_;
  std::optional<LivenessDetector> detector_;
  std::vector<NodeId> monitored_;            ///< detector peer ids (t=0 neighbors)
  std::vector<LivenessAction> actions_;      ///< poll scratch
  std::atomic<int> admin_{kUp};
  bool muted_ = false;                       ///< restart fast-forward in progress
  std::uint32_t ping_seq_ = 0;
  std::uint64_t egress_ = 0;
  std::uint64_t ingress_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t discarded_ = 0;
  std::uint64_t restarts_ = 0;
};

}  // namespace gcs
