// The execution engine: owns per-node clock state (hardware clock H_u,
// logical clock L_u, max estimate M_u), drives drift changes, beacons,
// re-evaluation ticks and exact logical-time target events, and dispatches
// graph/transport events to per-node algorithm instances.
//
// All continuous dynamics in the model are piecewise linear, so the engine
// simulates them *exactly*: each node's clocks are one NodeClocks record
// that is integrated only at a rate or value change and read as a pure
// extrapolation from it (clock/node_clocks.h), and crossings that matter
// to the protocol (neighbor-set insertion times T_s, the moment M_u is
// caught by L_u) are computed analytically and scheduled as events.
// Trigger threshold crossings that involve other nodes' estimates are
// handled by guard-banded re-evaluation plus a periodic tick, exactly as
// the paper's footnote 6 prescribes for implementations. Evaluation is
// *instant-coalesced*: within one simulated instant every delivery/timer
// effect applies first, and each node whose discrete trigger inputs changed
// is evaluated exactly once when the kernel closes the instant — the paper's
// per-instant semantics (the triggers of Defs. 4.5/4.6 are predicates over a
// node's state at an instant), one AOPT scan per (node, instant).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "clock/drift.h"
#include "clock/node_clocks.h"
#include "core/params.h"
#include "estimate/estimate_source.h"
#include "graph/dynamic_graph.h"
#include "net/transport.h"
#include "sim/event.h"
#include "sim/simulator.h"

namespace gcs {

class Engine;

/// Per-node facade through which an algorithm interacts with the world.
class NodeApi {
 public:
  NodeApi(Engine& engine, NodeId id) : engine_(engine), id_(id) {}

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] Time now() const;
  [[nodiscard]] const AlgoParams& algo_params() const;

  /// Current clock values (pure reads at now()).
  [[nodiscard]] ClockValue logical() const;
  [[nodiscard]] ClockValue hardware() const;
  [[nodiscard]] ClockValue max_estimate() const;
  /// True iff M_u == L_u (maintained symbolically, no float equality).
  [[nodiscard]] bool max_locked() const;

  [[nodiscard]] double rate_multiplier() const;
  void set_rate_multiplier(double mult);
  /// Discontinuous clock jump (used by baselines and fault injection).
  void set_logical_value(ClockValue v);

  /// Neighbors in this node's current view (N_u(t)), sorted by peer id.
  [[nodiscard]] const std::vector<NeighborView>& neighbors() const;
  [[nodiscard]] const EdgeParams& edge_params(NodeId peer) const;

  /// ε_e the estimate layer guarantees for the edge to `peer` (eq. 1).
  [[nodiscard]] double edge_eps(NodeId peer) const;

  /// Listing 1 line 9. Returns false if the edge is absent from our view.
  bool send_insert_edge(NodeId peer, ClockValue l_ins, double gtilde);

  /// G̃_u(t).
  double global_skew_estimate();

  /// Run `fn` when this node's logical clock reaches `target` (exact).
  void schedule_at_logical(ClockValue target, std::function<void()> fn);
  /// Run `fn` after `dt` real time.
  void schedule_after(Duration dt, std::function<void()> fn);

  // ---- estimate reads (defined after Engine) ----
  /// The engine's estimate source as one of its two shapes: exactly one of
  /// these is non-null, and it licenses the matching inline read path.
  [[nodiscard]] OracleEstimateSource* oracle_source() const;
  [[nodiscard]] SnapshotEstimateSource* snapshot_source() const;
  /// True logical clock of a peer: the value the oracle source's
  /// ClockAccess read returns.
  [[nodiscard]] ClockValue peer_true_logical(NodeId v) const;

 private:
  Engine& engine_;
  NodeId id_;
};

/// A clock synchronization algorithm instance (one per node).
class Algorithm {
 public:
  virtual ~Algorithm() = default;

  void attach(NodeApi* api) { api_ = api; }

  [[nodiscard]] virtual const char* name() const = 0;

  /// Called once when the engine starts (after the t=0 topology exists).
  virtual void init() {}
  virtual void on_edge_discovered(NodeId peer) { (void)peer; }
  virtual void on_edge_lost(NodeId peer) { (void)peer; }
  virtual void on_insert_edge_msg(NodeId from, const InsertEdgeMsg& msg) {
    (void)from, (void)msg;
  }
  /// The *discrete* state behind `peer`'s estimate changed (a beacon or a
  /// time response from `peer` reached the estimate layer). Incremental
  /// algorithms use this to invalidate cached estimate snapshots; a
  /// reevaluate() follows.
  virtual void on_estimate_dirty(NodeId peer) { (void)peer; }

  /// Re-decide the mode (rate multiplier). Called after every event
  /// affecting this node and on every tick.
  virtual void reevaluate() = 0;

  // ---- introspection used by metrics (defaults suit non-gradient baselines)

  /// Is `peer` in this node's level-s neighbor set N^s_u right now?
  [[nodiscard]] virtual bool edge_in_level(NodeId peer, int s) const {
    (void)peer, (void)s;
    return false;
  }
  /// Current κ of the edge to `peer` (0 if not applicable).
  [[nodiscard]] virtual double edge_kappa(NodeId peer) const {
    (void)peer;
    return 0.0;
  }

 protected:
  NodeApi* api_ = nullptr;
};

struct EngineConfig {
  Duration tick_period = 0.25;    ///< re-evaluation cadence (real time)
  Duration beacon_period = 0.25;  ///< beacon cadence (real time)
  bool enable_beacons = true;     ///< M flooding + beacon estimates
  /// The nodes this engine instance *executes*: init, timers and trigger
  /// evaluation run for them alone, and every other node exists purely as
  /// an addressing/topology mirror whose clock slots are dead data. Empty
  /// (the default) executes every node. A runtime node executes {self}, an
  /// island shard its island; sends to the other nodes leave through the
  /// transport's outbound hook (Transport::set_outbound), which start()
  /// requires. Programmatic only — never serialized into spec strings.
  std::vector<NodeId> executed;
};

/// Passive instrumentation: notified of the engine's discrete transitions.
/// Used by the execution tracer; all callbacks default to no-ops.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;
  virtual void on_mode_change(Time t, NodeId u, double old_mult, double new_mult) {
    (void)t, (void)u, (void)old_mult, (void)new_mult;
  }
  virtual void on_logical_jump(Time t, NodeId u, ClockValue from, ClockValue to) {
    (void)t, (void)u, (void)from, (void)to;
  }
  virtual void on_max_estimate_raised(Time t, NodeId u, ClockValue value) {
    (void)t, (void)u, (void)value;
  }
};

class Engine final : public DynamicGraph::Listener,
                     public ClockAccess,
                     public DeliverySink {
 public:
  using AlgorithmFactory = std::function<std::unique_ptr<Algorithm>(NodeId)>;

  Engine(Simulator& sim, DynamicGraph& graph, Transport& transport,
         DriftModel& drift, EstimateSource& estimates,
         GlobalSkewEstimator& gskew, AlgoParams params, EngineConfig config,
         const AlgorithmFactory& factory);

  /// Schedule ticks/beacons/drift events and run algorithm init().
  /// The t=0 topology must already exist. Call exactly once, at time 0.
  void start();

  /// Attach a passive observer (nullptr to detach).
  void set_observer(EngineObserver* observer) { observer_ = observer; }

  /// Probe of the engine's event firings (time, node, kind); nullptr detaches.
  void set_kernel_trace(KernelTraceSink* trace) { trace_ = trace; }

  // ------------------------------------------------------------- queries
  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] DynamicGraph& graph() { return graph_; }
  [[nodiscard]] const AlgoParams& params() const { return params_; }
  [[nodiscard]] const EngineConfig& config() const { return config_; }

  // Clock reads at now(): pure extrapolations of the node's NodeClocks, so
  // any observer may call them without changing the run. Defined inline
  // (after the class): they run several times per event inside the
  // re-evaluation scan.
  [[nodiscard]] ClockValue logical(NodeId u) const;
  /// Same as logical(u). Kept only for perfbench's island sampler; the next
  /// benchmark refresh switches it to logical(u) and deletes this.
  [[nodiscard]] ClockValue peek_logical(NodeId u) const { return logical(u); }
  [[nodiscard]] ClockValue hardware(NodeId u) const;
  [[nodiscard]] ClockValue max_estimate(NodeId u) const;
  /// Flooded lower bound on the network-wide minimum logical clock
  /// (symmetric to M_u; substrate for distributed G̃_u(t), §7).
  [[nodiscard]] ClockValue min_estimate(NodeId u) const;
  /// ε_e the estimate layer guarantees for this edge (metrics access).
  [[nodiscard]] double edge_eps(const EdgeKey& e) const { return estimates_.eps(e); }
  /// κ_e as the metrics layer defines it: AOPT's eq. 9 derivation from the
  /// edge params with the estimate layer's ε. Cached per edge — edge params
  /// and ε are fixed for an edge's lifetime — and invalidated on rediscovery
  /// so recorder-heavy runs stop re-deriving constants O(edges) per sample.
  [[nodiscard]] double metric_kappa(const EdgeKey& e);
  [[nodiscard]] bool max_locked(NodeId u) const;
  [[nodiscard]] double rate_multiplier(NodeId u) const;
  [[nodiscard]] double hardware_rate(NodeId u) const;
  Algorithm& algorithm(NodeId u);

  /// max_u L_u - min_u L_u at the current instant.
  [[nodiscard]] double true_global_skew() const;

  /// Fault injection: overwrite L_u (M_u is raised to keep M >= L, and the
  /// node's own min estimate is lowered if needed). Note: a *downward*
  /// corruption leaves the model — logical clocks are monotone in §3 — so
  /// flooded bounds at *other* nodes (Condition 4.3's M <= max L and the min
  /// mirror) may be transiently unsound afterwards.
  void corrupt_logical(NodeId u, ClockValue value);
  /// Fault injection: overwrite M_u (clamped to >= L_u).
  void corrupt_max_estimate(NodeId u, ClockValue value);

  // ---------------------------------------------------------- ClockAccess
  ClockValue true_logical(NodeId u) const override { return logical(u); }
  ClockValue true_hardware(NodeId u) const override { return hardware(u); }
  Time now() const override { return sim_.now(); }

  // ------------------------------------------------- DynamicGraph::Listener
  void on_edge_discovered(NodeId u, NodeId peer) override;
  void on_edge_lost(NodeId u, NodeId peer) override;

  // --------------------------------------------------------- event dispatch
  /// Typed-event switch: the kernel hands back Tick/Beacon/DriftChange/
  /// MLockCatch/LogicalTarget records scheduled by this engine through the
  /// registered dispatch channel (a direct call).
  void dispatch(const SimEvent& ev);

 private:
  friend class NodeApi;

  /// A pending schedule_at_logical() callback. Per node, targets form a
  /// 4-ary-free binary min-heap ordered by (target value, seq), which
  /// preserves the fire order of the former multimap (key order, insertion
  /// order among equal keys) without a node allocation per target.
  struct LogicalTarget {
    ClockValue at = 0.0;
    std::uint64_t seq = 0;
    std::function<void()> fn;
  };
  struct LogicalTargetOrder {  // std::*_heap comparator => min-heap
    bool operator()(const LogicalTarget& a, const LogicalTarget& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// The hot per-node record: the four clocks (M_u's slot is dead data while
  /// locked: every unlock transition rewrites its value and rate) plus the
  /// two scalars read on every clock access, stored in a DENSE array separate
  /// from the cold NodeState. Every event reads the clocks of several nodes
  /// (receiver plus scanned peers), so packing them densely instead of
  /// inside the ~180-byte NodeState roughly halves the cache lines that
  /// scan touches — the engine-side counterpart of the kernel's SoA slots.
  struct NodeHot {
    NodeClocks clocks;
    double mult = 1.0;
    bool m_locked = true;  ///< M_u == L_u
  };

  /// Per-node cold state, stored contiguously by value (nodes_ is sized once
  /// in the constructor and never resized: NodeApi/algorithm pointers into
  /// it must stay stable).
  struct NodeState {
    NodeState(Engine& engine, NodeId u) : api(engine, u) {}

    NodeApi api;
    std::unique_ptr<Algorithm> algo;
    std::vector<LogicalTarget> logical_targets;  ///< min-heap, see above
    EventId logical_event{};
    EventId mlock_event{};
    bool in_reevaluate = false;  ///< reentrancy guard
    bool dirty = false;          ///< queued for the end-of-instant evaluation
  };

  // Unchecked on purpose: node()/hot() run several times per event, and
  // every caller passes an id that came from the engine/graph (0 <= u < size()).
  NodeState& node(NodeId u) { return nodes_[static_cast<std::size_t>(u)]; }
  [[nodiscard]] const NodeState& node(NodeId u) const {
    return nodes_[static_cast<std::size_t>(u)];
  }
  NodeHot& hot(NodeId u) { return hot_[static_cast<std::size_t>(u)]; }
  [[nodiscard]] const NodeHot& hot(NodeId u) const {
    return hot_[static_cast<std::size_t>(u)];
  }

  /// M_u rate while unlocked: (1-rho)/(1+rho) * h_u (paper §4.2).
  [[nodiscard]] double unlocked_max_rate(const NodeHot& n) const;
  void apply_drift(NodeId u);
  void schedule_drift(NodeId u);
  void schedule_tick(NodeId u, Duration delay);
  void schedule_beacon(NodeId u, Duration delay);
  void fire_beacon(NodeId u);
  void add_logical_target(NodeId u, ClockValue target, std::function<void()> fn);
  void reschedule_logical_event(NodeId u);
  void fire_logical_targets(NodeId u);
  void reschedule_mlock(NodeId u);
  void fire_mlock(NodeId u);
  /// Returns true iff the candidate changed M_u or its lock state (i.e. the
  /// max-estimate trigger inputs moved discretely).
  bool apply_max_candidate(NodeId u, ClockValue candidate);
  void set_rate_multiplier(NodeId u, double mult);
  void set_logical_value(NodeId u, ClockValue v);
  void reevaluate(NodeId u);
  /// Queue `u` for one reevaluate() at the end of the current instant. A
  /// node is dirty when a discrete trigger input changed (estimate consumed,
  /// M/lock transition, edge or handshake event, logical target, tick);
  /// continuous drift between discrete changes is covered by the tick guard
  /// band (paper footnote 6).
  void mark_dirty(NodeId u);
  /// Kernel instant-flush hook body: reevaluate every dirty node, FIFO in
  /// first-dirtied order (deterministic: event order within the instant).
  void flush_dirty();
  void on_delivery(const Delivery& d) override;  // DeliverySink

  Simulator& sim_;
  DynamicGraph& graph_;
  Transport& transport_;
  DriftModel& drift_;
  EstimateSource& estimates_;
  /// estimates_ as its shape: exactly one is non-null (the constructor
  /// requires it). AoptNode's incremental scan reads through them inline
  /// via NodeApi::oracle_source()/snapshot_source().
  OracleEstimateSource* oracle_estimates_ = nullptr;
  SnapshotEstimateSource* snapshot_estimates_ = nullptr;
  bool estimates_consume_beacons_ = false;
  GlobalSkewEstimator& gskew_;
  AlgoParams params_;
  EngineConfig config_;
  /// config_.executed as one byte per node (nonzero = executed); empty when
  /// every node is. The transport reads the same vector.
  std::vector<std::uint8_t> executed_;
  /// Does this engine instance execute node `u` (vs mirror it)?
  [[nodiscard]] bool executes(NodeId u) const {
    return executed_.empty() || executed_[static_cast<std::size_t>(u)] != 0;
  }
  void trace(EventKind kind, NodeId u) {
    if (trace_ != nullptr) trace_->on_event_fired(sim_.now(), u, kind);
  }

  std::uint8_t channel_ = kNoChannel;  ///< registered dispatch channel
  std::vector<NodeHot> hot_;      ///< dense per-node clocks (see NodeHot)
  std::vector<NodeState> nodes_;  ///< contiguous; fixed size after ctor
  std::unordered_map<EdgeKey, double, EdgeKeyHash> kappa_cache_;  ///< see metric_kappa
  std::uint64_t next_target_seq_ = 1;
  std::vector<NodeId> dirty_queue_;  ///< nodes awaiting end-of-instant evaluation
  std::vector<LogicalTarget> due_scratch_;  ///< reused by fire_logical_targets
  EngineObserver* observer_ = nullptr;
  KernelTraceSink* trace_ = nullptr;
  bool started_ = false;
  bool merged_heartbeat_ = false;  ///< tick+beacon share one timer (see start())
};

// ---------------------------------------------------------------------------
// Engine hot-path inlines (clock reads used several times per event).

inline ClockValue Engine::logical(NodeId u) const {
  return hot(u).clocks.at(NodeClocks::kLog, sim_.now());
}

inline ClockValue Engine::hardware(NodeId u) const {
  return hot(u).clocks.at(NodeClocks::kHw, sim_.now());
}

inline ClockValue Engine::max_estimate(NodeId u) const {
  const NodeHot& n = hot(u);
  return n.clocks.at(n.m_locked ? NodeClocks::kLog : NodeClocks::kMax, sim_.now());
}

inline ClockValue Engine::min_estimate(NodeId u) const {
  return hot(u).clocks.at(NodeClocks::kMin, sim_.now());
}

// ---------------------------------------------------------------------------
// NodeApi hot-path inlines (need the full Engine definition). These exist so
// the incremental re-evaluation scan does not depend on LTO to flatten the
// NodeApi -> Engine -> estimate-source call chain.

inline Time NodeApi::now() const { return engine_.sim_.now(); }
inline ClockValue NodeApi::logical() const { return engine_.logical(id_); }
inline ClockValue NodeApi::hardware() const { return engine_.hardware(id_); }
inline ClockValue NodeApi::max_estimate() const { return engine_.max_estimate(id_); }
inline bool NodeApi::max_locked() const { return engine_.max_locked(id_); }
inline double NodeApi::rate_multiplier() const { return engine_.hot(id_).mult; }

inline OracleEstimateSource* NodeApi::oracle_source() const {
  return engine_.oracle_estimates_;
}

inline SnapshotEstimateSource* NodeApi::snapshot_source() const {
  return engine_.snapshot_estimates_;
}

inline ClockValue NodeApi::peer_true_logical(NodeId v) const { return engine_.logical(v); }

}  // namespace gcs
