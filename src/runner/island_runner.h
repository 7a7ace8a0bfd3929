// Island-parallel execution: run ONE scenario across worker threads.
//
// The dynamic graph is partitioned into weakly-coupled islands (see
// graph/partition.h); each island gets a full Scenario replica — identical
// spec, identical seed, so topology, adversary schedule, detection delays and
// drift streams replay bit-identically on every shard — whose Engine executes
// only the island's nodes (EngineConfig::executed) and mirrors the rest.
// Every shard owns its own Simulator, pinned to one worker thread.
//
// Shards advance in conservative synchronous windows of width
// Δ = msg_delay_min: each runs Simulator::run_before(W) (events strictly
// below the window end, armed instants flushed), then meets the others at a
// std::barrier whose completion step exchanges cross-island deliveries. A
// send to a node another shard executes reaches the transport's outbound
// hook sender-side — WITH the sender-drawn keyed delay, so the arrival
// instant is exactly what the serial engine would have computed — and the
// runner injects it into the owning shard's simulator at the barrier. Since
// every message takes at least Δ to arrive, a capture from window (W−Δ, W)
// lands at arrival >= W: injection at the W barrier can never violate
// causality. (A runtime node is the one-node case of the same partial
// replica; see src/rt/rt_node.h.)
//
// Determinism across 1/2/8 workers: captures are merged at each barrier in a
// canonical order — stable-sorted by (arrival, sent_at, from, to), where
// full-key ties can only originate from one sender shard in its serial send
// order — so the injected event sequence, and with it every fired-event
// trajectory, is invariant in the worker count. Scenarios whose spec is not
// island-decomposable (oracle estimates across a cut, oracle gskew, cut over
// budget, ...: the fallback matrix lives in plan_islands and
// docs/ARCHITECTURE.md) run the ordinary serial engine instead.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "graph/partition.h"
#include "runner/scenario.h"

namespace gcs {

/// The resolved execution strategy for one spec.
struct IslandExecutionPlan {
  bool islands_enabled = false;  ///< false => run the serial engine
  std::string fallback_reason;   ///< why serial was chosen (diagnostics)
  int workers = 0;               ///< shard count when enabled
  IslandPlan partition;          ///< node -> island map + cut (when enabled)
};

/// Decide how `spec` executes with `requested` islands (the spec.islands
/// encoding: 0 = off, -1 = auto from the hardware, N >= 1 = exactly N).
/// Serial fallback triggers on, in order: islands off; auto on a single
/// hardware thread; a spec that already names its executed nodes (a runtime
/// node's or a shard's own); zero msg_delay_min (no conservative window);
/// gskew=oracle (reads every node's live clock); a
/// reference node; an infeasible partition (cut over the budget of n edges,
/// < 2 islands); oracle estimates (zero, uniform, adversarial) with a
/// non-empty cut (their scans read neighbors' live clocks, which are dead
/// mirrors across islands). Delay and oracle-error draws are keyed, so they
/// need no rule. The partition is computed over the t=0 topology — churn
/// only toggles initial edges, so the cut bounds every edge that can exist.
IslandExecutionPlan plan_islands(const ScenarioSpec& spec, int requested);

/// plan_islands with requested = spec.islands.
inline IslandExecutionPlan plan_islands(const ScenarioSpec& spec) {
  return plan_islands(spec, spec.islands);
}

class IslandRunner {
 public:
  /// Build one shard per island. `plan` must be islands_enabled (from
  /// plan_islands on this spec). Shards are constructed but not started —
  /// attach tracing (engine/transport kernel-trace sinks) before run().
  IslandRunner(ScenarioSpec spec, IslandExecutionPlan plan);
  ~IslandRunner();

  [[nodiscard]] int shards() const { return static_cast<int>(shards_.size()); }
  [[nodiscard]] Scenario& shard(int i) { return *shards_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] const IslandExecutionPlan& plan() const { return plan_; }

  /// Start every shard and run all of them to `horizon` (inclusive, like
  /// Scenario::run_until), exchanging cross-island deliveries at window
  /// barriers. One worker thread per shard; blocks until all reach the
  /// horizon and the cross-island mailboxes drain. Single-shot: call once.
  void run(Time horizon);

 private:
  /// One cross-island send, captured sender-side with its delay resolved.
  struct CapturedSend {
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    Time sent_at = 0.0;
    Time arrival = 0.0;
    Payload payload;
  };

  void shard_main(int i, Time horizon, Duration window);
  void exchange(Time horizon);

  ScenarioSpec spec_;
  IslandExecutionPlan plan_;
  std::vector<std::unique_ptr<Scenario>> shards_;
  std::vector<std::vector<CapturedSend>> outbox_;  ///< per-shard, shard-thread-local
  std::vector<CapturedSend> merge_scratch_;        ///< barrier-completion only

  // Barrier-phase shared state: written only inside the barrier completion
  // step (single-threaded, sequenced before any waiter resumes), read by the
  // shard threads between phases.
  class Sync;  ///< the std::barrier + flags (defined in the .cpp)
  Sync* sync_ = nullptr;
  bool ran_ = false;
};

}  // namespace gcs
