// Scenario assembly: wires simulator, graph, transport, drift, estimate
// layer, global-skew estimator, engine, algorithm and adversary together in
// the right order, with sensible defaults. Experiments, tests and examples
// all construct runs through this.
//
// Construction is registry-driven: every pluggable dimension of the
// ScenarioSpec (topology, algorithm, drift, estimates, gskew, adversary) is
// resolved by name against the component registries, so adding a variant
// means one registration site next to its implementation — no switch
// statements here.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "baseline/baselines.h"
#include "clock/drift.h"
#include "core/algo_registry.h"
#include "core/aopt_node.h"
#include "core/engine.h"
#include "core/params.h"
#include "estimate/estimate_source.h"
#include "graph/adversary.h"
#include "graph/dynamic_graph.h"
#include "graph/topology.h"
#include "net/transport.h"
#include "runner/spec.h"
#include "sim/simulator.h"

namespace gcs {

class Scenario {
 public:
  explicit Scenario(ScenarioSpec spec);

  /// Build the t=0 topology, start the engine and arm the adversary.
  /// Call once, then run. Throws on a second call.
  void start();

  void run_until(Time t) { sim_.run_until(t); }
  void run_for(Duration dt) { sim_.run_until(sim_.now() + dt); }

  [[nodiscard]] Simulator& sim() { return sim_; }
  [[nodiscard]] DynamicGraph& graph() { return *graph_; }
  [[nodiscard]] Transport& transport() { return *transport_; }
  [[nodiscard]] Engine& engine() { return *engine_; }

  /// The spec as actually run: n resolved by the topology, G̃ resolved if
  /// gtilde_auto, rho widened under a reference node.
  [[nodiscard]] const ScenarioSpec& spec() const { return spec_; }

  /// Resolved t=0 edge list (whatever the topology component produced).
  [[nodiscard]] const std::vector<EdgeKey>& initial_edges() const { return initial_edges_; }
  /// Node positions, if the topology component is geometric.
  [[nodiscard]] const std::vector<Point2>& positions() const { return positions_; }

  /// The armed adversary, or nullptr for "none".
  [[nodiscard]] TopologyAdversary* adversary() { return adversary_.get(); }

  /// The AOPT instance at node u (throws if another algorithm runs).
  [[nodiscard]] AoptNode& aopt(NodeId u);

  /// The engine-owned estimate layer's L̃ᵛᵤ (test/metric probe).
  /// A pure read: calling it never changes the run.
  [[nodiscard]] std::optional<ClockValue> estimate_of(NodeId u, NodeId v) const {
    return estimates_->estimate(u, v);
  }

 private:
  ScenarioSpec spec_;
  std::vector<EdgeKey> initial_edges_;
  std::vector<Point2> positions_;
  Simulator sim_;
  std::unique_ptr<DynamicGraph> graph_;
  std::unique_ptr<Transport> transport_;
  std::unique_ptr<DriftModel> drift_;
  std::unique_ptr<EstimateSource> estimates_;
  std::unique_ptr<GlobalSkewEstimator> gskew_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<TopologyAdversary> adversary_;
  bool started_ = false;
};

/// Materialize the t=0 topology of a spec without building a Scenario:
/// resolves the topology component exactly as the Scenario constructor does
/// (same RNG seed, same draw order), so the returned (n, edges) match what a
/// Scenario built from `spec` would use. The island planner partitions on
/// this before committing to shard construction.
TopologyResult materialize_topology(const ScenarioSpec& spec);

/// Uniform edge-parameter preset used across experiments: eps/tau/delays
/// scaled around a base uncertainty.
EdgeParams default_edge_params(double eps = 0.1, double tau = 0.5,
                               double delay_max = 0.5, double delay_min = 0.1);

/// A reasonable G̃ for a static topology: the κ-weighted diameter bound plus
/// margin (a-priori knowledge the paper assumes the algorithm has).
double suggest_gtilde(int n, const std::vector<EdgeKey>& edges,
                      const EdgeParams& edge_params, const AlgoParams& aopt);

}  // namespace gcs
