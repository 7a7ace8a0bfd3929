#include "runner/scenario.h"

#include <cmath>

#include "graph/paths.h"

namespace gcs {

TopologyResult materialize_topology(const ScenarioSpec& spec) {
  Rng topo_rng(spec.seed);
  TopologyArgs targs{spec.n, topo_rng, &spec.explicit_edges};
  const auto& entry = topology_registry().get(spec.topology.kind);
  TopologyResult topo = entry.factory(spec.topology.params, targs);
  require(topo.n >= 1, "Scenario: topology produced n < 1");
  for (const EdgeKey& e : topo.edges) {
    require(e.a >= 0 && e.b < topo.n,
            "Scenario: edge " + e.str() + " out of range for n=" +
                std::to_string(topo.n));
  }
  return topo;
}

Scenario::Scenario(ScenarioSpec spec) : spec_(std::move(spec)) {
  spec_.validate();

  // ---- topology (may override n) ----
  {
    TopologyResult topo = materialize_topology(spec_);
    spec_.n = topo.n;
    initial_edges_ = std::move(topo.edges);
    positions_ = std::move(topo.positions);
  }

  if (spec_.gtilde_auto) {
    spec_.aopt.gtilde_static =
        suggest_gtilde(spec_.n, initial_edges_, spec_.edge_params, spec_.aopt);
  }
  const auto validation = spec_.aopt.validate();
  require(validation.ok(), "Scenario: invalid AlgoParams:\n" + validation.str());

  graph_ = std::make_unique<DynamicGraph>(sim_, spec_.n, spec_.seed ^ 0x9e1ULL);
  graph_->set_detection_delay_mode(spec_.detection);
  transport_ = std::make_unique<Transport>(sim_, *graph_, spec_.seed ^ 0x71fULL);
  transport_->set_delay_mode(spec_.delays);

  // ---- drift ----
  {
    DriftArgs dargs{spec_.n, spec_.aopt.rho, spec_.seed};
    drift_ = drift_registry().get(spec_.drift.kind).factory(spec_.drift.params, dargs);
    require(drift_ != nullptr, "Scenario: drift factory returned null");
  }
  if (spec_.reference_node != kNoNode) {
    // §3 remark: boost the reference node and widen the drift bound the
    // algorithm reasons with to the effective ρ̃.
    require(spec_.reference_node < spec_.n, "Scenario: reference node out of range");
    auto wrapped = std::make_unique<ReferenceNodeDrift>(std::move(drift_),
                                                        spec_.reference_node);
    spec_.aopt.rho = wrapped->rho();
    const auto revalidate = spec_.aopt.validate();
    require(revalidate.ok(),
            "Scenario: params invalid under reference-node rho~:\n" + revalidate.str());
    drift_ = std::move(wrapped);
  }

  // ---- estimate layer ----
  {
    EstimateArgs eargs{*graph_, spec_.engine.beacon_period, spec_.aopt.rho,
                       spec_.aopt.mu, spec_.seed};
    estimates_ =
        estimate_registry().get(spec_.estimates.kind).factory(spec_.estimates.params, eargs);
    require(estimates_ != nullptr, "Scenario: estimate factory returned null");
  }

  // ---- global-skew estimator ----
  {
    GskewArgs gargs;
    gargs.gtilde_static = spec_.aopt.gtilde_static;
    // Conservative a-priori D̂ from what the nodes know: every potential hop
    // costs at most one beacon period plus the worst delay bound, amplified
    // by the drift envelope.
    gargs.default_diameter_hint =
        static_cast<double>(spec_.n) *
            (spec_.engine.beacon_period + spec_.edge_params.msg_delay_max) *
            (2.0 * spec_.aopt.rho + spec_.aopt.mu * (1.0 + spec_.aopt.rho) +
             (1.0 - spec_.aopt.rho) * spec_.edge_params.delay_uncertainty() /
                 (spec_.engine.beacon_period + spec_.edge_params.msg_delay_max)) +
        1.0;
    // The engine pointer is a stable member set below, before any estimate
    // is requested.
    gargs.true_global_skew = [this] { return engine_->true_global_skew(); };
    gargs.max_estimate = [this](NodeId u) { return engine_->max_estimate(u); };
    gargs.min_estimate = [this](NodeId u) { return engine_->min_estimate(u); };
    gskew_ = gskew_registry().get(spec_.gskew.kind).factory(spec_.gskew.params, gargs);
    require(gskew_ != nullptr, "Scenario: gskew factory returned null");
  }

  // ---- algorithm + engine ----
  AlgoArgs aargs{spec_.aopt};
  Engine::AlgorithmFactory factory =
      algo_registry().get(spec_.algo.kind).factory(spec_.algo.params, aargs);
  engine_ = std::make_unique<Engine>(sim_, *graph_, *transport_, *drift_,
                                     *estimates_, *gskew_, spec_.aopt,
                                     spec_.engine, factory);

  // ---- adversary (nullptr for "none") ----
  {
    AdversaryArgs advargs{sim_, *graph_, initial_edges_, spec_.edge_params, spec_.seed};
    adversary_ =
        adversary_registry().get(spec_.adversary.kind).factory(spec_.adversary.params, advargs);
  }
}

void Scenario::start() {
  require(!started_, "Scenario: start() called twice");
  require(sim_.now() == 0.0, "Scenario: must start at time 0");
  started_ = true;
  for (const EdgeKey& e : initial_edges_) {
    graph_->create_edge_instant(e, spec_.edge_params);
  }
  engine_->start();
  if (adversary_ != nullptr) adversary_->arm();
}

AoptNode& Scenario::aopt(NodeId u) {
  auto* node = dynamic_cast<AoptNode*>(&engine_->algorithm(u));
  require(node != nullptr, "Scenario: node does not run AOPT");
  return *node;
}

EdgeParams default_edge_params(double eps, double tau, double delay_max,
                               double delay_min) {
  EdgeParams p;
  p.eps = eps;
  p.tau = tau;
  p.msg_delay_max = delay_max;
  p.msg_delay_min = delay_min;
  p.validate();
  return p;
}

double suggest_gtilde(int n, const std::vector<EdgeKey>& edges,
                      const EdgeParams& edge_params, const AlgoParams& aopt) {
  const double kappa = aopt.edge_constants(edge_params).kappa;
  const AdjacencyList adj =
      build_adjacency(n, edges, [kappa](const EdgeKey&) { return kappa; });
  const double diameter = weighted_diameter(adj);
  require(std::isfinite(diameter), "suggest_gtilde: initial topology disconnected");
  // Global skew stabilizes around the uncertainty diameter (Theorem 5.6);
  // κ-diameter upper-bounds it comfortably. Add slack for transients.
  return std::max(1.0, 1.5 * diameter + 4.0 * kappa);
}

}  // namespace gcs
