#include "estimate/estimate_source.h"

#include <cmath>

#include "estimate/rtt_estimate.h"

namespace gcs {

// ------------------------------------------------------------------ oracle

OracleEstimateSource::OracleEstimateSource(DynamicGraph& graph,
                                           OracleErrorPolicy policy,
                                           std::uint64_t seed)
    : graph_(graph), policy_(policy), error_draw_(seed, Domain::kOracleError) {}

std::optional<ClockValue> OracleEstimateSource::estimate(NodeId u, NodeId v) const {
  require(clocks_ != nullptr, "OracleEstimateSource: bind() not called");
  const NeighborView* nv = graph_.find_neighbor(u, v);
  if (nv == nullptr) return std::nullopt;
  return perturb(u, v, clocks_->now(), clocks_->true_logical(v),
                 clocks_->true_logical(u), nv->params->eps);
}

double OracleEstimateSource::eps(const EdgeKey& e) const {
  return graph_.params(e).eps;
}

// ---------------------------------------------------------------- snapshot

double beacon_eps(const EdgeParams& e, double period, double rho, double mu) {
  const double receipt = (1.0 + rho) * (1.0 + mu) * e.msg_delay_max -
                         (1.0 - rho) * e.msg_delay_min;
  const double gap = period + e.delay_uncertainty();
  const double growth = (2.0 * rho + mu * (1.0 + rho)) * gap;
  return receipt + growth;
}

SnapshotEstimateSource::SnapshotEstimateSource(DynamicGraph& graph, double period,
                                               double rho, double mu)
    : graph_(graph), period_(period), rho_(rho), mu_(mu) {
  require(period > 0.0, "SnapshotEstimateSource: refresh period must be > 0");
}

std::optional<ClockValue> SnapshotEstimateSource::estimate(NodeId u, NodeId v) const {
  require(clocks_ != nullptr, "SnapshotEstimateSource: bind() not called");
  if (graph_.find_neighbor(u, v) == nullptr) return std::nullopt;
  Entry entry;
  if (!snapshot(u, v, entry)) return std::nullopt;
  // Advance the snapshot at the receiver's own hardware rate: the estimate
  // error stays within beacon_eps() because the rate mismatch to the
  // neighbor's logical clock is bounded by 2ρ + µ(1+ρ).
  return entry.base + (clocks_->true_hardware(u) - entry.recv_hw);
}

double SnapshotEstimateSource::eps(const EdgeKey& e) const {
  return beacon_eps(graph_.params(e), period_, rho_, mu_);
}

void SnapshotEstimateSource::on_edge_lost(NodeId u, NodeId peer) {
  entries_.erase(key(u, peer));
}

void BeaconEstimateSource::on_beacon(const Delivery& d) {
  require(clocks_ != nullptr, "BeaconEstimateSource: bind() not called");
  const auto* beacon = std::get_if<Beacon>(d.payload);
  if (beacon == nullptr) return;
  put(d.to, d.from, beacon->logical + (1.0 - rho_) * d.known_min_delay,
      clocks_->true_hardware(d.to));
}

// --------------------------------------------------------------------------
// Registration.

namespace {

std::unique_ptr<EstimateSource> make_oracle(OracleErrorPolicy policy,
                                            const EstimateArgs& a) {
  return std::make_unique<OracleEstimateSource>(a.graph, policy, a.seed ^ 0xe57ULL);
}

void register_builtin_estimates(Registry<EstimateFactory>& r) {
  using E = Registry<EstimateFactory>::Entry;
  r.add(E{"zero", "oracle estimates with zero error", {},
          [](const ParamMap&, const EstimateArgs& a) {
            return make_oracle(OracleErrorPolicy::kZero, a);
          }});
  r.add(E{"uniform", "oracle estimates with uniform error in [-eps, eps]", {},
          [](const ParamMap&, const EstimateArgs& a) {
            return make_oracle(OracleErrorPolicy::kUniform, a);
          }});
  r.add(E{"adversarial",
          "oracle estimates shrinking the perceived skew by eps (slowest reaction)",
          {},
          [](const ParamMap&, const EstimateArgs& a) {
            return make_oracle(OracleErrorPolicy::kAdversarial, a);
          }});
  r.add(E{"beacon",
          "message-based estimates from periodic beacons (eps derived, eq. 1 checked in tests)",
          {},
          [](const ParamMap&, const EstimateArgs& a) -> std::unique_ptr<EstimateSource> {
            return std::make_unique<BeaconEstimateSource>(a.graph, a.beacon_period,
                                                          a.rho, a.mu);
          }});
  register_rtt_estimate(r);
}

void register_builtin_gskew(Registry<GskewFactory>& r) {
  using E = Registry<GskewFactory>::Entry;
  r.add(E{"static", "the a-priori constant G̃ of §4–§5 (eq. 6)", {},
          [](const ParamMap&, const GskewArgs& a) -> std::unique_ptr<GlobalSkewEstimator> {
            return std::make_unique<StaticGskewEstimator>(a.gtilde_static);
          }});
  r.add(E{"oracle",
          "§7 estimates assumed given: G̃_u = factor·G(t) + margin",
          {{"factor", "2", "multiplier on the true global skew (>= 1)"},
           {"margin", "1", "additive margin (>= 0)"}},
          [](const ParamMap& p, const GskewArgs& a) -> std::unique_ptr<GlobalSkewEstimator> {
            return std::make_unique<OracleGskewEstimator>(a.true_global_skew,
                                                          p.get_double("factor", 2.0),
                                                          p.get_double("margin", 1.0));
          }});
  r.add(E{"distributed",
          "§7 estimates computed from flooded max/min bounds plus a diameter hint",
          {{"hint", "0", "a-priori D̂ (0 = conservative bound from n and edge params)"}},
          [](const ParamMap& p, const GskewArgs& a) -> std::unique_ptr<GlobalSkewEstimator> {
            const double hint = p.get_double("hint", 0.0);
            return std::make_unique<DistributedGskewEstimator>(
                a.max_estimate, a.min_estimate,
                hint > 0.0 ? hint : a.default_diameter_hint);
          }});
}

}  // namespace

Registry<EstimateFactory>& estimate_registry() {
  static Registry<EstimateFactory>* registry = [] {
    auto* r = new Registry<EstimateFactory>("estimate source");
    register_builtin_estimates(*r);
    return r;
  }();
  return *registry;
}

Registry<GskewFactory>& gskew_registry() {
  static Registry<GskewFactory>* registry = [] {
    auto* r = new Registry<GskewFactory>("global-skew estimator");
    register_builtin_gskew(*r);
    return r;
  }();
  return *registry;
}

}  // namespace gcs
