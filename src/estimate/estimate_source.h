// The estimate layer (paper §3.1): per-node estimates L̃ᵥᵤ of neighbors'
// logical clocks with per-edge accuracy guarantee |L_v − L̃ᵥᵤ| <= ε_e (eq. 1).
//
// Two realizations:
//  * OracleEstimateSource — samples the true clock and perturbs it with a
//    configurable error policy (exact control of ε; validates theory).
//  * BeaconEstimateSource — built from periodic beacon messages with bounded
//    delay; ε is *derived* from (beacon period, delay bounds, ρ, µ) via
//    beacon_eps() and the guarantee is asserted in tests, not assumed.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "graph/dynamic_graph.h"
#include "net/message.h"
#include "util/common.h"
#include "util/registry.h"
#include "util/rng.h"

namespace gcs {

/// Engine-provided access to true clock values (simulation-side knowledge).
/// Pure reads: calling them never changes the run.
class ClockAccess {
 public:
  virtual ~ClockAccess() = default;
  [[nodiscard]] virtual ClockValue true_logical(NodeId u) const = 0;
  [[nodiscard]] virtual ClockValue true_hardware(NodeId u) const = 0;
};

/// Engine-provided send capability for probe-driven estimate sources (the
/// RTT offset exchange). Kept minimal: the source decides *when* and *whom*
/// to probe; the engine owns the transport and answers TimeRequests itself.
class ProbeSender {
 public:
  virtual ~ProbeSender() = default;
  /// Send a TimeRequest from `from` to `to`; false if the edge is absent
  /// from the sender's view (the probe is simply skipped then).
  virtual bool send_time_request(NodeId from, NodeId to, const TimeRequest& req) = 0;
};

class EstimateSource {
 public:
  virtual ~EstimateSource() = default;

  /// Bind simulation-side clock access; must be called before use.
  virtual void bind(const ClockAccess* clocks) { clocks_ = clocks; }

  /// L̃ᵛᵤ at the current time; nullopt if no estimate is available yet.
  [[nodiscard]] virtual std::optional<ClockValue> estimate(NodeId u, NodeId v) = 0;

  /// The ε_e this source guarantees for edge e.
  [[nodiscard]] virtual double eps(const EdgeKey& e) const = 0;

  /// Hooks driven by the engine. Sources that override on_beacon must also
  /// override consumes_beacons (lets the engine skip the per-delivery call).
  virtual void on_beacon(const Delivery& d) { (void)d; }
  [[nodiscard]] virtual bool consumes_beacons() const { return false; }
  virtual void on_edge_lost(NodeId u, NodeId peer) { (void)u, (void)peer; }

  /// Probe cadence this source wants per node, or 0 for "no probes" (the
  /// default — the engine then schedules no probe timer at all, keeping the
  /// event sequence of probe-free sources bit-identical to before the probe
  /// layer existed).
  [[nodiscard]] virtual Duration probe_period() const { return 0.0; }
  /// Probe timer fired for node u: send whatever requests this round needs.
  virtual void on_probe(NodeId u, ProbeSender& sender) { (void)u, (void)sender; }
  /// A TimeResponse for node d.to arrived (engine-dispatched).
  virtual void on_time_response(const Delivery& d, const TimeResponse& resp) {
    (void)d, (void)resp;
  }

 protected:
  const ClockAccess* clocks_ = nullptr;
};

/// Error policy for the oracle source.
enum class OracleErrorPolicy {
  kZero,        ///< perfect estimates (ε still reported as configured)
  kUniform,     ///< uniform in [-ε, ε]
  kAdversarial, ///< shrink the perceived skew by ε (slowest possible reaction)
};

class OracleEstimateSource final : public EstimateSource {
 public:
  OracleEstimateSource(DynamicGraph& graph, OracleErrorPolicy policy,
                       std::uint64_t seed = 31);

  std::optional<ClockValue> estimate(NodeId u, NodeId v) override;
  [[nodiscard]] double eps(const EdgeKey& e) const override;

  /// The error application of estimate(), split out so an incremental scan
  /// that already holds the true clock values can skip the graph lookup and
  /// the ClockAccess virtual hops. `mine` is u's own current logical clock;
  /// it is read only by the adversarial policy (where estimate() would have
  /// fetched true_logical(u), the same value at scan time). Under kUniform
  /// each call is one keyed draw on (u, v, u's draw count); the other
  /// policies draw nothing.
  ClockValue perturb(NodeId u, NodeId v, ClockValue truth, ClockValue mine, double eps) {
    switch (policy_) {
      case OracleErrorPolicy::kZero:
        return truth;
      case OracleErrorPolicy::kUniform:
        return truth + error_draw_.uniform(-eps, eps, u, v,
                                           draws_[static_cast<std::size_t>(u)]++);
      case OracleErrorPolicy::kAdversarial:
        // Shrink the perceived skew: report the neighbor ε closer to us than
        // it is (never crossing), which maximally delays trigger reactions.
        if (truth > mine) return std::max(mine, truth - eps);
        if (truth < mine) return std::min(mine, truth + eps);
        return truth;
    }
    return truth;
  }

 private:
  DynamicGraph& graph_;
  OracleErrorPolicy policy_;
  KeyedDraw error_draw_;
  std::vector<std::uint64_t> draws_;  ///< per node u: error draws so far, the draw's k
};

/// Worst-case estimate error of the beacon provider for one edge:
///   receipt error  <= (1+ρ)(1+µ)·T_max − (1−ρ)·T_min
///   growth between receipts <= (2ρ + µ(1+ρ))·(P_b + (T_max−T_min))
double beacon_eps(const EdgeParams& e, double beacon_period, double rho, double mu);

class BeaconEstimateSource final : public EstimateSource {
 public:
  /// The discrete part of one edge's estimate state: rewritten on every
  /// beacon receipt, constant in between. estimate() extrapolates it with
  /// the receiver's hardware clock only, so an incremental scan may cache a
  /// snapshot until the engine reports the peer dirty (a new beacon arrived
  /// or the entry was evicted) and evaluate `base + (H_u(t) − recv_hw)`
  /// itself — the exact expression estimate() uses.
  struct Entry {
    ClockValue base = 0.0;       ///< L_msg + (1−ρ)·known_min_delay
    ClockValue recv_hw = 0.0;    ///< receiver hardware clock at receipt
  };

  /// `rho`/`mu` are needed to (a) apply the conservative (1−ρ) transit
  /// compensation and (b) report ε via beacon_eps.
  BeaconEstimateSource(DynamicGraph& graph, double beacon_period, double rho,
                       double mu);

  std::optional<ClockValue> estimate(NodeId u, NodeId v) override;
  [[nodiscard]] double eps(const EdgeKey& e) const override;
  void on_beacon(const Delivery& d) override;
  [[nodiscard]] bool consumes_beacons() const override { return true; }
  void on_edge_lost(NodeId u, NodeId peer) override;

  /// Incremental-scan support: copy out the discrete state for (u, v).
  /// False if no beacon from v has been received (no estimate exists yet).
  /// The caller is responsible for the graph-presence precondition that
  /// estimate() checks itself.
  [[nodiscard]] bool snapshot(NodeId u, NodeId v, Entry& out) const {
    const auto it = entries_.find(key(u, v));
    if (it == entries_.end()) return false;
    out = it->second;
    return true;
  }

 private:
  static std::uint64_t key(NodeId owner, NodeId peer) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(owner)) << 32) |
           static_cast<std::uint32_t>(peer);
  }

  DynamicGraph& graph_;
  double beacon_period_;
  double rho_;
  double mu_;
  std::unordered_map<std::uint64_t, Entry> entries_;
};

// --------------------------------------------------------------------------
// Global-skew estimates G̃_u(t) (eq. 5/6).

class GlobalSkewEstimator {
 public:
  virtual ~GlobalSkewEstimator() = default;
  /// G̃_u at the current time; must upper-bound the true global skew.
  [[nodiscard]] virtual double estimate(NodeId u) = 0;
  [[nodiscard]] virtual bool is_static() const { return false; }
};

/// The static, a-priori bound G̃ of §4–§5.
class StaticGskewEstimator final : public GlobalSkewEstimator {
 public:
  explicit StaticGskewEstimator(double gtilde) : gtilde_(gtilde) {
    require(gtilde > 0.0, "StaticGskewEstimator: gtilde must be > 0");
  }
  double estimate(NodeId) override { return gtilde_; }
  [[nodiscard]] bool is_static() const override { return true; }

 private:
  double gtilde_;
};

/// §7 oracle: G̃_u(t) = factor·G(t) + margin, where G(t) is the true global
/// skew (the paper *assumes* such estimates are given; eq. 5).
class OracleGskewEstimator final : public GlobalSkewEstimator {
 public:
  using TrueSkewFn = std::function<double()>;
  OracleGskewEstimator(TrueSkewFn true_skew, double factor, double margin)
      : true_skew_(std::move(true_skew)), factor_(factor), margin_(margin) {
    require(factor >= 1.0 && margin >= 0.0, "OracleGskewEstimator: bad slack");
  }
  double estimate(NodeId) override { return factor_ * true_skew_() + margin_; }

 private:
  TrueSkewFn true_skew_;
  double factor_;
  double margin_;
};

/// Fully distributed G̃_u(t): built from information every node actually
/// has. With M_u the flooded max estimate (Condition 4.3: M_u >= max L − D)
/// and m_u the symmetric flooded *lower* bound on the minimum clock
/// (m_u <= min L), the true global skew satisfies
///   G(t) = max L − min L <= (M_u + D(t)) − m_u,
/// so G̃_u := M_u − m_u + D̂ is a valid estimate for any a-priori bound
/// D̂ >= D(t) (computable from n and the per-edge parameters the nodes
/// know). This realizes the §7 assumption (eq. 5) without an oracle.
class DistributedGskewEstimator final : public GlobalSkewEstimator {
 public:
  using NodeValueFn = std::function<ClockValue(NodeId)>;
  DistributedGskewEstimator(NodeValueFn max_estimate, NodeValueFn min_estimate,
                            double diameter_hint)
      : max_estimate_(std::move(max_estimate)),
        min_estimate_(std::move(min_estimate)),
        diameter_hint_(diameter_hint) {
    require(diameter_hint > 0.0, "DistributedGskewEstimator: bad diameter hint");
  }
  double estimate(NodeId u) override {
    return max_estimate_(u) - min_estimate_(u) + diameter_hint_;
  }

 private:
  NodeValueFn max_estimate_;
  NodeValueFn min_estimate_;
  double diameter_hint_;
};

// --------------------------------------------------------------------------
// Registries for both layers.

/// Build context for estimate-source factories.
struct EstimateArgs {
  DynamicGraph& graph;
  double beacon_period = 0.25;  ///< the engine's beacon cadence
  double rho = 1e-3;
  double mu = 0.05;
  std::uint64_t seed = 1;
};

using EstimateFactory =
    std::function<std::unique_ptr<EstimateSource>(const ParamMap&, const EstimateArgs&)>;

/// The process-wide estimate-source registry (builtins on first use).
Registry<EstimateFactory>& estimate_registry();

/// Build context for global-skew-estimator factories. The callbacks reach
/// into the engine through the scenario (stable once construction finishes);
/// factories must not invoke them at build time.
struct GskewArgs {
  double gtilde_static = 10.0;               ///< the a-priori G̃ of §4–§5
  double default_diameter_hint = 1.0;        ///< conservative D̂ if none given
  std::function<double()> true_global_skew;  ///< oracle access
  std::function<ClockValue(NodeId)> max_estimate;  ///< flooded M_u
  std::function<ClockValue(NodeId)> min_estimate;  ///< flooded m_u
};

using GskewFactory =
    std::function<std::unique_ptr<GlobalSkewEstimator>(const ParamMap&, const GskewArgs&)>;

/// The process-wide global-skew-estimator registry (builtins on first use).
Registry<GskewFactory>& gskew_registry();

}  // namespace gcs
