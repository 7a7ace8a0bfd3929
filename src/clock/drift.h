// Hardware-clock drift models (the adversary's choice of h_u(t)).
//
// All models produce piecewise-constant rates within [1-rho, 1+rho]; the
// engine queries `rate_at` and schedules a re-query at `next_change_after`.
// Queries may be non-monotone in t (metrics sample the past), so a given
// (node, t) must always return the same value.
//
// Two shapes cover every built-in kind: ConstantDrift (one fixed rate per
// node) and SteppedDrift (a rate per node and step of one uniform time
// grid, given as a function of the step index). Each registry kind is a
// factory over one of them; randomized kinds draw from per-node forked
// streams and memoize what they drew. ReferenceNodeDrift wraps any model
// (§3 remark) and ScriptedDrift replays explicit breakpoints.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "util/common.h"
#include "util/registry.h"

namespace gcs {

class DriftModel {
 public:
  virtual ~DriftModel() = default;

  /// Hardware rate of node u at time t; must lie in [1-rho, 1+rho].
  virtual double rate_at(NodeId u, Time t) = 0;

  /// Next time after t at which u's rate changes (kTimeInf if never).
  virtual Time next_change_after(NodeId u, Time t) = 0;

  /// Drift bound the model respects.
  [[nodiscard]] virtual double rho() const = 0;
};

/// Every node holds one rate for the whole run: rates[u], within
/// [1-rho, 1+rho]. The `none`, `spread` and `osc-const` kinds fill it in.
class ConstantDrift final : public DriftModel {
 public:
  ConstantDrift(double rho, std::vector<double> rates);

  double rate_at(NodeId u, Time) override { return rates_.at(static_cast<std::size_t>(u)); }
  Time next_change_after(NodeId u, Time t) override { (void)u, (void)t; return kTimeInf; }
  [[nodiscard]] double rho() const override { return rho_; }

 private:
  double rho_;
  std::vector<double> rates_;
};

/// Node u runs at rate(u, k) on the k-th step [k·step, (k+1)·step) of one
/// uniform grid shared by every node; `rate` must stay within [1-rho, 1+rho]
/// and return the same value for the same (u, k) however often and in
/// whatever order it is asked. The `blocks`, `walk`, `osc-random` and `sine`
/// kinds are such functions.
class SteppedDrift final : public DriftModel {
 public:
  using RateFn = std::function<double(NodeId u, std::int64_t k)>;

  SteppedDrift(double rho, Duration step, RateFn rate);

  double rate_at(NodeId u, Time t) override { return rate_(u, step_index(t)); }
  Time next_change_after(NodeId u, Time t) override;
  [[nodiscard]] double rho() const override { return rho_; }

  /// The step holding t: k with k·step <= t < (k+1)·step, both products
  /// rounded as next_change_after rounds them, so a change event at
  /// t = (k+1)·step enters step k+1. Times before 0 are in step 0.
  [[nodiscard]] std::int64_t step_index(Time t) const;

 private:
  double rho_;
  Duration step_;
  RateFn rate_;
};

/// §3 remark: make one reference node u0 artificially faster by a factor
/// (1+rho)/(1-rho), so it always carries the maximum clock. The effective
/// drift bound becomes rho~ = (1+rho)^2/(1-rho) - 1 (≈ 3 rho) and every
/// statement holds with D(t) replaced by the estimate *radius* R_u0(t) —
/// beneficial when the network is much "wider" than it is "deep" from u0.
class ReferenceNodeDrift final : public DriftModel {
 public:
  ReferenceNodeDrift(std::unique_ptr<DriftModel> inner, NodeId reference);

  double rate_at(NodeId u, Time t) override;
  Time next_change_after(NodeId u, Time t) override;
  /// The *effective* bound rho~ (callers must configure the algorithm with
  /// this, not the inner model's rho).
  [[nodiscard]] double rho() const override;

  [[nodiscard]] NodeId reference() const { return reference_; }
  [[nodiscard]] double boost() const;

 private:
  std::unique_ptr<DriftModel> inner_;
  NodeId reference_;
};

/// Fully scripted: per-node sorted (time, rate) breakpoints. Rate holds from
/// its breakpoint until the next one; before the first breakpoint rate is 1.
class ScriptedDrift final : public DriftModel {
 public:
  explicit ScriptedDrift(double rho) : rho_(rho) {}

  /// Add a breakpoint; times per node must be strictly increasing.
  void add(NodeId u, Time at, double rate);

  double rate_at(NodeId u, Time t) override;
  Time next_change_after(NodeId u, Time t) override;
  [[nodiscard]] double rho() const override { return rho_; }

 private:
  double rho_;
  std::map<NodeId, std::vector<std::pair<Time, double>>> script_;
};

// --------------------------------------------------------------------------
// Drift-model registry.

/// Build context handed to drift factories.
struct DriftArgs {
  int n = 0;
  double rho = 1e-3;        ///< the algorithm's drift bound
  std::uint64_t seed = 1;   ///< scenario seed (factories salt it themselves)
};

using DriftFactory =
    std::function<std::unique_ptr<DriftModel>(const ParamMap&, const DriftArgs&)>;

/// The process-wide drift registry (builtins registered on first use).
Registry<DriftFactory>& drift_registry();

}  // namespace gcs
