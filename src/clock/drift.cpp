#include "clock/drift.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace gcs {

// ---------------------------------------------------------------- Constant

ConstantDrift::ConstantDrift(double rho, std::vector<double> rates)
    : rho_(rho), rates_(std::move(rates)) {
  require(rho >= 0.0 && rho < 1.0, "drift: rho must be in [0,1)");
  for (double rate : rates_) {
    require(std::fabs(rate - 1.0) <= rho_ + 1e-15, "ConstantDrift: |rate-1| > rho");
  }
}

// ----------------------------------------------------------------- Stepped

SteppedDrift::SteppedDrift(double rho, Duration step, RateFn rate)
    : rho_(rho), step_(step), rate_(std::move(rate)) {
  require(rho >= 0.0 && rho < 1.0, "drift: rho must be in [0,1)");
  require(step > 0.0 && rate_ != nullptr, "SteppedDrift: bad arguments");
}

std::int64_t SteppedDrift::step_index(Time t) const {
  if (!(t > 0.0)) return 0;
  const double q = std::floor(t / step_);
  require(q < 0x1p62, "SteppedDrift: time beyond the step grid");
  // t/step is rounded: at or just past a grid point (k+1)·step it can floor
  // to k, just before k·step it can floor to k. Settle k against the grid
  // products themselves, which are what next_change_after hands out.
  auto k = static_cast<std::int64_t>(q);
  if (static_cast<double>(k + 1) * step_ <= t) {
    ++k;
  } else if (static_cast<double>(k) * step_ > t) {
    --k;
  }
  return k;
}

Time SteppedDrift::next_change_after(NodeId, Time t) {
  return static_cast<double>(step_index(t) + 1) * step_;
}

// ---------------------------------------------------------- ReferenceNode

ReferenceNodeDrift::ReferenceNodeDrift(std::unique_ptr<DriftModel> inner,
                                       NodeId reference)
    : inner_(std::move(inner)), reference_(reference) {
  require(inner_ != nullptr, "ReferenceNodeDrift: null inner model");
  require(reference >= 0, "ReferenceNodeDrift: bad reference node");
}

double ReferenceNodeDrift::boost() const {
  const double rho = inner_->rho();
  return (1.0 + rho) / (1.0 - rho);
}

double ReferenceNodeDrift::rate_at(NodeId u, Time t) {
  const double rate = inner_->rate_at(u, t);
  return u == reference_ ? rate * boost() : rate;
}

Time ReferenceNodeDrift::next_change_after(NodeId u, Time t) {
  return inner_->next_change_after(u, t);
}

double ReferenceNodeDrift::rho() const {
  // rho~ <= (1+rho)^2/(1-rho) - 1, per the §3 remark.
  const double rho = inner_->rho();
  return (1.0 + rho) * (1.0 + rho) / (1.0 - rho) - 1.0;
}

// --------------------------------------------------------------- Scripted

void ScriptedDrift::add(NodeId u, Time at, double rate) {
  require(std::fabs(rate - 1.0) <= rho_ + 1e-15, "ScriptedDrift: |rate-1| > rho");
  auto& vec = script_[u];
  require(vec.empty() || vec.back().first < at,
          "ScriptedDrift: breakpoints must be strictly increasing");
  vec.emplace_back(at, rate);
}

double ScriptedDrift::rate_at(NodeId u, Time t) {
  const auto it = script_.find(u);
  if (it == script_.end()) return 1.0;
  const auto& vec = it->second;
  // Last breakpoint with time <= t.
  auto pos = std::upper_bound(vec.begin(), vec.end(), t,
                              [](Time value, const auto& bp) { return value < bp.first; });
  if (pos == vec.begin()) return 1.0;
  return std::prev(pos)->second;
}

Time ScriptedDrift::next_change_after(NodeId u, Time t) {
  const auto it = script_.find(u);
  if (it == script_.end()) return kTimeInf;
  const auto& vec = it->second;
  auto pos = std::upper_bound(vec.begin(), vec.end(), t,
                              [](Time value, const auto& bp) { return value < bp.first; });
  return pos == vec.end() ? kTimeInf : pos->first;
}

// --------------------------------------------------------------------------
// Registration.

namespace {

/// One fixed rate per node, rate(u) for u in [0, n).
std::vector<double> rates_per_node(int n, const std::function<double(int)>& rate) {
  require(n >= 1, "drift: need n >= 1");
  std::vector<double> rates(static_cast<std::size_t>(n));
  for (int u = 0; u < n; ++u) rates[static_cast<std::size_t>(u)] = rate(u);
  return rates;
}

/// Per-node bounded random walks: walk u starts at 0 and its k-th value is
/// the (k-1)-th plus draw(rng_u), clamped to [-limit, limit]. Each node
/// draws from its own stream forked off `seed`; values are memoized and
/// extended lazily, so queries in any order see the same walk.
class BoundedWalk {
 public:
  BoundedWalk(int n, std::uint64_t seed, double limit, std::function<double(Rng&)> draw)
      : limit_(limit), draw_(std::move(draw)), walks_(static_cast<std::size_t>(n)) {
    require(n >= 1, "drift: need n >= 1");
    Rng root(seed);
    rngs_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) rngs_.push_back(root.fork(static_cast<std::uint64_t>(i)));
  }

  /// Node u's walk after k+1 draws.
  double at(NodeId u, std::int64_t k) {
    auto& walk = walks_.at(static_cast<std::size_t>(u));
    auto& rng = rngs_[static_cast<std::size_t>(u)];
    while (static_cast<std::int64_t>(walk.size()) <= k) {
      const double prev = walk.empty() ? 0.0 : walk.back();
      walk.push_back(std::clamp(prev + draw_(rng), -limit_, limit_));
    }
    return walk[static_cast<std::size_t>(k)];
  }

 private:
  double limit_;
  std::function<double(Rng&)> draw_;
  std::vector<Rng> rngs_;
  std::vector<std::vector<double>> walks_;  // walks_[u][k]
};

void register_builtin_drift_models(Registry<DriftFactory>& r) {
  using E = Registry<DriftFactory>::Entry;
  using Model = std::unique_ptr<DriftModel>;
  r.add(E{"none",
          "all rates exactly 1 + offset",
          {{"offset", "0", "constant rate offset, |offset| <= rho"}},
          [](const ParamMap& p, const DriftArgs& a) -> Model {
            const double offset = p.get_double("offset", 0.0);
            return std::make_unique<ConstantDrift>(
                a.rho, rates_per_node(a.n, [&](int) { return 1.0 + offset; }));
          }});
  r.add(E{"spread", "maximally divergent constant rates (worst case for global skew)",
          {},
          [](const ParamMap&, const DriftArgs& a) -> Model {
            // Node u runs at 1 - rho + 2*rho*u/(n-1).
            return std::make_unique<ConstantDrift>(
                a.rho, rates_per_node(a.n, [&](int u) {
                  if (a.n == 1) return 1.0;
                  const double frac = static_cast<double>(u) / static_cast<double>(a.n - 1);
                  return 1.0 - a.rho + 2.0 * a.rho * frac;
                }));
          }});
  r.add(E{"blocks",
          "block-sign drift flipping every period (gradient stressor)",
          {{"period", "200", "sign-flip period"},
           {"blocks", "2", "number of contiguous index blocks"}},
          [](const ParamMap& p, const DriftArgs& a) -> Model {
            // Contiguous index blocks; block parity decides the sign of the
            // drift and every sign flips each step, so adjacent blocks pull
            // apart at rate 2*rho, then reverse.
            const int blocks = p.get_int("blocks", 2);
            require(a.n >= 1 && blocks >= 1, "blocks drift: bad arguments");
            return std::make_unique<SteppedDrift>(
                a.rho, p.get_double("period", 200.0), [a, blocks](NodeId u, std::int64_t k) {
                  const int block =
                      static_cast<int>(static_cast<long long>(u) * blocks / a.n);
                  const int sign = ((block + static_cast<int>(k & 1)) % 2 == 0) ? 1 : -1;
                  return 1.0 + a.rho * sign;
                });
          }});
  r.add(E{"walk",
          "bounded random walk of per-node offsets",
          {{"period", "10", "step period"},
           {"std", "0", "step standard deviation (0 = rho/4)"}},
          [](const ParamMap& p, const DriftArgs& a) -> Model {
            // Every step each node's offset moves by a N(0, std) increment,
            // clamped to [-rho, rho].
            const double std_param = p.get_double("std", 0.0);
            const double std_dev = std_param > 0.0 ? std_param : a.rho / 4.0;
            auto walk = std::make_shared<BoundedWalk>(
                a.n, a.seed ^ 0xd21fULL, a.rho,
                [std_dev](Rng& rng) { return rng.normal(0.0, std_dev); });
            return std::make_unique<SteppedDrift>(
                a.rho, p.get_double("period", 10.0),
                [walk](NodeId u, std::int64_t k) { return 1.0 + walk->at(u, k); });
          }});
  r.add(E{"osc-const",
          "INET-style constant-drift oscillator: per-node ppm offsets (cycled)",
          {{"ppm", "100", "'/'-separated ppm list, e.g. 100/-200/50 (nodes cycle "
                          "through it); |ppm|*1e-6 <= rho"}},
          [](const ParamMap& p, const DriftArgs& a) -> Model {
            // Rates fixed for the whole run and configured per node in
            // parts-per-million, as oscillator datasheets give them.
            std::vector<double> ppm;
            const std::string text = p.get_str("ppm", "100");
            for (std::size_t start = 0, slash = 0; slash != std::string::npos;
                 start = slash + 1) {
              slash = text.find('/', start);
              ppm.push_back(parse_strict_double("param 'ppm'",
                                                text.substr(start, slash - start)));
              require(std::fabs(ppm.back()) * 1e-6 <= a.rho + 1e-15,
                      "osc-const drift: |ppm|*1e-6 > rho");
            }
            return std::make_unique<ConstantDrift>(
                a.rho, rates_per_node(a.n, [&](int u) {
                  return 1.0 + ppm[static_cast<std::size_t>(u) % ppm.size()] * 1e-6;
                }));
          }});
  r.add(E{"osc-random",
          "INET-style random-drift oscillator: bounded uniform walk of the ppm rate",
          {{"interval", "10", "time between drift-rate changes"},
           {"change", "25", "max |ppm| change per interval (uniform draw)"},
           {"limit", "0", "drift-rate clamp in ppm (0 = rho*1e6)"}},
          [](const ParamMap& p, const DriftArgs& a) -> Model {
            // The ppm offset starts at 0 and every interval moves by
            // uniform(-change, change), clamped to [-limit, limit]: uniform,
            // not Gaussian, steps and a limit that may sit inside rho.
            const double change = p.get_double("change", 25.0);
            const double limit_param = p.get_double("limit", 0.0);
            const double limit = limit_param > 0.0 ? limit_param : a.rho * 1e6;
            require(change >= 0.0, "osc-random drift: bad arguments");
            require(limit * 1e-6 <= a.rho + 1e-15, "osc-random drift: limit*1e-6 > rho");
            auto walk = std::make_shared<BoundedWalk>(
                a.n, a.seed ^ 0x05c1ULL, limit,
                [change](Rng& rng) { return rng.uniform(-change, change); });
            return std::make_unique<SteppedDrift>(
                a.rho, p.get_double("interval", 10.0), [walk](NodeId u, std::int64_t k) {
                  return 1.0 + (k == 0 ? 0.0 : walk->at(u, k - 1)) * 1e-6;
                });
          }});
  r.add(E{"sine",
          "temperature-cycle style oscillation with per-node phase",
          {{"period", "400", "oscillation period"},
           {"steps", "32", "piecewise-constant segments per period"}},
          [](const ParamMap& p, const DriftArgs& a) -> Model {
            // rate_u = 1 + rho*sin(2π t/period + 2π u/n), held constant on
            // each of `steps` segments per period at its midpoint value.
            const double period = p.get_double("period", 400.0);
            const int steps = p.get_int("steps", 32);
            require(a.n >= 1 && period > 0.0 && steps >= 4, "sine drift: bad arguments");
            const double seg = period / static_cast<double>(steps);
            return std::make_unique<SteppedDrift>(a.rho, seg, [=](NodeId u, std::int64_t k) {
              const double mid = (static_cast<double>(k) + 0.5) * seg;
              const double phase =
                  2.0 * M_PI * static_cast<double>(u) / static_cast<double>(a.n);
              return 1.0 + a.rho * std::sin(2.0 * M_PI * mid / period + phase);
            });
          }});
}

}  // namespace

Registry<DriftFactory>& drift_registry() {
  static Registry<DriftFactory>* registry = [] {
    auto* r = new Registry<DriftFactory>("drift model");
    register_builtin_drift_models(*r);
    return r;
  }();
  return *registry;
}

}  // namespace gcs
