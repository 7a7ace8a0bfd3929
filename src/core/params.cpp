#include "core/params.h"

#include <cmath>
#include <sstream>

namespace gcs {

const char* to_string(InsertionPolicy policy) {
  switch (policy) {
    case InsertionPolicy::kStagedStatic: return "staged-static";
    case InsertionPolicy::kStagedDynamic: return "staged-dynamic";
    case InsertionPolicy::kImmediate: return "immediate";
    case InsertionPolicy::kWeightDecay: return "weight-decay";
  }
  return "?";
}

std::string ValidationResult::str() const {
  std::ostringstream out;
  for (const auto& e : errors) out << "error: " << e << "\n";
  for (const auto& w : warnings) out << "warning: " << w << "\n";
  return out.str();
}

double AlgoParams::insertion_duration_static(double gtilde) const {
  // eq. (10): I(G̃) = (20(1+µ)/(1−ρ) + 56µ + (8+56µ)/σ) · G̃/µ
  const double s = sigma();
  return (20.0 * (1.0 + mu) / (1.0 - rho) + 56.0 * mu + (8.0 + 56.0 * mu) / s) *
         gtilde / mu;
}

double AlgoParams::insertion_duration_dynamic(double gtilde, double msg_delay_max,
                                              double tau) const {
  // Lemma 7.1 proof form: ℓ_e = ⌈log₂(G̃_e/µ + T_e + τ_e)⌉, I_e = B·2^{3+ℓ_e}.
  const double arg = gtilde / mu + msg_delay_max + tau;
  require(arg > 0.0, "insertion_duration_dynamic: non-positive argument");
  const double ell = std::ceil(std::log2(arg));
  return B * std::exp2(3.0 + ell);
}

double AlgoParams::handshake_delta(const EdgeParams& e) const {
  // Listing 1 line 1: ∆ = (1+ρ)(1+µ)(T+τ)/(1−ρ) + τ
  return (1.0 + rho) * (1.0 + mu) * (e.msg_delay_max + e.tau) / (1.0 - rho) + e.tau;
}

EdgeConstants AlgoParams::edge_constants(const EdgeParams& e) const {
  EdgeConstants c;
  const double base = 4.0 * (e.eps + mu * e.tau);
  c.kappa = base * (1.0 + kappa_slack);
  const double delta_room = c.kappa / 2.0 - 2.0 * e.eps - 2.0 * mu * e.tau;
  c.delta = delta_frac * delta_room;
  return c;
}

ValidationResult AlgoParams::validate() const {
  ValidationResult r;
  if (!(rho > 0.0 && rho < 1.0)) r.errors.emplace_back("rho must be in (0,1)");
  if (!(mu > 0.0)) r.errors.emplace_back("mu must be positive");
  if (rho > 0.0 && rho < 1.0) {
    const double mu_min = 2.0 * rho / (1.0 - rho);
    if (mu <= mu_min) {
      r.errors.emplace_back("mu must exceed 2*rho/(1-rho) so that sigma > 1 (eq. 8)");
    }
  }
  if (mu > 0.1) {
    r.warnings.emplace_back("mu > 1/10 violates eq. (7); the §5 analysis constants "
                            "no longer apply");
  }
  if (!(iota > 0.0)) r.errors.emplace_back("iota must be positive (Def. 4.4)");
  if (!(kappa_slack > 0.0)) r.errors.emplace_back("kappa_slack must be positive (eq. 9 is strict)");
  if (!(delta_frac > 0.0 && delta_frac < 1.0)) {
    r.errors.emplace_back("delta_frac must be in (0,1) (Def. 4.6 constraint is an open interval)");
  }
  if (!(gtilde_static > 0.0)) r.errors.emplace_back("gtilde_static must be positive");
  if (r.errors.empty() && sigma() < 3.0) {
    r.warnings.emplace_back("sigma < 3: outside the regime assumed by Lemma 5.20 "
                            "(any sigma > 1 works with adjusted insertion times)");
  }
  if (insertion == InsertionPolicy::kStagedDynamic) {
    const double b_min = 320.0 * 128.0 / ((1.0 - rho) * (1.0 - rho));
    const double b_max = mu / (2.0 * rho);
    if (B < b_min || B > b_max) {
      std::ostringstream msg;
      msg << "B=" << B << " outside eq. (12) range [" << b_min << ", " << b_max
          << "]; Lemma 7.1 separation constants are not guaranteed";
      r.warnings.push_back(msg.str());
    }
  }
  if (level_cap < 1) r.errors.emplace_back("level_cap must be >= 1");
  return r;
}

ValidationResult AlgoParams::validate_edge(const EdgeParams& e) const {
  ValidationResult r;
  const EdgeConstants c = edge_constants(e);
  if (!(c.kappa > 4.0 * (e.eps + mu * e.tau))) {
    r.errors.push_back("kappa violates eq. (9): kappa > 4(eps + mu*tau) required");
  }
  const double delta_room = c.kappa / 2.0 - 2.0 * e.eps - 2.0 * mu * e.tau;
  if (!(c.delta > 0.0 && c.delta < delta_room)) {
    r.errors.push_back("delta outside (0, kappa/2 - 2eps - 2mu*tau)");
  }
  if (iota >= c.kappa / 4.0) {
    r.warnings.push_back("iota is large relative to kappa; trigger separation is thin");
  }
  return r;
}

}  // namespace gcs
