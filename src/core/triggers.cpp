#include "core/triggers.h"

#include <algorithm>
#include <cmath>

namespace gcs {

TriggerAggregates compute_trigger_aggregates(const LevelPeer* peers,
                                             std::size_t count) {
  TriggerAggregates agg;
  for (std::size_t i = 0; i < count; ++i) {
    const LevelPeer& p = peers[i];
    if (p.level_limit < 1) continue;
    agg.any = true;
    agg.kappa_min = std::min(agg.kappa_min, p.kappa);
    agg.max_eps = std::max(agg.max_eps, p.eps);
    agg.max_delta = std::max(agg.max_delta, p.delta);
  }
  return agg;
}

TriggerDecision evaluate_triggers(const LevelPeer* peers, std::size_t count,
                                  const TriggerAggregates& agg, double max_abs,
                                  double mu, double rho, int level_cap) {
  // Quick rejection (triggers_quick_reject), the steady-state common case:
  // with max_abs + max ε + max δ < κ_min, no peer can satisfy either
  // existential condition at any level s >= 1 —
  //   ahead  <= max_abs < κ_min − max ε − max δ <= s·κ_e − ε_e, and
  //   behind <= max_abs < κ_min − max ε − max δ <= (s+0.5)·κ_e − δ_e − ε_e —
  // and without an existential witness neither trigger fires regardless of
  // the blocking clauses, so the per-level scan would find nothing. The
  // threshold keeps a 1e-9 relative margin so the handful of roundings in
  // the ratio can never disagree with the scan's own rounded comparisons;
  // ratios inside the margin just take the full scan. Every step of the
  // ratio (two additions, a division by κ_min > 0) is monotone under
  // round-to-nearest, so the test is monotone in max_abs.
  if (triggers_quick_reject(agg, max_abs)) return TriggerDecision{};
  const double ratio = (max_abs + agg.max_eps + agg.max_delta) / agg.kappa_min;
  // floor() via integer truncation: the ratio is non-negative, where the two
  // agree — and std::floor is a libm CALL at baseline x86-64, once per
  // re-evaluation. Huge ratios (corrupt clocks) saturate to level_cap.
  const long long whole =
      ratio < 1e18 ? static_cast<long long>(ratio) : (1LL << 60);
  const int s_stop = std::min<long long>(level_cap, whole + 2);

  TriggerDecision decision;
  for (int s = 1; s <= s_stop; ++s) {
    // Accumulate the per-peer conditions branchlessly: the comparisons are
    // data-dependent (≈50% mispredict as branches) and this loop runs on
    // every re-evaluation. The boolean algebra is exactly the original
    // control flow: missing estimates block both certificates.
    bool member = false;
    bool fast_exists = false;
    bool fast_blocked = false;
    bool slow_exists = false;
    bool slow_blocked = false;
    const double sd = static_cast<double>(s);
    for (std::size_t i = 0; i < count; ++i) {
      const LevelPeer& p = peers[i];
      const bool in_level = p.level_limit >= s;
      member |= in_level;
      const bool certifiable = in_level & p.has_estimate;
      const bool no_estimate = in_level & !p.has_estimate;
      fast_blocked |= no_estimate;
      slow_blocked |= no_estimate;
      const double ahead = p.est_minus_own;    // L̃ᵥᵤ − L_u
      const double behind = -p.est_minus_own;  // L_u − L̃ᵥᵤ
      // Def. 4.5 (fast trigger).
      fast_exists |= certifiable & (ahead >= sd * p.kappa - p.eps);
      fast_blocked |=
          certifiable & (behind > sd * p.kappa + 2.0 * mu * p.tau + p.eps);
      // Def. 4.6 (slow trigger).
      slow_exists |=
          certifiable & (behind >= (sd + 0.5) * p.kappa - p.delta - p.eps);
      slow_blocked |= certifiable & (ahead > (sd + 0.5) * p.kappa + p.delta +
                                                 p.eps + mu * (1.0 + rho) * p.tau);
    }
    if (!member) break;  // neighbor sets are nested: higher levels are empty too
    if (fast_exists && !fast_blocked && !decision.fast) {
      decision.fast = true;
      decision.fast_level = s;
    }
    if (slow_exists && !slow_blocked && !decision.slow) {
      decision.slow = true;
      decision.slow_level = s;
    }
    if (decision.fast && decision.slow) break;  // Lemma 5.3 violation; caller asserts
  }
  return decision;
}

TriggerDecision evaluate_triggers(const LevelPeer* peers, std::size_t count,
                                  double mu, double rho, int level_cap) {
  const TriggerAggregates agg = compute_trigger_aggregates(peers, count);
  double max_abs = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const LevelPeer& p = peers[i];
    if (p.level_limit >= 1 && p.has_estimate) {
      max_abs = std::max(max_abs, std::fabs(p.est_minus_own));
    }
  }
  return evaluate_triggers(peers, count, agg, max_abs, mu, rho, level_cap);
}

}  // namespace gcs
