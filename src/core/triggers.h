// Pure evaluation of the fast/slow mode triggers (Defs. 4.5 and 4.6).
//
// Extracted from AoptNode so the trigger semantics — including the mutual
// exclusion guaranteed by Lemma 5.3 — can be unit- and property-tested in
// isolation from the engine.
//
// ## Invariants of the incremental (split) form
//
// The scan factors into two parts with different change cadences:
//
//  * TriggerAggregates — max ε, max δ, min κ and membership over the
//    level-(>=1) peers. These depend only on *structure* (which edges are
//    inserted at which level, their per-edge constants), so a caller may
//    cache them across re-evaluations and recompute only when membership or
//    a level changes (AoptNode does; weight-decay κ forces a recompute every
//    scan because κ_e itself is time-varying there). The aggregates are
//    order-independent (pure max/min folds), so caching cannot change the
//    result vs. the one-pass form.
//  * max_abs — the largest observed |L̃ᵥᵤ − L_u|, which moves with every
//    estimate refresh and is recomputed each scan by the caller.
//
// Both feed the data-driven level bound: beyond s with s·κ_min exceeding
// max_abs + max ε + max δ, neither existential condition can hold, so the
// per-level loop terminates after O(discrepancy/κ) levels. The same fold is
// the quick rejection (triggers_quick_reject), which evaluate_triggers
// applies first. It is monotone in max_abs: a caller holding any upper
// bound on max_abs for which it rejects knows evaluate_triggers returns {}
// without computing max_abs — AoptNode's snapshot fast path rests on this
// (SnapshotBound below supplies that upper bound).
//
// Entries with level_limit < 1 may be present in the array; they are inert
// in every condition (membership tests are `level_limit >= s`) and must
// carry has_estimate = false only if their estimate was genuinely not read.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/common.h"

namespace gcs {

/// Sentinel for "member of N^s_u for every level s" (fully inserted edge).
inline constexpr int kAllLevels = 1 << 28;

/// One neighbor as seen by the trigger evaluation at a fixed instant.
struct LevelPeer {
  double kappa = 0.0;  ///< κ_e (current value; time-varying for weight decay)
  double delta = 0.0;  ///< δ_e
  double eps = 0.0;    ///< ε_e
  double tau = 0.0;    ///< τ_e
  /// L̃ᵥᵤ(t) − L_u(t); only meaningful if has_estimate.
  double est_minus_own = 0.0;
  /// Largest s such that the peer is in N^s_u (0 = discovery set only;
  /// kAllLevels = fully inserted). Membership is nested: peer in N^s iff
  /// s <= level_limit.
  int level_limit = 0;
  bool has_estimate = false;
};

/// Structural fold over the level-(>=1) peers (see the header comment):
/// cacheable between re-evaluations while membership and κ are unchanged.
struct TriggerAggregates {
  double max_eps = 0.0;
  double max_delta = 0.0;
  double kappa_min = kTimeInf;
  bool any = false;  ///< at least one peer with level_limit >= 1
};

/// One-pass computation of the aggregates (reference for cached callers).
TriggerAggregates compute_trigger_aggregates(const LevelPeer* peers,
                                             std::size_t count);

/// True when no trigger can fire at any level s >= 1 given the aggregates
/// and max_abs (see the proof in triggers.cpp): evaluate_triggers then
/// returns {}. Monotone in max_abs — if it holds for some b, it holds for
/// every max_abs <= b — and false for a NaN max_abs.
inline bool triggers_quick_reject(const TriggerAggregates& agg, double max_abs) {
  if (!agg.any || agg.kappa_min <= 0.0) return true;
  return (max_abs + agg.max_eps + agg.max_delta) / agg.kappa_min < 1.0 - 1e-9;
}

/// Certified upper bound on max_abs for snapshot estimates (beacon and RTT),
/// maintained in O(1) per update. A snapshot estimate's discrepancy is
///   est − own = (base_i − recv_hw_i) + (H_u − L_u) = c_i + d,
/// a per-peer constant plus a per-node term. Over the peers added with
/// widen(): c_hi >= max c_i, c_lo <= min c_i, mag >= max(|base_i| + |recv_hw_i|).
/// Widening with an extra or a replaced peer keeps the bound sound; it is
/// then merely looser.
struct SnapshotBound {
  double c_hi = -kTimeInf;
  double c_lo = kTimeInf;
  double mag = 0.0;

  void widen(double base, double recv_hw) {
    const double c = base - recv_hw;
    c_hi = std::max(c_hi, c);
    c_lo = std::min(c_lo, c);
    mag = std::max(mag, std::fabs(base) + std::fabs(recv_hw));
  }

  /// An upper bound on |fl(fl(base_i + fl(own_hw − recv_hw_i)) − own)| —
  /// the scan's rounded discrepancy — for every widened peer; 0 plus slack
  /// when none was. +inf when own_hw − own is not finite.
  [[nodiscard]] double bound(double own_hw, double own) const {
    const double d = own_hw - own;
    if (!std::isfinite(d)) return kTimeInf;
    // The bound's own expression fl(fl(base − recv_hw) + fl(H − L)) is
    // monotone in c_i, so max(0, c_hi + d, −(c_lo + d)) bounds it for every
    // peer. With u = 2⁻⁵³ and M = mag + |H| + |L|, each of the 3 + 3
    // roundings of the two expressions moves its result by at most
    // u·M(1 + O(u)), so they differ by at most 5u·M, and adding the slack
    // loses at most another u·M: under 7u·M ≈ 7.8e-16·M in all. The slack
    // 1e-12·(M + 1) covers that more than 1000-fold, after its own roundings.
    const double slack = 1e-12 * (mag + std::fabs(own_hw) + std::fabs(own) + 1.0);
    return std::max({0.0, c_hi + d, -(c_lo + d)}) + slack;
  }
};

struct TriggerDecision {
  bool fast = false;
  bool slow = false;
  int fast_level = 0;  ///< a level s witnessing the fast trigger (if fast)
  int slow_level = 0;  ///< a level s witnessing the slow trigger (if slow)
};

/// Evaluate both triggers over all levels s in {1, ..} given precomputed
/// structural aggregates and the current max |discrepancy|. A peer in N^s
/// without an estimate conservatively blocks both universal conditions.
TriggerDecision evaluate_triggers(const LevelPeer* peers, std::size_t count,
                                  const TriggerAggregates& agg, double max_abs,
                                  double mu, double rho, int level_cap);

/// Self-contained form: computes the aggregates and max_abs itself, then
/// delegates. The pointer form lets the hot caller stage peers on the stack.
TriggerDecision evaluate_triggers(const LevelPeer* peers, std::size_t count,
                                  double mu, double rho, int level_cap);
inline TriggerDecision evaluate_triggers(const std::vector<LevelPeer>& peers,
                                         double mu, double rho, int level_cap) {
  return evaluate_triggers(peers.data(), peers.size(), mu, rho, level_cap);
}

}  // namespace gcs
