#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/params.h"
#include "core/triggers.h"
#include "util/rng.h"

namespace gcs {
namespace {

constexpr double kMu = 0.05;
constexpr double kRho = 1e-3;
constexpr int kCap = 64;

LevelPeer make_peer(double diff, double kappa = 1.0, double delta = 0.2,
                    double eps = 0.1, double tau = 0.5,
                    int level_limit = kAllLevels) {
  LevelPeer p;
  p.level_limit = level_limit;
  p.kappa = kappa;
  p.delta = delta;
  p.eps = eps;
  p.tau = tau;
  p.has_estimate = true;
  p.est_minus_own = diff;
  return p;
}

TEST(Triggers, EmptyNeighborhoodNoTrigger) {
  const auto d = evaluate_triggers({}, kMu, kRho, kCap);
  EXPECT_FALSE(d.fast);
  EXPECT_FALSE(d.slow);
}

TEST(Triggers, NeighborFarAheadTriggersFast) {
  // One neighbor 1.5*kappa ahead: level 1 fast condition holds.
  const auto d = evaluate_triggers({make_peer(1.5)}, kMu, kRho, kCap);
  EXPECT_TRUE(d.fast);
  EXPECT_FALSE(d.slow);
  EXPECT_EQ(d.fast_level, 1);
}

TEST(Triggers, NeighborFarBehindTriggersSlow) {
  const auto d = evaluate_triggers({make_peer(-2.0)}, kMu, kRho, kCap);
  EXPECT_TRUE(d.slow);
  EXPECT_FALSE(d.fast);
  EXPECT_EQ(d.slow_level, 1);
}

TEST(Triggers, AheadAndFurtherBehindBlocksFast) {
  // w is ahead by 1.2 (fast exists at s=1), but v is behind by 3 kappa:
  // the universal fast condition fails at s=1 AND v keeps slow alive.
  const auto d =
      evaluate_triggers({make_peer(1.2), make_peer(-3.0)}, kMu, kRho, kCap);
  EXPECT_TRUE(d.slow);
  EXPECT_FALSE(d.fast && d.slow);
}

TEST(Triggers, SmallSkewsTriggerNothing) {
  const auto d = evaluate_triggers(
      {make_peer(0.3), make_peer(-0.4), make_peer(0.0)}, kMu, kRho, kCap);
  EXPECT_FALSE(d.fast);
  EXPECT_FALSE(d.slow);
}

TEST(Triggers, HighLevelFastForLargeSkew) {
  // Neighbor 5.05*kappa ahead: fast holds up to level 5.
  const auto d = evaluate_triggers({make_peer(5.05)}, kMu, kRho, kCap);
  EXPECT_TRUE(d.fast);
  EXPECT_GE(d.fast_level, 1);
}

TEST(Triggers, LevelMembershipRestrictsScope) {
  // Peer only in levels <= 2; a skew of 3.2*kappa can witness fast at s<=2
  // (3.2 >= s*1.0 - 0.1 holds for s in {1,2,3} but membership stops at 2).
  auto p = make_peer(3.2);
  p.level_limit = 2;
  const auto d = evaluate_triggers({p}, kMu, kRho, kCap);
  EXPECT_TRUE(d.fast);
  EXPECT_LE(d.fast_level, 2);
}

TEST(Triggers, MissingEstimateBlocksUniversalConditions) {
  auto ahead = make_peer(1.5);
  LevelPeer unknown;
  unknown.level_limit = kAllLevels;
  unknown.kappa = 1.0;
  unknown.delta = 0.2;
  unknown.eps = 0.1;
  unknown.tau = 0.5;
  unknown.has_estimate = false;
  const auto d = evaluate_triggers({ahead, unknown}, kMu, kRho, kCap);
  EXPECT_FALSE(d.fast);  // cannot certify "no one too far behind"
  EXPECT_FALSE(d.slow);
}

TEST(Triggers, EstimateUncertaintyCompensation) {
  // Fast trigger threshold is s*kappa - eps (Def 4.5): a diff exactly at
  // kappa - eps must trigger; just below must not.
  const auto yes = evaluate_triggers({make_peer(0.9)}, kMu, kRho, kCap);
  EXPECT_TRUE(yes.fast);
  const auto no = evaluate_triggers({make_peer(0.9 - 1e-9)}, kMu, kRho, kCap);
  EXPECT_FALSE(no.fast);
}

TEST(Triggers, SlowThresholdMatchesDef46) {
  // Slow exists iff behind >= (s+1/2)kappa - delta - eps = 1.5 - 0.2 - 0.1.
  const auto yes = evaluate_triggers({make_peer(-1.2)}, kMu, kRho, kCap);
  EXPECT_TRUE(yes.slow);
  const auto no = evaluate_triggers({make_peer(-1.2 + 1e-9)}, kMu, kRho, kCap);
  EXPECT_FALSE(no.slow);
}

// ---------------------------------------------------------------------------
// Property: Lemma 5.3 — with kappa/delta satisfying eq. (9) and Def 4.6,
// the fast and slow triggers are never simultaneously satisfied, for any
// neighbor configuration.
// ---------------------------------------------------------------------------

struct Lemma53Case {
  std::uint64_t seed;
  int peers;
};

class TriggerExclusionTest : public ::testing::TestWithParam<Lemma53Case> {};

TEST_P(TriggerExclusionTest, FastAndSlowNeverBothHold) {
  const auto param = GetParam();
  Rng rng(param.seed);
  AlgoParams ap;
  ap.rho = kRho;
  ap.mu = kMu;
  for (int iteration = 0; iteration < 400; ++iteration) {
    std::vector<LevelPeer> peers;
    for (int i = 0; i < param.peers; ++i) {
      EdgeParams ep;
      ep.eps = rng.uniform(0.01, 0.5);
      ep.tau = rng.uniform(0.0, 2.0);
      const EdgeConstants ec = ap.edge_constants(ep);
      LevelPeer p;
      p.level_limit = rng.chance(0.3)
                          ? static_cast<int>(rng.between(0, 6))
                          : kAllLevels;
      p.kappa = ec.kappa;
      p.delta = ec.delta;
      p.eps = ep.eps;
      p.tau = ep.tau;
      p.has_estimate = rng.chance(0.95);
      p.est_minus_own = rng.uniform(-30.0, 30.0);
      peers.push_back(p);
    }
    const auto d = evaluate_triggers(peers, kMu, kRho, kCap);
    EXPECT_FALSE(d.fast && d.slow)
        << "Lemma 5.3 violated with seed=" << param.seed
        << " iteration=" << iteration;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomNeighborhoods, TriggerExclusionTest,
    ::testing::Values(Lemma53Case{1, 1}, Lemma53Case{2, 2}, Lemma53Case{3, 3},
                      Lemma53Case{4, 5}, Lemma53Case{5, 8}, Lemma53Case{6, 12},
                      Lemma53Case{7, 2}, Lemma53Case{8, 4}),
    [](const ::testing::TestParamInfo<Lemma53Case>& info) {
      return "seed" + std::to_string(info.param.seed) + "_peers" +
             std::to_string(info.param.peers);
    });

// ---------------------------------------------------------------------------
// Property: the data-driven level scan (aggregates, ratio quick-reject with
// its 1e-9 margin, s_stop) decides exactly what Defs. 4.5/4.6 decide when
// applied literally at every level, over adversarial random inputs: zero
// peers, inert (level_limit < 1) entries, missing estimates, discrepancies
// within 1e-12 of a threshold, and caps of 1-4 as well as deep ones.
// ---------------------------------------------------------------------------

/// Defs. 4.5/4.6 read off the paper: at each level s in [1, depth], a
/// witness in N^s and no member of N^s violating the universal clause (a
/// member without an estimate violates both); the first such level is
/// recorded. No aggregates, no quick-reject, no early stop.
TriggerDecision literal_triggers(const std::vector<LevelPeer>& peers,
                                 int depth) {
  TriggerDecision d;
  for (int s = 1; s <= depth; ++s) {
    const double sd = static_cast<double>(s);
    bool fast_witness = false;
    bool fast_ok = true;
    bool slow_witness = false;
    bool slow_ok = true;
    for (const LevelPeer& p : peers) {
      if (p.level_limit < s) continue;  // not in N^s
      if (!p.has_estimate) {
        fast_ok = false;
        slow_ok = false;
        continue;
      }
      const double ahead = p.est_minus_own;
      const double behind = -p.est_minus_own;
      if (ahead >= sd * p.kappa - p.eps) fast_witness = true;
      if (behind > sd * p.kappa + 2.0 * kMu * p.tau + p.eps) fast_ok = false;
      if (behind >= (sd + 0.5) * p.kappa - p.delta - p.eps) slow_witness = true;
      if (ahead > (sd + 0.5) * p.kappa + p.delta + p.eps +
                      kMu * (1.0 + kRho) * p.tau) {
        slow_ok = false;
      }
    }
    if (!d.fast && fast_witness && fast_ok) {
      d.fast = true;
      d.fast_level = s;
    }
    if (!d.slow && slow_witness && slow_ok) {
      d.slow = true;
      d.slow_level = s;
    }
  }
  return d;
}

TEST(Triggers, DataDrivenScanMatchesDeepScan) {
  // With |discrepancy| <= 25, eps <= 0.3, delta < kappa/2 and kappa >= 0.25,
  // no level beyond 200 can host a witness, so a literal scan to 200 levels
  // stands in for an unbounded one.
  constexpr int kDeep = 200;
  Rng rng(4242);
  AlgoParams ap;
  ap.rho = kRho;
  ap.mu = kMu;
  for (int iteration = 0; iteration < 2000; ++iteration) {
    std::vector<LevelPeer> peers;
    const int count = static_cast<int>(rng.below(7));  // 0 peers included
    for (int i = 0; i < count; ++i) {
      EdgeParams ep;
      ep.eps = rng.uniform(0.05, 0.3);
      ep.tau = rng.uniform(0.0, 1.0);
      const EdgeConstants ec = ap.edge_constants(ep);
      LevelPeer p;
      p.level_limit = rng.chance(0.1)   ? static_cast<int>(rng.between(-1, 0))
                      : rng.chance(0.5) ? static_cast<int>(rng.between(1, 9))
                                        : kAllLevels;
      p.kappa = ec.kappa;
      p.delta = ec.delta;
      p.eps = ep.eps;
      p.tau = ep.tau;
      p.has_estimate = rng.chance(0.9);
      // Mostly large discrepancies (deep scans); otherwise within 1e-12 of
      // kappa or of a low level's existential threshold, where one rounding
      // in the quick-reject ratio or the level bound would flip a decision.
      const double sd = static_cast<double>(rng.between(1, 3));
      const double near = rng.chance(0.5) ? ec.kappa
                          : rng.chance(0.5)
                              ? sd * ec.kappa - ep.eps
                              : (sd + 0.5) * ec.kappa - ec.delta - ep.eps;
      p.est_minus_own = rng.chance(0.8) ? rng.uniform(-25.0, 25.0)
                                        : near + rng.uniform(-1e-12, 1e-12);
      if (rng.chance(0.5)) p.est_minus_own = -p.est_minus_own;
      peers.push_back(p);
    }
    const int cap = rng.chance(0.2)   ? static_cast<int>(rng.between(1, 4))
                    : rng.chance(0.5) ? 64
                                      : 100000;
    const auto got = evaluate_triggers(peers, kMu, kRho, cap);
    const auto want = literal_triggers(peers, std::min(cap, kDeep));
    ASSERT_EQ(got.fast, want.fast) << "iteration " << iteration;
    ASSERT_EQ(got.slow, want.slow) << "iteration " << iteration;
    ASSERT_EQ(got.fast_level, want.fast_level) << "iteration " << iteration;
    ASSERT_EQ(got.slow_level, want.slow_level) << "iteration " << iteration;
  }
}

// ------------------------------------------- quick rejection and the bound

TEST(Triggers, QuickRejectIsMonotoneInMaxAbs) {
  Rng rng(2201);
  for (int iteration = 0; iteration < 100000; ++iteration) {
    TriggerAggregates agg;
    agg.any = rng.chance(0.95);
    agg.kappa_min = rng.chance(0.02) ? 0.0 : rng.uniform(0.05, 5.0);
    agg.max_eps = rng.uniform(0.0, 0.3 * agg.kappa_min);
    agg.max_delta = rng.uniform(0.0, 0.3 * agg.kappa_min);
    // Concentrate on the threshold, where roundings decide.
    const double edge = agg.kappa_min * (1.0 - 1e-9) - agg.max_eps - agg.max_delta;
    const double a = std::max(0.0, edge + rng.uniform(-1e-9, 1e-9) * agg.kappa_min);
    const double b = rng.chance(0.5) ? std::nextafter(a, kTimeInf)
                                     : a + rng.uniform(0.0, 1e-8) * agg.kappa_min;
    if (triggers_quick_reject(agg, b)) {
      ASSERT_TRUE(triggers_quick_reject(agg, a)) << "iteration " << iteration;
    }
  }
  TriggerAggregates agg;
  agg.any = true;
  agg.kappa_min = 1.0;
  EXPECT_TRUE(triggers_quick_reject(agg, 0.5));
  EXPECT_FALSE(triggers_quick_reject(agg, std::nan("")));
  EXPECT_FALSE(triggers_quick_reject(agg, kTimeInf));
}

TEST(Triggers, QuickRejectionMeansNoTriggerAtAnyLevel) {
  // Whenever the quick rejection holds for the exact max_abs, the literal
  // per-level scan finds nothing either, and evaluate_triggers says so.
  Rng rng(2202);
  AlgoParams ap;
  ap.rho = kRho;
  ap.mu = kMu;
  int rejected = 0;
  for (int iteration = 0; iteration < 20000; ++iteration) {
    std::vector<LevelPeer> peers;
    const int count = static_cast<int>(rng.below(7));
    for (int i = 0; i < count; ++i) {
      EdgeParams ep;
      ep.eps = rng.uniform(0.05, 0.3);
      ep.tau = rng.uniform(0.0, 1.0);
      const EdgeConstants ec = ap.edge_constants(ep);
      LevelPeer p;
      p.level_limit = rng.chance(0.1)   ? 0
                      : rng.chance(0.5) ? static_cast<int>(rng.between(1, 9))
                                        : kAllLevels;
      p.kappa = ec.kappa;
      p.delta = ec.delta;
      p.eps = ep.eps;
      p.tau = ep.tau;
      p.has_estimate = rng.chance(0.9);
      p.est_minus_own = rng.uniform(-0.5, 0.5) * ec.kappa;
      peers.push_back(p);
    }
    const TriggerAggregates agg = compute_trigger_aggregates(peers.data(), peers.size());
    double max_abs = 0.0;
    for (const LevelPeer& p : peers) {
      if (p.level_limit >= 1 && p.has_estimate) {
        max_abs = std::max(max_abs, std::fabs(p.est_minus_own));
      }
    }
    if (!triggers_quick_reject(agg, max_abs)) continue;
    ++rejected;
    const auto got = evaluate_triggers(peers.data(), peers.size(), agg, max_abs,
                                       kMu, kRho, kCap);
    const auto want = literal_triggers(peers, kCap);
    ASSERT_FALSE(got.fast || got.slow) << "iteration " << iteration;
    ASSERT_FALSE(want.fast || want.slow) << "iteration " << iteration;
  }
  EXPECT_GT(rejected, 1000);  // the property was exercised
}

TEST(Triggers, SnapshotBoundCoversTheScanDiscrepancy) {
  // AoptNode's scan computes each snapshot discrepancy as
  // fl(fl(base + fl(H − recv_hw)) − L); SnapshotBound must bound every one of
  // them, including at 1e9 magnitudes where the terms nearly cancel.
  Rng rng(2203);
  for (int iteration = 0; iteration < 100000; ++iteration) {
    const double scale = std::pow(10.0, rng.uniform(0.0, 9.0));
    const double t = rng.uniform(0.0, scale);  // the common clock reading
    const double spread = std::pow(10.0, rng.uniform(-12.0, 2.0));
    const bool cancel = rng.chance(0.8);
    const auto near = [&](double sign) {
      return cancel ? t + rng.uniform(-spread, spread)
                    : sign * rng.uniform(0.0, scale);
    };
    const double own_hw = near(1.0);
    const double own = near(rng.chance(0.5) ? 1.0 : -1.0);
    SnapshotBound bound;
    std::vector<std::pair<double, double>> entries;
    const int count = static_cast<int>(rng.between(0, 8));
    for (int i = 0; i < count; ++i) {
      const double base = near(rng.chance(0.5) ? 1.0 : -1.0);
      const double recv_hw = near(1.0);
      bound.widen(base, recv_hw);
      entries.emplace_back(base, recv_hw);
    }
    const double b = bound.bound(own_hw, own);
    ASSERT_GE(b, 0.0);
    for (const auto& [base, recv_hw] : entries) {
      const double est = base + (own_hw - recv_hw);
      const double scan = std::fabs(est - own);
      ASSERT_GE(b, scan) << "iteration " << iteration << std::hexfloat << " base "
                         << base << " recv_hw " << recv_hw << " H " << own_hw
                         << " L " << own;
    }
  }
  // Nothing widened: only the slack remains; a non-finite H − L disables it.
  const SnapshotBound empty;
  EXPECT_LT(empty.bound(5.0, 5.0), 1e-9);
  EXPECT_EQ(SnapshotBound{}.bound(kTimeInf, 0.0), kTimeInf);
}

}  // namespace
}  // namespace gcs
