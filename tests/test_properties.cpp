// Theorem-level property tests: the quantitative claims of the paper's
// analysis (§5) checked on executable scenarios.
#include <gtest/gtest.h>

#include <cmath>

#include "metrics/diameter.h"
#include "metrics/legality.h"
#include "metrics/recorder.h"
#include "metrics/skew.h"
#include "runner/scenario.h"

namespace gcs {
namespace {

ScenarioSpec line_config(int n, double mu = 0.05, double rho = 1e-3) {
  ScenarioSpec cfg;
  cfg.n = n;
  cfg.explicit_edges = topo_line(n);
  cfg.edge_params = default_edge_params();
  cfg.aopt.rho = rho;
  cfg.aopt.mu = mu;
  cfg.aopt.gtilde_static =
      suggest_gtilde(n, cfg.explicit_edges, cfg.edge_params, cfg.aopt);
  cfg.drift = ComponentSpec("spread");
  cfg.estimates = ComponentSpec("uniform");
  return cfg;
}

// ---------------------------------------------------------------------------
// Theorem 5.6 (I): the global skew grows at rate at most 2*rho.
// ---------------------------------------------------------------------------

TEST(Theorem56, GlobalSkewGrowthRateAtMostTwoRho) {
  auto cfg = line_config(10);
  Scenario s(cfg);
  s.start();
  const double rho = cfg.aopt.rho;
  Time prev_t = 0.0;
  double prev_g = 0.0;
  for (int step = 1; step <= 60; ++step) {
    s.run_until(step * 10.0);
    const double g = s.engine().true_global_skew();
    const double growth_rate = (g - prev_g) / (s.sim().now() - prev_t);
    EXPECT_LE(growth_rate, 2.0 * rho + 1e-6)
        << "global skew grew faster than 2*rho at step " << step;
    prev_g = g;
    prev_t = s.sim().now();
  }
}

// ---------------------------------------------------------------------------
// Theorem 5.6 (II): when the global skew exceeds D(t) + iota, it shrinks at
// rate at least mu*(1-rho) - 2*rho.
// ---------------------------------------------------------------------------

TEST(Theorem56, GlobalSkewRecoversAtFastRate) {
  auto cfg = line_config(8);
  Scenario s(cfg);
  s.start();
  s.run_until(100.0);
  // Jolt the top node upward: global skew >> D(t) + iota.
  const double offset = 5.0;
  s.engine().corrupt_logical(7, s.engine().logical(7) + offset);
  const double g0 = s.engine().true_global_skew();
  ASSERT_GT(g0, offset * 0.9);
  const double d_bound = estimate_dynamic_diameter(s.engine());
  ASSERT_LT(d_bound, offset / 1.5) << "diameter too large for the measurement";

  // The jolt itself is outside the model: the theorem applies once the new
  // maximum has flooded to every node (Condition 4.3 holds again), which
  // takes at most n-1 hops of one beacon period plus the delay bound each.
  // Measure from then on, so the rate is the theorem's and not the flood's.
  const Duration flood = (cfg.n - 1) * (cfg.engine.beacon_period +
                                        cfg.edge_params.msg_delay_max);
  s.run_until(s.sim().now() + flood);
  const double g_start = s.engine().true_global_skew();
  const Time t0 = s.sim().now();
  const Duration window = 30.0;
  s.run_until(t0 + window);
  const double g1 = s.engine().true_global_skew();
  ASSERT_GT(g1, d_bound + cfg.aopt.iota) << "the window left the theorem's regime";
  const double measured_rate = (g_start - g1) / window;
  const double guaranteed =
      cfg.aopt.mu * (1.0 - cfg.aopt.rho) - 2.0 * cfg.aopt.rho;
  EXPECT_GE(measured_rate, guaranteed * 0.99)
      << "recovery rate " << measured_rate << " below guarantee " << guaranteed;
}

TEST(Theorem56, GlobalSkewConvergesNearDiameterBound) {
  // Steady state after recovery: G(t) stays in the O(D) regime, far below
  // naive drift divergence.
  auto cfg = line_config(8);
  Scenario s(cfg);
  s.start();
  s.run_until(100.0);
  s.engine().corrupt_logical(7, s.engine().logical(7) + 5.0);
  s.run_until(400.0);
  const double g = s.engine().true_global_skew();
  const double d_bound = estimate_dynamic_diameter(s.engine());
  EXPECT_LT(g, d_bound + 5.0 * cfg.aopt.iota + 0.5)
      << "global skew failed to converge back to the D(t) regime";
}

// ---------------------------------------------------------------------------
// Theorem 5.22 / Corollary 5.26: stable gradient skew. After stabilization,
// |L_u - L_v| <= (s(d)+1) * d for kappa-distance d (s(d) as in Lemma 5.14).
// ---------------------------------------------------------------------------

struct GradientCase {
  int n;
  const char* drift;
  const char* estimates;
  std::uint64_t seed;
};

class GradientPropertyTest : public ::testing::TestWithParam<GradientCase> {};

TEST_P(GradientPropertyTest, StableGradientBoundHolds) {
  const auto param = GetParam();
  auto cfg = line_config(param.n);
  cfg.drift = ComponentSpec(param.drift);
  if (cfg.drift.kind == "blocks") {
    cfg.drift.params.set("period", 150.0);
    cfg.drift.params.set("blocks", 4);
  }
  cfg.estimates = ComponentSpec(param.estimates);
  cfg.seed = param.seed;
  Scenario s(cfg);
  s.start();

  const double ghat = cfg.aopt.gtilde_static;
  const double sigma = cfg.aopt.sigma();
  // All edges are fully inserted at t=0; wait out the legality transient
  // (Lemma 5.23: Gamma ~ 15*Ghat/mu), then check repeatedly.
  const double warmup = 2.0 * ghat / cfg.aopt.mu;
  s.run_until(warmup);
  for (int round = 0; round < 8; ++round) {
    s.run_for(25.0);
    ASSERT_LT(s.engine().true_global_skew(), ghat);
    for (const auto& point : measure_gradient(s.engine(), 1.0)) {
      const double bound = gradient_bound(point.kappa_dist, ghat, sigma);
      ASSERT_LE(point.skew, bound)
          << "pair (" << point.u << "," << point.v << ") at kappa-distance "
          << point.kappa_dist << " violates the gradient bound";
    }
  }
  for (NodeId u = 0; u < param.n; ++u) {
    EXPECT_FALSE(s.aopt(u).saw_trigger_conflict());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GradientPropertyTest,
    ::testing::Values(
        GradientCase{8, "spread", "uniform", 1},
        GradientCase{12, "blocks", "uniform", 2},
        GradientCase{12, "blocks", "adversarial", 3},
        GradientCase{8, "walk", "uniform", 4},
        GradientCase{8, "spread", "beacon", 5},
        GradientCase{10, "blocks", "beacon", 6}),
    [](const ::testing::TestParamInfo<GradientCase>& info) {
      return "case" + std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------------
// Legality (Def. 5.13 with the Def. 5.19 gradient sequence) holds at all
// sampled times once stabilized — the invariant behind Theorem 5.25.
// ---------------------------------------------------------------------------

TEST(Legality, HoldsThroughoutStabilizedRun) {
  auto cfg = line_config(10);
  cfg.drift = ComponentSpec("blocks");
  cfg.drift.params.set("period", 120.0);
  cfg.drift.params.set("blocks", 2);
  Scenario s(cfg);
  s.start();
  const double ghat = cfg.aopt.gtilde_static;
  s.run_until(2.0 * ghat / cfg.aopt.mu);
  for (int round = 0; round < 10; ++round) {
    s.run_for(40.0);
    const auto report = check_legality(s.engine(), ghat);
    EXPECT_TRUE(report.legal())
        << "margin " << report.worst_margin << " at level " << report.worst_level
        << " node " << report.worst_node << " t=" << s.sim().now();
  }
}

// ---------------------------------------------------------------------------
// Self-stabilization: after corrupting a clock, legality is restored within
// O(Ghat/mu) time (the analysis' stabilization scale).
// ---------------------------------------------------------------------------

TEST(SelfStabilization, LegalityRestoredAfterCorruption) {
  auto cfg = line_config(8);
  Scenario s(cfg);
  s.start();
  const double ghat = cfg.aopt.gtilde_static;
  s.run_until(300.0);

  // Corrupt an interior node by half the global-skew budget.
  s.engine().corrupt_logical(4, s.engine().logical(4) + ghat / 2.0);
  const auto broken = check_legality(s.engine(), ghat);
  ASSERT_FALSE(broken.legal()) << "corruption was not strong enough to matter";

  const Time t0 = s.sim().now();
  const double budget = 6.0 * ghat / cfg.aopt.mu;  // generous O(Ghat/mu)
  Time recovered_at = kTimeInf;
  while (s.sim().now() < t0 + budget) {
    s.run_for(20.0);
    if (check_legality(s.engine(), ghat).legal()) {
      recovered_at = s.sim().now();
      break;
    }
  }
  ASSERT_LT(recovered_at, kTimeInf) << "legality not restored within budget";
  // And it stays legal afterwards.
  for (int round = 0; round < 5; ++round) {
    s.run_for(30.0);
    EXPECT_TRUE(check_legality(s.engine(), ghat).legal());
  }
}

TEST(SelfStabilization, GradientBoundRestoredAfterScatterCorruption) {
  auto cfg = line_config(8);
  Scenario s(cfg);
  s.start();
  const double ghat = cfg.aopt.gtilde_static;
  const double sigma = cfg.aopt.sigma();
  s.run_until(200.0);
  // Scatter all clocks within [0, ghat/2) — a fresh adversarial state that
  // still respects the global-skew budget.
  Rng rng(77);
  const double base = s.engine().logical(0);
  for (NodeId u = 0; u < 8; ++u) {
    s.engine().corrupt_logical(u, base + rng.uniform(0.0, ghat / 2.0));
  }
  s.run_for(8.0 * ghat / cfg.aopt.mu);
  for (const auto& point : measure_gradient(s.engine(), 1.0)) {
    EXPECT_LE(point.skew, gradient_bound(point.kappa_dist, ghat, sigma));
  }
}

// ---------------------------------------------------------------------------
// Clock-rate envelope (§3/§5.5): logical rates in [1-rho, (1+rho)(1+mu)],
// checked across drift models including mode switches.
// ---------------------------------------------------------------------------

TEST(RateEnvelope, HoldsUnderBlockDriftWithCorruptions) {
  auto cfg = line_config(8);
  cfg.drift = ComponentSpec("blocks");
  cfg.drift.params.set("period", 60.0);
  Scenario s(cfg);
  s.start();
  s.run_until(50.0);
  s.engine().corrupt_logical(3, s.engine().logical(3) + 2.0);
  std::vector<double> prev(8);
  for (NodeId u = 0; u < 8; ++u) prev[static_cast<std::size_t>(u)] = s.engine().logical(u);
  Time prev_t = s.sim().now();
  for (int step = 0; step < 50; ++step) {
    s.run_for(4.0);
    for (NodeId u = 0; u < 8; ++u) {
      const double l = s.engine().logical(u);
      const double rate = (l - prev[static_cast<std::size_t>(u)]) / (s.sim().now() - prev_t);
      EXPECT_GE(rate, cfg.aopt.alpha() - 1e-9);
      EXPECT_LE(rate, cfg.aopt.beta() + 1e-9);
      prev[static_cast<std::size_t>(u)] = l;
    }
    prev_t = s.sim().now();
  }
}

}  // namespace
}  // namespace gcs
