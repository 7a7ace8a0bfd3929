#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "estimate/estimate_source.h"
#include "runner/scenario.h"

namespace gcs {
namespace {

// ---------------------------------------------------------------------------
// Oracle provider: guarantee (1) holds by construction; verify policies.
// ---------------------------------------------------------------------------

TEST(OracleEstimates, ZeroPolicyIsExact) {
  ScenarioSpec cfg;
  cfg.n = 3;
  cfg.explicit_edges = topo_line(3);
  cfg.edge_params = default_edge_params();
  cfg.estimates = ComponentSpec("zero");
  Scenario s(cfg);
  s.start();
  s.run_until(25.0);
  const auto est = s.estimate_of(0, 1);
  ASSERT_TRUE(est.has_value());
  EXPECT_DOUBLE_EQ(*est, s.engine().logical(1));
}

TEST(OracleEstimates, NoEstimateWithoutEdge) {
  ScenarioSpec cfg;
  cfg.n = 3;
  cfg.explicit_edges = {EdgeKey(0, 1)};
  cfg.edge_params = default_edge_params();
  Scenario s(cfg);
  s.start();
  EXPECT_FALSE(s.estimate_of(0, 2).has_value());
}

TEST(OracleEstimates, UniformPolicyWithinEps) {
  ScenarioSpec cfg;
  cfg.n = 2;
  cfg.explicit_edges = {EdgeKey(0, 1)};
  cfg.edge_params = default_edge_params(/*eps=*/0.25);
  cfg.estimates = ComponentSpec("uniform");
  Scenario s(cfg);
  s.start();
  // The error is keyed by the instant, so sample 1,000 distinct instants;
  // two reads at one instant must agree.
  double lo = 0.0;
  double hi = 0.0;
  for (int i = 1; i <= 1000; ++i) {
    s.run_until(0.01 * i);
    const auto est = s.estimate_of(0, 1);
    ASSERT_TRUE(est.has_value());
    const double err = *est - s.engine().logical(1);
    EXPECT_LE(std::fabs(err), 0.25 + 1e-12);
    EXPECT_EQ(s.estimate_of(0, 1), est) << "two reads at t=" << s.sim().now();
    lo = std::min(lo, err);
    hi = std::max(hi, err);
  }
  EXPECT_GT(hi - lo, 0.4) << "the errors should spread over [-eps, eps]";
  EXPECT_DOUBLE_EQ(s.engine().edge_eps(EdgeKey(0, 1)), 0.25);
}

TEST(OracleEstimates, AdversarialShrinksPerceivedSkewWithoutCrossing) {
  ScenarioSpec cfg;
  cfg.n = 2;
  cfg.explicit_edges = {EdgeKey(0, 1)};
  cfg.edge_params = default_edge_params(/*eps=*/0.25);
  cfg.drift = ComponentSpec("spread");  // node 1 runs faster
  cfg.algo = ComponentSpec("free-running");     // let real skew develop
  cfg.estimates = ComponentSpec("adversarial");
  cfg.aopt.rho = 0.01;
  cfg.aopt.mu = 0.1;
  Scenario s(cfg);
  s.start();
  s.run_until(100.0);  // skew = 2*rho*100 = 2.0 >> eps
  const double true_l1 = s.engine().logical(1);
  const double l0 = s.engine().logical(0);
  ASSERT_GT(true_l1, l0 + 0.5);
  const auto est = s.estimate_of(0, 1);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(*est, true_l1 - 0.25, 1e-12);  // under-reported by eps
  EXPECT_GE(*est, l0);                       // but never crossing
}

// ---------------------------------------------------------------------------
// Beacon provider: guarantee (1) must hold *empirically* with the derived ε.
// ---------------------------------------------------------------------------

struct BeaconCase {
  double beacon_period;
  double delay_min;
  double delay_max;
  double mu;
  std::uint64_t seed;
};

class BeaconAccuracyTest : public ::testing::TestWithParam<BeaconCase> {};

TEST_P(BeaconAccuracyTest, EstimateErrorWithinDerivedEps) {
  const auto param = GetParam();
  ScenarioSpec cfg;
  cfg.n = 4;
  cfg.explicit_edges = topo_line(4);
  cfg.edge_params = default_edge_params(0.1, 0.5, param.delay_max, param.delay_min);
  cfg.estimates = ComponentSpec("beacon");
  cfg.engine.beacon_period = param.beacon_period;
  cfg.engine.tick_period = param.beacon_period;
  cfg.aopt.rho = 1e-3;
  cfg.aopt.mu = param.mu;
  cfg.drift = ComponentSpec("spread");
  cfg.seed = param.seed;
  Scenario s(cfg);
  s.start();

  const double eps = beacon_eps(cfg.edge_params, param.beacon_period, cfg.aopt.rho,
                                cfg.aopt.mu);
  EXPECT_DOUBLE_EQ(s.engine().edge_eps(EdgeKey(0, 1)), eps);

  s.run_until(5.0);  // warm up: every pair has exchanged beacons
  double worst = 0.0;
  for (int step = 0; step < 400; ++step) {
    s.run_for(0.37);  // incommensurate with the beacon period
    for (NodeId u = 0; u < 4; ++u) {
      for (const NeighborView& nv : s.graph().view_neighbors(u)) {
        const NodeId v = nv.id;
        const auto est = s.estimate_of(u, v);
        ASSERT_TRUE(est.has_value()) << "estimate missing after warmup";
        const double err = std::fabs(*est - s.engine().logical(v));
        worst = std::max(worst, err);
        ASSERT_LE(err, eps + 1e-9)
            << "beacon estimate error " << err << " exceeds derived eps " << eps;
      }
    }
  }
  EXPECT_GT(worst, 0.0);  // the probe actually measured something
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BeaconAccuracyTest,
    ::testing::Values(BeaconCase{0.2, 0.1, 0.5, 0.05, 1},
                      BeaconCase{0.5, 0.1, 0.5, 0.05, 2},
                      BeaconCase{0.2, 0.0, 1.0, 0.05, 3},
                      BeaconCase{0.1, 0.05, 0.2, 0.1, 4},
                      BeaconCase{1.0, 0.2, 0.8, 0.05, 5}),
    [](const ::testing::TestParamInfo<BeaconCase>& info) {
      return "case" + std::to_string(info.index);
    });

TEST(BeaconEps, FormulaComponents) {
  EdgeParams e = default_edge_params(0.1, 0.5, 0.5, 0.1);
  const double rho = 1e-3;
  const double mu = 0.05;
  const double eps = beacon_eps(e, 0.2, rho, mu);
  const double receipt = (1.0 + rho) * (1.0 + mu) * 0.5 - (1.0 - rho) * 0.1;
  const double growth = (2.0 * rho + mu * (1.0 + rho)) * (0.2 + 0.4);
  EXPECT_NEAR(eps, receipt + growth, 1e-12);
  // Longer beacon period => larger eps.
  EXPECT_GT(beacon_eps(e, 1.0, rho, mu), eps);
}

TEST(BeaconEstimates, ClearedOnEdgeLoss) {
  ScenarioSpec cfg;
  cfg.n = 2;
  cfg.explicit_edges = {EdgeKey(0, 1)};
  cfg.edge_params = default_edge_params();
  cfg.estimates = ComponentSpec("beacon");
  cfg.detection = DetectionDelayMode::kZero;
  Scenario s(cfg);
  s.start();
  s.run_until(5.0);
  ASSERT_TRUE(s.estimate_of(0, 1).has_value());
  s.graph().destroy_edge(EdgeKey(0, 1));
  s.run_for(1.0);
  EXPECT_FALSE(s.estimate_of(0, 1).has_value());
}

// ---------------------------------------------------------------------------
// Global-skew estimators.
// ---------------------------------------------------------------------------

TEST(GskewEstimators, StaticReturnsConstant) {
  StaticGskewEstimator est(12.5);
  EXPECT_DOUBLE_EQ(est.estimate(0), 12.5);
  EXPECT_DOUBLE_EQ(est.estimate(7), 12.5);
  EXPECT_TRUE(est.is_static());
}

TEST(GskewEstimators, OracleTracksTrueSkewWithSlack) {
  double true_skew = 4.0;
  OracleGskewEstimator est([&] { return true_skew; }, 2.0, 1.0);
  EXPECT_DOUBLE_EQ(est.estimate(0), 9.0);
  true_skew = 1.0;
  EXPECT_DOUBLE_EQ(est.estimate(3), 3.0);
  EXPECT_FALSE(est.is_static());
}

TEST(GskewEstimators, RejectBadArguments) {
  EXPECT_THROW(StaticGskewEstimator(-1.0), std::runtime_error);
  EXPECT_THROW(OracleGskewEstimator([] { return 1.0; }, 0.5, 0.0),
               std::runtime_error);
}

}  // namespace
}  // namespace gcs
