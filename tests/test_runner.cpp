// Tests for the scenario assembly layer (src/runner).
#include <gtest/gtest.h>

#include <cmath>

#include "runner/scenario.h"

namespace gcs {
namespace {

ScenarioSpec line_spec(int n) {
  ScenarioSpec spec;
  spec.n = n;
  spec.topology = ComponentSpec("line");
  spec.edge_params = default_edge_params();
  return spec;
}

TEST(ScenarioSpecTest, RejectsInvalidAlgoParams) {
  auto spec = line_spec(4);
  spec.aopt.rho = 0.05;
  spec.aopt.mu = 0.05;  // mu <= 2rho/(1-rho): invalid
  EXPECT_THROW(Scenario{spec}, std::runtime_error);
}

TEST(ScenarioSpecTest, RejectsBadEdgeParams) {
  auto spec = line_spec(4);
  spec.edge_params.eps = -1.0;
  EXPECT_THROW(Scenario{spec}, std::runtime_error);
}

TEST(ScenarioSpecTest, RejectsReferenceNodeOutOfRange) {
  auto spec = line_spec(4);
  spec.aopt.mu = 0.1;
  spec.reference_node = 9;
  EXPECT_THROW(Scenario{spec}, std::runtime_error);
}

TEST(ScenarioSpecTest, RejectsUnknownComponentKind) {
  auto spec = line_spec(4);
  spec.drift = ComponentSpec("warp");
  EXPECT_THROW(Scenario{spec}, std::runtime_error);
}

TEST(ScenarioSpecTest, RejectsUnknownComponentParam) {
  auto spec = line_spec(4);
  spec.drift = ComponentSpec("spread");
  spec.drift.params.set("speed", "9");
  EXPECT_THROW(Scenario{spec}, std::runtime_error);
}

TEST(ScenarioTest, StartTwiceThrows) {
  Scenario s(line_spec(3));
  s.start();
  EXPECT_THROW(s.start(), std::runtime_error);
}

TEST(ScenarioTest, AoptAccessorRejectsBaselines) {
  auto spec = line_spec(3);
  spec.algo = ComponentSpec("max-jump");
  Scenario s(spec);
  s.start();
  EXPECT_THROW((void)s.aopt(0), std::runtime_error);
}

TEST(ScenarioTest, AllAlgorithmsRunAllEstimateSources) {
  for (const auto& algo : algo_registry().names()) {
    for (const auto& est : estimate_registry().names()) {
      ScenarioSpec spec;
      spec.n = 4;
      spec.topology = ComponentSpec("ring");
      spec.edge_params = default_edge_params();
      spec.algo = ComponentSpec(algo);
      spec.estimates = ComponentSpec(est);
      Scenario s(spec);
      s.start();
      s.run_until(20.0);
      for (NodeId u = 0; u < 4; ++u) {
        EXPECT_GT(s.engine().logical(u), 18.0) << algo << "/" << est;
      }
    }
  }
}

TEST(ScenarioTest, AllDriftModelsRespectEnvelope) {
  for (const auto& drift : drift_registry().names()) {
    auto spec = line_spec(4);
    spec.drift = ComponentSpec(drift);
    spec.aopt.rho = 2e-3;
    Scenario s(spec);
    s.start();
    s.run_until(100.0);
    for (NodeId u = 0; u < 4; ++u) {
      const double h = s.engine().hardware(u);
      EXPECT_GE(h, 100.0 * (1.0 - spec.aopt.rho) - 1e-6) << drift;
      EXPECT_LE(h, 100.0 * (1.0 + spec.aopt.rho) + 1e-6) << drift;
    }
  }
}

TEST(ScenarioTest, TopologyComponentSizesTheNetwork) {
  ScenarioSpec spec;
  spec.topology = ComponentSpec("grid", ParamMap{{"rows", "3"}, {"cols", "5"}});
  spec.edge_params = default_edge_params();
  Scenario s(spec);
  EXPECT_EQ(s.spec().n, 15);
  EXPECT_EQ(s.initial_edges().size(), topo_grid(3, 5).size());
}

TEST(ScenarioTest, GtildeAutoDerivesFromBuiltTopology) {
  auto spec = line_spec(16);
  spec.gtilde_auto = true;
  Scenario s(spec);
  const double expect =
      suggest_gtilde(16, topo_line(16), spec.edge_params, spec.aopt);
  EXPECT_DOUBLE_EQ(s.spec().aopt.gtilde_static, expect);
}

TEST(ScenarioTest, AdversaryComponentIsArmedOnStart) {
  auto spec = line_spec(8);
  spec.topology = ComponentSpec("ring");  // line edges are all bridges
  spec.adversary = ComponentSpec("churn", ParamMap{{"rate", "2"}, {"start", "1"}});
  Scenario s(spec);
  ASSERT_NE(s.adversary(), nullptr);
  s.start();
  s.run_until(100.0);
  EXPECT_GT(s.adversary()->operations(), 0);
}

TEST(DefaultEdgeParamsTest, ValidatesAndPopulates) {
  const auto p = default_edge_params(0.2, 0.3, 0.9, 0.4);
  EXPECT_DOUBLE_EQ(p.eps, 0.2);
  EXPECT_DOUBLE_EQ(p.tau, 0.3);
  EXPECT_DOUBLE_EQ(p.msg_delay_max, 0.9);
  EXPECT_DOUBLE_EQ(p.msg_delay_min, 0.4);
  EXPECT_DOUBLE_EQ(p.delay_uncertainty(), 0.5);
  EXPECT_THROW(default_edge_params(0.1, 0.5, 0.2, 0.4), std::runtime_error);
}

TEST(SuggestGtilde, ScalesWithTopologyExtent) {
  const auto params = default_edge_params();
  AlgoParams aopt;
  const double line8 = suggest_gtilde(8, topo_line(8), params, aopt);
  const double line32 = suggest_gtilde(32, topo_line(32), params, aopt);
  const double star32 = suggest_gtilde(32, topo_star(32), params, aopt);
  EXPECT_GT(line32, 3.0 * line8);  // linear in diameter
  EXPECT_LT(star32, line32 / 3.0);  // star has diameter 2
  EXPECT_THROW(suggest_gtilde(4, {EdgeKey(0, 1)}, params, aopt),
               std::runtime_error);  // disconnected
}

TEST(ScenarioTest, SeedsChangeExecutionsDeterministically) {
  auto run_once = [](std::uint64_t seed) {
    ScenarioSpec spec;
    spec.n = 6;
    spec.topology = ComponentSpec("ring");
    spec.edge_params = default_edge_params();
    spec.drift = ComponentSpec("walk");
    spec.estimates = ComponentSpec("uniform");
    spec.aopt.rho = 2e-3;
    spec.seed = seed;
    Scenario s(spec);
    s.start();
    s.run_until(150.0);
    double sum = 0.0;
    for (NodeId u = 0; u < 6; ++u) sum += s.engine().logical(u);
    return sum;
  };
  const double a1 = run_once(1);
  const double a2 = run_once(1);
  const double b = run_once(2);
  EXPECT_DOUBLE_EQ(a1, a2);  // bit-reproducible for equal seeds
  EXPECT_NE(a1, b);          // seed actually matters
}

TEST(ScenarioTest, InitialTopologyMayBeEmptyOfEdges) {
  ScenarioSpec spec;
  spec.n = 3;
  spec.edge_params = default_edge_params();
  Scenario s(spec);  // default "explicit" topology, no edges at all
  s.start();
  s.run_until(30.0);
  // Free-drifting singletons; edges can still be added later.
  s.graph().create_edge(EdgeKey(0, 1), spec.edge_params);
  s.run_until(60.0);
  EXPECT_TRUE(s.graph().both_views_present(EdgeKey(0, 1)));
}

}  // namespace
}  // namespace gcs
