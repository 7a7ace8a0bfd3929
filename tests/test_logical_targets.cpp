// The exact logical-time target mechanism (Engine/NodeApi): the insertion
// protocol's correctness rests on callbacks firing exactly when L_u crosses
// the agreed logical values, including across rate and drift changes.
#include <gtest/gtest.h>

#include <cmath>

#include "core/aopt_node.h"
#include "runner/scenario.h"

namespace gcs {
namespace {

// A probe algorithm exposing schedule_at_logical directly.
class ProbeAlgo final : public Algorithm {
 public:
  [[nodiscard]] const char* name() const override { return "probe"; }
  void reevaluate() override {}
  NodeApi* api() { return api_; }
};

ScenarioSpec probe_config(const ComponentSpec& drift) {
  ScenarioSpec cfg;
  cfg.n = 2;
  cfg.explicit_edges = {EdgeKey(0, 1)};
  cfg.edge_params = default_edge_params();
  cfg.aopt.rho = 2e-3;
  cfg.aopt.mu = 0.1;
  cfg.drift = drift;
  return cfg;
}

struct ProbeWorld {
  Simulator sim;
  DynamicGraph graph{sim, 2};
  Transport transport{sim, graph};
  std::unique_ptr<DriftModel> drift;
  OracleEstimateSource estimates{graph, OracleErrorPolicy::kZero};
  StaticGskewEstimator gskew{5.0};
  std::unique_ptr<Engine> engine;
  ProbeAlgo* probe0 = nullptr;

  explicit ProbeWorld(std::unique_ptr<DriftModel> d) : drift(std::move(d)) {
    AlgoParams params;
    params.rho = 2e-3;
    params.mu = 0.1;
    EngineConfig config;
    engine = std::make_unique<Engine>(
        sim, graph, transport, *drift, estimates, gskew, params, config,
        [this](NodeId u) -> std::unique_ptr<Algorithm> {
          auto algo = std::make_unique<ProbeAlgo>();
          if (u == 0) probe0 = algo.get();
          return algo;
        });
    graph.create_edge_instant(EdgeKey(0, 1), default_edge_params());
    engine->start();
  }
};

TEST(LogicalTargets, FireExactlyAtTargetValue) {
  ProbeWorld w(
      std::make_unique<ConstantDrift>(2e-3, std::vector<double>{1.0 + 1.5e-3, 1.0 + 1.5e-3}));
  std::vector<double> observed;
  for (double target : {10.0, 25.0, 17.5}) {  // registered out of order
    w.probe0->api()->schedule_at_logical(
        target, [&, target] { observed.push_back(w.engine->logical(0)); });
  }
  w.sim.run_until(40.0);
  ASSERT_EQ(observed.size(), 3u);
  // Fired in target order regardless of registration order, at the value.
  EXPECT_NEAR(observed[0], 10.0, 1e-9);
  EXPECT_NEAR(observed[1], 17.5, 1e-9);
  EXPECT_NEAR(observed[2], 25.0, 1e-9);
}

TEST(LogicalTargets, SurviveRateMultiplierChanges) {
  ProbeWorld w(std::make_unique<ConstantDrift>(2e-3, std::vector<double>{1.0, 1.0}));
  double fired_at_logical = -1.0;
  w.probe0->api()->schedule_at_logical(
      30.0, [&] { fired_at_logical = w.engine->logical(0); });
  // Flip the node's speed several times before the target is reached.
  w.sim.run_until(5.0);
  w.probe0->api()->set_rate_multiplier(1.1);
  w.sim.run_until(12.0);
  w.probe0->api()->set_rate_multiplier(1.0);
  w.sim.run_until(20.0);
  w.probe0->api()->set_rate_multiplier(1.1);
  w.sim.run_until(40.0);
  EXPECT_NEAR(fired_at_logical, 30.0, 1e-9);
}

TEST(LogicalTargets, SurviveDriftChanges) {
  // Alternating drift changes the hardware rate every 3 time units; the
  // logical-target event must be re-aimed each time and still hit exactly.
  ProbeWorld w(drift_registry().get("blocks").factory({{"period", "3"}, {"blocks", "2"}},
                                                      DriftArgs{2, 2e-3, 1}));
  double fired_at_logical = -1.0;
  w.probe0->api()->schedule_at_logical(
      20.0, [&] { fired_at_logical = w.engine->logical(0); });
  w.sim.run_until(40.0);
  EXPECT_NEAR(fired_at_logical, 20.0, 1e-7);
}

TEST(LogicalTargets, PastTargetFiresImmediately) {
  ProbeWorld w(std::make_unique<ConstantDrift>(2e-3, std::vector<double>{1.0, 1.0}));
  w.sim.run_until(10.0);
  bool fired = false;
  w.probe0->api()->schedule_at_logical(5.0, [&] { fired = true; });  // already passed
  w.sim.run_until(10.0 + 1e-6);
  EXPECT_TRUE(fired);
}

TEST(LogicalTargets, CallbackMayScheduleFurtherTargets) {
  ProbeWorld w(std::make_unique<ConstantDrift>(2e-3, std::vector<double>{1.0, 1.0}));
  std::vector<double> hits;
  std::function<void(double)> chain = [&](double target) {
    w.probe0->api()->schedule_at_logical(target, [&, target] {
      hits.push_back(w.engine->logical(0));
      if (target < 30.0) chain(target + 10.0);
    });
  };
  chain(10.0);
  w.sim.run_until(50.0);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_NEAR(hits[0], 10.0, 1e-9);
  EXPECT_NEAR(hits[1], 20.0, 1e-9);
  EXPECT_NEAR(hits[2], 30.0, 1e-9);
}

TEST(LogicalTargets, AoptInsertionTimesHitTheGridUnderDrift) {
  // End-to-end: with oscillating drift, both endpoints of a new edge enter
  // level 1 exactly when their own logical clock reads T0 (Listing 1 line 19).
  ScenarioSpec cfg = probe_config(ComponentSpec("blocks"));
  cfg.n = 3;
  cfg.explicit_edges = topo_line(3);
  cfg.drift.params.set("period", 7.0);
  cfg.aopt.gtilde_static = 1.5;
  Scenario s(cfg);
  s.start();
  s.run_until(20.0);
  s.graph().create_edge(EdgeKey(0, 2), cfg.edge_params);
  s.run_until(35.0);
  const auto info = s.aopt(0).peer_info(2);
  ASSERT_TRUE(info.has_value());
  ASSERT_LT(info->t0, kTimeInf);
  // March to just before/after T0 in logical terms and check the flip.
  while (s.engine().logical(0) < info->t0 - 0.05) s.run_for(0.01);
  EXPECT_FALSE(s.aopt(0).edge_in_level(2, 1));
  while (s.engine().logical(0) < info->t0 + 0.05) s.run_for(0.01);
  EXPECT_TRUE(s.aopt(0).edge_in_level(2, 1));
}

}  // namespace
}  // namespace gcs
