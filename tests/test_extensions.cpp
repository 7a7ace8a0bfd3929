// Tests for the extension substrates: new topologies, sinusoidal drift, and
// the execution tracer.
#include <gtest/gtest.h>

#include <cmath>

#include "clock/drift.h"
#include "graph/topology.h"
#include "metrics/skew.h"
#include "metrics/trace.h"
#include "runner/scenario.h"

namespace gcs {
namespace {

TEST(Hypercube, StructureIsCorrect) {
  const auto edges = topo_hypercube(3);
  EXPECT_EQ(edges.size(), 12u);  // 8 nodes * 3 / 2
  EXPECT_EQ(hop_diameter(8, edges), 3);
  const auto big = topo_hypercube(5);
  EXPECT_EQ(big.size(), 32u * 5u / 2u);
  EXPECT_EQ(hop_diameter(32, big), 5);
}

TEST(Barbell, StructureIsCorrect) {
  const int k = 4;
  const int path = 3;
  const auto edges = topo_barbell(k, path);
  const int n = 2 * k + path;
  // Two cliques (2 * C(4,2) = 12) + path edges (path + 1 = 4).
  EXPECT_EQ(edges.size(), 16u);
  // Diameter: across cliques through the path = path + 3.
  EXPECT_EQ(hop_diameter(n, edges), path + 3);
}

TEST(Barbell, ZeroPathJoinsCliquesDirectly) {
  const auto edges = topo_barbell(3, 0);
  EXPECT_EQ(hop_diameter(6, edges), 3);
}

TEST(SinusoidalDriftTest, BoundedAndPeriodic) {
  auto d = drift_registry().get("sine").factory({{"period", "100"}, {"steps", "20"}},
                                                DriftArgs{4, 0.01, 1});
  for (NodeId u = 0; u < 4; ++u) {
    for (double t = 0.0; t < 300.0; t += 3.7) {
      const double r = d->rate_at(u, t);
      EXPECT_GE(r, 0.99 - 1e-12);
      EXPECT_LE(r, 1.01 + 1e-12);
    }
  }
  // Periodicity: rate at t and t+period match.
  EXPECT_NEAR(d->rate_at(0, 12.0), d->rate_at(0, 112.0), 1e-12);
  // Phases differ between nodes (t=12 happens to alias for nodes 0/1, so
  // compare early in the cycle).
  EXPECT_NE(d->rate_at(0, 2.0), d->rate_at(1, 2.0));
  // Change points at segment boundaries.
  EXPECT_DOUBLE_EQ(d->next_change_after(0, 0.1), 5.0);
  EXPECT_DOUBLE_EQ(d->next_change_after(0, 5.0), 10.0);
}

TEST(SinusoidalDriftTest, RunsInsideScenario) {
  ScenarioSpec cfg;
  cfg.n = 6;
  cfg.explicit_edges = topo_ring(6);
  cfg.edge_params = default_edge_params();
  cfg.aopt.rho = 1e-3;
  cfg.aopt.mu = 0.05;
  cfg.aopt.gtilde_static =
      suggest_gtilde(6, cfg.explicit_edges, cfg.edge_params, cfg.aopt);
  cfg.drift = ComponentSpec("sine");
  cfg.drift.params.set("period", 120.0);
  Scenario s(cfg);
  s.start();
  s.run_until(400.0);
  EXPECT_LT(s.engine().true_global_skew(), cfg.aopt.gtilde_static);
  // Hardware clocks stayed within the drift envelope.
  for (NodeId u = 0; u < 6; ++u) {
    EXPECT_NEAR(s.engine().hardware(u), 400.0, 0.5);
  }
}

TEST(ExecutionTraceTest, RecordsModeChangesAndSnapshots) {
  ScenarioSpec cfg;
  cfg.n = 6;
  cfg.explicit_edges = topo_line(6);
  cfg.edge_params = default_edge_params();
  cfg.aopt.rho = 1e-3;
  cfg.aopt.mu = 0.05;
  cfg.aopt.gtilde_static =
      suggest_gtilde(6, cfg.explicit_edges, cfg.edge_params, cfg.aopt);
  cfg.drift = ComponentSpec("spread");
  Scenario s(cfg);
  ExecutionTrace trace(s.engine(), /*snapshot_period=*/10.0);
  s.start();
  s.run_until(200.0);

  // Snapshots: every 10 units, one event per node.
  EXPECT_EQ(trace.count(ExecutionTrace::EventKind::kSnapshot), 6u * 20u);
  // Drifting line: modes must have switched at least once somewhere.
  EXPECT_GT(trace.count(ExecutionTrace::EventKind::kModeChange), 0u);
  const auto switches = trace.mode_switches_per_node();
  long long total = 0;
  for (int c : switches) total += c;
  EXPECT_EQ(static_cast<std::size_t>(total),
            trace.count(ExecutionTrace::EventKind::kModeChange));

  // CSV round-trip sanity.
  const std::string csv = trace.csv();
  EXPECT_NE(csv.find("t,kind,node,a,b"), std::string::npos);
  EXPECT_NE(csv.find("snap"), std::string::npos);
}

TEST(ExecutionTraceTest, RecordsJumpsForMaxJumpAlgorithm) {
  ScenarioSpec cfg;
  cfg.n = 8;
  cfg.explicit_edges = topo_line(8);
  cfg.edge_params = default_edge_params(0.1, 0.5, 2.0, 0.0);
  cfg.algo = ComponentSpec("max-jump");
  cfg.aopt.rho = 5e-3;
  cfg.aopt.mu = 0.1;
  cfg.aopt.gtilde_static = 50.0;
  cfg.drift = ComponentSpec("spread");
  cfg.delays = DelayMode::kMax;
  cfg.engine.beacon_period = 1.0;
  Scenario s(cfg);
  ExecutionTrace trace(s.engine(), 0.0);  // no snapshots, events only
  s.start();
  s.run_until(3000.0);
  EXPECT_GT(trace.count(ExecutionTrace::EventKind::kLogicalJump), 0u);
  EXPECT_GT(trace.count(ExecutionTrace::EventKind::kMaxRaised), 0u);
  EXPECT_EQ(trace.count(ExecutionTrace::EventKind::kSnapshot), 0u);
  // Jump events carry (from, to) with to >= from.
  for (const auto& e : trace.events()) {
    if (e.kind == ExecutionTrace::EventKind::kLogicalJump) {
      EXPECT_GE(e.b, e.a);
    }
  }
}

TEST(ExecutionTraceTest, DetachesOnDestruction) {
  ScenarioSpec cfg;
  cfg.n = 3;
  cfg.explicit_edges = topo_line(3);
  cfg.edge_params = default_edge_params();
  cfg.aopt.rho = 1e-3;
  cfg.aopt.mu = 0.05;
  Scenario s(cfg);
  {
    ExecutionTrace trace(s.engine(), 5.0);
    s.start();
    s.run_until(20.0);
  }
  // Observer detached; the run continues without dangling callbacks.
  s.run_until(100.0);
  EXPECT_GT(s.engine().logical(0), 90.0);
}

TEST(GradientOnHypercube, BoundHoldsAfterStabilization) {
  ScenarioSpec cfg;
  cfg.n = 16;
  cfg.explicit_edges = topo_hypercube(4);
  cfg.edge_params = default_edge_params();
  cfg.aopt.rho = 1e-3;
  cfg.aopt.mu = 0.05;
  cfg.aopt.gtilde_static =
      suggest_gtilde(16, cfg.explicit_edges, cfg.edge_params, cfg.aopt);
  cfg.drift = ComponentSpec("spread");
  Scenario s(cfg);
  s.start();
  s.run_until(2.0 * cfg.aopt.gtilde_static / cfg.aopt.mu);
  for (const auto& point : measure_gradient(s.engine(), 1.0)) {
    EXPECT_LE(point.skew, gradient_bound(point.kappa_dist, cfg.aopt.gtilde_static,
                                         cfg.aopt.sigma()));
  }
}

TEST(GradientOnBarbell, ThinBridgeCarriesTheSkewGradient) {
  // Barbell: the cliques are internally tight; the paper's gradient bound
  // must hold across the thin middle as well.
  const int k = 5;
  const int path = 6;
  const int n = 2 * k + path;
  ScenarioSpec cfg;
  cfg.n = n;
  cfg.explicit_edges = topo_barbell(k, path);
  cfg.edge_params = default_edge_params();
  cfg.aopt.rho = 1e-3;
  cfg.aopt.mu = 0.05;
  cfg.aopt.gtilde_static =
      suggest_gtilde(n, cfg.explicit_edges, cfg.edge_params, cfg.aopt);
  cfg.drift = ComponentSpec("blocks");  // one clique fast, one slow
  cfg.drift.params.set("blocks", 2);
  cfg.drift.params.set("period", 1e9);
  Scenario s(cfg);
  s.start();
  s.run_until(2.0 * cfg.aopt.gtilde_static / cfg.aopt.mu);
  double clique_skew = 0.0;
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      clique_skew = std::max(clique_skew, std::fabs(s.engine().logical(i) -
                                                    s.engine().logical(j)));
    }
  }
  for (const auto& point : measure_gradient(s.engine(), 1.0)) {
    EXPECT_LE(point.skew, gradient_bound(point.kappa_dist, cfg.aopt.gtilde_static,
                                         cfg.aopt.sigma()));
  }
  // Within a clique everything is 1 hop: skew stays at the single-edge scale.
  const double kappa = metric_kappa(s.engine(), EdgeKey(0, 1));
  EXPECT_LE(clique_skew,
            gradient_bound(kappa, cfg.aopt.gtilde_static, cfg.aopt.sigma()));
}

}  // namespace
}  // namespace gcs
