#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "metrics/fingerprint.h"
#include "metrics/recorder.h"
#include "metrics/skew.h"
#include "runner/scenario.h"

namespace gcs {
namespace {

ScenarioSpec comparison_config(int n, const std::string& algo) {
  ScenarioSpec cfg;
  cfg.n = n;
  cfg.explicit_edges = topo_line(n);
  cfg.edge_params = default_edge_params();
  cfg.algo = ComponentSpec(algo);
  cfg.aopt.rho = 1e-3;
  cfg.aopt.mu = 0.05;
  cfg.aopt.gtilde_static =
      suggest_gtilde(n, cfg.explicit_edges, cfg.edge_params, cfg.aopt);
  cfg.drift = ComponentSpec("spread");
  cfg.estimates = ComponentSpec("uniform");
  return cfg;
}

TEST(Baselines, MaxJumpBoundsGlobalSkew) {
  Scenario s(comparison_config(10, "max-jump"));
  s.start();
  double worst = 0.0;
  for (int step = 1; step <= 100; ++step) {
    s.run_until(step * 10.0);
    worst = std::max(worst, s.engine().true_global_skew());
  }
  // Max flooding keeps global skew bounded by the info-staleness diameter:
  // far below free-running divergence (2*rho*1000 = 2.0 between ends).
  EXPECT_LT(worst, 1.5);
}

TEST(Baselines, BoundedRateMaxBoundsGlobalSkew) {
  Scenario s(comparison_config(10, "bounded-rate-max"));
  s.start();
  double worst = 0.0;
  for (int step = 1; step <= 100; ++step) {
    s.run_until(step * 10.0);
    worst = std::max(worst, s.engine().true_global_skew());
  }
  EXPECT_LT(worst, 1.5);
}

TEST(Baselines, BoundedRateMaxRespectsRateEnvelope) {
  auto cfg = comparison_config(8, "bounded-rate-max");
  Scenario s(cfg);
  s.start();
  std::vector<double> prev(8);
  Time prev_t = 0.0;
  for (int step = 1; step <= 40; ++step) {
    s.run_until(step * 5.0);
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

TEST(Baselines, MaxJumpViolatesRateEnvelopeByJumping) {
  Scenario s(comparison_config(10, "max-jump"));
  s.start();
  s.run_until(500.0);
  double total_jump = 0.0;
  for (NodeId u = 0; u < 10; ++u) {
    auto* node = dynamic_cast<MaxJumpNode*>(&s.engine().algorithm(u));
    ASSERT_NE(node, nullptr);
    total_jump = std::max(total_jump, node->max_jump());
  }
  EXPECT_GT(total_jump, 0.0) << "max-jump never jumped; scenario too tame";
}

// ---------------------------------------------------------------------------
// The headline comparison: when a long-range edge appears between nodes
// carrying (legal) end-to-end skew, max-jump slams its endpoint onto the new
// maximum — the *old* edge to its line neighbor instantaneously carries that
// whole skew. AOPT redistributes smoothly and old edges stay within the
// gradient bound. (This is the §1/§2 motivation for gradient CSAs.)
// ---------------------------------------------------------------------------

constexpr int kShortcutN = 12;
constexpr Time kShortcutAt = 300.0;  // steady state on the line
constexpr Time kShortcutHorizon = 500.0;

ScenarioSpec shortcut_config(const std::string& algo) {
  auto cfg = comparison_config(kShortcutN, algo);
  // §8-style adversarial communication: every message takes the maximum
  // delay and no transit compensation is possible (delay_min = 0), so the
  // max-estimate wavefront hides Θ(D) skew along the line.
  cfg.aopt.rho = 5e-3;
  cfg.aopt.mu = 0.1;
  cfg.aopt.gtilde_static = 60.0;  // must dominate the large hidden skew
  cfg.edge_params = default_edge_params(0.1, 0.5, /*delay_max=*/2.0,
                                        /*delay_min=*/0.0);
  cfg.delays = DelayMode::kMax;
  cfg.engine.beacon_period = 1.0;
  cfg.engine.tick_period = 0.5;
  return cfg;
}

/// Runs the shortcut scenario to `end` in 0.5 model-s steps, calling
/// `sample` after each step.
template <typename Sample>
void run_shortcut_steps(Scenario& s, Time end, const Sample& sample) {
  while (s.sim().now() < end) {
    s.run_for(0.5);
    sample();
  }
}

double worst_old_edge_skew_after_shortcut(const std::string& algo) {
  Scenario s(shortcut_config(algo));
  s.start();
  s.run_until(kShortcutAt);
  s.graph().create_edge(EdgeKey(0, kShortcutN - 1), s.spec().edge_params);
  double worst_old_edge = 0.0;
  run_shortcut_steps(s, kShortcutHorizon, [&] {
    for (const auto& e : topo_line(kShortcutN)) {  // old edges only
      const double skew = std::fabs(s.engine().logical(e.a) - s.engine().logical(e.b));
      worst_old_edge = std::max(worst_old_edge, skew);
    }
  });
  return worst_old_edge;
}

TEST(Baselines, ShortcutInsertionHurtsMaxJumpNotAopt) {
  const double aopt = worst_old_edge_skew_after_shortcut("aopt");
  const double maxjump = worst_old_edge_skew_after_shortcut("max-jump");
  // Max-jump concentrates the revealed skew on one old edge; AOPT keeps the
  // gradient property on edges that have been present for a long time.
  EXPECT_GT(maxjump, 2.0 * aopt)
      << "max-jump worst old-edge skew " << maxjump << " vs AOPT " << aopt;
}

// The shortcut scenario is the oracle run whose fast trigger fires, so it is
// where a read that moved the uniform error draws would show.
TEST(EstimateReads, DoNotPerturbTheRun) {
  struct Run {
    std::uint64_t hash = 0;
    std::uint64_t events = 0;
    long long fast = 0;
  };
  const auto run = [](bool read_estimates) {
    Scenario s(shortcut_config("aopt"));
    TrajectoryFingerprinter fp;
    fp.attach(s);
    s.start();
    const auto advance = [&s, read_estimates](Time end) {
      if (!read_estimates) return s.run_until(end);
      run_shortcut_steps(s, end, [&s] {
        for (NodeId u = 0; u < kShortcutN; ++u) {
          for (const NeighborView& nv : s.graph().view_neighbors(u)) {
            (void)s.estimate_of(u, nv.id);
          }
        }
      });
    };
    advance(kShortcutAt);
    s.graph().create_edge(EdgeKey(0, kShortcutN - 1), s.spec().edge_params);
    advance(kShortcutHorizon);
    Run r{fp.value(), fp.events(), 0};
    for (NodeId u = 0; u < kShortcutN; ++u) {
      for (const auto& at : s.aopt(u).decisions_by_level()) r.fast += at.fast;
    }
    return r;
  };
  const Run plain = run(false);
  const Run read = run(true);
  EXPECT_GT(plain.fast, 0) << "the scenario no longer fires the fast trigger";
  EXPECT_EQ(read.hash, plain.hash) << "reading estimate_of moved the trajectory";
  EXPECT_EQ(read.events, plain.events);
  EXPECT_EQ(read.fast, plain.fast);
}

TEST(Baselines, SteadyLocalSkewAoptBeatsMaxJump) {
  // Even without topology changes, max-jump's local skew is set by the M
  // wavefront staleness per hop; AOPT's by drift alone (much smaller).
  auto run = [](const std::string& algo) {
    auto cfg = comparison_config(12, algo);
    Scenario s(cfg);
    s.start();
    s.run_until(200.0);
    double worst = 0.0;
    for (int step = 0; step < 200; ++step) {
      s.run_for(1.0);
      worst = std::max(worst, measure_skew(s.engine()).worst_local);
    }
    return worst;
  };
  const double aopt = run("aopt");
  const double maxjump = run("max-jump");
  EXPECT_LT(aopt, maxjump)
      << "AOPT local skew " << aopt << " should beat max-jump " << maxjump;
}

TEST(Baselines, FreeRunningHasNoBoundedGlobalSkew) {
  Scenario s(comparison_config(10, "free-running"));
  s.start();
  s.run_until(500.0);
  const double g500 = s.engine().true_global_skew();
  s.run_until(1500.0);
  const double g1500 = s.engine().true_global_skew();
  EXPECT_GT(g1500, 2.5 * g500);  // grows linearly with time
}

}  // namespace
}  // namespace gcs
