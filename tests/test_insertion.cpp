#include <gtest/gtest.h>

#include <cmath>

#include "runner/scenario.h"

namespace gcs {
namespace {

// Fast-converging parameters for insertion tests: mu at the eq. (7) maximum
// and a small static G̃ keep I(G̃) in the hundreds of time units.
ScenarioSpec insertion_config(int n, InsertionPolicy policy) {
  ScenarioSpec cfg;
  cfg.n = n;
  cfg.explicit_edges = topo_line(n);
  cfg.edge_params = default_edge_params();
  cfg.aopt.rho = 1e-3;
  cfg.aopt.mu = 0.1;
  cfg.aopt.gtilde_static = 1.5;
  cfg.aopt.insertion = policy;
  cfg.drift = ComponentSpec("spread");
  cfg.estimates = ComponentSpec("uniform");
  cfg.engine.tick_period = 0.25;
  cfg.engine.beacon_period = 0.25;
  return cfg;
}

TEST(Insertion, InitialEdgesFullyInsertedAtTimeZero) {
  Scenario s(insertion_config(4, InsertionPolicy::kStagedStatic));
  s.start();
  for (const EdgeKey& e : topo_line(4)) {
    for (int level : {1, 2, 5, 20}) {
      EXPECT_TRUE(s.aopt(e.a).edge_in_level(e.b, level));
      EXPECT_TRUE(s.aopt(e.b).edge_in_level(e.a, level));
    }
    const auto info = s.aopt(e.a).peer_info(e.b);
    ASSERT_TRUE(info.has_value());
    EXPECT_TRUE(info->present);
    EXPECT_DOUBLE_EQ(info->t0, 0.0);
  }
}

TEST(Insertion, HandshakeAgreesOnIdenticalTimes) {
  // Lemma 5.5 (I): once both endpoints computed insertion times, the values
  // T0, I, G̃ are identical.
  Scenario s(insertion_config(3, InsertionPolicy::kStagedStatic));
  s.start();
  s.run_until(50.0);
  s.graph().create_edge(EdgeKey(0, 2), s.spec().edge_params);
  // Handshake completes within a few time units (Delta ~ 1.6, T <= 0.5).
  s.run_until(60.0);
  const auto a = s.aopt(0).peer_info(2);
  const auto b = s.aopt(2).peer_info(0);
  ASSERT_TRUE(a.has_value() && b.has_value());
  ASSERT_TRUE(a->present && b->present);
  ASSERT_LT(a->t0, kTimeInf) << "leader never computed insertion times";
  ASSERT_LT(b->t0, kTimeInf) << "follower never computed insertion times";
  EXPECT_DOUBLE_EQ(a->t0, b->t0);
  EXPECT_DOUBLE_EQ(a->insertion_duration, b->insertion_duration);
  EXPECT_DOUBLE_EQ(a->gtilde, b->gtilde);
  // Listing 2: T0 is a multiple of I and at or after L_ins > current L.
  const double ratio = a->t0 / a->insertion_duration;
  EXPECT_NEAR(ratio, std::round(ratio), 1e-9);
  EXPECT_GT(a->t0, s.engine().logical(0));
}

TEST(Insertion, InsertionTimeSequenceMatchesListing2) {
  Scenario s(insertion_config(3, InsertionPolicy::kStagedStatic));
  s.start();
  s.run_until(50.0);
  s.graph().create_edge(EdgeKey(0, 2), s.spec().edge_params);
  s.run_until(60.0);
  const auto info = s.aopt(0).peer_info(2);
  ASSERT_TRUE(info.has_value() && info->t0 < kTimeInf);
  // T_1 = T0; T_s = T0 + (1 - 2^{1-s}) I; converges to T0 + I.
  EXPECT_DOUBLE_EQ(info->insertion_time(1), info->t0);
  EXPECT_DOUBLE_EQ(info->insertion_time(2), info->t0 + info->insertion_duration / 2.0);
  EXPECT_DOUBLE_EQ(info->insertion_time(3),
                   info->t0 + 0.75 * info->insertion_duration);
  EXPECT_LT(info->insertion_time(30), info->fully_inserted_at());
  EXPECT_NEAR(info->insertion_time(50), info->fully_inserted_at(), 1e-9);
}

TEST(Insertion, LevelMembershipFollowsLogicalClock) {
  Scenario s(insertion_config(3, InsertionPolicy::kStagedStatic));
  s.start();
  s.run_until(50.0);
  s.graph().create_edge(EdgeKey(0, 2), s.spec().edge_params);
  s.run_until(60.0);
  const auto info = s.aopt(0).peer_info(2);
  ASSERT_TRUE(info.has_value() && info->t0 < kTimeInf);

  // March through the insertion interval and check membership consistency.
  const double end = info->fully_inserted_at() + 10.0;
  while (s.engine().logical(0) < end) {
    s.run_for(7.3);
    const double l = s.engine().logical(0);
    for (int level = 1; level <= 8; ++level) {
      const double ts = info->insertion_time(level);
      const bool member = s.aopt(0).edge_in_level(2, level);
      const double fuzz = 1e-6;
      if (l >= ts + fuzz) {
        EXPECT_TRUE(member) << "level " << level << " L=" << l;
      }
      if (l <= ts - fuzz) {
        EXPECT_FALSE(member) << "level " << level << " L=" << l;
      }
      // Lemma 5.1 nesting: membership at level s implies membership at s-1.
      if (level > 1 && member) {
        EXPECT_TRUE(s.aopt(0).edge_in_level(2, level - 1));
      }
    }
  }
  // Fully inserted now.
  EXPECT_TRUE(s.aopt(0).edge_in_level(2, 1000));
  EXPECT_TRUE(s.aopt(2).edge_in_level(0, 1000));
}

TEST(Insertion, EdgeLossDuringHandshakeCancelsInsertion) {
  Scenario s(insertion_config(3, InsertionPolicy::kStagedStatic));
  s.start();
  s.run_until(50.0);
  s.graph().create_edge(EdgeKey(0, 2), s.spec().edge_params);
  s.run_until(50.6);  // before the leader's Delta (~1.6) elapses
  s.graph().destroy_edge(EdgeKey(0, 2));
  s.run_until(70.0);
  const auto a = s.aopt(0).peer_info(2);
  const auto b = s.aopt(2).peer_info(0);
  // Both sides must end with T_s = ⊥ (Lemma 5.5 II/III).
  if (a.has_value()) {
    EXPECT_EQ(a->t0, kTimeInf);
  }
  if (b.has_value()) {
    EXPECT_EQ(b->t0, kTimeInf);
  }
  EXPECT_FALSE(s.aopt(0).edge_in_level(2, 1));
  EXPECT_FALSE(s.aopt(2).edge_in_level(0, 1));
}

TEST(Insertion, RediscoveredEdgeRestartsHandshake) {
  Scenario s(insertion_config(3, InsertionPolicy::kStagedStatic));
  s.start();
  s.run_until(50.0);
  s.graph().create_edge(EdgeKey(0, 2), s.spec().edge_params);
  s.run_until(50.6);
  s.graph().destroy_edge(EdgeKey(0, 2));
  s.run_until(80.0);
  s.graph().create_edge(EdgeKey(0, 2), s.spec().edge_params);
  s.run_until(95.0);
  const auto a = s.aopt(0).peer_info(2);
  const auto b = s.aopt(2).peer_info(0);
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_LT(a->t0, kTimeInf);
  EXPECT_DOUBLE_EQ(a->t0, b->t0);
}

TEST(Insertion, EdgeLossClearsAllLevels) {
  Scenario s(insertion_config(4, InsertionPolicy::kStagedStatic));
  s.start();
  s.run_until(30.0);
  EXPECT_TRUE(s.aopt(1).edge_in_level(2, 3));
  s.graph().destroy_edge(EdgeKey(1, 2));
  s.run_until(32.0);  // detection within tau = 0.5
  EXPECT_FALSE(s.aopt(1).edge_in_level(2, 0));
  EXPECT_FALSE(s.aopt(1).edge_in_level(2, 3));
  const auto info = s.aopt(1).peer_info(2);
  ASSERT_TRUE(info.has_value());
  EXPECT_FALSE(info->present);
  EXPECT_EQ(info->t0, kTimeInf);
}

TEST(Insertion, ImmediatePolicyJoinsAllLevelsAtDiscovery) {
  Scenario s(insertion_config(3, InsertionPolicy::kImmediate));
  s.start();
  s.run_until(50.0);
  s.graph().create_edge(EdgeKey(0, 2), s.spec().edge_params);
  s.run_until(51.0);  // detection delay <= tau = 0.5
  EXPECT_TRUE(s.aopt(0).edge_in_level(2, 1));
  EXPECT_TRUE(s.aopt(0).edge_in_level(2, 500));
  EXPECT_TRUE(s.aopt(2).edge_in_level(0, 500));
}

TEST(Insertion, WeightDecayStartsHighAndDecaysToKappa) {
  Scenario s(insertion_config(3, InsertionPolicy::kWeightDecay));
  s.start();
  s.run_until(50.0);
  s.graph().create_edge(EdgeKey(0, 2), s.spec().edge_params);
  s.run_until(60.0);
  const auto info = s.aopt(0).peer_info(2);
  ASSERT_TRUE(info.has_value() && info->t0 < kTimeInf);
  const double kappa_final = info->kappa;

  // Before T0: not in any level.
  EXPECT_FALSE(s.aopt(0).edge_in_level(2, 1));

  // Run until just after T0: in all levels with a large kappa.
  while (s.engine().logical(0) < info->t0 + 1.0) s.run_for(5.0);
  EXPECT_TRUE(s.aopt(0).edge_in_level(2, 100));
  const double kappa_early = s.aopt(0).edge_kappa(2);
  EXPECT_GT(kappa_early, 2.0 * s.spec().aopt.gtilde_static * 0.5);

  // Mid-decay: strictly between.
  while (s.engine().logical(0) < info->t0 + info->insertion_duration / 2.0) {
    s.run_for(10.0);
  }
  const double kappa_mid = s.aopt(0).edge_kappa(2);
  EXPECT_LT(kappa_mid, kappa_early);
  EXPECT_GT(kappa_mid, kappa_final);

  // After T0 + I: final kappa.
  while (s.engine().logical(0) < info->fully_inserted_at() + 1.0) s.run_for(10.0);
  EXPECT_DOUBLE_EQ(s.aopt(0).edge_kappa(2), kappa_final);
}

// ---------------------------------------------------------------------------
// Lemma 7.1: separation of insertion times under the dynamic-I scheme.
// ---------------------------------------------------------------------------

TEST(InsertionSeparation, Lemma71BoundHoldsForRandomInsertions) {
  AlgoParams params;
  params.rho = 1e-3;
  params.mu = 0.1;
  params.B = 64.0;
  Rng rng(2024);

  struct Edge {
    double i;
    double t0;
  };
  std::vector<Edge> edges;
  for (int k = 0; k < 40; ++k) {
    const double gtilde = rng.uniform(0.5, 200.0);
    const double tmsg = rng.uniform(0.1, 1.0);
    const double tau = rng.uniform(0.1, 1.0);
    const double i = params.insertion_duration_dynamic(gtilde, tmsg, tau);
    const double l_ins = rng.uniform(0.0, 1e5);
    const double t0 = std::ceil(l_ins / i) * i;
    edges.push_back({i, t0});
  }

  auto ts = [](const Edge& e, int s) {
    return e.t0 + (1.0 - std::exp2(1.0 - static_cast<double>(s))) * e.i;
  };

  int checked = 0;
  for (std::size_t x = 0; x < edges.size(); ++x) {
    for (std::size_t y = x + 1; y < edges.size(); ++y) {
      for (int s = 1; s <= 6; ++s) {
        for (int sp = 1; sp <= 6; ++sp) {
          const double a = ts(edges[x], s);
          const double b = ts(edges[y], sp);
          const double gap = std::fabs(a - b);
          const double bound = std::min(edges[x].i, edges[y].i) /
                               (128.0 * std::pow(4.0, std::min(s, sp) - 2));
          if (s == sp && gap < 1e-9) continue;  // T^e_s == T^e'_s allowed
          EXPECT_GE(gap, bound * (1.0 - 1e-9))
              << "s=" << s << " s'=" << sp << " Ie=" << edges[x].i
              << " Ie'=" << edges[y].i;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 10000);
}

}  // namespace
}  // namespace gcs
