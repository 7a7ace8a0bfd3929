// Focused unit tests of AoptNode behaviors: the max-estimate condition
// (Def. 4.4 / Listing 3), handshake corner cases, introspection, and the
// interaction between corruption and the trigger machinery.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "metrics/fingerprint.h"
#include "runner/scenario.h"

namespace gcs {
namespace {

ScenarioSpec tiny(int n) {
  ScenarioSpec cfg;
  cfg.n = n;
  cfg.explicit_edges = topo_line(n);
  cfg.edge_params = default_edge_params();
  cfg.aopt.rho = 1e-3;
  cfg.aopt.mu = 0.1;
  cfg.aopt.gtilde_static = 5.0;
  cfg.drift = ComponentSpec("none");
  cfg.estimates = ComponentSpec("zero");
  return cfg;
}

TEST(AoptUnit, PeerInfoAbsentForUnknownNode) {
  Scenario s(tiny(3));
  s.start();
  EXPECT_FALSE(s.aopt(0).peer_info(2).has_value());  // never a neighbor
  EXPECT_TRUE(s.aopt(0).peer_info(1).has_value());
  EXPECT_EQ(s.aopt(0).edge_kappa(2), 0.0);
  EXPECT_FALSE(s.aopt(0).edge_in_level(2, 1));
}

TEST(AoptUnit, DerivedConstantsMatchParams) {
  Scenario s(tiny(2));
  s.start();
  const auto info = s.aopt(0).peer_info(1);
  ASSERT_TRUE(info.has_value());
  EdgeParams ep = s.spec().edge_params;
  ep.eps = s.engine().edge_eps(EdgeKey(0, 1));
  const EdgeConstants expect = s.spec().aopt.edge_constants(ep);
  EXPECT_DOUBLE_EQ(info->kappa, expect.kappa);
  EXPECT_DOUBLE_EQ(info->delta, expect.delta);
  EXPECT_DOUBLE_EQ(s.aopt(0).edge_kappa(1), expect.kappa);
}

TEST(AoptUnit, MaxEstimateConditionDrivesFastMode) {
  // MC (Def. 4.4): raise M at a node whose neighbors are level with it;
  // neither FC nor SC applies, so the max-estimate trigger must switch the
  // node to fast mode, and back to slow when it locks onto M.
  Scenario s(tiny(2));
  s.start();
  s.run_until(10.0);
  ASSERT_DOUBLE_EQ(s.engine().rate_multiplier(0), 1.0);
  s.engine().corrupt_max_estimate(0, s.engine().logical(0) + 1.0);
  s.run_for(1.0);  // next tick re-evaluates
  EXPECT_DOUBLE_EQ(s.engine().rate_multiplier(0), 1.0 + s.spec().aopt.mu);
  EXPECT_FALSE(s.aopt(0).last_fast_trigger());  // it was MC, not FC
  // After catching M (1.0 gap at ~mu rate => ~10 units), slow again.
  s.run_for(30.0);
  EXPECT_TRUE(s.engine().max_locked(0));
  EXPECT_DOUBLE_EQ(s.engine().rate_multiplier(0), 1.0);
}

TEST(AoptUnit, FastTriggerFiresWhenNeighborFarAhead) {
  Scenario s(tiny(2));
  s.start();
  s.run_until(10.0);
  const auto info = s.aopt(0).peer_info(1);
  ASSERT_TRUE(info.has_value());
  // Push node 1 ahead by 2 kappa: node 0's level-1 FC must fire.
  s.engine().corrupt_logical(1, s.engine().logical(1) + 2.0 * info->kappa);
  s.run_for(1.0);
  EXPECT_TRUE(s.aopt(0).last_fast_trigger());
  EXPECT_DOUBLE_EQ(s.engine().rate_multiplier(0), 1.0 + s.spec().aopt.mu);
  // ...and node 1's SC (neighbor far behind) must hold it in slow mode.
  EXPECT_TRUE(s.aopt(1).last_slow_trigger());
  EXPECT_DOUBLE_EQ(s.engine().rate_multiplier(1), 1.0);
}

TEST(AoptUnit, ModeSwitchCounterAdvances) {
  auto cfg = tiny(4);
  cfg.drift = ComponentSpec("blocks");
  cfg.drift.params.set("blocks", 2);
  cfg.drift.params.set("period", 40.0);
  cfg.aopt.rho = 4e-3;
  Scenario s(cfg);
  s.start();
  s.run_until(400.0);
  long long total = 0;
  for (NodeId u = 0; u < 4; ++u) total += s.aopt(u).mode_switches();
  EXPECT_GT(total, 0);
}

TEST(AoptUnit, BeaconTriggersFireAroundTheCertifiedBound) {
  // Beacon estimates on a complete graph: once the run settles, the bound
  // fast path decides most re-evaluations. Node 0 is then pushed 3κ ahead
  // and node 1 3κ behind, so both gradient triggers must fire, at levels
  // >= 2 too. The pinned event count was recorded on the tree before the
  // fast path existed, and the hash was re-recorded (same count) when clock
  // reads became pure; the same run with the fast path switched off gives
  // both: taking it changes no trajectory bit.
  ScenarioSpec cfg;
  cfg.n = 8;
  cfg.topology = ComponentSpec("complete");
  cfg.edge_params = default_edge_params(0.05, 0.25, 0.5, 0.1);
  cfg.aopt.rho = 1e-3;
  cfg.aopt.mu = 0.1;
  cfg.gtilde_auto = true;
  cfg.drift = ComponentSpec("spread");
  cfg.estimates = ComponentSpec("beacon");
  cfg.seed = 22;
  Scenario s(cfg);
  long long settled_before = 0;
  s.sim().schedule_at(40.0, [&s, &settled_before] {
    for (NodeId u = 0; u < 8; ++u) settled_before += s.aopt(u).bound_settled();
    const double kappa = s.aopt(0).peer_info(1)->kappa;
    s.engine().corrupt_logical(0, s.engine().logical(0) + 3.0 * kappa);
    s.engine().corrupt_logical(1, s.engine().logical(1) - 3.0 * kappa);
  });
  const FingerprintResult r = fingerprint_run(s, 80.0);
  EXPECT_EQ(r.hash, 0xb2478a959361eccbULL);
  EXPECT_EQ(r.events, 23031u);

  EXPECT_GT(settled_before, 0);
  long long fast = 0;
  long long slow = 0;
  long long fast_high = 0;
  long long slow_high = 0;
  for (NodeId u = 0; u < 8; ++u) {
    const auto& by_level = s.aopt(u).decisions_by_level();
    for (std::size_t level = 0; level < by_level.size(); ++level) {
      if (level == 0) {  // levels start at 1
        EXPECT_EQ(by_level[0].fast, 0);
        EXPECT_EQ(by_level[0].slow, 0);
      }
      fast += by_level[level].fast;
      slow += by_level[level].slow;
      if (level >= 2) {
        fast_high += by_level[level].fast;
        slow_high += by_level[level].slow;
      }
    }
    EXPECT_FALSE(s.aopt(u).saw_trigger_conflict());
  }
  EXPECT_GT(fast, 0);
  EXPECT_GT(slow, 0);
  EXPECT_GT(fast_high, 0);
  EXPECT_GT(slow_high, 0);
}

TEST(AoptUnit, BeaconLevelCrossingReachesTheTriggers) {
  // An inserted edge joins level 1 when the own logical clock passes T0;
  // no event marks that instant. Node 2 is far behind when its edge to
  // node 0 is inserted, so node 0's slow trigger must fire once L_0 passes
  // T0: the certified bound may not settle re-evaluations across a level
  // threshold, where the set of peers it covers changes.
  auto cfg = tiny(3);
  cfg.explicit_edges = {EdgeKey(0, 1)};
  cfg.aopt.gtilde_static = 1.0;
  cfg.estimates = ComponentSpec("beacon");
  Scenario s(cfg);
  s.start();
  s.run_until(10.0);
  const double kappa = s.aopt(0).peer_info(1)->kappa;
  s.engine().corrupt_logical(2, s.engine().logical(2) - 40.0 * kappa);
  s.graph().create_edge(EdgeKey(0, 2), cfg.edge_params);
  s.run_until(20.0);
  const auto info = s.aopt(0).peer_info(2);
  ASSERT_TRUE(info.has_value());
  ASSERT_LT(info->t0, kTimeInf);
  s.run_until(info->t0 - 10.0);  // L_0 >= t (rates are >= 1); checked next
  ASSERT_LT(s.engine().logical(0), info->t0);
  EXPECT_TRUE(s.aopt(0).decisions_by_level().empty());
  EXPECT_GT(s.aopt(0).bound_settled(), 0);
  s.run_until(info->t0 + 10.0);
  long long slow = 0;
  for (const auto& at : s.aopt(0).decisions_by_level()) slow += at.slow;
  EXPECT_GT(slow, 0);
}

TEST(AoptUnit, BoundSettledOnlyUnderSnapshotEstimates) {
  // The certified bound covers the snapshot shape, beacon and RTT alike. The
  // oracle path keeps the full scan: no O(1) bound on its errors exists yet.
  auto cfg = tiny(4);
  const auto run = [&cfg](const char* estimates) {
    cfg.estimates = ComponentSpec(estimates);
    auto s = std::make_unique<Scenario>(cfg);
    s->start();
    s->run_until(60.0);
    return s;
  };
  const auto oracle = run("uniform");
  const auto beacon = run("beacon");
  const auto rtt = run("rtt");
  for (NodeId u = 0; u < 4; ++u) {
    EXPECT_EQ(oracle->aopt(u).bound_settled(), 0);
    EXPECT_GT(beacon->aopt(u).bound_settled(), 0);
    EXPECT_GT(rtt->aopt(u).bound_settled(), 0);
  }
}

TEST(AoptUnit, InsertEdgeMsgFromStrangerIsIgnored) {
  Scenario s(tiny(3));
  s.start();
  s.run_until(5.0);
  // Deliver a forged insertedge from node 2 (no edge 0-2 exists).
  s.aopt(0).on_insert_edge_msg(2, InsertEdgeMsg{100.0, 5.0});
  s.run_until(20.0);
  EXPECT_FALSE(s.aopt(0).peer_info(2).has_value());
  EXPECT_FALSE(s.aopt(0).edge_in_level(2, 1));
}

TEST(AoptUnit, StaleInsertEdgeMsgAfterLossIsIgnored) {
  Scenario s(tiny(3));
  s.start();
  s.run_until(5.0);
  s.graph().create_edge(EdgeKey(0, 2), s.spec().edge_params);
  s.run_until(6.0);  // discovered, handshake pending
  // The edge vanishes; a late insertedge must not resurrect insertion.
  s.graph().destroy_edge(EdgeKey(0, 2));
  s.run_until(8.0);
  s.aopt(2).on_insert_edge_msg(0, InsertEdgeMsg{50.0, 5.0});
  s.run_until(30.0);
  const auto info = s.aopt(2).peer_info(0);
  if (info.has_value()) {
    EXPECT_FALSE(info->present);
    EXPECT_EQ(info->t0, kTimeInf);
  }
}

TEST(AoptUnit, HandshakeUsesGtildeAtSendTime) {
  auto cfg = tiny(3);
  cfg.gskew = ComponentSpec("oracle");
  cfg.gskew.params.set("factor", 2.0);
  cfg.gskew.params.set("margin", 1.0);
  Scenario s(cfg);
  s.start();
  s.run_until(20.0);
  const double g_now = s.engine().true_global_skew();
  s.graph().create_edge(EdgeKey(0, 2), cfg.edge_params);
  s.run_until(35.0);
  const auto info = s.aopt(0).peer_info(2);
  ASSERT_TRUE(info.has_value());
  ASSERT_LT(info->t0, kTimeInf);
  // The recorded estimate is the oracle's value around handshake time:
  // 2*G + 1 with G tiny here.
  EXPECT_GE(info->gtilde, 1.0);
  EXPECT_LE(info->gtilde, 2.0 * (g_now + 0.5) + 1.5);
}

TEST(AoptUnit, T0IsOnTheGridAndAfterLins) {
  Scenario s(tiny(3));
  s.start();
  s.run_until(15.0);
  s.graph().create_edge(EdgeKey(0, 2), s.spec().edge_params);
  s.run_until(30.0);
  const auto info = s.aopt(0).peer_info(2);
  ASSERT_TRUE(info.has_value());
  ASSERT_LT(info->t0, kTimeInf);
  const double ratio = info->t0 / info->insertion_duration;
  EXPECT_NEAR(ratio, std::round(ratio), 1e-9);
  // L_ins >= L(discovery) + Gtilde => T0 comfortably after discovery.
  EXPECT_GT(info->t0, 15.0 + s.spec().aopt.gtilde_static / 2.0);
}

TEST(AoptUnit, LevelZeroMembershipTracksDiscoveryOnly) {
  Scenario s(tiny(3));
  s.start();
  s.run_until(15.0);
  s.graph().create_edge(EdgeKey(0, 2), s.spec().edge_params);
  s.run_until(16.0);  // discovered (tau=0.5), far from T0
  EXPECT_TRUE(s.aopt(0).edge_in_level(2, 0));   // N^0 = discovery set
  EXPECT_FALSE(s.aopt(0).edge_in_level(2, 1));  // not yet on level 1
}

TEST(AoptUnit, WeightDecayKappaInitCoversGlobalSkew) {
  auto cfg = tiny(3);
  cfg.aopt.insertion = InsertionPolicy::kWeightDecay;
  Scenario s(cfg);
  s.start();
  s.run_until(15.0);
  s.graph().create_edge(EdgeKey(0, 2), cfg.edge_params);
  s.run_until(30.0);
  const auto info = s.aopt(0).peer_info(2);
  ASSERT_TRUE(info.has_value());
  ASSERT_LT(info->t0, kTimeInf);
  // Walk L to just past T0 and check kappa(t) starts at 2*Gtilde + kappa_e:
  // big enough that the edge's gradient constraint is vacuous initially.
  while (s.engine().logical(0) < info->t0 + 0.5) s.run_for(2.0);
  const double kappa_now = s.aopt(0).edge_kappa(2);
  EXPECT_GT(kappa_now, 2.0 * info->gtilde * 0.9);
}

TEST(AoptUnit, SelfLoopEdgeRejectedByModel) {
  Scenario s(tiny(3));
  s.start();
  EXPECT_THROW(s.graph().create_edge(EdgeKey(1, 1), s.spec().edge_params),
               std::invalid_argument);
}

TEST(AoptUnit, TwoNodeNetworkConverges) {
  auto cfg = tiny(2);
  cfg.drift = ComponentSpec("spread");
  cfg.aopt.rho = 2e-3;
  Scenario s(cfg);
  s.start();
  s.run_until(600.0);
  // One edge, constant pull-apart at 2*rho: the skew must stay around the
  // single-edge gradient scale, far below unsynchronized drift (2.4).
  const double skew = std::fabs(s.engine().logical(0) - s.engine().logical(1));
  const auto info = s.aopt(0).peer_info(1);
  ASSERT_TRUE(info.has_value());
  EXPECT_LT(skew, 2.0 * info->kappa);
}

TEST(AoptUnit, SingleNodeDegenerateCase) {
  ScenarioSpec cfg;
  cfg.n = 1;
  cfg.edge_params = default_edge_params();
  cfg.aopt.rho = 1e-3;
  cfg.aopt.mu = 0.05;
  Scenario s(cfg);
  s.start();
  s.run_until(100.0);
  EXPECT_NEAR(s.engine().logical(0), 100.0, 0.2);
  EXPECT_DOUBLE_EQ(s.engine().true_global_skew(), 0.0);
}

}  // namespace
}  // namespace gcs
