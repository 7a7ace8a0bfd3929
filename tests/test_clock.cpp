#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "clock/drift.h"
#include "clock/piecewise_clock.h"

namespace gcs {
namespace {

TEST(PiecewiseClock, IntegratesLinearly) {
  PiecewiseLinearClock c(0.0, 0.0, 2.0);
  c.advance(3.0);
  EXPECT_DOUBLE_EQ(c.value(), 6.0);
  EXPECT_DOUBLE_EQ(c.value_at(4.0), 8.0);
}

TEST(PiecewiseClock, RateChangeIsPiecewise) {
  PiecewiseLinearClock c(0.0, 0.0, 1.0);
  c.set_rate(2.0, 3.0);  // value 2 at t=2, then rate 3
  c.advance(4.0);
  EXPECT_DOUBLE_EQ(c.value(), 2.0 + 3.0 * 2.0);
}

TEST(PiecewiseClock, SetValueOverrides) {
  PiecewiseLinearClock c(0.0, 0.0, 1.0);
  c.set_value(1.0, 100.0);
  c.advance(2.0);
  EXPECT_DOUBLE_EQ(c.value(), 101.0);
}

TEST(PiecewiseClock, TimeOfValueInvertsCorrectly) {
  PiecewiseLinearClock c(5.0, 10.0, 2.0);
  EXPECT_DOUBLE_EQ(c.time_of_value(16.0), 8.0);
  EXPECT_DOUBLE_EQ(c.time_of_value(10.0), 5.0);  // already reached
  EXPECT_DOUBLE_EQ(c.time_of_value(4.0), 5.0);   // already passed
}

TEST(PiecewiseClock, BackwardsTimeThrows) {
  PiecewiseLinearClock c(10.0, 0.0, 1.0);
  EXPECT_THROW(c.advance(5.0), std::invalid_argument);
  EXPECT_NO_THROW(c.advance(10.0 - 1e-12));  // float fuzz tolerated
}

/// A built-in drift kind, built through the registry as a Scenario builds it.
std::unique_ptr<DriftModel> build(const std::string& kind, const ParamMap& params, int n,
                                  double rho, std::uint64_t seed = 1) {
  return drift_registry().get(kind).factory(params, DriftArgs{n, rho, seed});
}

TEST(ConstantDrift, HoldsPerNodeRates) {
  ConstantDrift d(0.01, {1.01, 0.99, 1.0});
  EXPECT_DOUBLE_EQ(d.rate_at(0, 5.0), 1.01);
  EXPECT_DOUBLE_EQ(d.rate_at(1, 5.0), 0.99);
  EXPECT_DOUBLE_EQ(d.rate_at(2, 5.0), 1.0);
  EXPECT_EQ(d.next_change_after(0, 1.0), kTimeInf);
}

TEST(ConstantDrift, RejectsRateBeyondRho) {
  EXPECT_THROW(ConstantDrift(0.01, {1.02}), std::runtime_error);
  EXPECT_THROW(build("none", {{"offset", "0.02"}}, 1, 0.01), std::runtime_error);
}

TEST(SteppedDrift, StepIndexSettlesOnTheGridProducts) {
  // 0.7 is not dyadic: k·0.7/0.7 floors to k-1 for some k, which must not
  // leave a change event at k·0.7 in step k-1.
  SteppedDrift d(0.01, 0.7,
                 [](NodeId, std::int64_t k) { return k % 2 == 0 ? 1.01 : 0.99; });
  int floored_low = 0;
  for (std::int64_t k = 1; k < 20000; ++k) {
    const Time t = static_cast<double>(k) * 0.7;
    floored_low += std::floor(t / 0.7) < static_cast<double>(k) ? 1 : 0;
    ASSERT_EQ(d.step_index(t), k) << "t = " << t;
    ASSERT_EQ(d.step_index(std::nextafter(t, 0.0)), k - 1) << "t = " << t;
    ASSERT_EQ(d.next_change_after(0, t), static_cast<double>(k + 1) * 0.7);
  }
  EXPECT_GT(floored_low, 0);  // the grid above does exercise the rounding
  EXPECT_EQ(d.step_index(-3.0), 0);
  EXPECT_DOUBLE_EQ(d.next_change_after(0, -3.0), 0.7);
}

TEST(DriftRegistry, SpreadSpansFullRange) {
  auto d = build("spread", {}, 5, 0.01);
  EXPECT_DOUBLE_EQ(d->rate_at(0, 0.0), 0.99);
  EXPECT_DOUBLE_EQ(d->rate_at(4, 0.0), 1.01);
  EXPECT_DOUBLE_EQ(d->rate_at(2, 0.0), 1.0);
  EXPECT_EQ(d->next_change_after(0, 0.0), kTimeInf);
}

TEST(DriftRegistry, BlocksFlipEveryPeriod) {
  auto d = build("blocks", {{"period", "10"}, {"blocks", "2"}}, 8, 0.01);
  const double early = d->rate_at(0, 1.0);
  const double late = d->rate_at(0, 11.0);
  EXPECT_DOUBLE_EQ(early + late, 2.0);  // +rho then -rho
  // Adjacent blocks have opposite signs at the same time.
  EXPECT_DOUBLE_EQ(d->rate_at(0, 1.0) + d->rate_at(7, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(d->next_change_after(0, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(d->next_change_after(0, 10.0), 20.0);
}

TEST(DriftRegistry, WalkStaysWithinRhoAndIsDeterministic) {
  const ParamMap params{{"period", "5"}, {"std", "0.004"}};
  auto d1 = build("walk", params, 4, 0.01, 99);
  auto d2 = build("walk", params, 4, 0.01, 99);
  for (NodeId u = 0; u < 4; ++u) {
    for (int k = 0; k < 200; ++k) {
      const double t = k * 5.0 + 0.1;
      const double r = d1->rate_at(u, t);
      EXPECT_GE(r, 0.99);
      EXPECT_LE(r, 1.01);
      EXPECT_DOUBLE_EQ(r, d2->rate_at(u, t));
    }
  }
}

TEST(DriftRegistry, WalkMemoizesNonMonotoneQueries) {
  auto d = build("walk", {{"period", "5"}, {"std", "0.004"}}, 2, 0.01, 7);
  const double late = d->rate_at(0, 100.0);
  const double early = d->rate_at(0, 2.0);
  EXPECT_DOUBLE_EQ(d->rate_at(0, 100.0), late);
  EXPECT_DOUBLE_EQ(d->rate_at(0, 2.0), early);
}

TEST(DriftRegistry, OscConstCyclesThroughPpmList) {
  auto d = build("osc-const", {{"ppm", "100/-200/50"}}, 5, 0.001);
  EXPECT_DOUBLE_EQ(d->rate_at(0, 3.0), 1.0 + 100e-6);
  EXPECT_DOUBLE_EQ(d->rate_at(1, 3.0), 1.0 - 200e-6);
  EXPECT_DOUBLE_EQ(d->rate_at(2, 3.0), 1.0 + 50e-6);
  EXPECT_DOUBLE_EQ(d->rate_at(3, 3.0), 1.0 + 100e-6);  // cycles
  EXPECT_DOUBLE_EQ(d->rate_at(4, 3.0), 1.0 - 200e-6);
  EXPECT_EQ(d->next_change_after(0, 1.0), kTimeInf);
}

TEST(DriftRegistry, OscConstRejectsPpmBeyondRho) {
  EXPECT_THROW(build("osc-const", {{"ppm", "200"}}, 2, 0.0001), std::runtime_error);
  EXPECT_THROW(build("osc-const", {{"ppm", ""}}, 2, 0.001), std::runtime_error);
}

TEST(DriftRegistry, OscRandomStaysWithinLimitAndIsDeterministic) {
  // limit 300 ppm sits well inside rho = 1e-3 (1000 ppm): the oscillator's
  // explicit drift-rate limit must bind, not the model bound.
  const ParamMap params{{"interval", "10"}, {"change", "25"}, {"limit", "300"}};
  auto d1 = build("osc-random", params, 3, 0.001, 42);
  auto d2 = build("osc-random", params, 3, 0.001, 42);
  for (NodeId u = 0; u < 3; ++u) {
    for (int k = 0; k < 200; ++k) {
      const double t = k * 10.0 + 0.5;
      const double r = d1->rate_at(u, t);
      EXPECT_GE(r, 1.0 - 300e-6);
      EXPECT_LE(r, 1.0 + 300e-6);
      EXPECT_DOUBLE_EQ(r, d2->rate_at(u, t));
    }
  }
}

TEST(DriftRegistry, OscRandomStepsEveryIntervalAndMemoizes) {
  auto d = build("osc-random", {{"interval", "10"}, {"change", "25"}, {"limit", "100"}}, 2,
                 0.001, 7);
  EXPECT_DOUBLE_EQ(d->rate_at(0, 0.0), 1.0);  // walk starts at zero offset
  EXPECT_DOUBLE_EQ(d->next_change_after(0, 0.5), 10.0);
  EXPECT_DOUBLE_EQ(d->next_change_after(0, 10.0), 20.0);
  const double late = d->rate_at(1, 95.0);
  const double early = d->rate_at(1, 15.0);
  EXPECT_DOUBLE_EQ(d->rate_at(1, 95.0), late);  // non-monotone queries memoized
  EXPECT_DOUBLE_EQ(d->rate_at(1, 15.0), early);
}

TEST(DriftRegistry, OscRandomRejectsLimitBeyondRho) {
  EXPECT_THROW(build("osc-random", {{"limit", "200"}}, 2, 0.0001), std::runtime_error);
}

TEST(DriftRegistry, ChangeEventsEnterTheNextStep) {
  // Walk each node's chain of change events t <- next_change_after(u, t) the
  // way the engine does, on step lengths whose grid products t/step rounds
  // below the step index. Every event must lie ahead, the rate must hold
  // still until the next event, and block drift must flip at every event.
  const int n = 5;
  const double rho = 0.01;
  for (const double step : {0.7, 0.3, 7.3 / 13.0}) {
    const std::vector<std::pair<std::string, ParamMap>> kinds = {
        {"blocks", {{"period", ParamMap::format(step)}}},
        {"walk", {{"period", ParamMap::format(step)}}},
        {"osc-random", {{"interval", ParamMap::format(step)}}},
        {"sine", {{"period", ParamMap::format(4.0 * step)}, {"steps", "4"}}},
    };
    for (const auto& [kind, params] : kinds) {
      SCOPED_TRACE(kind + " step " + ParamMap::format(step));
      auto d = build(kind, params, n, rho, 3);
      int not_ahead = 0, not_constant = 0, no_flip = 0;
      for (NodeId u = 0; u < n; ++u) {
        Time t = 0.0;
        for (int i = 0; i < 2000; ++i) {
          const Time next = d->next_change_after(u, t);
          if (!(next > t)) {
            ++not_ahead;
            break;
          }
          const double rate = d->rate_at(u, t);
          for (const Time s : {t + 0.25 * (next - t), t + 0.5 * (next - t),
                               t + 0.75 * (next - t), std::nextafter(next, t)}) {
            not_constant += d->rate_at(u, s) == rate ? 0 : 1;
          }
          if (kind == "blocks") no_flip += d->rate_at(u, next) == rate ? 1 : 0;
          t = next;
        }
      }
      EXPECT_EQ(not_ahead, 0);
      EXPECT_EQ(not_constant, 0);
      EXPECT_EQ(no_flip, 0);
    }
  }
}

TEST(DriftRegistry, BuildsOscillatorModels) {
  DriftArgs a;
  a.n = 4;
  a.rho = 1e-3;
  a.seed = 9;
  ParamMap const_params;
  const_params.set("ppm", "100/-200");
  auto c = drift_registry().get("osc-const").factory(const_params, a);
  EXPECT_DOUBLE_EQ(c->rate_at(0, 0.0), 1.0 + 100e-6);
  EXPECT_DOUBLE_EQ(c->rate_at(1, 0.0), 1.0 - 200e-6);
  EXPECT_DOUBLE_EQ(c->rate_at(2, 0.0), 1.0 + 100e-6);

  ParamMap rand_params;
  rand_params.set("interval", "5");
  rand_params.set("change", "50");
  auto r1 = drift_registry().get("osc-random").factory(rand_params, a);
  auto r2 = drift_registry().get("osc-random").factory(rand_params, a);
  for (NodeId u = 0; u < 4; ++u) {
    for (int k = 0; k < 50; ++k) {
      const double t = k * 5.0 + 0.25;
      EXPECT_DOUBLE_EQ(r1->rate_at(u, t), r2->rate_at(u, t));
      EXPECT_GE(r1->rate_at(u, t), 1.0 - a.rho);
      EXPECT_LE(r1->rate_at(u, t), 1.0 + a.rho);
    }
  }
  EXPECT_DOUBLE_EQ(r1->next_change_after(0, 0.0), 5.0);
}

TEST(ScriptedDrift, FollowsBreakpoints) {
  ScriptedDrift d(0.05);
  d.add(0, 10.0, 1.05);
  d.add(0, 20.0, 0.95);
  EXPECT_DOUBLE_EQ(d.rate_at(0, 5.0), 1.0);    // before first breakpoint
  EXPECT_DOUBLE_EQ(d.rate_at(0, 10.0), 1.05);  // inclusive at breakpoint
  EXPECT_DOUBLE_EQ(d.rate_at(0, 15.0), 1.05);
  EXPECT_DOUBLE_EQ(d.rate_at(0, 25.0), 0.95);
  EXPECT_DOUBLE_EQ(d.rate_at(1, 15.0), 1.0);  // unscripted node
  EXPECT_DOUBLE_EQ(d.next_change_after(0, 5.0), 10.0);
  EXPECT_DOUBLE_EQ(d.next_change_after(0, 10.0), 20.0);
  EXPECT_EQ(d.next_change_after(0, 20.0), kTimeInf);
}

TEST(ScriptedDrift, RejectsOutOfOrderAndOutOfRange) {
  ScriptedDrift d(0.01);
  d.add(0, 10.0, 1.01);
  EXPECT_THROW(d.add(0, 5.0, 1.0), std::runtime_error);
  EXPECT_THROW(d.add(1, 0.0, 1.5), std::runtime_error);
}

}  // namespace
}  // namespace gcs
