// Instant-coalesced evaluation: the engine evaluates each node's triggers
// once per instant, after every effect of that instant has applied.
//
// Edge cases of the instant grouping: two deliveries to one node at
// bit-identical timestamps, a delivery tying with a periodic timer, and a
// node that joins and receives a message within the same instant. Each case
// asserts (a) FIFO (time, seq) order is preserved WITHIN the instant group
// — effects apply in exactly the order the events were scheduled — and
// (b) the engine runs Algorithm::reevaluate() exactly once per dirty node
// when the instant closes.
//
// Also a full scenario whose deliveries land on their send instant (zero
// minimum delay): it keeps the paper's guarantees (legality, G < G̃) and
// stays seed-deterministic.
#include <gtest/gtest.h>

#include <vector>

#include "clock/drift.h"
#include "core/engine.h"
#include "estimate/estimate_source.h"
#include "graph/dynamic_graph.h"
#include "metrics/legality.h"
#include "metrics/skew.h"
#include "net/transport.h"
#include "runner/scenario.h"
#include "sim/simulator.h"

namespace gcs {
namespace {

/// Counts reevaluate() calls per node; does nothing else (never switches
/// modes, so clock trajectories stay trivial and instants stay exact).
class ProbeAlgo final : public Algorithm {
 public:
  explicit ProbeAlgo(int* counter) : counter_(counter) {}
  [[nodiscard]] const char* name() const override { return "probe"; }
  void reevaluate() override { ++*counter_; }

 private:
  int* counter_;
};

/// Flat recording of every fired engine/transport event.
struct FiredLog final : public KernelTraceSink {
  struct Rec {
    Time t;
    NodeId node;
    EventKind kind;
  };
  std::vector<Rec> recs;
  void on_event_fired(Time t, NodeId node, EventKind kind) override {
    recs.push_back(Rec{t, node, kind});
  }
  [[nodiscard]] std::vector<Rec> at(Time t) const {
    std::vector<Rec> out;
    for (const Rec& r : recs) {
      if (r.t == t) out.push_back(r);
    }
    return out;
  }
};

/// A minimal hand-built world: n nodes, oracle-zero estimates (no estimate
/// randomness), constant unit hardware rates, probe algorithms. Periodic
/// engine timers are pushed out to `tick_period` so tests control every
/// event; beacons are disabled (messages are sent manually).
struct World {
  explicit World(int n, EdgeParams edge_params, Duration tick_period = 1e6)
      : graph(sim, n, 5),
        transport(sim, graph),
        drift(/*rho=*/0.0, std::vector<double>(static_cast<std::size_t>(n), 1.0)),
        estimates(graph, OracleErrorPolicy::kZero),
        gskew(10.0),
        counts(static_cast<std::size_t>(n), 0),
        params(edge_params) {
    graph.set_detection_delay_mode(DetectionDelayMode::kZero);
    transport.set_delay_mode(DelayMode::kMin);
    EngineConfig config;
    config.tick_period = tick_period;
    config.beacon_period = tick_period;
    config.enable_beacons = false;
    AlgoParams algo_params;  // defaults are valid
    engine = std::make_unique<Engine>(
        sim, graph, transport, drift, estimates, gskew, algo_params, config,
        [this](NodeId u) -> std::unique_ptr<Algorithm> {
          return std::make_unique<ProbeAlgo>(&counts[static_cast<std::size_t>(u)]);
        });
    engine->set_kernel_trace(&log);
    transport.set_kernel_trace(&log);
  }

  Simulator sim;
  DynamicGraph graph;
  Transport transport;
  ConstantDrift drift;
  OracleEstimateSource estimates;
  StaticGskewEstimator gskew;
  std::vector<int> counts;
  EdgeParams params;
  std::unique_ptr<Engine> engine;
  FiredLog log;
};

EdgeParams tight_params(double delay_min) {
  EdgeParams p;
  p.eps = 0.1;
  p.tau = 0.2;
  p.msg_delay_min = delay_min;
  p.msg_delay_max = 0.5;
  return p;
}

TEST(InstantCoalescing, TwoDeliveriesAtBitIdenticalTimestampEvaluateOnce) {
  World w(3, tight_params(0.25));
  w.graph.create_edge_instant(EdgeKey(0, 1), w.params);
  w.graph.create_edge_instant(EdgeKey(1, 2), w.params);
  w.engine->start();
  w.sim.run_until(1.0);
  const int before = w.counts[1];

  // Both sends drawn at t=1 with the pinned minimum delay: 1.0 + 0.25 is
  // exact in binary, so both deliveries land at the bit-identical instant.
  ASSERT_TRUE(w.transport.send(0, 1, Beacon{50.0, 100.0, 0.0}));
  ASSERT_TRUE(w.transport.send(2, 1, Beacon{60.0, 200.0, 0.0}));
  w.sim.run_until(2.0);

  // Both raised M (100 then 200): two dirty events, ONE evaluation.
  EXPECT_EQ(w.counts[1], before + 1);
  EXPECT_GT(w.engine->max_estimate(1), 150.0);  // the second candidate won

  // FIFO within the instant group: the deliveries fired in schedule order.
  const auto group = w.log.at(1.25);
  ASSERT_EQ(group.size(), 2u);
  EXPECT_EQ(group[0].kind, EventKind::kDelivery);
  EXPECT_EQ(group[1].kind, EventKind::kDelivery);
  EXPECT_EQ(group[0].node, 1);
  EXPECT_EQ(group[1].node, 1);
}

TEST(InstantCoalescing, CleanDeliveryDoesNotTriggerEvaluation) {
  World w(3, tight_params(0.25));
  w.graph.create_edge_instant(EdgeKey(0, 1), w.params);
  w.engine->start();
  w.sim.run_until(1.0);

  // First beacon raises M at node 1 -> dirty -> one scan.
  const int before = w.counts[1];
  ASSERT_TRUE(w.transport.send(0, 1, Beacon{50.0, 100.0, 0.0}));
  w.sim.run_until(2.0);
  EXPECT_EQ(w.counts[1], before + 1);

  // A beacon whose candidate cannot beat the current M changes no discrete
  // trigger input: no evaluation (the tick guard band covers drift).
  const int after_first = w.counts[1];
  ASSERT_TRUE(w.transport.send(0, 1, Beacon{1.0, 2.0, 0.0}));
  w.sim.run_until(3.0);
  EXPECT_EQ(w.counts[1], after_first);
}

TEST(InstantCoalescing, DeliveryAndTimerTieAtOneInstantEvaluateOnce) {
  // Node 1's first tick fires at tick_period * (1+1)/(3+1) = 2.5 * 0.5 =
  // 1.25, and a message sent at t=1 with the pinned 0.25 delay arrives at
  // 1.25 — both exact in binary, one instant group.
  World w(3, tight_params(0.25), /*tick_period=*/2.5);
  w.graph.create_edge_instant(EdgeKey(0, 1), w.params);
  w.engine->start();
  w.sim.run_until(1.0);
  const int before = w.counts[1];
  ASSERT_TRUE(w.transport.send(0, 1, Beacon{50.0, 100.0, 0.0}));
  w.sim.run_until(2.0);

  // Tick (always dirty) + M-raising delivery at one instant: ONE scan.
  EXPECT_EQ(w.counts[1], before + 1);

  // FIFO within the group: the tick was scheduled at start(), long before
  // the delivery, so it fires first.
  const auto group = w.log.at(1.25);
  ASSERT_EQ(group.size(), 2u);
  EXPECT_EQ(group[0].kind, EventKind::kTick);
  EXPECT_EQ(group[0].node, 1);
  EXPECT_EQ(group[1].kind, EventKind::kDelivery);
  EXPECT_EQ(group[1].node, 1);
}

TEST(InstantCoalescing, JoinAndDeliveryAtOneInstantEvaluateOnce) {
  // A node joins (edge created) and receives a message within the same
  // instant: the zero-minimum delay lands the delivery on its send instant.
  World w(2, tight_params(0.0));
  w.engine->start();
  w.sim.run_until(0.5);
  const int before0 = w.counts[0];
  const int before1 = w.counts[1];

  w.sim.schedule_at(1.0, [&w] {
    w.graph.create_edge_instant(EdgeKey(0, 1), w.params);
    ASSERT_TRUE(w.transport.send(0, 1, Beacon{50.0, 100.0, 0.0}));
  });
  w.sim.run_until(2.0);

  // Node 1 turned dirty twice within the instant (edge discovery, then the
  // M-raising delivery) but evaluated once; node 0 (discovery only) too.
  EXPECT_EQ(w.counts[1], before1 + 1);
  EXPECT_EQ(w.counts[0], before0 + 1);
  // The delivery was accepted, not dropped: the edge existed in the
  // receiver's view from exactly the send instant on (since == sent_at).
  EXPECT_EQ(w.transport.delivered_count(), 1u);
  EXPECT_EQ(w.transport.dropped_count(), 0u);
  EXPECT_GT(w.engine->max_estimate(1), 99.0);
  // FIFO: the join ran inside the closure; the delivery (scheduled by that
  // closure at the same instant, higher seq) fired after it.
  const auto group = w.log.at(1.0);
  ASSERT_EQ(group.size(), 1u);  // the closure itself is not traced
  EXPECT_EQ(group[0].kind, EventKind::kDelivery);
}

// ---------------------------------------------------------------------------
// Shared instants in a full scenario.

ScenarioSpec shared_instant_spec() {
  // delay_min = 0 with pinned-minimum delays: every delivery lands ON its
  // send instant, so each beacon broadcast forms a multi-event instant group
  // (sender heartbeat + receptions) that the engine evaluates once.
  ScenarioSpec spec;
  spec.name = "instant-shared";
  spec.n = 8;
  spec.topology = ComponentSpec("line");
  spec.edge_params = default_edge_params(0.05, 0.25, 0.5, 0.0);
  spec.aopt.rho = 1e-3;
  spec.aopt.mu = 0.1;
  spec.gtilde_auto = true;
  spec.drift = ComponentSpec("spread");
  spec.estimates = ComponentSpec("uniform");
  spec.delays = DelayMode::kMin;
  spec.seed = 42;
  return spec;
}

TEST(InstantCoalescing, SharedInstantsKeepTheGuaranteesAndAreSeedDeterministic) {
  Scenario a(shared_instant_spec());
  a.start();
  a.run_until(120.0);

  // Merging the scans of a shared instant keeps the paper's guarantees.
  const double gtilde = a.spec().aopt.gtilde_static;
  EXPECT_LT(measure_skew(a.engine()).global, gtilde);
  EXPECT_TRUE(check_legality(a.engine(), gtilde).legal());

  // And the run is seed-deterministic.
  Scenario a2(shared_instant_spec());
  a2.start();
  a2.run_until(120.0);
  EXPECT_EQ(measure_skew(a.engine()).global, measure_skew(a2.engine()).global);
  EXPECT_EQ(a.sim().fired_count(), a2.sim().fired_count());
}

}  // namespace
}  // namespace gcs
