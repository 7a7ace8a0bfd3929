#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/dynamic_graph.h"
#include "net/transport.h"
#include "runner/scenario.h"
#include "sim/simulator.h"

namespace gcs {
namespace {

/// Nodes joined by edges with transit delays in [0.1, 0.5]; by default the
/// line 0-1-2 plus an isolated node 3.
struct Fixture : DeliverySink {
  Simulator sim;
  DynamicGraph graph;
  Transport transport{sim, graph, 9};
  std::vector<Delivery> deliveries;
  std::vector<Payload> payloads;  ///< copied out: d.payload dies with the call

  explicit Fixture(int n = 4,
                   const std::vector<EdgeKey>& edges = {EdgeKey(0, 1), EdgeKey(1, 2)})
      : graph(sim, n, 7) {
    graph.set_detection_delay_mode(DetectionDelayMode::kZero);
    EdgeParams p;
    p.eps = 0.1;
    p.tau = 0.2;
    p.msg_delay_min = 0.1;
    p.msg_delay_max = 0.5;
    for (const EdgeKey& e : edges) graph.create_edge_instant(e, p);
    transport.set_sink(this);
  }

  void on_delivery(const Delivery& d) override {
    deliveries.push_back(d);
    payloads.push_back(*d.payload);
  }
};

TEST(Transport, DeliversWithinDelayBounds) {
  Fixture f;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(f.transport.send(0, 1, Beacon{1.0 * i, 0.0}));
  }
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 100u);
  for (const auto& d : f.deliveries) {
    const double transit = d.delivered_at - d.sent_at;
    EXPECT_GE(transit, 0.1 - 1e-12);
    EXPECT_LE(transit, 0.5 + 1e-12);
    EXPECT_EQ(d.from, 0);
    EXPECT_EQ(d.to, 1);
    EXPECT_DOUBLE_EQ(d.known_min_delay, 0.1);
  }
}

TEST(Transport, RefusesSendWithoutEdgeInSendersView) {
  Fixture f;
  EXPECT_FALSE(f.transport.send(0, 2, Beacon{}));
  EXPECT_FALSE(f.transport.send(0, 3, Beacon{}));
  EXPECT_EQ(f.transport.sent_count(), 0u);
}

TEST(Transport, DelayModeMinAndMax) {
  Fixture f;
  f.transport.set_delay_mode(DelayMode::kMin);
  f.transport.send(0, 1, Beacon{});
  f.transport.set_delay_mode(DelayMode::kMax);
  f.transport.send(0, 1, Beacon{});
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 2u);
  EXPECT_DOUBLE_EQ(f.deliveries[0].delivered_at - f.deliveries[0].sent_at, 0.1);
  EXPECT_DOUBLE_EQ(f.deliveries[1].delivered_at - f.deliveries[1].sent_at, 0.5);
}

TEST(Transport, DirectionalOverrideClampedToBounds) {
  Fixture f;
  f.transport.set_directional_delay(0, 1, 0.3);
  f.transport.send(0, 1, Beacon{});
  f.transport.set_directional_delay(0, 1, 99.0);  // clamped to max
  f.transport.send(0, 1, Beacon{});
  f.transport.clear_directional_delay(0, 1);
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 2u);
  EXPECT_DOUBLE_EQ(f.deliveries[0].delivered_at - f.deliveries[0].sent_at, 0.3);
  EXPECT_DOUBLE_EQ(f.deliveries[1].delivered_at - f.deliveries[1].sent_at, 0.5);
}

TEST(Transport, DropsWhenEdgeVanishesMidFlight) {
  Fixture f;
  f.transport.set_delay_mode(DelayMode::kMax);  // 0.5 transit
  EXPECT_TRUE(f.transport.send(0, 1, Beacon{}));
  EXPECT_EQ(f.transport.arena().live(), 1u);  // the unicast holds one ref
  f.sim.run_until(0.1);
  f.graph.destroy_edge(EdgeKey(0, 1));
  f.sim.run();
  EXPECT_EQ(f.deliveries.size(), 0u);
  EXPECT_EQ(f.transport.dropped_count(), 1u);
  EXPECT_EQ(f.transport.arena().live(), 0u);  // drops release their ref too
}

TEST(Transport, DropsWhenEdgeAppearedAfterSend) {
  Fixture f;
  f.transport.set_delay_mode(DelayMode::kMax);
  EXPECT_TRUE(f.transport.send(0, 1, Beacon{}));
  f.sim.run_until(0.1);
  // Re-create the edge: receiver's view_since moves past the send time.
  f.graph.destroy_edge(EdgeKey(0, 1));
  EdgeParams p;
  p.eps = 0.1;
  p.tau = 0.2;
  p.msg_delay_min = 0.1;
  p.msg_delay_max = 0.5;
  f.graph.create_edge(EdgeKey(0, 1), p);
  f.sim.run();
  EXPECT_EQ(f.deliveries.size(), 0u);
}

TEST(Transport, PayloadVariantsRoundTrip) {
  Fixture f;
  f.transport.send(0, 1, Beacon{12.5, 13.5});
  f.transport.send(1, 2, InsertEdgeMsg{77.0, 10.0});
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 2u);
  EXPECT_EQ(f.transport.arena().live(), 0u);  // all refs reclaimed
  int beacons = 0;
  int inserts = 0;
  for (const auto& payload : f.payloads) {
    if (const auto* b = std::get_if<Beacon>(&payload)) {
      ++beacons;
      EXPECT_DOUBLE_EQ(b->logical, 12.5);
      EXPECT_DOUBLE_EQ(b->max_estimate, 13.5);
    } else if (const auto* ins = std::get_if<InsertEdgeMsg>(&payload)) {
      ++inserts;
      EXPECT_DOUBLE_EQ(ins->l_ins, 77.0);
      EXPECT_DOUBLE_EQ(ins->gtilde, 10.0);
    }
  }
  EXPECT_EQ(beacons, 1);
  EXPECT_EQ(inserts, 1);
}

// A partial replica that executes only node 1 of the fixture's 0-1-2 line:
// every send it makes leaves through the outbound hook, in send order and
// fan-out view order, carrying the arrival a full replica schedules for the
// same send, and nothing stays in flight on the replica itself.
TEST(Transport, PartialReplicaSendsLeaveThroughTheOutboundHook) {
  struct Outbound {
    NodeId from;
    NodeId to;
    Time sent_at;
    Time arrival;
    double serial;  ///< the Beacon's logical field tags each send
  };
  Fixture full;
  Fixture part;
  const std::vector<std::uint8_t> executed{0, 1, 0, 0};
  part.transport.set_executed(&executed);
  std::vector<Outbound> out;
  part.transport.set_outbound([&](NodeId from, NodeId to, Time sent_at, Time arrival,
                                  const Payload& payload) {
    out.push_back({from, to, sent_at, arrival, std::get<Beacon>(payload).logical});
  });
  const auto send_all = [](Fixture& f) {
    f.sim.run_until(0.05);
    const std::vector<NeighborView>& views = f.graph.view_neighbors(1);
    EXPECT_TRUE(f.transport.send(1, 0, Beacon{0.0, 0.0}));
    f.transport.send_fanout(1, views, Beacon{1.0, 0.0});
    EXPECT_TRUE(f.transport.send(1, views.back().id, Beacon{2.0, 0.0}));
    EXPECT_TRUE(f.transport.send(1, 2, Beacon{3.0, 0.0}));
  };
  send_all(full);
  send_all(part);

  const std::vector<NeighborView>& views = part.graph.view_neighbors(1);
  ASSERT_EQ(views.size(), 2u);
  std::vector<std::pair<NodeId, double>> expected{{0, 0.0}};
  for (const NeighborView& nv : views) expected.emplace_back(nv.id, 1.0);
  expected.emplace_back(views.back().id, 2.0);
  expected.emplace_back(2, 3.0);
  ASSERT_EQ(out.size(), expected.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].from, 1);
    EXPECT_EQ(out[i].to, expected[i].first);
    EXPECT_EQ(out[i].serial, expected[i].second);
    EXPECT_EQ(out[i].sent_at, 0.05);
  }
  EXPECT_EQ(part.sim.pending_count(), 0u);
  EXPECT_EQ(part.transport.arena().live(), 0u);
  EXPECT_EQ(part.transport.sent_count(), full.transport.sent_count());

  full.sim.run();
  ASSERT_EQ(full.deliveries.size(), out.size());
  for (const Outbound& o : out) {
    int matches = 0;
    for (std::size_t i = 0; i < full.deliveries.size(); ++i) {
      if (full.deliveries[i].to != o.to ||
          std::get<Beacon>(full.payloads[i]).logical != o.serial)
        continue;
      ++matches;
      EXPECT_EQ(full.deliveries[i].delivered_at, o.arrival);
    }
    EXPECT_EQ(matches, 1);
  }
  part.sim.run();
  EXPECT_TRUE(part.deliveries.empty());
}

// A partial replica's fan-out puts ONE payload referenced by its local
// deliveries only: the two outbound destinations hold no reference, so the
// slot is reclaimed when the two local deliveries fire. Every destination,
// local or outbound, gets the arrival a full replica draws for it.
TEST(Transport, PartialReplicaFanoutHoldsOneRefPerLocalDelivery) {
  const std::vector<EdgeKey> star{EdgeKey(0, 1), EdgeKey(0, 2), EdgeKey(0, 3),
                                  EdgeKey(0, 4)};
  Fixture full(5, star);
  Fixture part(5, star);
  const std::vector<std::uint8_t> executed{1, 1, 0, 1, 0};
  part.transport.set_executed(&executed);
  std::vector<std::pair<NodeId, Time>> out;
  part.transport.set_outbound(
      [&](NodeId, NodeId to, Time, Time arrival, const Payload&) {
        out.emplace_back(to, arrival);
      });
  for (Fixture* f : {&full, &part}) {
    f->sim.run_until(0.05);
    ASSERT_EQ(f->graph.view_neighbors(0).size(), 4u);
    f->transport.send_fanout(0, f->graph.view_neighbors(0), Beacon{6.0, 7.0, 8.0});
  }
  EXPECT_EQ(part.transport.arena().live(), 1u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].first, 2);
  EXPECT_EQ(out[1].first, 4);

  part.sim.run();
  ASSERT_EQ(part.deliveries.size(), 2u);
  EXPECT_EQ(part.transport.arena().live(), 0u);
  EXPECT_EQ(part.transport.sent_count(), 4u);
  for (const Delivery& d : part.deliveries) out.emplace_back(d.to, d.delivered_at);

  full.sim.run();
  ASSERT_EQ(full.deliveries.size(), 4u);
  for (const auto& [to, arrival] : out) {
    const auto it = std::find_if(full.deliveries.begin(), full.deliveries.end(),
                                 [to = to](const Delivery& d) { return d.to == to; });
    ASSERT_NE(it, full.deliveries.end());
    EXPECT_EQ(it->delivered_at, arrival) << "destination " << to;
  }
}

// A delivery brought in from another replica holds one arena reference
// until it fires at the given arrival time.
TEST(Transport, InjectedDeliveryReleasesItsRefWhenItFires) {
  Fixture f;
  f.transport.inject_delivery(0, 1, 0.0, 0.3, Beacon{4.0, 5.0, 6.0});
  EXPECT_EQ(f.transport.arena().live(), 1u);
  f.sim.run();
  ASSERT_EQ(f.deliveries.size(), 1u);
  EXPECT_EQ(f.deliveries[0].delivered_at, 0.3);
  EXPECT_EQ(std::get<Beacon>(f.payloads[0]).min_estimate, 6.0);
  EXPECT_EQ(f.transport.arena().live(), 0u);
}

TEST(Transport, PartialReplicaWithoutOutboundHookRefusesToStart) {
  ScenarioSpec spec;
  spec.n = 3;
  spec.topology = ComponentSpec("line");
  spec.engine.executed = {1};
  Scenario bare(spec);
  EXPECT_THROW(bare.start(), std::runtime_error);
  Scenario hooked(spec);
  hooked.transport().set_outbound([](NodeId, NodeId, Time, Time, const Payload&) {});
  EXPECT_NO_THROW(hooked.start());
}

}  // namespace
}  // namespace gcs
