#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "core/params.h"
#include "graph/adversary.h"
#include "graph/dynamic_graph.h"
#include "graph/paths.h"
#include "graph/topology.h"
#include "runner/scenario.h"
#include "sim/simulator.h"

namespace gcs {
namespace {

EdgeParams params_with_tau(double tau) {
  EdgeParams p;
  p.eps = 0.1;
  p.tau = tau;
  p.msg_delay_max = 0.5;
  p.msg_delay_min = 0.1;
  return p;
}

TEST(Topology, LineRingStarCounts) {
  EXPECT_EQ(topo_line(5).size(), 4u);
  EXPECT_EQ(topo_ring(5).size(), 5u);
  EXPECT_EQ(topo_star(5).size(), 4u);
  EXPECT_EQ(topo_complete(5).size(), 10u);
  EXPECT_EQ(topo_grid(3, 4).size(), 3u * 3u + 4u * 2u);
  EXPECT_EQ(topo_torus(3, 3).size(), 18u);
}

TEST(Topology, HopDiameters) {
  EXPECT_EQ(hop_diameter(6, topo_line(6)), 5);
  EXPECT_EQ(hop_diameter(6, topo_ring(6)), 3);
  EXPECT_EQ(hop_diameter(6, topo_star(6)), 2);
  EXPECT_EQ(hop_diameter(6, topo_complete(6)), 1);
  EXPECT_EQ(hop_diameter(3, {EdgeKey(0, 1)}), -1);  // disconnected
}

TEST(Topology, RandomTreeIsConnectedSpanning) {
  Rng rng(3);
  const auto edges = topo_random_tree(20, rng);
  EXPECT_EQ(edges.size(), 19u);
  EXPECT_GT(hop_diameter(20, edges), 0);
}

TEST(Topology, GnpConnected) {
  Rng rng(5);
  const auto edges = topo_gnp_connected(24, 0.15, rng);
  EXPECT_GE(hop_diameter(24, edges), 1);
}

TEST(Topology, RandomGeometricConnectedWithPositions) {
  Rng rng(7);
  std::vector<Point2> pos;
  const auto edges = topo_random_geometric(30, 0.2, rng, &pos);
  EXPECT_EQ(pos.size(), 30u);
  EXPECT_GE(hop_diameter(30, edges), 1);
}

TEST(DynamicGraph, InstantCreationVisibleToBothViews) {
  Simulator sim;
  DynamicGraph g(sim, 4);
  g.create_edge_instant(EdgeKey(0, 1), params_with_tau(0.5));
  EXPECT_TRUE(g.view_present(0, 1));
  EXPECT_TRUE(g.view_present(1, 0));
  EXPECT_TRUE(g.both_views_present(EdgeKey(0, 1)));
  EXPECT_FALSE(g.view_present(0, 2));
  ASSERT_EQ(g.view_neighbors(0).size(), 1u);
  EXPECT_EQ(g.view_neighbors(0)[0].id, 1);
}

TEST(DynamicGraph, DetectionDelayBoundedByTau) {
  Simulator sim;
  DynamicGraph g(sim, 2, 11);
  g.set_detection_delay_mode(DetectionDelayMode::kUniform);
  const double tau = 0.5;
  sim.run_until(10.0);
  g.create_edge(EdgeKey(0, 1), params_with_tau(tau));
  sim.run_until(10.0 + tau + 1e-9);
  EXPECT_TRUE(g.view_present(0, 1));
  EXPECT_TRUE(g.view_present(1, 0));
  // Removal detected within tau as well.
  g.destroy_edge(EdgeKey(0, 1));
  sim.run_until(sim.now() + tau + 1e-9);
  EXPECT_FALSE(g.view_present(0, 1));
  EXPECT_FALSE(g.view_present(1, 0));
}

TEST(DynamicGraph, MaxAsymmetryMode) {
  Simulator sim;
  DynamicGraph g(sim, 2, 11);
  g.set_detection_delay_mode(DetectionDelayMode::kMax);
  sim.run_until(5.0);
  g.create_edge(EdgeKey(0, 1), params_with_tau(1.0));
  // Endpoint a detects instantly, b after exactly tau.
  EXPECT_TRUE(g.view_present(0, 1));
  EXPECT_FALSE(g.view_present(1, 0));
  sim.run_until(6.0 + 1e-9);
  EXPECT_TRUE(g.view_present(1, 0));
}

TEST(DynamicGraph, FlappingEdgeResolvesToFinalState) {
  Simulator sim;
  DynamicGraph g(sim, 2, 13);
  g.set_detection_delay_mode(DetectionDelayMode::kUniform);
  sim.run_until(1.0);
  const EdgeKey e(0, 1);
  const auto p = params_with_tau(0.5);
  g.create_edge(e, p);
  g.destroy_edge(e);
  g.create_edge(e, p);
  g.destroy_edge(e);
  sim.run_until(3.0);
  EXPECT_FALSE(g.view_present(0, 1));
  EXPECT_FALSE(g.view_present(1, 0));
  EXPECT_FALSE(g.adversary_present(e));
}

TEST(DynamicGraph, ListenerSeesDiscoveryAndLoss) {
  struct Recorder : DynamicGraph::Listener {
    std::vector<std::pair<NodeId, NodeId>> ups, downs;
    void on_edge_discovered(NodeId u, NodeId peer) override { ups.emplace_back(u, peer); }
    void on_edge_lost(NodeId u, NodeId peer) override { downs.emplace_back(u, peer); }
  };
  Simulator sim;
  DynamicGraph g(sim, 3, 17);
  Recorder rec;
  g.set_listener(&rec);
  g.set_detection_delay_mode(DetectionDelayMode::kZero);
  g.create_edge(EdgeKey(0, 2), params_with_tau(0.1));
  EXPECT_EQ(rec.ups.size(), 2u);
  g.destroy_edge(EdgeKey(0, 2));
  EXPECT_EQ(rec.downs.size(), 2u);
}

TEST(DynamicGraph, ViewSinceTracksLatestDiscovery) {
  Simulator sim;
  DynamicGraph g(sim, 2, 19);
  g.set_detection_delay_mode(DetectionDelayMode::kZero);
  const EdgeKey e(0, 1);
  sim.run_until(2.0);
  g.create_edge(e, params_with_tau(0.1));
  EXPECT_DOUBLE_EQ(g.view_since(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(g.both_views_since(e), 2.0);
  sim.run_until(5.0);
  g.destroy_edge(e);
  g.create_edge(e, params_with_tau(0.1));
  EXPECT_DOUBLE_EQ(g.view_since(0, 1), 5.0);
}

TEST(DynamicGraph, ParamsMustNotChangeAcrossReinsertion) {
  Simulator sim;
  DynamicGraph g(sim, 2, 23);
  const EdgeKey e(0, 1);
  g.create_edge(e, params_with_tau(0.5));
  g.destroy_edge(e);
  EXPECT_THROW(g.create_edge(e, params_with_tau(0.7)), std::runtime_error);
}

TEST(DynamicGraph, ConnectivityQueries) {
  Simulator sim;
  DynamicGraph g(sim, 4, 29);
  const auto p = params_with_tau(0.1);
  for (const auto& e : topo_line(4)) g.create_edge_instant(e, p);
  EXPECT_TRUE(g.adversary_connected());
  EXPECT_FALSE(g.connected_without(EdgeKey(1, 2)));  // bridge
  g.create_edge_instant(EdgeKey(0, 3), p);
  EXPECT_TRUE(g.connected_without(EdgeKey(1, 2)));  // ring now
}

TEST(Paths, DijkstraOnWeightedLine) {
  const auto edges = topo_line(5);
  const auto adj = build_adjacency(5, edges, [](const EdgeKey&) { return 2.0; });
  const auto dist = dijkstra(adj, 0);
  EXPECT_DOUBLE_EQ(dist[4], 8.0);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
}

TEST(Paths, DijkstraPrefersLightPath) {
  // 0-1-2 with weights 1,1 and direct 0-2 with weight 5.
  std::vector<EdgeKey> edges{EdgeKey(0, 1), EdgeKey(1, 2), EdgeKey(0, 2)};
  const auto adj = build_adjacency(3, edges, [](const EdgeKey& e) {
    return (e == EdgeKey(0, 2)) ? 5.0 : 1.0;
  });
  EXPECT_DOUBLE_EQ(dijkstra(adj, 0)[2], 2.0);
}

TEST(Paths, UnreachableIsInfinite) {
  const auto adj = build_adjacency(3, {EdgeKey(0, 1)}, [](const EdgeKey&) { return 1.0; });
  EXPECT_TRUE(std::isinf(dijkstra(adj, 0)[2]));
  EXPECT_EQ(bfs_hops(adj, 0)[2], -1);
  EXPECT_TRUE(std::isinf(weighted_diameter(adj)));
}

TEST(Paths, WeightedDiameterOfRing) {
  const auto adj = build_adjacency(6, topo_ring(6), [](const EdgeKey&) { return 1.0; });
  EXPECT_DOUBLE_EQ(weighted_diameter(adj), 3.0);
}

/// Reference diameter: Dijkstra from every source, max over all distances.
double all_pairs_dijkstra_diameter(const AdjacencyList& adj) {
  double diameter = 0.0;
  for (NodeId u = 0; u < static_cast<NodeId>(adj.size()); ++u) {
    for (double d : dijkstra(adj, u)) diameter = std::max(diameter, d);
  }
  return diameter;
}

TEST(Paths, UniformWeightDiameterIsBitIdenticalToDijkstra) {
  // suggest_gtilde's graph: every edge weighs the same kappa. That kappa is
  // 0.3125, whose sums are exact, so 0.1 (whose repeated sums round) also
  // runs: it tells the sequential sum from e.g. hops * w.
  const double kappa =
      AlgoParams{}.edge_constants(default_edge_params(0.05, 0.25, 0.5, 0.1)).kappa;
  Rng rng(11);
  std::vector<Point2> positions;
  const struct {
    const char* name;
    int n;
    std::vector<EdgeKey> edges;
  } cases[] = {
      {"grid-64x64", 64 * 64, topo_grid(64, 64)},
      {"grid-7x13", 7 * 13, topo_grid(7, 13)},
      {"ring", 101, topo_ring(101)},
      {"complete", 64, topo_complete(64)},
      {"star", 50, topo_star(50)},
      {"gnp", 60, topo_gnp_connected(60, 0.08, rng)},
      {"random-geometric", 80, topo_random_geometric(80, 0.2, rng, &positions)},
      {"random-tree", 70, topo_random_tree(70, rng)},
  };
  for (const auto& c : cases) {
    for (const double w : {kappa, 0.1}) {
      const auto adj = build_adjacency(c.n, c.edges, [w](const EdgeKey&) { return w; });
      const double expect = all_pairs_dijkstra_diameter(adj);
      ASSERT_TRUE(std::isfinite(expect)) << c.name;
      EXPECT_EQ(weighted_diameter(adj), expect) << c.name << " w=" << w;
    }
  }
}

TEST(Paths, UniformWeightDiameterEdgeCases) {
  const auto weight = [](const EdgeKey&) { return 0.3; };
  // Disconnected: a ring of 4 plus two isolated nodes, and an edgeless pair.
  EXPECT_TRUE(std::isinf(weighted_diameter(build_adjacency(6, topo_ring(4), weight))));
  EXPECT_TRUE(std::isinf(weighted_diameter(build_adjacency(2, {}, weight))));
  EXPECT_EQ(weighted_diameter(build_adjacency(1, {}, weight)), 0.0);
  EXPECT_EQ(weighted_diameter(build_adjacency(0, {}, weight)), 0.0);
}

TEST(Paths, HopDiameterMatchesAllPairsDijkstraOnSeededGraphs) {
  // iFUB stops early on a bound; these families give it peripheries, bridges,
  // symmetric graphs and disconnected inputs to get that bound wrong on.
  const double kappa =
      AlgoParams{}.edge_constants(default_edge_params(0.05, 0.25, 0.5, 0.1)).kappa;
  Rng rng(29);
  std::vector<Point2> positions;
  const auto shifted = [](std::vector<EdgeKey> edges) {
    for (auto& e : edges) e = EdgeKey(e.a + 1, e.b + 1);
    return edges;
  };
  struct Case {
    std::string name;
    int n;
    std::vector<EdgeKey> edges;
  };
  std::vector<Case> cases;
  for (int i = 0; i < 60; ++i) {
    const double p = std::array{0.05, 0.1, 0.2, 0.4}[static_cast<std::size_t>(i % 4)];
    cases.push_back({"gnp p=" + std::to_string(p), 8 + i, topo_gnp_connected(8 + i, p, rng)});
  }
  for (int i = 0; i < 40; ++i) {
    const double radius = 0.15 + 0.05 * (i % 4);
    cases.push_back({"random-geometric", 10 + 2 * i,
                     topo_random_geometric(10 + 2 * i, radius, rng, &positions)});
  }
  for (int i = 0; i < 40; ++i) {
    const int n = 10 + 3 * i;
    auto edges = topo_random_tree(n, rng);
    for (int c = 0; c <= i % 5; ++c) {
      const auto u = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
      const auto v = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)));
      if (u != v) edges.emplace_back(u, v);
    }
    cases.push_back({"tree+chords", n, edges});
  }
  for (int k = 2; k <= 6; ++k) {
    for (int path = 0; path <= 4; ++path) {
      cases.push_back({"barbell", 2 * k + path, topo_barbell(k, path)});
    }
  }
  for (int k = 3; k <= 7; ++k) {
    for (const int tail : {0, 1, 3, 8}) {
      auto edges = topo_complete(k);
      for (int i = 0; i < tail; ++i) edges.emplace_back(k - 1 + i, k + i);
      cases.push_back({"lollipop", k + tail, edges});
    }
  }
  for (int rows = 3; rows <= 6; ++rows) {
    for (int cols = 3; cols <= 6; ++cols) {
      cases.push_back({"torus", rows * cols, topo_torus(rows, cols)});
    }
  }
  for (int dim = 1; dim <= 8; ++dim) {
    cases.push_back({"hypercube", 1 << dim, topo_hypercube(dim)});
  }
  for (int i = 0; i < 10; ++i) {
    const int n = 6 + 4 * i;
    cases.push_back({"isolated-first", n, shifted(topo_gnp_connected(n - 1, 0.3, rng))});
    cases.push_back({"isolated-last", n, topo_gnp_connected(n - 1, 0.3, rng)});
  }
  ASSERT_GE(cases.size(), 200u);

  const auto unit = [](const EdgeKey&) { return 1.0; };
  for (const auto& c : cases) {
    const double hops = all_pairs_dijkstra_diameter(build_adjacency(c.n, c.edges, unit));
    EXPECT_EQ(hop_diameter(c.n, c.edges), std::isinf(hops) ? -1 : static_cast<int>(hops))
        << c.name << " n=" << c.n;
    for (const double w : {kappa, 0.1}) {
      const auto adj = build_adjacency(c.n, c.edges, [w](const EdgeKey&) { return w; });
      EXPECT_EQ(weighted_diameter(adj), all_pairs_dijkstra_diameter(adj))
          << c.name << " n=" << c.n << " w=" << w;
    }
  }
}

TEST(Paths, HopDiameterClosedFormsAtScale) {
  // One BFS per node would take hours on the grid; iFUB needs a handful.
  EXPECT_EQ(hop_diameter(512 * 512, topo_grid(512, 512)), 1022);
  EXPECT_EQ(hop_diameter(64 * 64, topo_torus(64, 64)), 64);
  EXPECT_EQ(hop_diameter(1 << 12, topo_hypercube(12)), 12);
  EXPECT_EQ(hop_diameter(10001, topo_ring(10001)), 5000);
}

TEST(Paths, BuildAdjacencyRejectsOutOfRangeEndpoints) {
  const auto unit = [](const EdgeKey&) { return 1.0; };
  EXPECT_THROW(build_adjacency(3, {EdgeKey(-1, 2)}, unit), std::runtime_error);
  EXPECT_THROW(hop_diameter(3, {EdgeKey(0, 1), EdgeKey(2, 5)}), std::runtime_error);
  try {
    build_adjacency(3, {EdgeKey(0, 1), EdgeKey(1, 3)}, unit);
    FAIL() << "endpoint 3 is outside [0, 3)";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("{1,3}"), std::string::npos) << e.what();
  }
}

TEST(Paths, MixedWeightDiameterStaysDijkstra) {
  // The heavy 0-2 chord must not be taken for one hop.
  const std::vector<EdgeKey> triangle{EdgeKey(0, 1), EdgeKey(1, 2), EdgeKey(0, 2)};
  const auto tri = build_adjacency(3, triangle, [](const EdgeKey& e) {
    return (e == EdgeKey(0, 2)) ? 5.0 : 1.0;
  });
  EXPECT_EQ(weighted_diameter(tri), 2.0);

  const auto grid = build_adjacency(7 * 13, topo_grid(7, 13), [](const EdgeKey& e) {
    return 0.7 + 0.1 * static_cast<double>((e.a + 3 * e.b) % 5);
  });
  EXPECT_EQ(weighted_diameter(grid), all_pairs_dijkstra_diameter(grid));
}

TEST(ScriptedAdversaryTest, ReplaysEvents) {
  Simulator sim;
  DynamicGraph g(sim, 3, 31);
  g.set_detection_delay_mode(DetectionDelayMode::kZero);
  ScriptedAdversary adv(sim, g);
  adv.add_create(1.0, EdgeKey(0, 1), params_with_tau(0.1));
  adv.add_create(2.0, EdgeKey(1, 2), params_with_tau(0.1));
  adv.add_destroy(3.0, EdgeKey(0, 1));
  adv.arm();
  sim.run_until(1.5);
  EXPECT_TRUE(g.both_views_present(EdgeKey(0, 1)));
  EXPECT_FALSE(g.both_views_present(EdgeKey(1, 2)));
  sim.run_until(4.0);
  EXPECT_FALSE(g.both_views_present(EdgeKey(0, 1)));
  EXPECT_TRUE(g.both_views_present(EdgeKey(1, 2)));
}

TEST(ChurnAdversaryTest, KeepsGraphConnected) {
  Simulator sim;
  DynamicGraph g(sim, 8, 37);
  g.set_detection_delay_mode(DetectionDelayMode::kZero);
  const auto p = params_with_tau(0.1);
  const auto ring = topo_ring(8);
  for (const auto& e : ring) g.create_edge_instant(e, p);
  auto candidates = topo_complete(8);
  ChurnAdversary::Config config;
  config.ops_per_time = 2.0;
  ChurnAdversary churn(sim, g, candidates, p, config, 41);
  churn.arm();
  for (int step = 0; step < 50; ++step) {
    sim.run_until(step * 2.0);
    EXPECT_TRUE(g.adversary_connected()) << "disconnected at t=" << sim.now();
  }
  EXPECT_GT(churn.removals() + churn.additions(), 10);
}

}  // namespace
}  // namespace gcs
