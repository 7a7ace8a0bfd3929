// A mobile swarm: nodes wander in the unit square; links exist within radio
// range and therefore appear and disappear continuously — the "highly
// dynamic network" of the paper's title. Connectivity is preserved (the
// model's only topological requirement) by refusing range-losses that would
// disconnect the adversary-level graph.
//
// Demonstrates: staged insertion under real churn, dynamic global-skew
// estimates (§7), and the gradient property holding on long-lived links
// while the topology never stops changing. Exits 1 if any checkpoint finds
// the gradient legality condition violated.
#include <iostream>

#include "metrics/legality.h"
#include "metrics/skew.h"
#include "runner/scenario.h"
#include "util/table.h"

using namespace gcs;

int main() {
  const int n = 20;
  const double radius = 0.38;
  const Duration move_every = 25.0;
  const double step_size = 0.03;
  const Time horizon = 1200.0;

  ScenarioSpec spec;
  spec.name = "mobile-swarm";
  spec.n = n;
  spec.topology = ComponentSpec("geometric");
  spec.topology.params.set("radius", radius);
  spec.edge_params = default_edge_params(0.05, 0.25, 0.5, 0.1);
  spec.aopt.rho = 1e-3;
  spec.aopt.mu = 0.1;
  spec.gtilde_auto = true;
  spec.aopt.insertion = InsertionPolicy::kStagedDynamic;
  spec.aopt.B = 8.0;
  spec.gskew = ComponentSpec("distributed");  // §7: fully distributed estimates
  spec.drift = ComponentSpec("walk");
  spec.seed = 99;

  Scenario s(spec);
  s.start();
  Rng rng(7);
  std::vector<Point2> positions = s.positions();  // geometric layout

  // Mobility process: every `move_every`, each node takes a bounded random
  // step; links are recomputed from the new distances.
  int links_made = 0;
  int links_lost = 0;
  std::function<void()> move = [&] {
    for (auto& p : positions) {
      p.x = std::clamp(p.x + rng.uniform(-step_size, step_size), 0.0, 1.0);
      p.y = std::clamp(p.y + rng.uniform(-step_size, step_size), 0.0, 1.0);
    }
    const auto in_range = edges_within_radius(positions, radius);
    std::unordered_map<EdgeKey, bool, EdgeKeyHash> want;
    for (const auto& e : in_range) want[e] = true;
    // Drop links that left range (if the graph stays connected), add new ones.
    for (const auto& e : s.graph().adversary_edges()) {
      if (!want.count(e) && s.graph().connected_without(e)) {
        s.graph().destroy_edge(e);
        ++links_lost;
      }
    }
    for (const auto& e : in_range) {
      if (!s.graph().adversary_present(e)) {
        s.graph().create_edge(e, spec.edge_params);
        ++links_made;
      }
    }
    if (s.sim().now() + move_every < horizon) {
      s.sim().schedule_after(move_every, move);
    }
  };
  s.sim().schedule_after(move_every, move);

  // Observe while the swarm moves.
  Table table("mobile swarm timeline");
  table.headers({"t", "links", "global skew", "worst stable-link skew",
                 "legality margin"});
  double worst_stable = 0.0;
  const double stable_for = 150.0;
  bool always_legal = true;
  for (int checkpoint = 1; checkpoint <= 8; ++checkpoint) {
    s.run_until(horizon * checkpoint / 8.0);
    double stable_skew = 0.0;
    int live_links = 0;
    for (const auto& e : s.graph().known_edges()) {
      if (!s.graph().both_views_present(e)) continue;
      ++live_links;
      const Time since = s.graph().both_views_since(e);
      if (s.sim().now() - since < stable_for) continue;
      stable_skew = std::max(
          stable_skew, std::fabs(s.engine().logical(e.a) - s.engine().logical(e.b)));
    }
    worst_stable = std::max(worst_stable, stable_skew);
    const auto legality = check_legality(s.engine(), s.spec().aopt.gtilde_static);
    always_legal = always_legal && legality.legal();
    table.row()
        .cell(s.sim().now(), 0)
        .cell(live_links)
        .cell(s.engine().true_global_skew())
        .cell(stable_skew)
        .cell(legality.worst_margin);
  }
  table.print();
  std::cout << "mobility events: " << links_made << " links formed, " << links_lost
            << " links lost\n"
            << "worst skew ever observed on a link stable for >= "
            << format_double(stable_for, 0) << ": " << format_double(worst_stable)
            << "\n(the gradient guarantee applies to exactly these links — "
               "paper Def. 3.3)\n"
            << "gradient legality at every checkpoint: "
            << (always_legal ? "HELD" : "VIOLATED") << "\n";
  return always_legal ? 0 : 1;
}
