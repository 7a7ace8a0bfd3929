// Partition and heal: two clusters joined by a single bridge. The bridge
// fails (the network partitions — outside the model's connectivity
// guarantee, so the clusters drift apart freely), then reappears. The
// example shows the paper's machinery healing the partition: the global
// skew between clusters is detected and drained at the guaranteed rate
// (Theorem 5.6 II), while the staged insertion brings the bridge to the
// full gradient guarantee without ever breaking legality inside the
// clusters. Exits 1 unless the bridge recovers within the Theorem 5.6 II
// drain time (skew at heal / guaranteed rate) plus one 5-unit polling step.
#include <iostream>

#include "metrics/legality.h"
#include "metrics/skew.h"
#include "runner/scenario.h"
#include "util/table.h"

using namespace gcs;

int main() {
  const int half = 6;
  const int n = 2 * half;
  const EdgeKey bridge(half - 1, half);

  ScenarioSpec cfg;
  cfg.name = "partition-heal";
  cfg.n = n;
  // Two rings joined by one bridge edge ("explicit" topology: the edge
  // list is built programmatically).
  cfg.explicit_edges.clear();
  for (int i = 0; i + 1 < half; ++i) cfg.explicit_edges.emplace_back(i, i + 1);
  cfg.explicit_edges.emplace_back(0, half - 1);
  for (int i = half; i + 1 < n; ++i) cfg.explicit_edges.emplace_back(i, i + 1);
  cfg.explicit_edges.emplace_back(half, n - 1);
  cfg.explicit_edges.push_back(bridge);

  cfg.edge_params = default_edge_params(0.05, 0.25, 0.5, 0.1);
  cfg.aopt.rho = 5e-3;  // pronounced drift so the partition visibly diverges
  cfg.aopt.mu = 0.1;
  cfg.aopt.gtilde_static = 12.0;
  // cluster A slow, cluster B fast: constant split
  cfg.drift = ComponentSpec("blocks", ParamMap{{"blocks", "2"}, {"period", "1e9"}});
  cfg.seed = 5;

  Scenario s(cfg);
  s.start();

  Table table("partition/heal timeline");
  table.headers({"t", "phase", "bridge skew", "global skew", "legal inside clusters"});
  auto report = [&](const char* phase) {
    const double bridge_skew =
        std::fabs(s.engine().logical(bridge.a) - s.engine().logical(bridge.b));
    const auto legality = check_legality(s.engine(), cfg.aopt.gtilde_static);
    table.row()
        .cell(s.sim().now(), 0)
        .cell(phase)
        .cell(bridge_skew)
        .cell(s.engine().true_global_skew())
        .cell(legality.legal());
  };

  s.run_until(150.0);
  report("joined");

  // --- partition ---
  s.graph().destroy_edge(bridge);
  for (Time t : {300.0, 450.0, 600.0}) {
    s.run_until(t);
    report("partitioned");
  }

  // --- heal ---
  s.graph().create_edge(bridge, cfg.edge_params);
  const Time healed_at = s.sim().now();
  report("bridge back");
  const double skew_at_heal =
      std::fabs(s.engine().logical(bridge.a) - s.engine().logical(bridge.b));

  // Watch the inter-cluster skew drain; Theorem 5.6 II promises at least
  // mu(1-rho) - 2rho per time unit once above D(t)+iota.
  const double guaranteed_rate =
      cfg.aopt.mu * (1.0 - cfg.aopt.rho) - 2.0 * cfg.aopt.rho;
  Time recovered = kTimeInf;
  while (s.sim().now() < healed_at + 1000.0) {
    s.run_for(5.0);
    if (std::fabs(s.engine().logical(bridge.a) - s.engine().logical(bridge.b)) <
        0.5) {
      recovered = s.sim().now();
      break;
    }
  }
  report("recovered");
  s.run_until(s.sim().now() + 100.0);
  report("steady");
  table.print();

  const Duration drain_bound = skew_at_heal / guaranteed_rate + 5.0;
  const bool within_bound = recovered - healed_at <= drain_bound;
  std::cout << "inter-cluster skew at heal: " << format_double(skew_at_heal)
            << "\nrecovery took " << format_double(recovered - healed_at, 1)
            << " (guaranteed drain rate " << format_double(guaranteed_rate, 4)
            << " => at most ~" << format_double(skew_at_heal / guaranteed_rate, 1)
            << ")\nnote: legality inside the clusters held through partition "
               "AND healing —\nthe staged bridge insertion never disrupts "
               "edges that stayed alive (§4.2).\n"
            << "recovery within the Thm 5.6 II drain time + one polling step ("
            << format_double(drain_bound, 1) << "): " << (within_bound ? "YES" : "NO")
            << "\n";
  return within_bound ? 0 : 1;
}
