// TDMA guard bands in a wireless sensor grid — the paper's own motivating
// application (§1): "if a TDMA protocol is used to coordinate access to a
// shared medium, it suffices to synchronize the clocks of nodes that
// interfere with each other".
//
// Setting: neighbor clock estimates come from reference-broadcast-style
// synchronization (RBS, the paper's citation [6]) and are tight (small ε);
// actual message routing is congested, so max-estimate flooding is stale —
// the regime where gradient synchronization matters.
//
// A TDMA slot is usable iff interfering (adjacent) nodes agree on the slot
// boundary within the guard band. We size the guard from AOPT's *certified*
// gradient bound and count real boundary violations through a mid-run
// interference-graph change. Max flooding owns no neighbor-skew guarantee
// better than the global skew: when a new link reveals hidden skew, its
// clock jump blows through any gradient-sized guard. Exits 1 if AOPT
// commits any boundary violation (Cor. 5.26 certifies zero).
#include <iostream>

#include "metrics/skew.h"
#include "runner/scenario.h"
#include "util/table.h"

using namespace gcs;

namespace {

struct TdmaOutcome {
  double steady_neighbor_skew = 0.0;  ///< phase 1: settled grid
  double event_neighbor_skew = 0.0;   ///< phase 2: after a new link appears
  double global_skew = 0.0;
  int guard_violations = 0;  ///< samples where a pair exceeded the guard
  double certified_guard = 0.0;
};

TdmaOutcome run(const std::string& algo, int rows, int cols) {
  ScenarioSpec cfg;
  cfg.name = "sensor-tdma";
  cfg.n = rows * cols;
  cfg.topology = ComponentSpec("grid");
  cfg.topology.params.set("rows", rows);
  cfg.topology.params.set("cols", cols);
  cfg.algo = ComponentSpec(algo);
  cfg.aopt.rho = 5e-3;  // cheap crystal
  cfg.aopt.mu = 0.1;
  cfg.aopt.gtilde_static = 40.0;  // dominates the flooding staleness
  cfg.drift = ComponentSpec("spread");
  cfg.estimates = ComponentSpec("uniform");  // RBS-tight estimates
  cfg.seed = 42;
  // Congested medium: store-and-forward messages pinned at max delay.
  cfg.edge_params = default_edge_params(0.1, 0.5, 2.0, 0.0);
  cfg.delays = DelayMode::kMax;
  cfg.engine.beacon_period = 1.0;
  cfg.engine.tick_period = 0.5;

  Scenario s(cfg);
  s.start();

  TdmaOutcome out;
  Engine& engine = s.engine();
  out.certified_guard =
      2.0 * gradient_bound(metric_kappa(engine, EdgeKey(0, 1)),
                           cfg.aopt.gtilde_static, cfg.aopt.sigma());

  // Phase 1: settled operation.
  s.run_until(2500.0);
  const auto interfering = topo_grid(rows, cols);
  for (int step = 0; step < 200; ++step) {
    s.run_for(2.0);
    const double worst = worst_pair_skew(engine, interfering);
    out.steady_neighbor_skew = std::max(out.steady_neighbor_skew, worst);
    if (2.0 * worst > out.certified_guard) ++out.guard_violations;
  }

  // Phase 2: the interference graph changes — a long link appears between
  // opposite corners (e.g., an obstruction moved).
  s.graph().create_edge(EdgeKey(0, rows * cols - 1), cfg.edge_params);
  for (int step = 0; step < 400; ++step) {
    s.run_for(1.0);
    const double worst = worst_pair_skew(engine, interfering);
    out.event_neighbor_skew = std::max(out.event_neighbor_skew, worst);
    if (2.0 * worst > out.certified_guard) ++out.guard_violations;
    out.global_skew = std::max(out.global_skew, engine.true_global_skew());
  }
  return out;
}

}  // namespace

int main() {
  const int rows = 4;
  const int cols = 6;
  const double slot = 12.0;  // TDMA slot length in clock units

  std::cout << "TDMA on a " << rows << "x" << cols << " sensor grid, slot = "
            << slot << " time units; guard sized from AOPT's certified "
            << "gradient bound\n";

  Table table("TDMA guard-band audit (same guard for both algorithms)");
  table.headers({"algorithm", "steady nbr skew", "nbr skew after link event",
                 "global skew", "guard", "boundary violations", "duty cycle"});

  int aopt_violations = 0;
  for (const std::string algo : {"aopt", "max-jump"}) {
    const auto out = run(algo, rows, cols);
    if (algo == "aopt") aopt_violations = out.guard_violations;
    table.row()
        .cell(algo)
        .cell(out.steady_neighbor_skew)
        .cell(out.event_neighbor_skew)
        .cell(out.global_skew)
        .cell(out.certified_guard)
        .cell(out.guard_violations)
        .cell((slot - out.certified_guard) / slot, 3);
  }
  table.print();

  std::cout
      << "AOPT's guard is *certified* by Cor. 5.26 — zero violations even as\n"
         "the interference graph changes. Max flooding must size guards by the\n"
         "global skew instead (here that would leave no usable slot at all),\n"
         "or accept collisions exactly when topology changes (§1 motivation).\n";
  return aopt_violations == 0 ? 0 : 1;
}
