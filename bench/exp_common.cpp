#include "exp_common.h"

namespace gcs::bench {

std::vector<RunResult> Claim::run(const Sweep& sweep, SweepRunner::RunFn run_fn,
                                  SweepRunner::SpecFn spec_fn) const {
  SweepRunner runner(options);
  runner.set_run_fn(std::move(run_fn));
  runner.set_spec_fn(std::move(spec_fn));
  auto results = runner.run(sweep);
  int failed = 0;
  for (const RunResult& r : results) {
    if (r.ok()) continue;
    std::cerr << "run";
    for (const auto& [key, value] : r.axes) std::cerr << " " << key << "=" << value;
    std::cerr << " failed: " << r.error << "\n";
    ++failed;
  }
  require(failed == 0, std::to_string(failed) + " of " + std::to_string(results.size()) +
                           " runs failed");
  return results;
}

void Claim::verdict(bool ok, const std::string& what) {
  if (ok) return;
  std::cerr << "verdict failed: " << what << "\n";
  ++failed_verdicts;
}

std::vector<int> int_list(const ParamMap& p, const std::string& key, const std::string& def,
                          std::size_t min_count) {
  std::vector<int> out;
  for (const std::string& token : split(p.get_str(key, def), ',')) {
    out.push_back(parse_strict_int("param '" + key + "'", token));
  }
  require(out.size() >= min_count,
          "param '" + key + "': needs at least " + std::to_string(min_count) + " values");
  return out;
}

ScenarioSpec fast_line_spec(int n) {
  ScenarioSpec spec;
  spec.n = n;
  spec.topology = ComponentSpec("line");
  spec.edge_params = default_edge_params(/*eps=*/0.05, /*tau=*/0.25,
                                         /*delay_max=*/0.5, /*delay_min=*/0.1);
  spec.aopt.rho = 1e-3;
  spec.aopt.mu = 0.1;  // eq. (7) maximum: fastest convergence
  spec.gtilde_auto = true;
  spec.drift = ComponentSpec("spread");
  spec.estimates = ComponentSpec("uniform");
  spec.engine.tick_period = 0.25;
  spec.engine.beacon_period = 0.25;
  return spec;
}

void apply_adversarial_delays(ScenarioSpec& spec, double delay_max,
                              double beacon_period) {
  spec.edge_params = default_edge_params(0.1, 0.5, delay_max, /*delay_min=*/0.0);
  spec.delays = DelayMode::kMax;
  spec.engine.beacon_period = beacon_period;
  spec.engine.tick_period = beacon_period / 2.0;
}

void scatter_clocks_linearly(Scenario& s, double span) {
  const int n = s.spec().n;
  if (n < 2) return;  // nothing to scatter (and avoid 0/0)
  const double base = s.engine().logical(0);
  for (NodeId u = 0; u < n; ++u) {
    s.engine().corrupt_logical(u, base + span * static_cast<double>(u) /
                                          static_cast<double>(n - 1));
  }
}

}  // namespace gcs::bench
