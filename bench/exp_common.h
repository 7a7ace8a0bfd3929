// What the paper_claims driver and its claims (bench/claims_*.cpp) share:
// the claim interface and the scenario helpers.
//
// Each claim (E1–E15; E12 is bench_kernel) is a Registry<ClaimFn> entry
// keyed by its id; the description names the paper § / theorem and the
// ParamDocs are its flags. Claims build their own specs, and their grids run
// through SweepRunner, so results do not depend on --threads.
#pragma once

#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "metrics/diameter.h"
#include "metrics/legality.h"
#include "metrics/recorder.h"
#include "metrics/skew.h"
#include "runner/scenario.h"
#include "runner/sweep.h"
#include "util/registry.h"
#include "util/stats.h"
#include "util/table.h"

namespace gcs::bench {

/// A running claim: the driver's sweep settings and the claim's verdicts.
struct Claim {
  SweepOptions options;
  int failed_verdicts = 0;

  /// Run `sweep` with `run_fn` (and an optional per-cell spec transform),
  /// results in grid order. A failed run fails the claim: every failed run's
  /// error is printed, then this throws.
  [[nodiscard]] std::vector<RunResult> run(const Sweep& sweep, SweepRunner::RunFn run_fn,
                                           SweepRunner::SpecFn spec_fn = {}) const;

  /// Record one of the claim's own verdicts; a false one fails the claim.
  void verdict(bool ok, const std::string& what);
};

/// A claim's factory reads its flags (a malformed one throws: the driver's
/// usage error, before any claim runs) and returns the claim's body.
using ClaimBody = std::function<void(Claim&)>;
using ClaimFn = std::function<ClaimBody(const ParamMap&)>;

void register_skew_claims(Registry<ClaimFn>& r);
void register_dynamics_claims(Registry<ClaimFn>& r);

/// The comma-separated integers under `key` (`def` when absent), parsed
/// strictly; fewer than `min_count` of them throws.
std::vector<int> int_list(const ParamMap& p, const std::string& key, const std::string& def,
                          std::size_t min_count = 1);

/// Line-topology spec tuned for bench runtimes: mu at the eq. (7) maximum,
/// smaller edge uncertainties than the test defaults, G̃ auto-derived from
/// the topology at Scenario build time.
ScenarioSpec fast_line_spec(int n);

/// The §8-flavored adversarial communication regime: every message takes the
/// maximum delay and no transit compensation is possible, so max-estimate
/// staleness (and hence hidden skew) is Θ(D).
void apply_adversarial_delays(ScenarioSpec& spec, double delay_max = 2.0,
                              double beacon_period = 1.0);

/// Max |L_a - L_b| over a fixed set of edges at the current instant.
double worst_skew_over(Engine& engine, const std::vector<EdgeKey>& edges);

/// Scatter logical clocks linearly across node ids up to `span` end-to-end
/// (the standard way the experiments leave the steady regime).
void scatter_clocks_linearly(Scenario& s, double span);

}  // namespace gcs::bench
