// Sweep: expand a ScenarioSpec over axes into a cross-product of runs, and
// SweepRunner: execute the grid on a worker pool with per-run deterministic
// seeding, returning structured RunResult records.
//
// Axes mutate the spec through ScenarioSpec::set(), so anything addressable
// from the CLI is sweepable ("n", "seed", "mu", "topo", "drift.period", ...).
// Each run builds its own Scenario (simulator, graph, engine, RNGs), so runs
// are independent and results are identical for any thread count; a run that
// throws is recorded as an error in its RunResult instead of aborting the
// sweep.
//
// Execution (see SweepRunner::run): workers claim grid indices one at a time
// from a shared atomic counter and write each result straight into its grid
// slot, so results come back in grid order whatever the thread count. All
// per-run state is constructed on the claiming worker's thread.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "runner/scenario.h"
#include "runner/spec.h"
#include "util/table.h"

namespace gcs {

/// Structured outcome of one run of a sweep.
struct RunResult {
  int index = 0;                            ///< position in the expanded grid
  std::string name;                         ///< spec name
  std::map<std::string, std::string> axes;  ///< this run's axis assignment
  std::uint64_t seed = 0;
  int n = 0;

  double final_global = 0.0;  ///< G at the horizon
  double max_global = 0.0;    ///< max G over samples
  double final_local = 0.0;   ///< worst edge skew at the horizon
  double max_local = 0.0;     ///< max worst edge skew over samples
  bool legal = false;         ///< gradient legality at the horizon
  double legality_margin = 0.0;
  std::uint64_t events = 0;   ///< simulator events fired
  int adversary_ops = 0;      ///< topology operations applied

  /// Experiment-specific metrics (custom run functions fill these; they
  /// become extra CSV/table columns).
  std::map<std::string, double> values;

  double wall_seconds = 0.0;
  std::string error;  ///< empty = success; otherwise what the run threw

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// A base spec plus axes to expand (cross product, declaration order; the
/// last axis varies fastest).
class Sweep {
 public:
  explicit Sweep(ScenarioSpec base) : base_(std::move(base)) {}

  Sweep& axis(const std::string& key, std::vector<std::string> values);
  Sweep& axis(const std::string& key, const std::vector<int>& values);
  Sweep& axis(const std::string& key, const std::vector<double>& values);
  Sweep& seeds(const std::vector<std::uint64_t>& values);

  struct Expanded {
    ScenarioSpec spec;
    std::map<std::string, std::string> axes;
  };
  /// The full grid; every entry's spec has all axis assignments applied.
  [[nodiscard]] std::vector<Expanded> expand() const;

  [[nodiscard]] const ScenarioSpec& base() const { return base_; }
  [[nodiscard]] std::size_t size() const;

 private:
  struct Axis {
    std::string key;
    std::vector<std::string> values;
  };
  ScenarioSpec base_;
  std::vector<Axis> axes_;
};

struct SweepOptions {
  int threads = 2;             ///< worker threads (capped at the grid size)
  double horizon = 500.0;      ///< default run function: run until this time
  double sample_period = 5.0;  ///< default run function: skew sampling cadence
  bool check_legality = true;  ///< default run function: legality at horizon
};

class SweepRunner {
 public:
  /// A run body: drive the (not yet started) scenario and fill metrics.
  /// The runner wraps it with construction, wall timing and error capture.
  using RunFn = std::function<void(Scenario&, RunResult&)>;
  /// A per-cell spec transform, applied after axis assignment and before
  /// Scenario construction. Lets an experiment derive *correlated*
  /// parameters from an axis value (e.g. G̃ as a function of the "n" axis),
  /// which a plain cross-product cannot express. Must be thread-safe.
  using SpecFn = std::function<void(ScenarioSpec&)>;

  explicit SweepRunner(SweepOptions options = {});

  /// Replace the default horizon/sampling body with an experiment-specific
  /// one (it must call scenario.start() itself).
  void set_run_fn(RunFn fn) { run_fn_ = std::move(fn); }

  /// Install a per-cell spec transform (see SpecFn).
  void set_spec_fn(SpecFn fn) { spec_fn_ = std::move(fn); }

  /// Execute the grid. Results are indexed like Sweep::expand(), identical
  /// for any thread count.
  [[nodiscard]] std::vector<RunResult> run(const Sweep& sweep) const;

  [[nodiscard]] const SweepOptions& options() const { return options_; }

  /// The default body built from `options`: start, sample skew every
  /// sample_period until horizon, record skews/legality/events.
  static RunFn default_run_fn(const SweepOptions& options);

  /// Render results as a table (axis columns + metrics + custom values).
  static Table to_table(const std::vector<RunResult>& results, const std::string& title);

  /// Write results as CSV (same columns as to_table, plus name/seed/error).
  /// `include_wall` = false omits the wall_seconds column, making the file
  /// byte-identical across thread counts and machines (used by the CI sweep
  /// determinism smoke).
  static void write_csv(const std::vector<RunResult>& results, const std::string& path,
                        bool include_wall = true);

 private:
  SweepOptions options_;
  RunFn run_fn_;
  SpecFn spec_fn_;
};

}  // namespace gcs
