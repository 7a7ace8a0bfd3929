// simulate_cli — a configurable scenario driver built on the component
// registries: pick topology, algorithm, drift model, estimate layer,
// global-skew estimator and adversary by name, run, and get skew/legality
// reports plus optional CSV time series and event traces.
//
// Examples:
//   simulate_cli                                    # defaults: AOPT on a 16-ring
//   simulate_cli --list                             # enumerate all components
//   simulate_cli --topo=grid:rows=4,cols=6 --algo=max-jump --horizon=500
//   simulate_cli --topo=line --n=32 --drift=blocks:period=100
//   simulate_cli --topo=geometric --n=24 --adversary=churn:rate=0.05 --gskew=distributed
//   simulate_cli --sweep=n --values=8,16,32 --threads=4
//   simulate_cli --trace=trace.csv --series=skew.csv
#include <iostream>

#include "metrics/diameter.h"
#include "metrics/legality.h"
#include "metrics/recorder.h"
#include "metrics/skew.h"
#include "metrics/trace.h"
#include "runner/registries.h"
#include "runner/scenario.h"
#include "runner/sweep.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/table.h"

using namespace gcs;

namespace {

/// Runner-level flags that are not ScenarioSpec keys.
const std::vector<std::string> kReservedFlags = {
    "horizon", "sample", "trace", "series", "list", "help",
    "sweep",   "values", "threads", "csv", "csv-deterministic",
};

int fail_usage(const std::string& message) {
  std::cerr << "error: " << message << "\n\n"
            << "usage: simulate_cli [--key=value ...]\n"
            << "scenario keys (shared with benches/tests via ScenarioSpec):\n"
            << ScenarioSpec::key_help()
            << "runner keys:\n"
            << "  --horizon=500 --sample=5\n"
            << "  --trace=FILE.csv --series=FILE.csv\n"
            << "  --sweep=<spec key> --values=v1,v2,... --threads=2 --csv=FILE.csv\n"
            << "  --csv-deterministic   omit wall_seconds so the sweep CSV is\n"
            << "                        byte-identical for any --threads value\n"
            << "  --list   enumerate every registered component and its params\n";
  return 2;
}

std::vector<std::string> nonempty_tokens(const std::string& text) {
  std::vector<std::string> out;
  for (std::string& token : split(text, ',')) {
    if (!token.empty()) out.push_back(std::move(token));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);

  if (flags.has("list")) {
    print_registries(std::cout);
    return 0;
  }
  if (flags.has("help")) return fail_usage("");

  ScenarioSpec spec;
  try {
    spec = ScenarioSpec::from_flags(flags, kReservedFlags);
    if (spec.name == "scenario") spec.name = "simulate-cli";
    // CLI default: a 16-ring with an auto-derived G̃ unless overridden.
    // Replace only the kind: params the user attached (e.g. --radius without
    // --topo) must survive so validate() can reject them if they don't apply.
    if (spec.topology.kind == "explicit") spec.topology.kind = "ring";
    if (!flags.has("n")) spec.n = 16;
    if (!flags.has("gtilde")) spec.gtilde_auto = true;
    spec.validate();
  } catch (const std::exception& e) {
    return fail_usage(e.what());
  }

  const double horizon = flags.get("horizon", 500.0);
  const double sample = flags.get("sample", 5.0);

  // ---- sweep mode: expand one axis and run the grid on a thread pool ----
  if (flags.has("sweep")) {
    if (flags.has("trace") || flags.has("series")) {
      return fail_usage("--trace/--series apply to single runs, not --sweep "
                        "(use --csv=FILE for sweep results)");
    }
    const std::string axis_key = flags.get("sweep", std::string());
    const auto values = nonempty_tokens(flags.get("values", std::string()));
    if (values.empty()) return fail_usage("--sweep needs --values=v1,v2,...");
    SweepOptions options;
    options.threads = flags.get("threads", 2);
    options.horizon = horizon;
    options.sample_period = sample;
    Sweep sweep(spec);
    try {
      sweep.axis(axis_key, values);
      const auto results = SweepRunner(options).run(sweep);
      SweepRunner::to_table(results, "simulate_cli sweep over " + axis_key).print();
      if (flags.has("csv")) {
        // A bare --csv (no value) parses as "true"; use the default name.
        std::string path = flags.get("csv", std::string());
        if (path.empty() || path == "true") path = "sweep.csv";
        SweepRunner::write_csv(results, path,
                               /*include_wall=*/!flags.has("csv-deterministic"));
        std::cout << "wrote sweep results to " << path << "\n";
      }
      for (const auto& r : results) {
        if (!r.ok()) return 1;
      }
      return 0;
    } catch (const std::exception& e) {
      return fail_usage(e.what());
    }
  }

  // ---- single run ----
  const auto validation = spec.aopt.validate();
  std::cout << validation.str();

  Scenario s(spec);
  std::unique_ptr<ExecutionTrace> trace;
  if (flags.has("trace")) {
    trace = std::make_unique<ExecutionTrace>(s.engine(), flags.get("sample", 5.0));
  }
  s.start();

  TimeSeries global_series;
  TimeSeries local_series;
  PeriodicSampler sampler(s.sim(), sample, [&](Time t) {
    const auto snap = measure_skew(s.engine());
    global_series.add(t, snap.global);
    local_series.add(t, snap.worst_local);
  });
  sampler.start(sample);
  s.run_until(horizon);

  // ---- report ----
  const double ghat = s.spec().aopt.gtilde_static;
  Table table("simulate_cli: " + s.spec().topology.str() + " n=" +
              std::to_string(s.spec().n) + ", " + s.spec().algo.str() +
              ", horizon=" + format_double(horizon, 0));
  table.headers({"metric", "value"});
  table.row().cell("sigma").cell(s.spec().aopt.sigma());
  table.row().cell("Ghat (static budget)").cell(ghat);
  table.row().cell("D^ estimate").cell(estimate_dynamic_diameter(s.engine()));
  table.row().cell("global skew (final)").cell(global_series.last());
  table.row().cell("global skew (max)").cell(global_series.max());
  table.row().cell("worst local skew (max)").cell(local_series.max());
  const auto legality = check_legality(s.engine(), ghat);
  table.row().cell("legality").cell(legality.legal());
  table.row().cell("legality margin").cell(legality.worst_margin);
  table.row().cell("events fired").cell(static_cast<long long>(s.sim().fired_count()));
  if (s.adversary() != nullptr) {
    table.row().cell("adversary ops").cell(s.adversary()->operations());
  }
  table.print();

  if (flags.has("series")) {
    CsvWriter csv(flags.get("series", std::string("series.csv")));
    csv.row({"t", "global_skew", "worst_local_skew"});
    for (std::size_t i = 0; i < global_series.points().size(); ++i) {
      csv.field(global_series.points()[i].first)
          .field(global_series.points()[i].second)
          .field(local_series.points()[i].second)
          .endrow();
    }
    std::cout << "wrote series to " << flags.get("series", std::string()) << "\n";
  }
  if (trace != nullptr) {
    trace->write_csv(flags.get("trace", std::string("trace.csv")));
    std::cout << "wrote " << trace->events().size() << " trace events to "
              << flags.get("trace", std::string()) << "\n";
  }
  return 0;
}
