// The four benchmark workloads and the metrics they report.
//
// Every metric the benchmark can print is declared once in metric_catalog():
// name, unit and whether it is an end-to-end metric (untraced runs) or a
// per-layer one (traced runs). BENCHMARK.json must list exactly these; the
// harness checks that on every run. A workload reports a value for the
// metrics that apply to it; the rest print as 0, meaning "not applicable".
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
  bool per_layer;  ///< printed by traced runs (else by untraced runs)
};

const std::vector<MetricDef>& metric_catalog();

/// The workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  ///< where a traced run writes its spans ("" = nowhere)
};

struct Outcome {
  std::map<std::string, double> values;  ///< catalog name -> measured value
  /// Human-readable lines printed before the JSON result (span table, the
  /// failed_frac line, gate notes).
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Gate failures: any entry makes the result incorrect.
  std::vector<std::string> failures;
};

/// Run one workload. Exceptions from the program under test and an unknown
/// workload name come back as failures, not as throws.
Outcome run_workload(const Options& options);

}  // namespace perfbench
