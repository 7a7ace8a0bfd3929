// perfbench: the repository's performance ledger. One invocation runs one
// workload and prints every metric by name with its unit, then, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//   perfbench --list-metrics
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that reports the per-layer metrics. Exit status:
// 0 when every correctness gate passed, 1 when one failed (the JSON line is
// still printed), 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-dir <dir>]\n"
               "       perfbench --list-metrics\n",
               why);
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) return false;
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 10);
  return *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using perfbench::metric_catalog;
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      for (const auto& m : metric_catalog()) {
        std::printf("%s %s %s\n", m.per_layer ? "per_layer" : "end_to_end", m.name, m.unit);
      }
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!parse_u64(value, options.seed)) return usage("--seed takes a whole number");
    } else if (arg == "--seconds") {
      char* end = nullptr;
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0) || options.seconds > 3600.0) {
        return usage("--seconds takes a number in (0, 3600]");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  bool known = false;
  for (const auto& w : perfbench::workload_names()) known = known || w == options.workload;
  if (!known) return usage(("unknown workload " + options.workload).c_str());

  perfbench::Outcome out = perfbench::run_workload(options);

  std::printf("workload %s seed %llu seconds %g trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());
  std::string json_metrics;
  for (const auto& m : metric_catalog()) {
    if (m.per_layer != options.trace) continue;
    const auto it = out.values.find(m.name);
    double value = it == out.values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      out.failures.push_back(std::string("metric ") + m.name + " is not finite");
      value = 0.0;
    }
    std::printf("  %-30s %.6g %s\n", m.name, value, m.unit);
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json_metrics.empty() ? "" : ", ", m.name, value, m.unit);
    json_metrics += buf;
  }
  const double failed_frac =
      out.attempted > 0 ? static_cast<double>(out.failed) / static_cast<double>(out.attempted)
                        : 1.0;
  std::printf("  %-30s %.6g frac (%llu failed of %llu attempted)\n", "failed_frac", failed_frac,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const std::string& f : out.failures) std::printf("GATE FAILED: %s\n", f.c_str());
  const bool correct = out.failures.empty() && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted > 0 ? out.attempted : 1),
              static_cast<unsigned long long>(out.failed), json_metrics.c_str());
  std::fflush(stdout);
  return correct && out.failed == 0 ? 0 : 1;
}
