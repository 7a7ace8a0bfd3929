#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <memory>

#include "metrics/fingerprint.h"
#include "metrics/legality.h"
#include "metrics/skew.h"
#include "rt_probe.h"
#include "runner/island_runner.h"
#include "runner/scenario.h"
#include "sim_probe.h"
#include "tracer.h"

namespace perfbench {

using gcs::EventKind;
using gcs::Scenario;
using gcs::ScenarioSpec;
using gcs::Time;

const std::vector<MetricDef>& metric_catalog() {
  static const std::vector<MetricDef> catalog = {
      // End to end (untraced runs).
      {"sim_node_s_per_s", "node_s/s", false},
      {"setup_s", "s", false},
      {"peak_rss_mb", "MB", false},
      {"skew_to_bound", "ratio", false},
      {"global_to_gtilde", "ratio", false},
      {"rt_cpu_us_per_node_s", "us/node_s", false},
      // runner
      {"runner.scenario_build_s", "s", true},
      {"runner.gtilde_s", "s", true},
      {"runner.island_plan_s", "s", true},
      {"runner.replica_build_s", "s", true},
      {"runner.gtilde_setup_share", "frac", true},
      {"island.shards", "count", true},
      {"island.cut_edges", "count", true},
      {"island.shard_event_imbalance", "ratio", true},
      {"island.speedup_vs_serial", "x", true},
      // sim
      {"sim.events", "count", true},
      {"sim.ns_per_event", "ns", true},
      {"sim.pending_peak", "count", true},
      {"sim.events.tick", "count", true},
      {"sim.events.beacon", "count", true},
      {"sim.events.delivery", "count", true},
      {"sim.events.drift", "count", true},
      {"sim.events.mlock", "count", true},
      {"sim.events.ltarget", "count", true},
      {"sim.events.probe", "count", true},
      // net
      {"net.sent", "count", true},
      {"net.delivered", "count", true},
      {"net.dropped", "count", true},
      {"net.deliveries_per_send", "ratio", true},
      {"net.arena_live_peak", "count", true},
      // core
      {"core.mode_changes", "count", true},
      {"core.logical_jumps", "count", true},
      {"core.max_raises", "count", true},
      {"core.trigger_eval_ns", "ns", true},
      // metrics
      {"metrics.sample_s", "s", true},
      {"metrics.legality_s", "s", true},
      {"metrics.skew_to_bound_max", "ratio", true},
      {"metrics.global_to_gtilde_max", "ratio", true},
      // rt
      {"rt.pump_self_us", "us/node_s", true},
      {"rt.send_us", "us/node_s", true},
      {"rt.poll_us", "us/node_s", true},
      {"rt.poll_hit_ratio", "ratio", true},
      {"rt.codec_ns", "ns", true},
      {"rt.crc_ns", "ns", true},
      {"rt.frames_sent", "count", true},
      {"rt.frames_received", "count", true},
      {"rt.frames_failed", "count", true},
      {"rt.reconnects", "count", true},
      {"rt.backpressure", "count", true},
      {"rt.conn_down", "count", true},
      {"rt.liveness.probes", "count", true},
      {"rt.liveness.evictions", "count", true},
      // tracing
      {"trace_overhead_frac", "frac", true},
      {"trace.self_sum_frac", "frac", true},
  };
  return catalog;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"line-1024", "complete-64-beacon",
                                                 "grid-4096-islands", "rt-tcp-4"};
  return names;
}

namespace {

// ---------------------------------------------------------------- helpers

double wall_now() { return static_cast<double>(now_ns()) * 1e-9; }

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::string format(const char* fmt, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

bool same_run(const gcs::FingerprintResult& a, const gcs::FingerprintResult& b) {
  return a.hash == b.hash && a.events == b.events;
}

/// Host-speed calibration: a fixed loop of dependent loads from a 2 MiB
/// table mixed with integer hashing. A shared host changes speed by up to
/// half from one second to the next, and the loop slows with it; dividing
/// a throughput window by the loop's rate just before it cancels most of
/// that. kReferenceRate is the loop's rate on the host the first numbers
/// in README.md come from, when that host is quiet, so normalized figures
/// read in that host's units.
class HostSpeed {
 public:
  static constexpr double kReferenceRate = 28e6;  // iterations per second

  HostSpeed() : table_(kWords) {
    for (std::size_t i = 0; i < kWords; ++i) table_[i] = i * 0x9e3779b97f4a7c15ULL;
  }

  /// The loop's iterations per second right now, over the reference rate.
  double relative() {
    constexpr int kIterations = 200000;
    std::uint64_t x = 0x243f6a8885a308d3ULL;
    const double t0 = wall_now();
    for (int i = 0; i < kIterations; ++i) {
      x ^= table_[x & (kWords - 1)];
      x *= 0xff51afd7ed558ccdULL;
      x ^= x >> 29;
    }
    const double rate = kIterations / (wall_now() - t0);
    keep(static_cast<double>(x));
    return rate / kReferenceRate;
  }

 private:
  static constexpr std::size_t kWords = std::size_t{1} << 18;
  std::vector<std::uint64_t> table_;
};

/// Throughput over consecutive model-time windows of a run: node-model-
/// seconds per host second, and process CPU microseconds per node-model-
/// second, each window normalized by the host speed measured just before
/// it. Reported as medians over the windows; the raw medians are printed
/// beside them.
class RateWindows {
 public:
  RateWindows(int nodes, HostSpeed& host) : nodes_(nodes), host_(host) {}

  void begin(Time model) {
    speed_ = host_.relative();
    model0_ = model;
    wall0_ = wall_now();
    cpu0_ = cpu_now();
  }
  void mark(Time model) {
    const double wall = wall_now();
    const double cpu = cpu_now();
    const double node_s = nodes_ * (model - model0_);
    raw_rate_.push_back(node_s / (wall - wall0_));
    raw_cpu_.push_back((cpu - cpu0_) * 1e6 / node_s);
    rate_.push_back(raw_rate_.back() / speed_);
    cpu_.push_back(raw_cpu_.back() * speed_);
    speeds_.push_back(speed_);
    begin(model);
  }
  [[nodiscard]] double node_s_per_s() const { return median(rate_); }
  [[nodiscard]] double cpu_us_per_node_s() const { return median(cpu_); }

  /// Window count, normalized and raw medians, host speed, and the slowest
  /// normalized rate with at least ten windows below it.
  [[nodiscard]] std::string summary() const {
    std::vector<double> v = rate_;
    std::sort(v.begin(), v.end());
    std::string s = format("%.0f throughput windows, median %.6g node_s/s at reference speed",
                           static_cast<double>(v.size()), median(v));
    if (v.size() > 10) s += format(", 10 windows below %.6g", v[10]);
    s += format("; raw median %.6g node_s/s, %.6g cpu us/node_s; host at %.3f of reference",
                median(raw_rate_), median(raw_cpu_), median(speeds_));
    return s;
  }

 private:
  int nodes_;
  HostSpeed& host_;
  double speed_ = 1.0;
  Time model0_ = 0.0;
  double wall0_ = 0.0;
  double cpu0_ = 0.0;
  std::vector<double> rate_;
  std::vector<double> cpu_;
  std::vector<double> raw_rate_;
  std::vector<double> raw_cpu_;
  std::vector<double> speeds_;
};

/// Setups per run: repeated until kSetupBudgetS seconds are spent or
/// kMaxSetupReps are done, at least kMinSetupReps; setup_s is the median,
/// each repetition normalized by the host speed measured just before it.
constexpr std::size_t kMinSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 51;
constexpr double kSetupBudgetS = 1.0;

/// Median normalized duration of `setup()`, which performs one setup and
/// returns how long it took.
template <typename Setup>
double median_setup(HostSpeed& host, Setup setup) {
  std::vector<double> times;
  double spent = 0.0;
  while (times.size() < kMinSetupReps ||
         (times.size() < kMaxSetupReps && spent < kSetupBudgetS)) {
    const double speed = host.relative();
    const double took = setup();
    spent += took;
    times.push_back(took * speed);
  }
  return median(times);
}

using SpanTable = std::map<std::string, SpanStats>;

double span_total(const SpanTable& stats, const char* name) {
  const auto it = stats.find(name);
  return it == stats.end() ? 0.0 : it->second.total_s;
}

double span_self(const SpanTable& stats, const char* name) {
  const auto it = stats.find(name);
  return it == stats.end() ? 0.0 : it->second.self_s;
}

/// Fold the traced run's spans into the outcome (the span table as notes,
/// and the share of the traced phase's wall time the self times account
/// for), then write the spans out.
void finish_trace(const Tracer& tracer, double wall_s, const Options& o, Outcome& out) {
  const SpanTable stats = aggregate(tracer.records());
  double self_sum = 0.0;
  out.notes.push_back("spans: name count total_s self_s");
  for (const auto& [name, s] : stats) {
    self_sum += s.self_s;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "  %-32s %10llu %12.6f %12.6f", name.c_str(),
                  static_cast<unsigned long long>(s.count), s.total_s, s.self_s);
    out.notes.emplace_back(buf);
  }
  out.values["trace.self_sum_frac"] = self_sum / wall_s;
  out.notes.push_back(format("span self times sum to %.4f s of %.4f s traced wall time",
                             self_sum, wall_s));
  if (o.trace_dir.empty()) return;
  const std::string path =
      o.trace_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) + ".spans.csv";
  out.notes.push_back((tracer.write_csv(path) ? "spans written to " : "could not write ") +
                      path);
}

void gate(bool ok, const std::string& what, Outcome& out) {
  if (!ok) out.failures.push_back(what);
}

void add_skew_gate(const SkewWindow& skew, Outcome& out) {
  gate(skew.samples() > 0, "no skew samples inside the quality window", out);
  gate(skew.gate_worst() <= 1.0,
       format("edge skew exceeded its gradient bound (worst ratio %.6g)", skew.gate_worst()),
       out);
}

/// Untraced runs report the window averages, traced runs the maxima.
void report_skew(const SkewWindow& skew, bool traced, Outcome& out) {
  if (traced) {
    out.values["metrics.skew_to_bound_max"] = skew.skew_to_bound_max();
    out.values["metrics.global_to_gtilde_max"] = skew.global_to_gtilde_max();
  } else {
    out.values["skew_to_bound"] = skew.skew_to_bound();
    out.values["global_to_gtilde"] = skew.global_to_gtilde();
  }
}

/// The sim/net/core per-layer values of a traced run. `run_s` is the wall
/// time of the kernel calls the events were fired in.
void report_layers(const LayerTotals& t, double run_s, Outcome& out) {
  auto& v = out.values;
  const auto kind = [&t](EventKind k) { return t.by_kind[static_cast<std::size_t>(k)]; };
  v["sim.events"] = t.events;
  v["sim.ns_per_event"] = run_s * 1e9 / t.events;
  v["sim.pending_peak"] = t.pending_peak;
  v["sim.events.tick"] = kind(EventKind::kTick);
  v["sim.events.beacon"] = kind(EventKind::kBeacon);
  v["sim.events.delivery"] = kind(EventKind::kDelivery);
  v["sim.events.drift"] = kind(EventKind::kDriftChange);
  v["sim.events.mlock"] = kind(EventKind::kMLockCatch);
  v["sim.events.ltarget"] = kind(EventKind::kLogicalTarget);
  v["sim.events.probe"] = kind(EventKind::kProbe);
  v["net.sent"] = t.sent;
  v["net.delivered"] = t.delivered;
  v["net.dropped"] = t.dropped;
  v["net.deliveries_per_send"] = t.sent > 0.0 ? t.delivered / t.sent : 0.0;
  v["net.arena_live_peak"] = t.arena_live_peak;
  v["core.mode_changes"] = t.mode_changes;
  v["core.logical_jumps"] = t.logical_jumps;
  v["core.max_raises"] = t.max_raises;
}

/// suggest_gtilde alone on the resolved t=0 topology, spanned.
void time_suggest_gtilde(const ScenarioSpec& spec, Tracer& tracer) {
  const gcs::TopologyResult topo = gcs::materialize_topology(spec);
  const Tracer::Span span = tracer.span("runner.suggest_gtilde");
  keep(gcs::suggest_gtilde(topo.n, topo.edges, spec.edge_params, spec.aopt));
}

/// evaluate_triggers at the workload's degree, with the constants of the
/// scenario's first edge, spanned.
void time_trigger_eval(Scenario& scn, int degree, std::uint64_t seed, Tracer& tracer,
                       Outcome& out) {
  const Tracer::Span span = tracer.span("core.trigger_eval");
  const gcs::EdgeKey e = scn.initial_edges().front();
  out.values["core.trigger_eval_ns"] = trigger_eval_ns(
      scn.spec().aopt, scn.spec().edge_params, scn.engine().edge_eps(e), degree, seed);
}

// ---------------------------------------------------------------- specs

/// The parameters every bench/exp_* experiment runs with (fast_line_spec in
/// bench/exp_common.cpp), repeated here so the ledger does not move when an
/// experiment's defaults do.
ScenarioSpec exp_default_spec(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.seed = seed;
  spec.edge_params = gcs::default_edge_params(/*eps=*/0.05, /*tau=*/0.25,
                                              /*delay_max=*/0.5, /*delay_min=*/0.1);
  spec.aopt.rho = 1e-3;
  spec.aopt.mu = 0.1;
  spec.gtilde_auto = true;
  spec.drift = gcs::ComponentSpec("spread");
  spec.estimates = gcs::ComponentSpec("uniform");
  spec.engine.tick_period = 0.25;
  spec.engine.beacon_period = 0.25;
  return spec;
}

ScenarioSpec line_spec(std::uint64_t seed) {
  ScenarioSpec spec = exp_default_spec(seed);
  spec.name = "line-1024";
  spec.topology = gcs::ComponentSpec("line");
  spec.n = 1024;
  return spec;
}

ScenarioSpec complete_spec(std::uint64_t seed) {
  ScenarioSpec spec = exp_default_spec(seed);
  spec.name = "complete-64-beacon";
  spec.topology = gcs::ComponentSpec("complete");
  spec.n = 64;
  spec.estimates = gcs::ComponentSpec("beacon");
  return spec;
}

ScenarioSpec grid_spec(std::uint64_t seed) {
  ScenarioSpec spec = exp_default_spec(seed);
  spec.name = "grid-4096-islands";
  spec.topology = gcs::ComponentSpec::parse("grid:rows=64,cols=64");
  spec.estimates = gcs::ComponentSpec("beacon");
  spec.delays = gcs::DelayMode::kEdgeUniform;
  spec.islands = 4;
  return spec;
}

/// The runtime test suite's cluster spec (tests/test_rt.cpp rt_spec) on a
/// 4-node ring.
ScenarioSpec rt_spec(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "rt-tcp-4";
  spec.n = 4;
  spec.seed = seed;
  spec.topology = gcs::ComponentSpec("ring");
  spec.drift = gcs::ComponentSpec("osc-const");
  spec.drift.params.set("ppm", "150/-200/80");
  spec.estimates = gcs::ComponentSpec("rtt");
  spec.edge_params.eps = 0.1;
  spec.edge_params.tau = 0.5;
  spec.edge_params.msg_delay_max = 0.6;
  spec.edge_params.msg_delay_min = 0.0;
  spec.gtilde_auto = true;
  return spec;
}

// ------------------------------------------------------- serial simulator

struct SerialWorkload {
  ScenarioSpec (*spec)(std::uint64_t seed);
  Time sample_period;  ///< measure_skew cadence, model seconds
  Time warmup;         ///< samples at or before this are not judged
  Time horizon;        ///< quality window end; the traced run's horizon
  Time rate_window;    ///< model seconds per throughput window
  int degree;          ///< peers per node (the trigger scan's width)
};

const SerialWorkload kLine{&line_spec, 5.0, 20.0, 2000.0, 50.0, 2};
const SerialWorkload kComplete{&complete_spec, 5.0, 20.0, 200.0, 10.0, 63};

/// Run `scn` (started at t=0) sampling skew every sample_period, spanning
/// the kernel and metrics calls on `tracer`. Stops at the first throughput
/// window boundary at or past `horizon` once `seconds` of wall time have
/// passed; with `rates`, marks a throughput window every rate_window.
Time sampled_run(Scenario& scn, const SerialWorkload& w, Tracer& tracer, SkewWindow& skew,
                 RateWindows* rates, double seconds) {
  const double gtilde = scn.spec().aopt.gtilde_static;
  const double sigma = scn.spec().aopt.sigma();
  const auto per_window = static_cast<int>(std::lround(w.rate_window / w.sample_period));
  const double start = wall_now();
  if (rates != nullptr) rates->begin(0.0);
  Time t = 0.0;
  for (int k = 1;; ++k) {
    t = static_cast<Time>(k) * w.sample_period;
    {
      const Tracer::Span span = tracer.span("sim.run_until");
      scn.run_until(t);
    }
    SkewSample s;
    {
      const Tracer::Span span = tracer.span("metrics.measure_skew");
      s = sample_skew(scn.engine(), gtilde, sigma);
    }
    skew.add(t, s.edge_ratio, s.global_ratio);
    if (k % per_window != 0) continue;
    if (rates != nullptr) rates->mark(t);
    if (t >= w.horizon && wall_now() - start >= seconds) break;
  }
  return t;
}

/// Definitions 5.11-5.13 at the horizon the run reached.
void check_legality_at_horizon(Scenario& scn, Tracer& tracer, Outcome& out) {
  const Tracer::Span span = tracer.span("metrics.check_legality");
  const gcs::LegalityReport report =
      gcs::check_legality(scn.engine(), scn.spec().aopt.gtilde_static);
  gate(report.legal(),
       format("illegal at the horizon (worst margin %.6g)", report.worst_margin), out);
}

void run_serial(const SerialWorkload& w, const Options& o, Outcome& out) {
  const ScenarioSpec spec = w.spec(o.seed);
  out.attempted = 1;
  Tracer off(false);
  HostSpeed host;
  std::unique_ptr<Scenario> scn;
  out.values["setup_s"] = median_setup(host, [&] {
    scn.reset();
    const double t0 = wall_now();
    scn = std::make_unique<Scenario>(spec);
    scn->start();
    return wall_now() - t0;
  });
  SkewWindow skew(w.warmup, w.horizon);
  RateWindows rates(scn->spec().n, host);
  const Time reached = sampled_run(*scn, w, off, skew, &rates, o.seconds);
  check_legality_at_horizon(*scn, off, out);
  add_skew_gate(skew, out);
  report_skew(skew, /*traced=*/false, out);
  out.values["sim_node_s_per_s"] = rates.node_s_per_s();
  out.values["rt_cpu_us_per_node_s"] = rates.cpu_us_per_node_s();
  out.values["peak_rss_mb"] = peak_rss_mb();
  out.notes.push_back(format("ran to t=%.0f model-s; %.0f quality samples", reached,
                             skew.samples()));
  out.notes.push_back(rates.summary());
}

void run_serial_traced(const SerialWorkload& w, const Options& o, Outcome& out) {
  const ScenarioSpec spec = w.spec(o.seed);
  out.attempted = 3;  // the traced run between two untraced reference runs
  Tracer tracer(true);
  Tracer off(false);
  // The untraced reference: the same run with only the fingerprinter on.
  const auto reference = [&](gcs::FingerprintResult& result) {
    const Tracer::Span span = tracer.span("check.reference_run");
    Scenario scn(spec);
    gcs::TrajectoryFingerprinter fp;
    fp.attach(scn);
    scn.start();
    SkewWindow skew(w.warmup, w.horizon);
    const double t0 = wall_now();
    sampled_run(scn, w, off, skew, nullptr, 0.0);
    const double run_s = wall_now() - t0;
    result = {fp.value(), fp.events()};
    return run_s;
  };
  const double wall0 = wall_now();
  gcs::FingerprintResult before;
  gcs::FingerprintResult traced;
  gcs::FingerprintResult after;
  {
    const Tracer::Span root = tracer.span("workload");
    const double before_s = reference(before);
    std::unique_ptr<Scenario> scn;
    {
      const Tracer::Span span = tracer.span("runner.scenario_build");
      scn = std::make_unique<Scenario>(spec);
    }
    ScenarioProbe probe(*scn);
    gcs::TrajectoryFingerprinter fp;
    fp.attach(*scn, &probe.sink);
    {
      const Tracer::Span span = tracer.span("runner.start");
      scn->start();
    }
    SkewWindow skew(w.warmup, w.horizon);
    const double t0 = wall_now();
    sampled_run(*scn, w, tracer, skew, nullptr, 0.0);
    const double traced_s = wall_now() - t0;
    traced = {fp.value(), fp.events()};
    check_legality_at_horizon(*scn, tracer, out);
    add_skew_gate(skew, out);
    report_skew(skew, /*traced=*/true, out);
    const double after_s = reference(after);

    time_suggest_gtilde(spec, tracer);
    {
      const Tracer::Span span = tracer.span("runner.plan_islands");
      const gcs::IslandExecutionPlan plan = gcs::plan_islands(spec);
      out.notes.push_back("plan_islands: " + (plan.islands_enabled
                                                  ? std::string("islands enabled")
                                                  : "serial (" + plan.fallback_reason + ")"));
    }
    time_trigger_eval(*scn, w.degree, o.seed, tracer, out);

    const SpanTable stats = aggregate(tracer.records());
    LayerTotals totals;
    totals.add(probe);
    report_layers(totals, span_total(stats, "sim.run_until"), out);
    auto& v = out.values;
    v["runner.scenario_build_s"] = span_total(stats, "runner.scenario_build");
    v["runner.gtilde_s"] = span_total(stats, "runner.suggest_gtilde");
    v["runner.island_plan_s"] = span_total(stats, "runner.plan_islands");
    v["runner.gtilde_setup_share"] =
        v["runner.gtilde_s"] / (v["runner.scenario_build_s"] + span_total(stats, "runner.start"));
    v["metrics.sample_s"] = span_total(stats, "metrics.measure_skew");
    v["metrics.legality_s"] = span_total(stats, "metrics.check_legality");
    v["trace_overhead_frac"] = traced_s / (0.5 * (before_s + after_s)) - 1.0;
  }
  gate(same_run(traced, before) && same_run(after, before),
       "tracing changed the trajectory fingerprint or the event count", out);
  out.notes.push_back(format("fingerprint events: untraced %.0f, traced %.0f; hashes ",
                             static_cast<double>(before.events),
                             static_cast<double>(traced.events)) +
                      (same_run(traced, before) ? "equal" : "DIFFER"));
  finish_trace(tracer, wall_now() - wall0, o, out);
}

// --------------------------------------------------------- island runner

constexpr Time kIslandHorizon = 40.0;
constexpr Time kIslandSamplePeriod = 1.0;
constexpr Time kIslandWarmup = 10.0;
/// Island runs are single-shot, so each repetition builds a fresh runner.
constexpr int kMinIslandReps = 3;
constexpr int kGridDegree = 4;

/// Sampling inside an island run. Every shard gets one kernel closure per
/// sample instant that copies its own nodes' logical clocks through the
/// side-effect-free Engine::peek_logical; shards write disjoint slots, and
/// the matrix is read after run() has joined every shard thread. Shard 0's
/// closure also marks a throughput window (shard 0 runs on the calling
/// thread).
class IslandSampler {
 public:
  IslandSampler(gcs::IslandRunner& runner, Time horizon, Time period, RateWindows* rates)
      : n_(static_cast<int>(runner.plan().partition.island_of.size())),
        period_(period),
        count_(static_cast<int>(std::floor(horizon / period + 1e-9))),
        logical_(static_cast<std::size_t>(n_) * static_cast<std::size_t>(count_), 0.0),
        locals_(static_cast<std::size_t>(runner.shards())),
        closure_ns_(static_cast<std::size_t>(runner.shards()), 0) {
    const auto& island_of = runner.plan().partition.island_of;
    for (gcs::NodeId u = 0; u < n_; ++u) {
      locals_[static_cast<std::size_t>(island_of[static_cast<std::size_t>(u)])].push_back(u);
    }
    for (int i = 0; i < runner.shards(); ++i) {
      Scenario* shard = &runner.shard(i);
      const std::vector<gcs::NodeId>* locals = &locals_[static_cast<std::size_t>(i)];
      std::int64_t* ns = &closure_ns_[static_cast<std::size_t>(i)];
      RateWindows* marks = i == 0 ? rates : nullptr;
      for (int k = 0; k < count_; ++k) {
        double* row = row_of(k);
        const Time t = static_cast<Time>(k + 1) * period;
        shard->sim().schedule_at(t, [shard, locals, row, ns, marks, t] {
          const std::int64_t t0 = now_ns();
          for (gcs::NodeId u : *locals) row[u] = shard->engine().peek_logical(u);
          *ns += now_ns() - t0;
          if (marks != nullptr) marks->mark(t);
        });
      }
    }
  }
  IslandSampler(const IslandSampler&) = delete;
  IslandSampler& operator=(const IslandSampler&) = delete;

  /// Feed every sample to `skew`: the worst edge skew over the gradient
  /// bound, and max − min logical over G̃.
  void feed(Scenario& shard0, SkewWindow& skew) const {
    const auto& aopt = shard0.spec().aopt;
    const auto& edges = shard0.initial_edges();
    // Every grid edge has the same parameters: one κ, one bound.
    const double bound = gcs::gradient_bound(gcs::metric_kappa(shard0.engine(), edges[0]),
                                             aopt.gtilde_static, aopt.sigma());
    for (int k = 0; k < count_; ++k) {
      const double* row = row_of(k);
      double worst = 0.0;
      for (const gcs::EdgeKey& e : edges) worst = std::max(worst, std::fabs(row[e.a] - row[e.b]));
      const auto [lo, hi] = std::minmax_element(row, row + n_);
      skew.add(static_cast<Time>(k + 1) * period_, worst / bound,
               (*hi - *lo) / aopt.gtilde_static);
    }
  }

  [[nodiscard]] double closure_seconds() const {
    std::int64_t sum = 0;
    for (std::int64_t ns : closure_ns_) sum += ns;
    return static_cast<double>(sum) * 1e-9;
  }

 private:
  [[nodiscard]] double* row_of(int k) {
    return logical_.data() + static_cast<std::size_t>(k) * static_cast<std::size_t>(n_);
  }
  [[nodiscard]] const double* row_of(int k) const {
    return logical_.data() + static_cast<std::size_t>(k) * static_cast<std::size_t>(n_);
  }

  int n_;
  Time period_;
  int count_;
  std::vector<double> logical_;                   ///< [sample][node]
  std::vector<std::vector<gcs::NodeId>> locals_;  ///< per shard
  std::vector<std::int64_t> closure_ns_;          ///< per shard, written by its thread
};

/// plan_islands + IslandRunner construction: the island workload's setup.
std::unique_ptr<gcs::IslandRunner> build_islands(const ScenarioSpec& spec, Tracer& tracer,
                                                 Outcome& out) {
  gcs::IslandExecutionPlan plan;
  {
    const Tracer::Span span = tracer.span("runner.island_plan");
    plan = gcs::plan_islands(spec);
  }
  if (!plan.islands_enabled) {
    out.failures.push_back("plan_islands fell back to serial: " + plan.fallback_reason);
    return nullptr;
  }
  const Tracer::Span span = tracer.span("runner.replica_build");
  return std::make_unique<gcs::IslandRunner>(spec, std::move(plan));
}

void run_islands(const Options& o, Outcome& out) {
  const ScenarioSpec spec = grid_spec(o.seed);
  Tracer off(false);
  std::vector<double> setups;
  HostSpeed host;
  RateWindows rates(gcs::materialize_topology(spec).n, host);
  SkewWindow skew(kIslandWarmup, kIslandHorizon);
  const double start = wall_now();
  for (int rep = 0; rep < kMinIslandReps || wall_now() - start < o.seconds; ++rep) {
    ++out.attempted;
    const double speed = host.relative();
    const double t0 = wall_now();
    std::unique_ptr<gcs::IslandRunner> runner = build_islands(spec, off, out);
    if (runner == nullptr) return;
    setups.push_back((wall_now() - t0) * speed);
    const IslandSampler sampler(*runner, kIslandHorizon, kIslandSamplePeriod, &rates);
    rates.begin(0.0);
    runner->run(kIslandHorizon);
    // Every repetition replays the same seed; each is still checked.
    SkewWindow rep_skew(kIslandWarmup, kIslandHorizon);
    sampler.feed(runner->shard(0), rep_skew);
    add_skew_gate(rep_skew, out);
    if (rep == 0) skew = rep_skew;
  }
  report_skew(skew, /*traced=*/false, out);
  out.values["sim_node_s_per_s"] = rates.node_s_per_s();
  out.values["rt_cpu_us_per_node_s"] = rates.cpu_us_per_node_s();
  out.values["setup_s"] = median(setups);
  out.values["peak_rss_mb"] = peak_rss_mb();
  out.notes.push_back(format("%.0f island runs to t=%.0f model-s",
                             static_cast<double>(setups.size()), kIslandHorizon));
  out.notes.push_back(rates.summary());
}

void run_islands_traced(const Options& o, Outcome& out) {
  const ScenarioSpec spec = grid_spec(o.seed);
  out.attempted = 2;  // the traced island run and the traced serial run
  Tracer tracer(true);
  const double wall0 = wall_now();
  {
    const Tracer::Span root = tracer.span("workload");
    std::unique_ptr<gcs::IslandRunner> runner = build_islands(spec, tracer, out);
    if (runner == nullptr) return;
    time_suggest_gtilde(spec, tracer);
    std::vector<std::unique_ptr<ScenarioProbe>> shard_probes;
    for (int i = 0; i < runner->shards(); ++i) {
      shard_probes.push_back(std::make_unique<ScenarioProbe>(runner->shard(i)));
      shard_probes.back()->attach();
    }
    const IslandSampler sampler(*runner, kIslandHorizon, kIslandSamplePeriod, nullptr);
    double island_run_s = 0.0;
    {
      const Tracer::Span span = tracer.span("island.run");
      const double t0 = wall_now();
      runner->run(kIslandHorizon);
      island_run_s = wall_now() - t0;
    }
    SkewWindow skew(kIslandWarmup, kIslandHorizon);
    sampler.feed(runner->shard(0), skew);
    add_skew_gate(skew, out);
    report_skew(skew, /*traced=*/true, out);

    // The serial engine on the same spec, probed the same way, with the
    // fingerprinter in the trace slot.
    std::unique_ptr<Scenario> serial;
    {
      const Tracer::Span span = tracer.span("runner.scenario_build");
      serial = std::make_unique<Scenario>(spec);
    }
    ScenarioProbe serial_probe(*serial);
    gcs::TrajectoryFingerprinter fp;
    fp.attach(*serial, &serial_probe.sink);
    {
      const Tracer::Span span = tracer.span("runner.start");
      serial->start();
    }
    double serial_run_s = 0.0;
    {
      const Tracer::Span span = tracer.span("sim.run_until");
      const double t0 = wall_now();
      serial->run_until(kIslandHorizon);
      serial_run_s = wall_now() - t0;
    }
    const gcs::FingerprintResult traced{fp.value(), fp.events()};

    // Untraced references from the library itself.
    gcs::FingerprintResult plain;
    double plain_run_s = 0.0;
    {
      const Tracer::Span span = tracer.span("check.fingerprint_run");
      Scenario scn(spec);
      const double t0 = wall_now();
      plain = gcs::fingerprint_run(scn, kIslandHorizon);
      plain_run_s = wall_now() - t0;
    }
    gcs::FingerprintResult islands;
    {
      const Tracer::Span span = tracer.span("check.fingerprint_run_islands");
      islands = gcs::fingerprint_run_islands(spec, kIslandHorizon, spec.islands);
    }
    time_trigger_eval(*serial, kGridDegree, o.seed, tracer, out);

    const SpanTable stats = aggregate(tracer.records());
    LayerTotals totals;
    for (const auto& p : shard_probes) totals.add(*p);
    report_layers(totals, island_run_s, out);
    auto& v = out.values;
    const double shards = runner->shards();
    v["runner.scenario_build_s"] = span_total(stats, "runner.scenario_build");
    v["runner.gtilde_s"] = span_total(stats, "runner.suggest_gtilde");
    v["runner.island_plan_s"] = span_total(stats, "runner.island_plan");
    v["runner.replica_build_s"] = span_total(stats, "runner.replica_build");
    v["runner.gtilde_setup_share"] =
        shards * v["runner.gtilde_s"] / (v["runner.island_plan_s"] + v["runner.replica_build_s"]);
    v["island.shards"] = shards;
    v["island.cut_edges"] = static_cast<double>(runner->plan().partition.cut.size());
    v["island.shard_event_imbalance"] = totals.busiest / (totals.events / shards);
    v["island.speedup_vs_serial"] = serial_run_s / island_run_s;
    v["metrics.sample_s"] = sampler.closure_seconds();
    v["trace_overhead_frac"] = serial_run_s / plain_run_s - 1.0;

    gate(same_run(traced, plain),
         "tracing changed the serial trajectory fingerprint or event count", out);
    gate(same_run(islands, plain),
         "fingerprint_run_islands differs from the serial fingerprint_run", out);
    gate(static_cast<std::uint64_t>(totals.events) == plain.events,
         "the traced island run fired a different number of events than the serial run", out);
    out.notes.push_back(format("events: serial %.0f, traced serial %.0f, traced islands %.0f",
                               static_cast<double>(plain.events),
                               static_cast<double>(traced.events), totals.events));
    out.notes.push_back(std::string("fingerprints: traced serial ") +
                        (same_run(traced, plain) ? "==" : "!=") + " fingerprint_run " +
                        (same_run(islands, plain) ? "==" : "!=") +
                        " fingerprint_run_islands");
  }
  finish_trace(tracer, wall_now() - wall0, o, out);
}

// --------------------------------------------------------------- runtime

constexpr Time kRtHorizon = 500.0;  ///< quality window end; the traced run's horizon
constexpr Time kRtWarmup = 20.0;
constexpr Time kRtSamplePeriod = 1.0;
constexpr Time kRtRateWindow = 50.0;
constexpr int kRingDegree = 2;

/// Retry `make` on fresh port blocks: a port another process holds fails
/// the bind.
template <typename Make>
auto on_free_ports(Make make) {
  for (int attempt = 0;; ++attempt) {
    try {
      return make(next_port_block());
    } catch (const std::exception&) {
      if (attempt >= 16) throw;
    }
  }
}

std::unique_ptr<LockstepRig> make_rig(const ScenarioSpec& spec, Tracer& tracer) {
  return on_free_ports([&](std::uint16_t port) {
    return std::make_unique<LockstepRig>(spec, spec.seed, port, tracer);
  });
}

/// Skew quality of the rig's samples.
SkewWindow rig_skew(LockstepRig& rig) {
  const auto& aopt = rig.node(0).scenario().spec().aopt;
  std::vector<double> bounds;
  for (const gcs::EdgeKey& e : rig.edges()) {
    bounds.push_back(gcs::gradient_bound(rig.node(e.a).engine().metric_kappa(e),
                                         aopt.gtilde_static, aopt.sigma()));
  }
  SkewWindow skew(kRtWarmup, kRtHorizon);
  add_runtime_samples(rig.samples(), rig.edges(), bounds, aopt.gtilde_static, skew);
  return skew;
}

/// Runtime gates and the frame-level failure count (failed_frac).
void account_frames(LockstepRig& rig, const SkewWindow& skew, Outcome& out) {
  std::uint64_t rejected = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t evictions = 0;
  for (gcs::NodeId u = 0; u < rig.size(); ++u) {
    const gcs::TcpTransport& tcp = rig.tcp(u);
    const TracedTransport& traced = rig.traced(u);
    rejected += tcp.rejected();
    corrupted += tcp.corrupted();
    if (const gcs::LivenessDetector* det = rig.node(u).detector()) evictions += det->evictions();
    out.attempted += traced.send_calls();
    // send() == false is a backpressure or conn_down refusal; conn_down also
    // counts frames that died buffered in a failed connection.
    out.failed += std::max<std::uint64_t>(traced.send_failed(),
                                          tcp.backpressure() + tcp.conn_down()) +
                  tcp.rejected();
  }
  gate(rejected == 0, format("%.0f ingress frames rejected", static_cast<double>(rejected)), out);
  gate(corrupted == 0, format("%.0f frames corrupted", static_cast<double>(corrupted)), out);
  gate(evictions == 0, format("%.0f liveness evictions", static_cast<double>(evictions)), out);
  add_skew_gate(skew, out);
}

void run_rt(const Options& o, Outcome& out) {
  const ScenarioSpec spec = rt_spec(o.seed);
  Tracer off(false);
  HostSpeed host;
  std::unique_ptr<LockstepRig> rig;
  out.values["setup_s"] = median_setup(host, [&] {
    rig.reset();
    const double t0 = wall_now();
    rig = make_rig(spec, off);
    rig->start();
    return wall_now() - t0;
  });
  rig->schedule_samples(kRtHorizon, kRtSamplePeriod);
  RateWindows rates(rig->size(), host);
  const double start = wall_now();
  rates.begin(0.0);
  Time t = 0.0;
  do {
    t += kRtRateWindow;
    rig->run_to(t);
    rates.mark(t);
  } while (t < kRtHorizon || wall_now() - start < o.seconds);
  rig->drain();

  const SkewWindow skew = rig_skew(*rig);
  account_frames(*rig, skew, out);
  report_skew(skew, /*traced=*/false, out);
  out.values["sim_node_s_per_s"] = rates.node_s_per_s();
  out.values["rt_cpu_us_per_node_s"] = rates.cpu_us_per_node_s();
  out.values["peak_rss_mb"] = peak_rss_mb();
  out.notes.push_back(format("lockstep to t=%.0f model-s", t));
  out.notes.push_back(rates.summary());
}

void run_rt_traced(const Options& o, Outcome& out) {
  const ScenarioSpec spec = rt_spec(o.seed);
  Tracer tracer(true);
  const double wall0 = wall_now();
  {
    const Tracer::Span root = tracer.span("workload");
    std::unique_ptr<LockstepRig> rig;
    std::vector<std::unique_ptr<ScenarioProbe>> probes;
    {
      const Tracer::Span span = tracer.span("rt.setup");
      rig = make_rig(spec, tracer);
      for (gcs::NodeId u = 0; u < rig->size(); ++u) {
        probes.push_back(std::make_unique<ScenarioProbe>(rig->node(u).scenario()));
        probes.back()->attach();
      }
      rig->start();
    }
    rig->schedule_samples(kRtHorizon, kRtSamplePeriod);
    const double w0 = wall_now();
    const double c0 = cpu_now();
    for (Time t = kRtRateWindow; t <= kRtHorizon; t += kRtRateWindow) rig->run_to(t);
    const double traced_cpu = cpu_now() - c0;
    const double traced_wall = wall_now() - w0;
    {
      const Tracer::Span span = tracer.span("rt.drain");
      rig->drain();
    }

    // The untraced reference: the repository's own lockstep loop.
    std::vector<std::vector<gcs::RtSample>> reference;
    double ref_cpu = 0.0;
    {
      const Tracer::Span span = tracer.span("check.run_lockstep");
      gcs::VirtualClock clock;
      gcs::FaultSpec faults;
      faults.seed = spec.seed;
      const std::unique_ptr<gcs::RtCluster> cluster = on_free_ports([&](std::uint16_t port) {
        return std::make_unique<gcs::RtCluster>(spec, clock, faults, 1024,
                                                gcs::RtBackend::kTcp, port);
      });
      cluster->enable_detector(lockstep_detector());
      cluster->start();
      cluster->schedule_samples(kRtHorizon, kRtSamplePeriod);
      const double rc0 = cpu_now();
      cluster->run_lockstep(clock, kRtHorizon, kLockstepStep);
      ref_cpu = cpu_now() - rc0;
      reference = cluster->samples();
    }
    const bool same = same_samples(rig->samples(), reference);
    gate(same, "the benchmark's lockstep loop diverged from RtCluster::run_lockstep", out);
    out.notes.push_back(std::string("lockstep samples vs RtCluster::run_lockstep: ") +
                        (same ? "identical" : "DIFFER"));

    std::vector<gcs::WireMsg> frames;
    for (gcs::NodeId u = 0; u < rig->size(); ++u) {
      const auto& c = rig->traced(u).captured();
      frames.insert(frames.end(), c.begin(), c.end());
    }
    CodecCost codec;
    {
      const Tracer::Span span = tracer.span("rt.codec");
      codec = time_codec(frames);
    }
    time_suggest_gtilde(spec, tracer);
    time_trigger_eval(rig->node(0).scenario(), kRingDegree, o.seed, tracer, out);

    const SkewWindow skew = rig_skew(*rig);
    account_frames(*rig, skew, out);
    report_skew(skew, /*traced=*/true, out);

    const SpanTable stats = aggregate(tracer.records());
    LayerTotals totals;
    for (const auto& p : probes) totals.add(*p);
    report_layers(totals, traced_wall, out);
    double sent = 0.0, received = 0.0, failed = 0.0, polls = 0.0, reconnects = 0.0,
           backpressure = 0.0, conn_down = 0.0, probes_sent = 0.0, evictions = 0.0;
    for (gcs::NodeId u = 0; u < rig->size(); ++u) {
      const TracedTransport& tr = rig->traced(u);
      const gcs::TcpTransport& tcp = rig->tcp(u);
      sent += static_cast<double>(tr.sent_ok());
      received += static_cast<double>(tr.polled());
      failed += static_cast<double>(tr.send_failed());
      polls += static_cast<double>(tr.poll_calls());
      reconnects += static_cast<double>(tcp.reconnects());
      backpressure += static_cast<double>(tcp.backpressure());
      conn_down += static_cast<double>(tcp.conn_down());
      if (const gcs::LivenessDetector* det = rig->node(u).detector()) {
        probes_sent += static_cast<double>(det->probes());
        evictions += static_cast<double>(det->evictions());
      }
    }
    auto& v = out.values;
    const double node_s = rig->size() * kRtHorizon;
    v["runner.scenario_build_s"] = span_total(stats, "runner.scenario_build");
    v["runner.gtilde_s"] = span_total(stats, "runner.suggest_gtilde");
    v["runner.gtilde_setup_share"] =
        rig->size() * v["runner.gtilde_s"] / span_total(stats, "rt.setup");
    v["rt.pump_self_us"] = span_self(stats, "rt.pump") * 1e6 / node_s;
    v["rt.send_us"] = span_self(stats, "rt.send") * 1e6 / node_s;
    v["rt.poll_us"] = span_self(stats, "rt.poll") * 1e6 / node_s;
    v["rt.poll_hit_ratio"] = received / polls;
    v["rt.codec_ns"] = codec.codec_ns;
    v["rt.crc_ns"] = codec.crc_ns;
    v["rt.frames_sent"] = sent;
    v["rt.frames_received"] = received;
    v["rt.frames_failed"] = failed;
    v["rt.reconnects"] = reconnects;
    v["rt.backpressure"] = backpressure;
    v["rt.conn_down"] = conn_down;
    v["rt.liveness.probes"] = probes_sent;
    v["rt.liveness.evictions"] = evictions;
    v["trace_overhead_frac"] = traced_cpu / ref_cpu - 1.0;
    out.notes.push_back(format("traced lockstep to t=%.0f: %.3f s wall, %.3f s cpu",
                               kRtHorizon, traced_wall, traced_cpu));
  }
  finish_trace(tracer, wall_now() - wall0, o, out);
}

}  // namespace

Outcome run_workload(const Options& o) {
  Outcome out;
  try {
    if (o.workload == "line-1024") {
      o.trace ? run_serial_traced(kLine, o, out) : run_serial(kLine, o, out);
    } else if (o.workload == "complete-64-beacon") {
      o.trace ? run_serial_traced(kComplete, o, out) : run_serial(kComplete, o, out);
    } else if (o.workload == "grid-4096-islands") {
      o.trace ? run_islands_traced(o, out) : run_islands(o, out);
    } else if (o.workload == "rt-tcp-4") {
      o.trace ? run_rt_traced(o, out) : run_rt(o, out);
    } else {
      out.failures.push_back("unknown workload '" + o.workload + "'");
    }
  } catch (const std::exception& e) {
    out.failures.push_back(std::string("threw: ") + e.what());
    out.attempted = std::max<std::uint64_t>(out.attempted, 1);
    out.failed = out.attempted;
  }
  // The simulator workloads' operations are whole runs: a failed gate fails
  // the run.
  if (o.workload != "rt-tcp-4" && !out.failures.empty()) out.failed = out.attempted;
  return out;
}

}  // namespace perfbench
