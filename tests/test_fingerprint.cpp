// Trajectory fingerprint pinning (see src/metrics/fingerprint.h and
// docs/ARCHITECTURE.md § Fingerprint pinning).
//
// The committed table tests/fingerprints/fingerprints.csv pins one 64-bit
// hash per catalog scenario. CMake registers ONE CTEST PER ROW (by gtest
// filter on the row's sanitized name), so a trajectory regression names the
// exact scenario it broke instead of failing one monolithic test. Each
// per-row test recomputes the row from its own serialized spec — the row is
// self-contained.
//
// Invariance suite: the same hashes must come out of every SweepRunner
// thread count (runs are constructed per-worker) and of the island-parallel
// engine at every worker count.
//
// Localizing a mismatch: the per-row failure message prints how to dump the
// row's full event sequence (DISABLED_DumpEvents, one `hexfloat-time node
// kind` line per fired event) at two commits and diff the dumps; the first
// hunk is the first divergent event. The dump also prints the row's
// gradient-trigger counters: fast and slow decisions by level, and the
// re-evaluations the beacon bound settled without a scan.
//
// Regeneration: GCS_REGEN_FINGERPRINTS=1 rewrites the table from the
// in-code catalog (scripts/regen_fingerprints.sh wraps this, checks
// 1/2/8-thread and 1/2/8-island agreement, and is the only sanctioned way
// to change the committed file). A malformed table does not stop the
// binary: it loads as one failing sentinel row, so regeneration still runs.
// GCS_FINGERPRINT_OUT overrides the output path; GCS_FP_THREADS picks the
// sweep thread count; GCS_FP_ISLANDS=k recomputes every sim row through the island-parallel
// engine with k requested workers (serial-fallback rows run serially, so
// the k-island table must come back byte-identical to the committed one).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "fingerprint_common.h"
#include "metrics/legality.h"
#include "metrics/skew.h"
#include "runner/island_runner.h"
#include "runner/sweep.h"

namespace gcs {
namespace {

using fptable::Case;
using fptable::Row;

std::string sanitize(const std::string& name) {
  std::string out = name;
  std::replace(out.begin(), out.end(), '-', '_');
  return out;
}

/// Fingerprint every sim catalog entry through a SweepRunner grid with the
/// given worker count (threads = 0 → plain serial loop, no runner).
std::vector<FingerprintResult> sweep_fingerprints(const std::vector<Case>& sims,
                                                  int threads) {
  std::map<std::string, const Case*> by_name;
  for (const Case& c : sims) by_name[c.name] = &c;

  std::vector<FingerprintResult> out(sims.size());
  if (threads <= 0) {
    for (std::size_t i = 0; i < sims.size(); ++i) {
      out[i] = fptable::run_case(sims[i]);
    }
    return out;
  }

  // The catalog rows are heterogeneous full specs, which a cross-product
  // axis cannot express — so the axis carries only the row NAME and the
  // spec_fn swaps in the row's actual spec (the documented use of SpecFn:
  // per-cell derivation the grid cannot).
  std::vector<std::string> names;
  names.reserve(sims.size());
  for (const Case& c : sims) names.push_back(c.name);
  Sweep sweep(sims.front().spec);
  sweep.axis("name", names);

  SweepOptions options;
  options.threads = threads;
  SweepRunner runner(options);
  runner.set_spec_fn([&by_name](ScenarioSpec& spec) { spec = by_name.at(spec.name)->spec; });
  runner.set_run_fn([&by_name, &out](Scenario& scenario, RunResult& res) {
    out[static_cast<std::size_t>(res.index)] =
        fingerprint_run(scenario, by_name.at(res.axes.at("name"))->horizon);
  });
  const std::vector<RunResult> results = runner.run(sweep);
  for (const RunResult& r : results) {
    EXPECT_TRUE(r.ok()) << "sweep run '" << r.axes.at("name") << "' failed: " << r.error;
  }
  return out;
}

std::vector<Case> sim_cases() {
  std::vector<Case> out;
  for (Case& c : fptable::catalog()) {
    if (c.kind == "sim") out.push_back(std::move(c));
  }
  return out;
}

// -------------------------------------------------------------- unit level

TEST(Fingerprint, QuantizeRoundsToNearestQuantum) {
  using FP = TrajectoryFingerprinter;
  EXPECT_EQ(FP::quantize(0.0), 0);
  EXPECT_EQ(FP::quantize(1.0), 1 << 20);
  EXPECT_EQ(FP::quantize(-1.0), -(1 << 20));
  // Differences below half a quantum collapse; above, they discriminate.
  EXPECT_EQ(FP::quantize(1.0 + 0.25 / FP::kInvQuantum), FP::quantize(1.0));
  EXPECT_NE(FP::quantize(1.0 + 1.25 / FP::kInvQuantum), FP::quantize(1.0));
}

TEST(Fingerprint, FoldIsOrderAndFieldSensitive) {
  using FP = TrajectoryFingerprinter;
  const std::uint64_t h0 = 0x9e3779b97f4a7c15ULL;
  const std::uint64_t a = FP::fold(h0, 0x3ff0000000000000ULL, 3, EventKind::kTick, 42);
  const std::uint64_t b = FP::fold(h0, 0x3ff0000000000000ULL, 3, EventKind::kBeacon, 42);
  const std::uint64_t c = FP::fold(h0, 0x3ff0000000000000ULL, 4, EventKind::kTick, 42);
  const std::uint64_t d = FP::fold(h0, 0x3ff0000000000001ULL, 3, EventKind::kTick, 42);
  const std::uint64_t e = FP::fold(h0, 0x3ff0000000000000ULL, 3, EventKind::kTick, 43);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_NE(a, e);
  // Order dependence: folding (x then y) != (y then x).
  const std::uint64_t xy = FP::fold(a, 0x4000000000000000ULL, 1, EventKind::kDelivery, 7);
  const std::uint64_t yx = FP::fold(
      FP::fold(h0, 0x4000000000000000ULL, 1, EventKind::kDelivery, 7),
      0x3ff0000000000000ULL, 3, EventKind::kTick, 42);
  EXPECT_NE(xy, yx);
}

TEST(Fingerprint, AttachingTheObserverDoesNotPerturbTheRun) {
  // The fingerprinter reads clocks through the pure Engine::logical: a
  // fingerprinted run and a bare run of the same spec must end in
  // bit-identical clocks.
  const ScenarioSpec spec = fptable::kernel_trace_reference_spec();
  Scenario bare(spec);
  bare.start();
  bare.run_until(10.0);

  Scenario observed(spec);
  TrajectoryFingerprinter fp;
  fp.attach(observed);
  observed.start();
  observed.run_until(10.0);

  EXPECT_GT(fp.events(), 0u);
  for (NodeId u = 0; u < bare.spec().n; ++u) {
    EXPECT_EQ(bare.engine().logical(u), observed.engine().logical(u))
        << "observer changed the trajectory at node " << u;
  }
}

TEST(Fingerprint, CatalogSpecsRoundTripThroughStrings) {
  for (const Case& c : fptable::catalog()) {
    const std::string text = c.spec.str();
    EXPECT_EQ(fptable::spec_from_str(text).str(), text)
        << "row '" << c.name << "' spec does not round-trip";
  }
}

TEST(Fingerprint, MalformedRowsFailNamingTheRow) {
  const Row row{"r", "sim", 20.0, "", 0xabc, 7, "n=3"};
  const std::string good = fptable::format_row(row);
  EXPECT_EQ(fptable::parse_row(good).hash, row.hash);
  EXPECT_EQ(fptable::parse_row(good).events, row.events);

  const auto error_of = [](const std::string& line) -> std::string {
    try {
      fptable::parse_row(line);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  for (const std::string line :
       {"r,sim,20,-,zz12,7,n=3",                  // non-hex hash
        "r,sim,20,-,,7,n=3",                      // empty hash
        "r,sim,20,-,no,0000000000000abc,7,n=3",   // a stale column layout
        "r,sim,20,-,abc,7x,n=3",                  // trailing junk in events
        "r,sim,20"}) {                            // short row
    const std::string error = error_of(line);
    EXPECT_NE(error.find("'" + line + "'"), std::string::npos)
        << "row '" << line << "' gave: '" << error << "'";
  }
  EXPECT_NE(error_of("r,sim,20,-,zz12,7,n=3").find("field 'hash'"), std::string::npos);
}

TEST(Fingerprint, CatalogMatchesCommittedTable) {
  // The committed rows and the in-code catalog must agree field-for-field
  // (hashes excepted — those are what the table pins), so regeneration and
  // verification cannot drift apart.
  const std::vector<Case> cases = fptable::catalog();
  const std::vector<Row> rows = fptable::load_table_or_sentinel();
  if (rows.size() == 1 && rows[0].kind.empty()) {
    if (std::getenv("GCS_REGEN_FINGERPRINTS") != nullptr) {
      GTEST_SKIP() << "table unreadable, regeneration rewrites it: " << rows[0].spec;
    }
    FAIL() << rows[0].spec;
  }
  ASSERT_EQ(rows.size(), cases.size());
  ASSERT_GE(rows.size(), 20u) << "the table must pin at least 20 combinations";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(rows[i].name, cases[i].name);
    EXPECT_EQ(rows[i].kind, cases[i].kind);
    EXPECT_EQ(rows[i].horizon, cases[i].horizon);
    EXPECT_EQ(rows[i].chaos, cases[i].chaos);
    EXPECT_EQ(rows[i].spec, cases[i].spec.str());
  }
}

// ---------------------------------------------------------- per-row pins

/// Chained behind the fingerprinter: counts every fired event kind and, if
/// `out` is set, writes one `hexfloat-time node kind` line per event
/// (hexfloat is lossless, so equal lines mean bit-identical times).
struct EventLog final : public KernelTraceSink {
  std::ostream* out = nullptr;
  std::array<std::uint64_t, 16> kinds{};

  void on_event_fired(Time t, NodeId node, EventKind kind) override {
    ++kinds[static_cast<std::size_t>(kind)];
    if (out != nullptr) {
      *out << std::hexfloat << t << ' ' << node << ' ' << to_string(kind) << '\n';
    }
  }
};

/// The run's gradient-trigger counters summed over its AOPT nodes, as
/// `fast{level:count,...} slow{...} bound_settled=N`. Reading them after
/// the run cannot change it, and they never feed the run either.
std::string trigger_counts(Scenario& scenario) {
  std::vector<AoptNode::LevelDecisions> sum;
  long long settled = 0;
  for (NodeId u = 0; u < scenario.engine().size(); ++u) {
    const auto* aopt = dynamic_cast<const AoptNode*>(&scenario.engine().algorithm(u));
    if (aopt == nullptr) continue;
    const auto& by_level = aopt->decisions_by_level();
    if (sum.size() < by_level.size()) sum.resize(by_level.size());
    for (std::size_t s = 0; s < by_level.size(); ++s) {
      sum[s].fast += by_level[s].fast;
      sum[s].slow += by_level[s].slow;
    }
    settled += aopt->bound_settled();
  }
  const auto render = [&sum](long long AoptNode::LevelDecisions::*kind) {
    std::string out = "{";
    for (std::size_t s = 1; s < sum.size(); ++s) {
      if (sum[s].*kind == 0) continue;
      if (out.size() > 1) out += ',';
      out += std::to_string(s) + ':' + std::to_string(sum[s].*kind);
    }
    return out + '}';
  };
  return "fast" + render(&AoptNode::LevelDecisions::fast) + " slow" +
         render(&AoptNode::LevelDecisions::slow) + " bound_settled=" + std::to_string(settled);
}

/// fptable::run_case for a sim row, with `log` chained behind the
/// fingerprinter (the chained sink observes; it cannot change the run).
/// `counts`, if set, receives the run's trigger_counts.
FingerprintResult run_logged(const Case& c, EventLog& log, std::string* counts = nullptr) {
  Scenario scenario(c.spec);
  TrajectoryFingerprinter fp;
  fp.attach(scenario, &log);
  scenario.start();
  scenario.run_until(c.horizon);
  if (counts != nullptr) *counts = trigger_counts(scenario);
  return FingerprintResult{fp.value(), fp.events()};
}

std::string events_file(const Row& row) { return row.name + ".events"; }

/// How to find the first divergent event of a mismatching sim row.
std::string divergence_hint(const Row& row) {
  if (row.kind != "sim") return "";
  return "\nTo find the first divergent event, run in a build of each commit\n"
         "  ./test_fingerprint --gtest_also_run_disabled_tests "
         "--gtest_filter=Table/PinnedFingerprint.DISABLED_DumpEvents/" +
         sanitize(row.name) + "\nthen diff the two " + events_file(row) +
         " files it writes; the first hunk is the first divergent event.";
}

class PinnedFingerprint : public ::testing::TestWithParam<Row> {};

TEST_P(PinnedFingerprint, MatchesCommittedHash) {
  const Row& row = GetParam();
  if (row.kind.empty()) {
    if (std::getenv("GCS_REGEN_FINGERPRINTS") != nullptr) {
      GTEST_SKIP() << "table unreadable, regeneration rewrites it: " << row.spec;
    }
    FAIL() << row.spec;
  }
  const Case c = fptable::case_from_row(row);

  EventLog log;
  const FingerprintResult result =
      c.kind == "sim" ? run_logged(c, log) : fptable::run_case(c);
  EXPECT_EQ(result.hash, row.hash)
      << "trajectory diverged from the pinned fingerprint for '" << row.name
      << "' — a behavior change reached a pinned scenario; see "
         "docs/ARCHITECTURE.md § Fingerprint pinning before regenerating"
      << divergence_hint(row);
  EXPECT_EQ(result.events, row.events) << "event count changed for '" << row.name << "'";

  // The reference row must exercise every typed event kind, or its pin
  // says less about the kernel than it seems to.
  if (row.name == "beacon-reference") {
    for (const EventKind kind :
         {EventKind::kTick, EventKind::kBeacon, EventKind::kDriftChange,
          EventKind::kMLockCatch, EventKind::kLogicalTarget, EventKind::kDelivery}) {
      EXPECT_GT(log.kinds[static_cast<std::size_t>(kind)], 0u)
          << "reference scenario fired no " << to_string(kind) << " events";
    }
  }
}

TEST_P(PinnedFingerprint, DISABLED_DumpEvents) {
  const Row& row = GetParam();
  if (row.kind != "sim") {
    GTEST_SKIP() << "'" << row.name << "' folds lockstep samples, not kernel events";
  }
  std::ofstream f(events_file(row));
  ASSERT_TRUE(f.good()) << "cannot write " << events_file(row);
  EventLog log;
  log.out = &f;
  std::string counts;
  const FingerprintResult result = run_logged(fptable::case_from_row(row), log, &counts);
  std::cout << "wrote " << result.events << " events to " << events_file(row)
            << " (hash " << std::hex << result.hash << std::dec << ")\n"
            << "triggers: " << counts << "\n";
}

INSTANTIATE_TEST_SUITE_P(Table, PinnedFingerprint,
                         ::testing::ValuesIn(fptable::load_table_or_sentinel()),
                         [](const ::testing::TestParamInfo<Row>& info) {
                           return sanitize(info.param.name);
                         });

// ------------------------------------------------------------- invariance

TEST(FingerprintInvariance, SweepThreadCountDoesNotChangeHashes) {
  const std::vector<Case> sims = sim_cases();
  const std::vector<FingerprintResult> serial = sweep_fingerprints(sims, 0);
  for (const int threads : {1, 2, 8}) {
    const std::vector<FingerprintResult> pooled = sweep_fingerprints(sims, threads);
    ASSERT_EQ(pooled.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(pooled[i].hash, serial[i].hash)
          << "row '" << sims[i].name << "' hash depends on thread count " << threads;
      EXPECT_EQ(pooled[i].events, serial[i].events);
    }
  }
}

TEST(FingerprintInvariance, IslandWorkerCountDoesNotChangeHashes) {
  // The island engine's determinism gate: every pinned sim row must hash
  // identically whether it runs serially or island-parallel at 1, 2 or 8
  // requested workers. Rows whose spec is not island-decomposable plan a
  // serial fallback — still exercised through fingerprint_run_islands so
  // the delegation path is covered — and are trivially equal; the final
  // assertion makes sure enough rows take the REAL island path that the
  // gate cannot rot into a no-op.
  const std::vector<Case> sims = sim_cases();
  std::size_t islanded_runs = 0;
  for (const Case& c : sims) {
    const FingerprintResult serial = fptable::run_case(c);
    for (const int k : {1, 2, 8}) {
      const IslandExecutionPlan plan = plan_islands(c.spec, k);
      const FingerprintResult isl = fingerprint_run_islands(c.spec, c.horizon, k);
      EXPECT_EQ(isl.hash, serial.hash)
          << "row '" << c.name << "' hash depends on island count " << k
          << (plan.islands_enabled
                  ? " (island path, " + std::to_string(plan.workers) + " shards)"
                  : " (serial fallback: " + plan.fallback_reason + ")");
      EXPECT_EQ(isl.events, serial.events)
          << "row '" << c.name << "' event count depends on island count " << k;
      if (plan.islands_enabled && plan.workers > 1) ++islanded_runs;
    }
  }
  // The five-row island family alone takes 9 multi-shard runs.
  EXPECT_GE(islanded_runs, 9u)
      << "too few rows take the real multi-shard path; the island "
         "determinism gate needs real coverage (add islandable rows)";
}

TEST(FingerprintInvariance, UniformDelaysRunIslanded) {
  // Delays are keyed draws, so delays=uniform no longer pins a run to the
  // serial engine: a beacon-estimate grid plans islands and reproduces the
  // serial hash at every worker count.
  ScenarioSpec spec = fptable::detail::sim_base("isl-uniform-delays", 64, 128);
  spec.topology = ComponentSpec::parse("grid:rows=8,cols=8");
  spec.estimates = ComponentSpec("beacon");
  ASSERT_EQ(spec.delays, DelayMode::kUniform);
  const FingerprintResult serial = fingerprint_run(spec, 20.0);
  for (const int k : {1, 2, 4, 8}) {
    const IslandExecutionPlan plan = plan_islands(spec, k);
    if (k > 1) {
      EXPECT_TRUE(plan.islands_enabled) << k << " workers: " << plan.fallback_reason;
    }
    const FingerprintResult isl = fingerprint_run_islands(spec, 20.0, k);
    EXPECT_EQ(isl.hash, serial.hash) << k << " workers";
    EXPECT_EQ(isl.events, serial.events) << k << " workers";
  }
}

TEST(FingerprintInvariance, UniformOracleEstimatesFallBackAcrossACut) {
  // The oracle's error draw is keyed, but its estimate still reads the
  // neighbor's live clock, which is a dead mirror across a cut.
  ScenarioSpec spec = fptable::detail::sim_base("isl-uniform-estimates", 16, 129);
  spec.topology = ComponentSpec("line");
  spec.estimates = ComponentSpec("uniform");
  const IslandExecutionPlan plan = plan_islands(spec, 2);
  EXPECT_FALSE(plan.islands_enabled);
  EXPECT_EQ(plan.fallback_reason,
            "estimates=uniform reads neighbors' live clocks across a non-empty cut");
}

TEST(Fingerprint, EdgeUniformDelaysAreUniformDelays) {
  ScenarioSpec uniform = fptable::kernel_trace_reference_spec();
  ScenarioSpec edge_uniform = uniform;
  uniform.set("delays", "uniform");
  edge_uniform.set("delays", "edge-uniform");
  EXPECT_EQ(edge_uniform.str(), uniform.str());
  EXPECT_EQ(fingerprint_run(edge_uniform, 30.0).hash, fingerprint_run(uniform, 30.0).hash);
}

TEST(FingerprintInvariance, IslandShardsRunTheSerialGtilde) {
  // IslandRunner derives G̃ once and hands every shard the resolved value: it
  // must be the very double a serial Scenario derives on the same spec.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  ScenarioSpec spec;
  for (const Case& c : sim_cases()) {
    if (c.name == "grid-walk-beacon-edgeuniform") spec = c.spec;
  }
  ASSERT_EQ(spec.name, "fp-isl-grid");
  ASSERT_TRUE(spec.gtilde_auto);
  spec.islands = 4;
  const double serial = Scenario(spec).spec().aopt.gtilde_static;

  IslandExecutionPlan plan = plan_islands(spec);
  ASSERT_TRUE(plan.islands_enabled) << plan.fallback_reason;
  IslandRunner derived(spec, std::move(plan));
  ASSERT_EQ(derived.shards(), 4);
  for (int i = 0; i < derived.shards(); ++i) {
    const ScenarioSpec& shard = derived.shard(i).spec();
    EXPECT_EQ(bits(shard.aopt.gtilde_static), bits(serial)) << "shard " << i;
    // A shard spec serializes the resolved G̃, and that string round-trips.
    const ScenarioSpec reparsed = fptable::spec_from_str(shard.str());
    EXPECT_FALSE(reparsed.gtilde_auto);
    EXPECT_EQ(bits(reparsed.aopt.gtilde_static), bits(serial)) << "shard " << i;
    EXPECT_EQ(reparsed.str(), shard.str());
  }

  // A given G̃ passes through untouched.
  spec.gtilde_auto = false;
  spec.aopt.gtilde_static = 2.0 * serial + 0.1;
  IslandRunner given(spec, plan_islands(spec));
  for (int i = 0; i < given.shards(); ++i) {
    EXPECT_FALSE(given.shard(i).spec().gtilde_auto);
    EXPECT_EQ(bits(given.shard(i).spec().aopt.gtilde_static), bits(spec.aopt.gtilde_static))
        << "shard " << i;
  }
}

TEST(FingerprintInvariance, LockstepRtRowsAreReproducible) {
  for (const Case& c : fptable::catalog()) {
    if (c.kind != "rt") continue;
    const FingerprintResult a = fptable::run_case(c);
    const FingerprintResult b = fptable::run_case(c);
    EXPECT_EQ(a.hash, b.hash) << "rt row '" << c.name << "' not reproducible";
    EXPECT_EQ(a.events, b.events);
    EXPECT_GT(a.events, 0u);
  }
}

TEST(FingerprintInvariance, SamplingDoesNotPerturb) {
  // Every clock read is pure, so the samplers the claims, the ledger and the
  // runtime cluster run — whole-network reads every 0.5 model-s — measure
  // exactly the pinned trajectory.
  std::map<std::string, Row> pinned;
  for (const Row& row : fptable::load_table()) pinned[row.name] = row;
  for (const Case& c : sim_cases()) {
    ASSERT_EQ(pinned.count(c.name), 1u) << "catalog row '" << c.name << "' is not pinned";
    Scenario scenario(c.spec);
    TrajectoryFingerprinter fp;
    fp.attach(scenario);
    scenario.start();
    for (int i = 1; 0.5 * i < c.horizon; ++i) {
      scenario.run_until(0.5 * i);
      (void)scenario.engine().true_global_skew();
      (void)measure_skew(scenario.engine());
      (void)check_legality(scenario.engine(), scenario.spec().aopt.gtilde_static);
    }
    scenario.run_until(c.horizon);
    EXPECT_EQ(fp.value(), pinned.at(c.name).hash)
        << "sampling every 0.5 model-s moved row '" << c.name << "'";
    EXPECT_EQ(fp.events(), pinned.at(c.name).events) << "row '" << c.name << "'";
  }
}

// ------------------------------------------------------------ regeneration

TEST(FingerprintRegen, RegenerateTable) {
  if (std::getenv("GCS_REGEN_FINGERPRINTS") == nullptr) {
    GTEST_SKIP() << "set GCS_REGEN_FINGERPRINTS=1 (via scripts/regen_fingerprints.sh) "
                    "to rewrite the table";
  }
  const char* threads_env = std::getenv("GCS_FP_THREADS");
  const int threads = threads_env != nullptr ? std::atoi(threads_env) : 0;
  const char* out_env = std::getenv("GCS_FINGERPRINT_OUT");
  const std::string path = out_env != nullptr ? out_env : fptable::table_path();
  const char* islands_env = std::getenv("GCS_FP_ISLANDS");
  const int islands = islands_env != nullptr ? std::atoi(islands_env) : 0;

  const std::vector<Case> cases = fptable::catalog();
  std::vector<Case> sims = sim_cases();
  std::vector<FingerprintResult> sim_results;
  if (islands > 0) {
    // Island axis: recompute every sim row through the island-parallel
    // engine (serial-fallback specs run serially — identical by design).
    sim_results.reserve(sims.size());
    for (const Case& c : sims) {
      sim_results.push_back(fingerprint_run_islands(c.spec, c.horizon, islands));
    }
  } else {
    sim_results = sweep_fingerprints(sims, threads);
  }

  std::vector<Row> rows;
  std::size_t sim_i = 0;
  for (const Case& c : cases) {
    Row row;
    row.name = c.name;
    row.kind = c.kind;
    row.horizon = c.horizon;
    row.chaos = c.chaos;
    row.spec = c.spec.str();
    const FingerprintResult r =
        c.kind == "rt" ? fptable::run_case(c) : sim_results[sim_i++];
    row.hash = r.hash;
    row.events = r.events;
    rows.push_back(std::move(row));
  }
  fptable::save_table(rows, path);
  GTEST_SKIP() << "regenerated " << rows.size() << " fingerprints -> " << path
               << " (threads=" << threads << ", islands=" << islands << ")";
}

}  // namespace
}  // namespace gcs
