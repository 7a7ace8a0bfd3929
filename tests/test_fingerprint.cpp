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
// thread count (runs are constructed per-worker; PR 5's determinism
// discipline) and out of both instant-coalescing modes (PR 5 proved
// per-instant evaluation equivalent for single-event instants; every
// catalog row is chosen to satisfy that, and this suite enforces it so a
// future row cannot silently pin a mode-dependent hash).
//
// Regeneration: GCS_REGEN_FINGERPRINTS=1 rewrites the table from the
// in-code catalog (scripts/regen_fingerprints.sh wraps this, checks
// 1/2/8-thread, coalesce-off and 1/2/8-island agreement, and is the only
// sanctioned way to change the committed file). GCS_FINGERPRINT_OUT
// overrides the output path; GCS_FP_THREADS picks the sweep thread count;
// GCS_FP_COALESCE=off flips the engine's instant-coalescing mode;
// GCS_FP_ISLANDS=k recomputes every sim row through the island-parallel
// engine with k requested workers (serial-fallback rows run serially, so
// the k-island table must come back byte-identical to the committed one).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "fingerprint_common.h"
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
/// flip_coalesce inverts the instant-coalescing mode — only on rows flagged
/// coalesce-invariant, where the modes are proven trajectory-identical;
/// other rows are pinned per-mode and run as specified.
std::vector<FingerprintResult> sweep_fingerprints(const std::vector<Case>& sims,
                                                  int threads,
                                                  bool flip_coalesce = false) {
  std::map<std::string, const Case*> by_name;
  for (const Case& c : sims) by_name[c.name] = &c;
  const auto adjust = [flip_coalesce](const Case& c) {
    ScenarioSpec spec = c.spec;
    if (flip_coalesce && c.coalesce_invariant) {
      spec.engine.coalesce_instants = !spec.engine.coalesce_instants;
    }
    return spec;
  };

  std::vector<FingerprintResult> out(sims.size());
  if (threads <= 0) {
    for (std::size_t i = 0; i < sims.size(); ++i) {
      Scenario scenario(adjust(sims[i]));
      out[i] = fingerprint_run(scenario, sims[i].horizon);
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
  runner.set_spec_fn([&by_name, &adjust](ScenarioSpec& spec) {
    spec = adjust(*by_name.at(spec.name));
  });
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
  // The whole point of peek_logical: a fingerprinted run and a bare run of
  // the same spec must end in bit-identical clocks.
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

TEST(Fingerprint, CatalogMatchesCommittedTable) {
  // The committed rows and the in-code catalog must agree field-for-field
  // (hashes excepted — those are what the table pins), so regeneration and
  // verification cannot drift apart.
  const std::vector<Case> cases = fptable::catalog();
  const std::vector<Row> rows = fptable::load_table_or_sentinel();
  if (rows.size() == 1 && rows[0].kind.empty()) {
    if (std::getenv("GCS_REGEN_FINGERPRINTS") != nullptr) {
      GTEST_SKIP() << "no committed table yet (bootstrap regeneration)";
    }
    FAIL() << "fingerprint table missing: " << fptable::table_path();
  }
  ASSERT_EQ(rows.size(), cases.size());
  ASSERT_GE(rows.size(), 20u) << "the table must pin at least 20 combinations";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(rows[i].name, cases[i].name);
    EXPECT_EQ(rows[i].kind, cases[i].kind);
    EXPECT_EQ(rows[i].horizon, cases[i].horizon);
    EXPECT_EQ(rows[i].chaos, cases[i].chaos);
    EXPECT_EQ(rows[i].coalesce_invariant, cases[i].coalesce_invariant);
    EXPECT_EQ(rows[i].spec, cases[i].spec.str());
  }
}

// ---------------------------------------------------------- per-row pins

class PinnedFingerprint : public ::testing::TestWithParam<Row> {};

TEST_P(PinnedFingerprint, MatchesCommittedHash) {
  const Row& row = GetParam();
  if (row.kind.empty()) {
    if (std::getenv("GCS_REGEN_FINGERPRINTS") != nullptr) {
      GTEST_SKIP() << "no committed table yet (bootstrap regeneration)";
    }
    FAIL() << "fingerprint table missing: " << fptable::table_path()
           << " — run scripts/regen_fingerprints.sh";
  }
  const Case c = fptable::case_from_row(row);

  const FingerprintResult result = fptable::run_case(c);
  EXPECT_EQ(result.hash, row.hash)
      << "trajectory diverged from the pinned fingerprint for '" << row.name
      << "' — a behavior change reached a pinned scenario; see "
         "docs/ARCHITECTURE.md § Fingerprint pinning before regenerating";
  EXPECT_EQ(result.events, row.events) << "event count changed for '" << row.name << "'";
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

TEST(FingerprintInvariance, CoalesceModeDoesNotChangeFlaggedHashes) {
  // Rows flagged coalesce-invariant must produce the same hash in both
  // instant-coalescing modes — the PR-5 equivalence, enforced continuously
  // so the flag cannot rot. (Unflagged oracle-estimate rows legitimately
  // diverge; they are pinned at their spec's own mode only.)
  const std::vector<Case> sims = sim_cases();
  std::size_t flagged = 0;
  const std::vector<FingerprintResult> normal = sweep_fingerprints(sims, 0, false);
  const std::vector<FingerprintResult> flipped = sweep_fingerprints(sims, 0, true);
  for (std::size_t i = 0; i < sims.size(); ++i) {
    if (!sims[i].coalesce_invariant) continue;
    ++flagged;
    EXPECT_EQ(flipped[i].hash, normal[i].hash)
        << "row '" << sims[i].name
        << "' is flagged coalesce-invariant but its hash depends on the "
           "mode — fix the flag or the row (see test_instant.cpp)";
    EXPECT_EQ(flipped[i].events, normal[i].events);
  }
  EXPECT_GE(flagged, 5u) << "the coalesce-invariance claim needs real coverage";
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
  EXPECT_GE(islanded_runs, 5u)
      << "too few rows take the real multi-shard path; the island "
         "determinism gate needs real coverage (add islandable rows)";
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

// ------------------------------------------------------------ regeneration

TEST(FingerprintRegen, RegenerateTable) {
  if (std::getenv("GCS_REGEN_FINGERPRINTS") == nullptr) {
    GTEST_SKIP() << "set GCS_REGEN_FINGERPRINTS=1 (via scripts/regen_fingerprints.sh) "
                    "to rewrite the table";
  }
  const char* threads_env = std::getenv("GCS_FP_THREADS");
  const int threads = threads_env != nullptr ? std::atoi(threads_env) : 0;
  const char* coalesce_env = std::getenv("GCS_FP_COALESCE");
  const bool flip_coalesce =
      coalesce_env != nullptr && std::string(coalesce_env) == "off";
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
    sim_results = sweep_fingerprints(sims, threads, flip_coalesce);
  }

  std::vector<Row> rows;
  std::size_t sim_i = 0;
  for (const Case& c : cases) {
    Row row;
    row.name = c.name;
    row.kind = c.kind;
    row.horizon = c.horizon;
    row.chaos = c.chaos;
    row.coalesce_invariant = c.coalesce_invariant;
    // The spec column always records the CATALOG spec: a coalesce-flipped
    // recomputation must yield the same bytes, or the row was not invariant.
    row.spec = c.spec.str();
    const FingerprintResult r =
        c.kind == "rt" ? fptable::run_case(c) : sim_results[sim_i++];
    row.hash = r.hash;
    row.events = r.events;
    rows.push_back(std::move(row));
  }
  fptable::save_table(rows, path);
  GTEST_SKIP() << "regenerated " << rows.size() << " fingerprints -> " << path
               << " (threads=" << threads << ", coalesce "
               << (flip_coalesce ? "flipped" : "default") << ", islands="
               << islands << ")";
}

}  // namespace
}  // namespace gcs
