// Shared fingerprint-table machinery: the scenario catalog behind
// tests/fingerprints/fingerprints.csv, the CSV row codec, and the "run one
// catalog entry" helper. Used by test_fingerprint.cpp (per-row pinning +
// regeneration mode) and test_fuzz.cpp (thread-invariance property).
//
// The committed CSV is the source of truth for verification: each row
// carries the full serialized spec, so a row is checkable in isolation
// (ctest registers one test per row by name). The catalog() here is the
// source of truth for REGENERATION: regen mode recomputes every catalog
// entry and rewrites the table, and a dedicated test pins catalog ↔ table
// agreement so the two cannot drift apart silently.
//
// CSV layout (comma-separated, '#' comments):
//
//   name,kind,horizon,chaos,hash,events,spec
//
// `spec` is ScenarioSpec::str() — space-separated key=value pairs whose
// values may contain commas (component params) — so it is the LAST field
// and rows are parsed by splitting only the first six commas. `chaos` is
// "-" for simulation rows; for rt rows it is a chaos preset name (presets
// contain no commas; inline scripts are not allowed in the table).
#pragma once

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/fingerprint.h"
#include "runner/scenario.h"
#include "util/common.h"
#include "util/registry.h"

namespace gcs::fptable {

struct Case {
  std::string name;   ///< unique row id; also the per-row ctest suffix
  std::string kind;   ///< "sim" (event-fold) or "rt" (lockstep sample-fold)
  double horizon = 20.0;
  std::string chaos;  ///< rt rows: preset name ("" = no chaos)
  ScenarioSpec spec;
};

/// One committed table row (Case flattened to strings + the pinned result).
struct Row {
  std::string name;
  std::string kind;
  double horizon = 0.0;
  std::string chaos;
  std::uint64_t hash = 0;
  std::uint64_t events = 0;
  std::string spec;  ///< ScenarioSpec::str(), reconstructable via set()
};

inline std::string table_path() {
  return std::string(GCS_SOURCE_DIR) + "/tests/fingerprints/fingerprints.csv";
}

/// Rebuild a spec from its str() rendering (explicit_edges excepted, which
/// the catalog never uses — registry topologies only).
inline ScenarioSpec spec_from_str(const std::string& text) {
  ScenarioSpec spec;
  for (const std::string& token : split(text, ' ')) {
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    require(eq != std::string::npos, "fingerprint table: bad spec token '" + token + "'");
    spec.set(token.substr(0, eq), token.substr(eq + 1));
  }
  return spec;
}

// ---------------------------------------------------------------- catalog

/// The reference scenario behind the "beacon-reference" table row: a line
/// whose run fires every typed event kind (test_fingerprint checks that).
inline ScenarioSpec kernel_trace_reference_spec() {
  ScenarioSpec spec;
  spec.name = "kernel-trace-reference";
  spec.n = 12;
  spec.topology = ComponentSpec("line");
  spec.edge_params = default_edge_params(0.05, 0.25, 0.5, 0.1);
  spec.aopt.rho = 1e-3;
  spec.aopt.mu = 0.1;
  spec.gtilde_auto = true;
  spec.drift = ComponentSpec::parse("walk:period=5");
  spec.estimates = ComponentSpec("beacon");
  // keep_connected=false: on a line every removal disconnects, so a
  // connectivity-preserving churn would never act. Transient partitions are
  // fine here — they also exercise the transport's drop path.
  spec.adversary = ComponentSpec::parse("churn:rate=0.6,start=5,keep_connected=false");
  spec.seed = 20260728;
  return spec;
}

namespace detail {

inline ScenarioSpec sim_base(const std::string& name, int n, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = name;
  spec.n = n;
  spec.seed = seed;
  spec.edge_params = default_edge_params(0.05, 0.25, 0.5, 0.1);
  spec.aopt.rho = 1e-3;
  spec.aopt.mu = 0.1;
  spec.gtilde_auto = true;
  return spec;
}

/// The lockstep-runtime base: mirrors tests/test_rt.cpp's rt_spec (ring,
/// oscillator drift, measured-RTT estimates) — the configuration whose
/// lockstep bit-reproducibility PR 7 established.
inline ScenarioSpec rt_base(const std::string& name, int n, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = name;
  spec.n = n;
  spec.seed = seed;
  spec.topology = ComponentSpec(n >= 3 ? "ring" : "line");
  spec.drift = ComponentSpec::parse("osc-const:ppm=150/-200/80");
  spec.estimates = ComponentSpec("rtt");
  spec.edge_params.eps = 0.1;
  spec.edge_params.tau = 0.5;
  spec.edge_params.msg_delay_max = 0.6;
  spec.edge_params.msg_delay_min = 0.0;
  spec.gtilde_auto = true;
  return spec;
}

}  // namespace detail

/// The pinned catalog: ≥20 simulation combinations spanning the registry's
/// topology × algorithm × drift × estimate × gskew × adversary families,
/// plus lockstep-runtime chaos rows.
inline std::vector<Case> catalog() {
  using detail::rt_base;
  using detail::sim_base;
  std::vector<Case> cases;
  const auto sim = [&cases](const std::string& name, ScenarioSpec spec,
                            double horizon = 20.0) {
    cases.push_back(Case{name, "sim", horizon, "", std::move(spec)});
  };

  // The reference row: beacon estimates, every typed event kind fires.
  sim("beacon-reference", kernel_trace_reference_spec(), 30.0);

  // Topology family sweep (AOPT, spread drift, uniform estimates).
  {
    ScenarioSpec s = sim_base("fp-line", 24, 101);
    s.topology = ComponentSpec("line");
    sim("line-spread-uniform", s);
  }
  {
    ScenarioSpec s = sim_base("fp-ring", 24, 102);
    s.topology = ComponentSpec("ring");
    sim("ring-spread-uniform", s);
  }
  {
    ScenarioSpec s = sim_base("fp-star", 16, 103);
    s.topology = ComponentSpec("star");
    sim("star-spread-uniform", s);
  }
  {
    ScenarioSpec s = sim_base("fp-complete", 12, 104);
    s.topology = ComponentSpec("complete");
    s.drift = ComponentSpec("none");
    sim("complete-none-uniform", s);
  }
  {
    ScenarioSpec s = sim_base("fp-grid", 24, 105);
    s.topology = ComponentSpec::parse("grid:rows=4,cols=6");
    s.drift = ComponentSpec::parse("walk:period=5");
    sim("grid-walk-uniform", s);
  }
  {
    ScenarioSpec s = sim_base("fp-torus", 16, 106);
    s.topology = ComponentSpec::parse("torus:rows=4,cols=4");
    s.drift = ComponentSpec::parse("blocks:period=8,blocks=4");
    sim("torus-blocks-uniform", s);
  }
  {
    ScenarioSpec s = sim_base("fp-hypercube", 16, 107);
    s.topology = ComponentSpec::parse("hypercube:dim=4");
    s.estimates = ComponentSpec("beacon");
    sim("hypercube-spread-beacon", s);
  }
  {
    ScenarioSpec s = sim_base("fp-barbell", 16, 108);
    s.topology = ComponentSpec::parse("barbell:k=5,path=6");
    s.drift = ComponentSpec::parse("walk:period=5");
    sim("barbell-walk-uniform", s);
  }
  {
    ScenarioSpec s = sim_base("fp-tree", 24, 109);
    s.topology = ComponentSpec("tree");
    sim("tree-spread-uniform", s);
  }
  {
    ScenarioSpec s = sim_base("fp-gnp", 20, 110);
    s.topology = ComponentSpec::parse("gnp:p=0.2");
    sim("gnp-spread-uniform", s);
  }
  {
    ScenarioSpec s = sim_base("fp-geometric", 20, 111);
    s.topology = ComponentSpec::parse("geometric:radius=0.35");
    sim("geometric-spread-uniform", s);
  }

  // Algorithm family (same line workload, every registered algorithm).
  {
    ScenarioSpec s = sim_base("fp-maxjump", 16, 112);
    s.topology = ComponentSpec("line");
    s.algo = ComponentSpec("max-jump");
    sim("line-maxjump-spread-uniform", s);
  }
  {
    ScenarioSpec s = sim_base("fp-brm", 16, 113);
    s.topology = ComponentSpec("ring");
    s.algo = ComponentSpec("bounded-rate-max");
    sim("ring-boundedratemax-spread-uniform", s);
  }
  {
    ScenarioSpec s = sim_base("fp-free", 16, 114);
    s.topology = ComponentSpec("line");
    s.algo = ComponentSpec("free-running");
    sim("line-freerunning-spread-uniform", s);
  }

  // Drift family (line/ring AOPT under every remaining drift model).
  {
    ScenarioSpec s = sim_base("fp-sine", 20, 115);
    s.topology = ComponentSpec("ring");
    s.drift = ComponentSpec::parse("sine:period=10,steps=16");
    s.estimates = ComponentSpec("zero");
    sim("ring-sine-zero", s);
  }
  {
    ScenarioSpec s = sim_base("fp-osc-const", 18, 116);
    s.topology = ComponentSpec("line");
    s.drift = ComponentSpec::parse("osc-const:ppm=150/-200/80");
    sim("line-oscconst-uniform", s);
  }
  {
    ScenarioSpec s = sim_base("fp-osc-random", 18, 117);
    s.topology = ComponentSpec("ring");
    s.drift = ComponentSpec::parse("osc-random:interval=4,change=50");
    s.estimates = ComponentSpec("beacon");
    sim("ring-oscrandom-beacon", s);
  }

  // Estimate + G̃-source families.
  {
    ScenarioSpec s = sim_base("fp-adversarial", 16, 118);
    s.topology = ComponentSpec("star");
    s.estimates = ComponentSpec("adversarial");
    sim("star-spread-adversarial", s);
  }
  {
    ScenarioSpec s = sim_base("fp-gskew-oracle", 16, 119);
    s.topology = ComponentSpec("line");
    s.gskew = ComponentSpec("oracle");
    sim("line-gskew-oracle", s);
  }
  {
    ScenarioSpec s = sim_base("fp-gskew-dist", 16, 120);
    s.topology = ComponentSpec("ring");
    s.estimates = ComponentSpec("beacon");
    s.gskew = ComponentSpec("distributed");
    sim("ring-beacon-gskew-distributed", s);
  }

  // Dynamic-topology family (churn adversary; the reference row above
  // already pins line churn under beacons).
  {
    ScenarioSpec s = sim_base("fp-churn-grid", 24, 121);
    s.topology = ComponentSpec::parse("grid:rows=4,cols=6");
    s.adversary = ComponentSpec::parse("churn:rate=0.4,start=5");
    sim("grid-churn-uniform", s);
  }
  {
    ScenarioSpec s = sim_base("fp-churn-ring", 16, 122);
    s.topology = ComponentSpec("ring");
    s.estimates = ComponentSpec("beacon");
    s.adversary = ComponentSpec::parse("churn:rate=0.6,start=5,keep_connected=false");
    sim("ring-churn-beacon", s);
  }

  // Island-decomposable family: beacon estimates on graphs with a cheap
  // cut. (The names keep their old "edgeuniform" suffix: that per-edge
  // delay mode is what the default delays now are.) Pinned serial here like
  // every other row; test_fingerprint's island-invariance suite re-runs
  // every row at 1/2/8 island workers and requires the exact same hash,
  // which is what makes these rows the determinism gate for the island
  // engine.
  {
    ScenarioSpec s = sim_base("fp-isl-clusters", 32, 123);
    s.topology = ComponentSpec::parse("clusters:k=4,s=8");
    s.estimates = ComponentSpec("beacon");
    sim("clusters-beacon-edgeuniform", s);
  }
  {
    ScenarioSpec s = sim_base("fp-isl-grid", 32, 124);
    s.topology = ComponentSpec::parse("grid:rows=4,cols=8");
    s.drift = ComponentSpec::parse("walk:period=5");
    s.estimates = ComponentSpec("beacon");
    sim("grid-walk-beacon-edgeuniform", s);
  }
  {
    ScenarioSpec s = sim_base("fp-isl-gskew", 24, 125);
    s.topology = ComponentSpec::parse("clusters:k=3,s=8,bridges=2");
    s.estimates = ComponentSpec("beacon");
    s.gskew = ComponentSpec("distributed");
    sim("clusters-beacon-gskew-distributed-edgeuniform", s);
  }
  {
    ScenarioSpec s = sim_base("fp-isl-maxjump", 24, 126);
    s.topology = ComponentSpec("line");
    s.algo = ComponentSpec("max-jump");
    s.estimates = ComponentSpec("beacon");
    sim("line-maxjump-beacon-edgeuniform", s);
  }
  {
    ScenarioSpec s = sim_base("fp-isl-churn", 32, 127);
    s.topology = ComponentSpec::parse("clusters:k=4,s=8");
    s.estimates = ComponentSpec("beacon");
    s.adversary = ComponentSpec::parse("churn:rate=0.4,start=5");
    sim("clusters-churn-beacon-edgeuniform", s);
  }

  // Lockstep-runtime chaos rows (preset names resolve deterministically
  // from (preset, topology, horizon, seed) — see rt/chaos.h).
  cases.push_back(Case{"rt-ring-crash", "rt", 30.0, "crash",
                       rt_base("fp-rt-crash", 5, 201)});
  cases.push_back(Case{"rt-ring-partition", "rt", 30.0, "partition",
                       rt_base("fp-rt-partition", 5, 202)});
  cases.push_back(Case{"rt-ring-churn", "rt", 30.0, "churn",
                       rt_base("fp-rt-churn", 4, 203)});

  return cases;
}

// ------------------------------------------------------------ execution

constexpr Duration kRtStep = 0.25;
constexpr Duration kRtSamplePeriod = 1.0;

/// Compute one catalog entry's fingerprint (sim: event fold to horizon;
/// rt: lockstep sample fold under the row's chaos preset).
inline FingerprintResult run_case(const Case& c) {
  if (c.kind == "rt") {
    return fingerprint_lockstep(c.spec, c.chaos, c.horizon, kRtStep, kRtSamplePeriod);
  }
  return fingerprint_run(c.spec, c.horizon);
}

// ------------------------------------------------------------- CSV codec

inline std::string format_row(const Row& row) {
  std::ostringstream os;
  os << row.name << ',' << row.kind << ',' << ParamMap::format(row.horizon) << ','
     << (row.chaos.empty() ? "-" : row.chaos) << ',' << std::hex;
  os.width(16);
  os.fill('0');
  os << row.hash << std::dec << ',' << row.events << ',' << row.spec;
  return os.str();
}

/// Parse one table line; a malformed row throws std::runtime_error naming
/// the row and, for a bad number, the field.
inline Row parse_row(const std::string& line) {
  // The spec field is last and may contain commas: split only the first 6.
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (int i = 0; i < 6; ++i) {
    const std::size_t comma = line.find(',', start);
    require(comma != std::string::npos, "fingerprint table: short row '" + line + "'");
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
  fields.push_back(line.substr(start));
  const auto field = [&line](const char* name) {
    return "fingerprint table: row '" + line + "': field '" + name + "'";
  };
  Row row;
  row.name = fields[0];
  row.kind = fields[1];
  row.horizon = parse_strict_double(field("horizon"), fields[2]);
  row.chaos = fields[3] == "-" ? "" : fields[3];
  row.hash = parse_strict_u64(field("hash"), fields[4], 16);
  row.events = parse_strict_u64(field("events"), fields[5]);
  row.spec = fields[6];
  require(row.kind == "sim" || row.kind == "rt",
          "fingerprint table: unknown kind in row '" + line + "'");
  return row;
}

inline std::vector<Row> load_table(const std::string& path = table_path()) {
  std::ifstream f(path);
  require(f.good(), "fingerprint table missing: " + path +
                        " — run scripts/regen_fingerprints.sh");
  std::vector<Row> rows;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    rows.push_back(parse_row(line));
  }
  return rows;
}

/// load_table(), except a load error (missing file, malformed row) yields a
/// single sentinel row — name "table_unreadable", empty kind, the error text
/// in `spec` — instead of throwing. Safe to call during gtest's static-init
/// parameter expansion, where a throw would abort the binary before the
/// regeneration test could ever run to rewrite the file.
inline std::vector<Row> load_table_or_sentinel() {
  try {
    return load_table();
  } catch (const std::exception& e) {
    return {Row{"table_unreadable", "", 0.0, "", 0, 0, e.what()}};
  }
}

inline void save_table(const std::vector<Row>& rows,
                       const std::string& path = table_path()) {
  std::ofstream f(path);
  require(f.good(), "cannot write fingerprint table: " + path);
  f << "# Trajectory fingerprint table — one pinned hash per scenario.\n"
       "# Regenerate CONSCIOUSLY via scripts/regen_fingerprints.sh; see\n"
       "# docs/ARCHITECTURE.md (Fingerprint pinning) for when regeneration\n"
       "# is legitimate vs when a mismatch is a trajectory regression.\n"
       "# name,kind,horizon,chaos,hash,events,spec\n";
  for (const Row& row : rows) f << format_row(row) << '\n';
}

/// Reconstruct the Case a committed row describes (used by the per-row
/// tests: the row is self-contained, no catalog lookup needed).
inline Case case_from_row(const Row& row) {
  return Case{row.name, row.kind, row.horizon, row.chaos, spec_from_str(row.spec)};
}

}  // namespace gcs::fptable
