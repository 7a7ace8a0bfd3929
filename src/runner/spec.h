// ScenarioSpec: a fully string-serializable description of a scenario.
//
// Every pluggable dimension is a ComponentSpec — a registry key plus a
// key=value ParamMap — so one parsing/validation path serves the CLI
// (--drift=walk:period=5), the benches, the tests and the sweep runner's
// axes. Typed model parameters (AlgoParams, EdgeParams, EngineConfig)
// stay as structs but are addressable through the same `set(key, value)`
// path ("mu", "eps", "tick_period", ...).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/params.h"
#include "graph/dynamic_graph.h"
#include "graph/edge_params.h"
#include "net/transport.h"
#include "util/common.h"
#include "util/flags.h"
#include "util/registry.h"

namespace gcs {

/// One pluggable component: registry key + parameters.
struct ComponentSpec {
  std::string kind;
  ParamMap params;

  ComponentSpec() = default;
  ComponentSpec(const char* kind_in) : kind(kind_in) {}  // NOLINT(google-explicit-constructor)
  ComponentSpec(std::string kind_in) : kind(std::move(kind_in)) {}  // NOLINT
  ComponentSpec(std::string kind_in, ParamMap params_in)
      : kind(std::move(kind_in)), params(std::move(params_in)) {}

  /// Parse "kind" or "kind:key=value,key=value".
  static ComponentSpec parse(const std::string& text);

  /// Inverse of parse().
  [[nodiscard]] std::string str() const;

  friend bool operator==(const ComponentSpec& a, const ComponentSpec& b) {
    return a.kind == b.kind && a.params.all() == b.params.all();
  }
};

/// The complete description of a run. Value-semantic and cheap to copy —
/// the sweep runner clones and mutates it per grid point.
struct ScenarioSpec {
  std::string name = "scenario";
  int n = 8;  ///< node count; topologies sized by their own params override it
  std::uint64_t seed = 1;

  ComponentSpec topology{"explicit"};  ///< "explicit" reads `explicit_edges`
  ComponentSpec algo{"aopt"};
  ComponentSpec drift{"spread"};
  ComponentSpec estimates{"uniform"};
  ComponentSpec gskew{"static"};
  ComponentSpec adversary{"none"};

  /// Edge list for the "explicit" topology (programmatic construction).
  std::vector<EdgeKey> explicit_edges;

  AlgoParams aopt;
  EdgeParams edge_params;
  EngineConfig engine;
  DetectionDelayMode detection = DetectionDelayMode::kUniform;
  DelayMode delays = DelayMode::kUniform;

  /// §3 remark: boost this node so it always carries the maximum clock.
  NodeId reference_node = kNoNode;

  /// Island-parallel execution (src/runner/island_runner): 0 = off (serial),
  /// -1 = auto (pick a worker count from the hardware), N >= 1 = exactly N
  /// island shards. Scenarios whose spec is not island-decomposable (see
  /// plan_islands) silently fall back to the serial engine — trajectories
  /// are identical either way, this only selects the execution strategy.
  int islands = 0;

  /// Derive G̃ from the built topology via suggest_gtilde() instead of
  /// using aopt.gtilde_static (set by "gtilde=auto" / "gtilde=0").
  bool gtilde_auto = false;

  // ------------------------------------------------------------- mutation

  /// THE shared parsing path: apply one key=value assignment. Accepts
  /// component keys ("drift=walk:period=5"), dotted component params
  /// ("drift.period=5"), model scalars ("mu=0.1", "eps=0.05"), engine knobs
  /// ("beacon_period=0.5"). Throws on unknown keys or malformed values.
  void set(const std::string& key, const std::string& value);
  void set(const std::string& key, double value) { set(key, ParamMap::format(value)); }
  void set(const std::string& key, int value) { set(key, std::to_string(value)); }

  /// Build a spec by applying every --key=value flag (minus `reserved`
  /// runner-level keys such as horizon/trace) to a default spec.
  static ScenarioSpec from_flags(const Flags& flags,
                                 const std::vector<std::string>& reserved = {});

  /// Serialize to key=value pairs; set()-ing them onto a default spec
  /// reproduces this spec (explicit_edges excepted — they are programmatic).
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> to_kv() const;

  /// One-line rendering of to_kv() for logs and tables.
  [[nodiscard]] std::string str() const;

  /// Resolve every component against its registry (unknown kinds/params
  /// throw) and check the model constraints. Called by Scenario; call it
  /// directly to fail fast before a sweep.
  void validate() const;

  /// The keys set() accepts, for usage messages (one per line).
  static std::string key_help();
};

}  // namespace gcs
