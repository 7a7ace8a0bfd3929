#include "runner/spec.h"

#include <sstream>

#include "clock/drift.h"
#include "core/algo_registry.h"
#include "estimate/estimate_source.h"
#include "graph/adversary.h"
#include "graph/topology.h"

namespace gcs {

ComponentSpec ComponentSpec::parse(const std::string& text) {
  require(!text.empty(), "ComponentSpec: empty component text");
  ComponentSpec out;
  const std::size_t colon = text.find(':');
  out.kind = text.substr(0, colon);
  require(!out.kind.empty(), "ComponentSpec: missing kind in '" + text + "'");
  if (colon == std::string::npos) return out;
  for (const std::string& token : split(text.substr(colon + 1), ',')) {
    const std::size_t eq = token.find('=');
    require(eq != std::string::npos && eq > 0,
            "ComponentSpec: expected key=value, got '" + token + "' in '" + text + "'");
    out.params.set(token.substr(0, eq), token.substr(eq + 1));
  }
  return out;
}

std::string ComponentSpec::str() const {
  return params.empty() ? kind : kind + ":" + params.str();
}

namespace {

/// Parse helpers shared by set(): the strict scalar parsers with a
/// "spec: <key>" error context.
double to_double(const std::string& key, const std::string& value) {
  return parse_strict_double("spec: " + key, value);
}

int to_int(const std::string& key, const std::string& value) {
  return parse_strict_int("spec: " + key, value);
}

std::uint64_t to_u64(const std::string& key, const std::string& value) {
  return parse_strict_u64("spec: " + key, value);
}

bool to_bool(const std::string& key, const std::string& value) {
  return parse_strict_bool("spec: " + key, value);
}

InsertionPolicy parse_insertion(const std::string& value) {
  if (value == "staged") return InsertionPolicy::kStagedStatic;
  if (value == "dynamic") return InsertionPolicy::kStagedDynamic;
  if (value == "immediate") return InsertionPolicy::kImmediate;
  if (value == "decay") return InsertionPolicy::kWeightDecay;
  throw std::runtime_error(
      "spec: insertion: expected staged|dynamic|immediate|decay, got '" + value + "'");
}

std::string insertion_str(InsertionPolicy policy) {
  switch (policy) {
    case InsertionPolicy::kStagedStatic: return "staged";
    case InsertionPolicy::kStagedDynamic: return "dynamic";
    case InsertionPolicy::kImmediate: return "immediate";
    case InsertionPolicy::kWeightDecay: return "decay";
  }
  return "?";
}

DetectionDelayMode parse_detection(const std::string& value) {
  if (value == "zero") return DetectionDelayMode::kZero;
  if (value == "uniform") return DetectionDelayMode::kUniform;
  if (value == "max") return DetectionDelayMode::kMax;
  throw std::runtime_error("spec: detection: expected zero|uniform|max, got '" + value + "'");
}

std::string detection_str(DetectionDelayMode mode) {
  switch (mode) {
    case DetectionDelayMode::kZero: return "zero";
    case DetectionDelayMode::kUniform: return "uniform";
    case DetectionDelayMode::kMax: return "max";
  }
  return "?";
}

DelayMode parse_delays(const std::string& value) {
  if (value == "uniform" || value == "edge-uniform") return DelayMode::kUniform;
  if (value == "min") return DelayMode::kMin;
  if (value == "max") return DelayMode::kMax;
  throw std::runtime_error(
      "spec: delays: expected uniform|min|max|edge-uniform, got '" + value + "'");
}

std::string delays_str(DelayMode mode) {
  switch (mode) {
    case DelayMode::kUniform: return "uniform";
    case DelayMode::kMin: return "min";
    case DelayMode::kMax: return "max";
  }
  return "?";
}

std::string islands_str(int islands) {
  if (islands == 0) return "off";
  if (islands < 0) return "auto";
  return std::to_string(islands);
}

}  // namespace

void ScenarioSpec::set(const std::string& key, const std::string& value) {
  // Dotted component params: "<component>.<param>=<value>".
  const std::size_t dot = key.find('.');
  if (dot != std::string::npos) {
    const std::string head = key.substr(0, dot);
    const std::string param = key.substr(dot + 1);
    require(!param.empty(), "spec: empty param name in '" + key + "'");
    ComponentSpec* component = nullptr;
    if (head == "topo" || head == "topology") component = &topology;
    else if (head == "algo") component = &algo;
    else if (head == "drift") component = &drift;
    else if (head == "estimates") component = &estimates;
    else if (head == "gskew") component = &gskew;
    else if (head == "adversary") component = &adversary;
    if (component == nullptr) {
      throw std::runtime_error("spec: unknown component '" + head + "' in '" + key + "'");
    }
    component->params.set(param, value);
    return;
  }

  // Components.
  if (key == "topo" || key == "topology") { topology = ComponentSpec::parse(value); return; }
  if (key == "algo") { algo = ComponentSpec::parse(value); return; }
  if (key == "drift") { drift = ComponentSpec::parse(value); return; }
  if (key == "estimates") { estimates = ComponentSpec::parse(value); return; }
  if (key == "gskew") { gskew = ComponentSpec::parse(value); return; }
  if (key == "adversary") { adversary = ComponentSpec::parse(value); return; }

  // Identity.
  if (key == "name") { name = value; return; }
  if (key == "n") { n = to_int(key, value); return; }
  if (key == "seed") { seed = to_u64(key, value); return; }

  // Algorithm parameters.
  if (key == "rho") { aopt.rho = to_double(key, value); return; }
  if (key == "mu") { aopt.mu = to_double(key, value); return; }
  if (key == "iota") { aopt.iota = to_double(key, value); return; }
  if (key == "kappa_slack") { aopt.kappa_slack = to_double(key, value); return; }
  if (key == "delta_frac") { aopt.delta_frac = to_double(key, value); return; }
  if (key == "B") { aopt.B = to_double(key, value); return; }
  if (key == "level_cap") { aopt.level_cap = to_int(key, value); return; }
  if (key == "insertion") { aopt.insertion = parse_insertion(value); return; }
  if (key == "gtilde") {
    if (value == "auto") { gtilde_auto = true; return; }
    const double v = to_double(key, value);
    if (v <= 0.0) { gtilde_auto = true; return; }
    gtilde_auto = false;
    aopt.gtilde_static = v;
    return;
  }

  // Edge parameters.
  if (key == "eps") { edge_params.eps = to_double(key, value); return; }
  if (key == "tau") { edge_params.tau = to_double(key, value); return; }
  if (key == "delay_max") { edge_params.msg_delay_max = to_double(key, value); return; }
  if (key == "delay_min") { edge_params.msg_delay_min = to_double(key, value); return; }

  // Engine.
  if (key == "tick_period") { engine.tick_period = to_double(key, value); return; }
  if (key == "beacon_period") { engine.beacon_period = to_double(key, value); return; }
  if (key == "beacons") { engine.enable_beacons = to_bool(key, value); return; }

  // Modes.
  if (key == "detection") { detection = parse_detection(value); return; }
  if (key == "delays") { delays = parse_delays(value); return; }
  if (key == "reference") { reference_node = to_int(key, value); return; }
  if (key == "islands") {
    if (value == "off") { islands = 0; return; }
    if (value == "auto") { islands = -1; return; }
    const int v = to_int(key, value);
    require(v >= 1, "spec: islands: expected off|auto|N with N >= 1");
    islands = v;
    return;
  }

  throw std::runtime_error("spec: unknown key '" + key + "'\naccepted keys:\n" +
                           key_help());
}

ScenarioSpec ScenarioSpec::from_flags(const Flags& flags,
                                      const std::vector<std::string>& reserved) {
  ScenarioSpec spec;
  const auto is_component_key = [](const std::string& key) {
    return key == "topo" || key == "topology" || key == "algo" || key == "drift" ||
           key == "estimates" || key == "gskew" || key == "adversary";
  };
  // Apply component selectors first: selecting a component resets its params,
  // so "--topo=grid --topo.rows=3" must work regardless of flag-map iteration
  // order.
  for (const bool components_pass : {true, false}) {
    for (const auto& [key, value] : flags.all()) {
      bool skip = is_component_key(key) != components_pass;
      for (const auto& r : reserved) skip = skip || r == key;
      if (!skip) spec.set(key, value);
    }
  }
  return spec;
}

std::vector<std::pair<std::string, std::string>> ScenarioSpec::to_kv() const {
  std::vector<std::pair<std::string, std::string>> kv;
  kv.emplace_back("name", name);
  kv.emplace_back("n", std::to_string(n));
  kv.emplace_back("seed", std::to_string(seed));
  kv.emplace_back("topo", topology.str());
  kv.emplace_back("algo", algo.str());
  kv.emplace_back("drift", drift.str());
  kv.emplace_back("estimates", estimates.str());
  kv.emplace_back("gskew", gskew.str());
  kv.emplace_back("adversary", adversary.str());
  kv.emplace_back("rho", ParamMap::format(aopt.rho));
  kv.emplace_back("mu", ParamMap::format(aopt.mu));
  kv.emplace_back("iota", ParamMap::format(aopt.iota));
  kv.emplace_back("kappa_slack", ParamMap::format(aopt.kappa_slack));
  kv.emplace_back("delta_frac", ParamMap::format(aopt.delta_frac));
  kv.emplace_back("gtilde", gtilde_auto ? "auto" : ParamMap::format(aopt.gtilde_static));
  kv.emplace_back("insertion", insertion_str(aopt.insertion));
  kv.emplace_back("B", ParamMap::format(aopt.B));
  kv.emplace_back("level_cap", std::to_string(aopt.level_cap));
  kv.emplace_back("eps", ParamMap::format(edge_params.eps));
  kv.emplace_back("tau", ParamMap::format(edge_params.tau));
  kv.emplace_back("delay_max", ParamMap::format(edge_params.msg_delay_max));
  kv.emplace_back("delay_min", ParamMap::format(edge_params.msg_delay_min));
  kv.emplace_back("tick_period", ParamMap::format(engine.tick_period));
  kv.emplace_back("beacon_period", ParamMap::format(engine.beacon_period));
  kv.emplace_back("beacons", engine.enable_beacons ? "true" : "false");
  kv.emplace_back("detection", detection_str(detection));
  kv.emplace_back("delays", delays_str(delays));
  kv.emplace_back("reference", std::to_string(reference_node));
  // The island key is emitted only when set, so spec strings minted before
  // the key existed (pinned fingerprint rows) stay byte-identical.
  if (islands != 0) kv.emplace_back("islands", islands_str(islands));
  return kv;
}

std::string ScenarioSpec::str() const {
  std::string out;
  for (const auto& [key, value] : to_kv()) {
    out += (out.empty() ? "" : " ") + key + "=" + value;
  }
  return out;
}

void ScenarioSpec::validate() const {
  require(n >= 1, "spec: n >= 1 required");
  const auto check = [](const auto& registry, const ComponentSpec& c) {
    const auto& entry = registry.get(c.kind);
    c.params.check_known(entry.params, registry.family() + " '" + c.kind + "'");
  };
  check(topology_registry(), topology);
  check(algo_registry(), algo);
  check(drift_registry(), drift);
  check(estimate_registry(), estimates);
  check(gskew_registry(), gskew);
  check(adversary_registry(), adversary);
  edge_params.validate();
  const auto validation = aopt.validate();
  require(validation.ok(), "spec '" + name + "': invalid AlgoParams:\n" + validation.str());
}

std::string ScenarioSpec::key_help() {
  std::ostringstream os;
  os << "  name, n, seed\n"
     << "  topo=<kind>[:k=v,...]       (see --list)\n"
     << "  algo=<kind>[:k=v,...]\n"
     << "  drift=<kind>[:k=v,...]\n"
     << "  estimates=<kind>[:k=v,...]\n"
     << "  gskew=<kind>[:k=v,...]\n"
     << "  adversary=<kind>[:k=v,...]\n"
     << "  <component>.<param>=<v>     (one param of the selected kind, e.g.\n"
     << "                               topo.rows=3, adversary.rate=0.1)\n"
     << "  rho, mu, iota, kappa_slack, delta_frac, B, level_cap\n"
     << "  gtilde=<value|auto>, insertion=staged|dynamic|immediate|decay\n"
     << "  eps, tau, delay_max, delay_min\n"
     << "  tick_period, beacon_period, beacons=<bool>\n"
     << "  detection=zero|uniform|max, delays=uniform|min|max (edge-uniform = uniform)\n"
     << "  reference=<node|-1>\n"
     << "  islands=off|auto|N\n";
  return os.str();
}

}  // namespace gcs
