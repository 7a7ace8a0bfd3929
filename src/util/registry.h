// String-keyed component registries and key=value parameter maps.
//
// Every pluggable scenario dimension (topology, drift model, estimate
// source, global-skew estimator, algorithm, adversary) self-registers a
// factory under a name, together with documentation of the parameters it
// accepts. The CLI, benches, tests and the sweep runner all resolve
// components through these registries, so there is exactly one
// parsing/validation path and `simulate_cli --list` can enumerate
// everything without a hand-maintained table.
#pragma once

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/common.h"

namespace gcs {

/// Documentation of one accepted parameter of a registered component.
struct ParamDoc {
  std::string name;
  std::string def;   ///< default value, rendered for --list
  std::string desc;  ///< one-line description
};

// Strict scalar parsing shared by ParamMap getters and ScenarioSpec::set():
// the whole string must parse, and unsigned values must not be negated.
// `context` names the offending key in the error.

inline double parse_strict_double(const std::string& context, const std::string& value) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    require(pos == value.size(), "");
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error(context + ": not a number: '" + value + "'");
  }
}

inline int parse_strict_int(const std::string& context, const std::string& value) {
  try {
    std::size_t pos = 0;
    const int v = std::stoi(value, &pos);
    require(pos == value.size(), "");
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error(context + ": not an integer: '" + value + "'");
  }
}

inline std::uint64_t parse_strict_u64(const std::string& context,
                                      const std::string& value, int base = 10) {
  try {
    std::size_t pos = 0;
    require(value.empty() || value[0] != '-', "");  // stoull would wrap negatives
    const std::uint64_t v = std::stoull(value, &pos, base);
    require(pos == value.size(), "");
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error(context + ": not an unsigned integer: '" + value + "'");
  }
}

inline bool parse_strict_bool(const std::string& context, const std::string& value) {
  if (value == "true" || value == "1" || value == "on" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "off" || value == "no") return false;
  throw std::runtime_error(context + ": not a boolean: '" + value + "'");
}

/// An ordered string→string parameter map with strict typed getters.
/// The single currency of component configuration: parsed from
/// "key=value,key=value" text, produced by ScenarioSpec setters, validated
/// against the registered ParamDocs.
class ParamMap {
 public:
  ParamMap() = default;
  ParamMap(std::initializer_list<std::pair<const std::string, std::string>> kv)
      : kv_(kv) {}

  void set(const std::string& key, const std::string& value) { kv_[key] = value; }
  void set(const std::string& key, double value) { set(key, format(value)); }
  void set(const std::string& key, int value) { set(key, std::to_string(value)); }

  [[nodiscard]] bool has(const std::string& key) const { return kv_.count(key) > 0; }
  [[nodiscard]] bool empty() const { return kv_.empty(); }
  [[nodiscard]] const std::map<std::string, std::string>& all() const { return kv_; }

  [[nodiscard]] std::string get_str(const std::string& key, const std::string& def) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? def : it->second;
  }

  [[nodiscard]] double get_double(const std::string& key, double def) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return def;
    return parse_strict_double("param '" + key + "'", it->second);
  }

  [[nodiscard]] int get_int(const std::string& key, int def) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return def;
    return parse_strict_int("param '" + key + "'", it->second);
  }

  [[nodiscard]] std::uint64_t get_u64(const std::string& key, std::uint64_t def) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return def;
    return parse_strict_u64("param '" + key + "'", it->second);
  }

  [[nodiscard]] bool get_bool(const std::string& key, bool def) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return def;
    return parse_strict_bool("param '" + key + "'", it->second);
  }

  /// Throw if any key is not documented in `docs` (catches typos at the
  /// single shared validation site instead of silently ignoring them).
  void check_known(const std::vector<ParamDoc>& docs, const std::string& context) const {
    for (const auto& [key, value] : kv_) {
      bool known = false;
      for (const auto& doc : docs) known = known || doc.name == key;
      if (!known) {
        std::string accepted;
        for (const auto& doc : docs) accepted += (accepted.empty() ? "" : ", ") + doc.name;
        throw std::runtime_error(context + ": unknown param '" + key +
                                 "' (accepted: " + (accepted.empty() ? "<none>" : accepted) +
                                 ")");
      }
    }
  }

  /// "k=v,k=v" (round-trips through parse()).
  [[nodiscard]] std::string str() const {
    std::string out;
    for (const auto& [key, value] : kv_) {
      out += (out.empty() ? "" : ",") + key + "=" + value;
    }
    return out;
  }

  /// Shortest decimal rendering that round-trips a double exactly.
  static std::string format(double v) {
    for (int precision = 6; precision <= 17; ++precision) {
      std::ostringstream os;
      os.precision(precision);
      os << v;
      if (std::stod(os.str()) == v) return os.str();
    }
    return std::to_string(v);
  }

 private:
  std::map<std::string, std::string> kv_;
};

/// A named family of factories. `Factory` is the family-specific callable
/// type (each family passes its own build-context struct).
template <class Factory>
class Registry {
 public:
  struct Entry {
    std::string name;
    std::string description;
    std::vector<ParamDoc> params;
    Factory factory;
  };

  explicit Registry(std::string family) : family_(std::move(family)) {}

  /// Register a component. Throws on duplicate names — two implementations
  /// silently shadowing each other is always a bug.
  void add(Entry entry) {
    require(!entry.name.empty(), family_ + " registry: empty component name");
    const std::string name = entry.name;
    const bool inserted = entries_.emplace(name, std::move(entry)).second;
    require(inserted, family_ + " registry: duplicate registration of '" + name + "'");
  }

  [[nodiscard]] bool contains(const std::string& name) const {
    return entries_.count(name) > 0;
  }

  /// Resolve a name; unknown names throw with the full list of known ones.
  [[nodiscard]] const Entry& get(const std::string& name) const {
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
      std::string known;
      for (const auto& [k, e] : entries_) known += (known.empty() ? "" : ", ") + k;
      throw std::runtime_error("unknown " + family_ + " '" + name +
                               "' (registered: " + known + ")");
    }
    return it->second;
  }

  [[nodiscard]] std::vector<std::string> names() const {
    std::vector<std::string> out;
    for (const auto& [k, e] : entries_) out.push_back(k);
    return out;
  }

  [[nodiscard]] const std::map<std::string, Entry>& entries() const { return entries_; }
  [[nodiscard]] const std::string& family() const { return family_; }

 private:
  std::string family_;
  std::map<std::string, Entry> entries_;
};

}  // namespace gcs
