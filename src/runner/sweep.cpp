#include "runner/sweep.h"

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <utility>

#include "metrics/legality.h"
#include "metrics/skew.h"
#include "util/csv.h"

namespace gcs {

Sweep& Sweep::axis(const std::string& key, std::vector<std::string> values) {
  require(!values.empty(), "Sweep: axis '" + key + "' has no values");
  for (const auto& existing : axes_) {
    require(existing.key != key, "Sweep: duplicate axis '" + key + "'");
  }
  axes_.push_back(Axis{key, std::move(values)});
  return *this;
}

Sweep& Sweep::axis(const std::string& key, const std::vector<int>& values) {
  std::vector<std::string> out;
  out.reserve(values.size());
  for (int v : values) out.push_back(std::to_string(v));
  return axis(key, std::move(out));
}

Sweep& Sweep::axis(const std::string& key, const std::vector<double>& values) {
  std::vector<std::string> out;
  out.reserve(values.size());
  for (double v : values) out.push_back(ParamMap::format(v));
  return axis(key, std::move(out));
}

Sweep& Sweep::seeds(const std::vector<std::uint64_t>& values) {
  std::vector<std::string> out;
  out.reserve(values.size());
  for (std::uint64_t v : values) out.push_back(std::to_string(v));
  return axis("seed", std::move(out));
}

std::size_t Sweep::size() const {
  std::size_t total = 1;
  for (const auto& a : axes_) total *= a.values.size();
  return total;
}

std::vector<Sweep::Expanded> Sweep::expand() const {
  std::vector<Expanded> grid;
  grid.reserve(size());
  std::vector<std::size_t> cursor(axes_.size(), 0);
  while (true) {
    Expanded e{base_, {}};
    for (std::size_t i = 0; i < axes_.size(); ++i) {
      const std::string& value = axes_[i].values[cursor[i]];
      e.spec.set(axes_[i].key, value);
      e.axes[axes_[i].key] = value;
    }
    grid.push_back(std::move(e));
    if (axes_.empty()) return grid;
    // Odometer increment, last axis fastest.
    std::size_t i = axes_.size();
    bool carried_out = true;
    while (i > 0) {
      --i;
      if (++cursor[i] < axes_[i].values.size()) {
        carried_out = false;
        break;
      }
      cursor[i] = 0;
    }
    if (carried_out) return grid;
  }
}

SweepRunner::SweepRunner(SweepOptions options)
    : options_(options), run_fn_(default_run_fn(options)) {}

SweepRunner::RunFn SweepRunner::default_run_fn(const SweepOptions& options) {
  return [options](Scenario& s, RunResult& r) {
    s.start();
    double max_global = 0.0;
    double max_local = 0.0;
    double last_global = 0.0;
    double last_local = 0.0;
    Time t = 0.0;
    while (t < options.horizon) {
      t = std::min(t + options.sample_period, options.horizon);
      s.run_until(t);
      const auto snap = measure_skew(s.engine());
      last_global = snap.global;
      last_local = snap.worst_local;
      max_global = std::max(max_global, snap.global);
      max_local = std::max(max_local, snap.worst_local);
    }
    r.final_global = last_global;
    r.final_local = last_local;
    r.max_global = max_global;
    r.max_local = max_local;
    if (options.check_legality) {
      const auto report = check_legality(s.engine(), s.spec().aopt.gtilde_static);
      r.legal = report.legal();
      r.legality_margin = report.worst_margin;
    }
  };
}

std::vector<RunResult> SweepRunner::run(const Sweep& sweep) const {
  // Touch every registry once so lazy bootstrap happens before workers race.
  sweep.base().validate();

  const std::vector<Sweep::Expanded> grid = sweep.expand();
  const int thread_count =
      std::max(1, std::min<int>(options_.threads, static_cast<int>(grid.size())));

  const auto execute_run = [&](int i, RunResult& r) {
    const auto& cell = grid[static_cast<std::size_t>(i)];
    r.index = i;
    r.name = cell.spec.name;
    r.axes = cell.axes;
    r.seed = cell.spec.seed;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      ScenarioSpec spec = cell.spec;
      if (spec_fn_) spec_fn_(spec);  // derive correlated parameters per cell
      // Constructed on the claiming worker's thread, so its arenas and RNG
      // streams are first-touch local to that worker; the per-run seed
      // comes from the spec, so streams are identical whichever worker runs
      // the index.
      Scenario scenario(spec);
      r.n = scenario.spec().n;
      run_fn_(scenario, r);
      r.events = scenario.sim().fired_count();
      if (scenario.adversary() != nullptr) {
        r.adversary_ops = scenario.adversary()->operations();
      }
    } catch (const std::exception& e) {
      r.error = e.what();
    } catch (...) {
      r.error = "unknown exception";
    }
    r.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };

  // Each worker claims the next unrun index and writes its result slot
  // directly: a run builds a whole Scenario, so one atomic increment per run
  // costs nothing next to it, and claiming one index at a time balances
  // heterogeneous run lengths (an "n" axis spanning 8..1024) by itself.
  std::vector<RunResult> results(grid.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < grid.size(); i = next++) {
      execute_run(static_cast<int>(i), results[i]);
    }
  };

  if (thread_count <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(thread_count));
    for (int t = 0; t < thread_count; ++t) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }
  return results;
}

namespace {

/// Union of custom-value keys over all results, sorted.
std::vector<std::string> value_columns(const std::vector<RunResult>& results) {
  std::set<std::string> keys;
  for (const auto& r : results) {
    for (const auto& [k, v] : r.values) keys.insert(k);
  }
  return {keys.begin(), keys.end()};
}

std::vector<std::string> axis_columns(const std::vector<RunResult>& results) {
  std::set<std::string> keys;
  for (const auto& r : results) {
    for (const auto& [k, v] : r.axes) keys.insert(k);
  }
  return {keys.begin(), keys.end()};
}

}  // namespace

Table SweepRunner::to_table(const std::vector<RunResult>& results,
                            const std::string& title) {
  const auto axes = axis_columns(results);
  const auto extras = value_columns(results);
  Table table(title);
  std::vector<std::string> headers;
  for (const auto& a : axes) headers.push_back(a);
  headers.insert(headers.end(), {"n", "G final", "G max", "local final", "local max",
                                 "legal", "events", "wall s"});
  for (const auto& e : extras) headers.push_back(e);
  headers.push_back("error");
  table.headers(headers);
  for (const auto& r : results) {
    auto& row = table.row();
    for (const auto& a : axes) {
      const auto it = r.axes.find(a);
      row.cell(it == r.axes.end() ? std::string("-") : it->second);
    }
    row.cell(r.n)
        .cell(r.final_global)
        .cell(r.max_global)
        .cell(r.final_local)
        .cell(r.max_local)
        .cell(r.legal)
        .cell(static_cast<long long>(r.events))
        .cell(r.wall_seconds, 2);
    for (const auto& e : extras) {
      const auto it = r.values.find(e);
      if (it == r.values.end()) {
        row.cell("-");
      } else {
        row.cell(it->second);
      }
    }
    row.cell(r.error.empty() ? "-" : r.error);
  }
  return table;
}

void SweepRunner::write_csv(const std::vector<RunResult>& results,
                            const std::string& path, bool include_wall) {
  const auto axes = axis_columns(results);
  const auto extras = value_columns(results);
  CsvWriter csv(path);
  std::vector<std::string> headers{"index", "name", "seed"};
  for (const auto& a : axes) headers.push_back("axis_" + a);
  headers.insert(headers.end(),
                 {"n", "final_global", "max_global", "final_local", "max_local",
                  "legal", "legality_margin", "events", "adversary_ops"});
  if (include_wall) headers.push_back("wall_seconds");
  for (const auto& e : extras) headers.push_back(e);
  headers.push_back("error");
  csv.row(headers);
  for (const auto& r : results) {
    csv.field(r.index).field(r.name).field(static_cast<long long>(r.seed));
    for (const auto& a : axes) {
      const auto it = r.axes.find(a);
      csv.field(it == r.axes.end() ? std::string() : it->second);
    }
    csv.field(r.n)
        .field(r.final_global)
        .field(r.max_global)
        .field(r.final_local)
        .field(r.max_local)
        .field(r.legal ? 1 : 0)
        .field(r.legality_margin)
        .field(static_cast<long long>(r.events))
        .field(r.adversary_ops);
    if (include_wall) csv.field(r.wall_seconds);
    for (const auto& e : extras) {
      const auto it = r.values.find(e);
      if (it == r.values.end()) {
        csv.field(std::string());
      } else {
        csv.field(it->second);
      }
    }
    csv.field(r.error).endrow();
  }
}

}  // namespace gcs
