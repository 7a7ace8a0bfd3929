// Layer probes for the simulator workloads. Each one attaches through a
// public observation hook of the program (KernelTraceSink, EngineObserver)
// or calls a public function directly; none changes what the run does.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

#include "core/engine.h"
#include "core/params.h"
#include "net/transport.h"
#include "runner/scenario.h"
#include "sim/event.h"
#include "sim/simulator.h"

namespace perfbench {

/// Counts fired engine/transport events by kind, and records the kernel's
/// pending-event peak and the message arena's live-payload peak at fire
/// time. Chain it behind a TrajectoryFingerprinter to share the trace slot.
class CountingSink final : public gcs::KernelTraceSink {
 public:
  CountingSink(const gcs::Simulator& sim, const gcs::Transport& transport)
      : sim_(&sim), transport_(&transport) {}

  void on_event_fired(gcs::Time /*t*/, gcs::NodeId /*node*/, gcs::EventKind kind) override {
    ++by_kind_[static_cast<std::size_t>(kind)];
    ++total_;
    const std::size_t pending = sim_->pending_count();
    if (pending > pending_peak_) pending_peak_ = pending;
    if (kind == gcs::EventKind::kDelivery) {
      const std::size_t live = transport_->arena().live();
      if (live > arena_peak_) arena_peak_ = live;
    }
  }

  [[nodiscard]] std::uint64_t count(gcs::EventKind kind) const {
    return by_kind_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::size_t pending_peak() const { return pending_peak_; }
  [[nodiscard]] std::size_t arena_live_peak() const { return arena_peak_; }

 private:
  const gcs::Simulator* sim_;
  const gcs::Transport* transport_;
  std::array<std::uint64_t, 16> by_kind_{};
  std::uint64_t total_ = 0;
  std::size_t pending_peak_ = 0;
  std::size_t arena_peak_ = 0;
};

/// Counts the engine's discrete transitions.
class CountingObserver final : public gcs::EngineObserver {
 public:
  void on_mode_change(gcs::Time, gcs::NodeId, double, double) override { ++mode_changes; }
  void on_logical_jump(gcs::Time, gcs::NodeId, gcs::ClockValue, gcs::ClockValue) override {
    ++logical_jumps;
  }
  void on_max_estimate_raised(gcs::Time, gcs::NodeId, gcs::ClockValue) override {
    ++max_raises;
  }

  std::uint64_t mode_changes = 0;
  std::uint64_t logical_jumps = 0;
  std::uint64_t max_raises = 0;
};

/// A CountingSink and a CountingObserver for one scenario. attach() puts the
/// sink in the engine and transport trace slots; a TrajectoryFingerprinter
/// can take those slots instead and chain to `sink`.
struct ScenarioProbe {
  explicit ScenarioProbe(gcs::Scenario& scn)
      : scenario(&scn), sink(scn.sim(), scn.transport()) {
    scn.engine().set_observer(&observer);
  }
  ScenarioProbe(const ScenarioProbe&) = delete;
  ScenarioProbe& operator=(const ScenarioProbe&) = delete;

  void attach() {
    scenario->engine().set_kernel_trace(&sink);
    scenario->transport().set_kernel_trace(&sink);
  }

  gcs::Scenario* scenario;
  CountingSink sink;
  CountingObserver observer;
};

/// The sim/net/core probe readings of one run, summed over its scenarios
/// (the serial scenario, every island shard, or every runtime replica).
struct LayerTotals {
  std::array<double, 16> by_kind{};
  double events = 0.0;
  double busiest = 0.0;  ///< the largest single scenario's event count
  double pending_peak = 0.0;
  double arena_live_peak = 0.0;
  double sent = 0.0;
  double delivered = 0.0;
  double dropped = 0.0;
  double mode_changes = 0.0;
  double logical_jumps = 0.0;
  double max_raises = 0.0;

  void add(const ScenarioProbe& probe);
};

/// Skew quality over a run's samples. The reported figures cover the fixed
/// model-time window (warmup, horizon], so they are a function of the seed
/// alone and not of how far a host got in its measuring time; the gate
/// covers every post-warmup sample the run took.
///
/// The end-to-end figures average each sample's worst edge ratio (and its
/// global ratio) over the window. The maximum over the window is what the
/// gate checks and what the traced run reports, but a handful of samples
/// decide it, so it moves 15-22% from seed to seed where the average moves
/// a few percent.
class SkewWindow {
 public:
  SkewWindow(gcs::Time warmup, gcs::Time horizon) : warmup_(warmup), horizon_(horizon) {}

  /// One sample at model time t: the worst edge skew over its gradient
  /// bound, and the global skew over G̃.
  void add(gcs::Time t, double edge_ratio, double global_ratio) {
    if (t <= warmup_) return;
    gate_worst_ = std::max(gate_worst_, edge_ratio);
    if (t > horizon_) return;
    ++samples_;
    edge_sum_ += edge_ratio;
    global_sum_ += global_ratio;
    edge_max_ = std::max(edge_max_, edge_ratio);
    global_max_ = std::max(global_max_, global_ratio);
  }

  [[nodiscard]] double skew_to_bound() const { return samples_ > 0 ? edge_sum_ / samples_ : 0.0; }
  [[nodiscard]] double global_to_gtilde() const {
    return samples_ > 0 ? global_sum_ / samples_ : 0.0;
  }
  [[nodiscard]] double skew_to_bound_max() const { return edge_max_; }
  [[nodiscard]] double global_to_gtilde_max() const { return global_max_; }
  /// The worst edge ratio of every post-warmup sample, window or not.
  [[nodiscard]] double gate_worst() const { return gate_worst_; }
  [[nodiscard]] int samples() const { return samples_; }

 private:
  gcs::Time warmup_;
  gcs::Time horizon_;
  double edge_sum_ = 0.0;
  double global_sum_ = 0.0;
  double edge_max_ = 0.0;
  double global_max_ = 0.0;
  double gate_worst_ = 0.0;
  int samples_ = 0;
};

/// One skew sample through metrics/skew.h: measure_skew's worst edge skew
/// over that edge's Cor. 5.26 gradient_bound(κ_e, G̃, σ), and the global
/// skew over G̃. The workloads give every edge the same parameters, so κ_e
/// and the bound are the same on every edge and the worst skew is also the
/// worst ratio.
struct SkewSample {
  double edge_ratio = 0.0;
  double global_ratio = 0.0;
};
SkewSample sample_skew(gcs::Engine& engine, double gtilde, double sigma);

/// Median nanoseconds per evaluate_triggers call (core/triggers.h) with
/// `degree` fully inserted peers carrying the workload's edge constants and
/// discrepancies drawn uniformly within ±κ (seeded).
double trigger_eval_ns(const gcs::AlgoParams& aopt, gcs::EdgeParams edge, double eps,
                       int degree, std::uint64_t seed);

}  // namespace perfbench
