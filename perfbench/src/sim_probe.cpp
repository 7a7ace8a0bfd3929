#include "sim_probe.h"

#include <algorithm>
#include <vector>

#include "core/triggers.h"
#include "metrics/skew.h"
#include "tracer.h"
#include "util/rng.h"

namespace perfbench {

void LayerTotals::add(const ScenarioProbe& probe) {
  for (std::size_t k = 0; k < by_kind.size(); ++k) {
    by_kind[k] += static_cast<double>(probe.sink.count(static_cast<gcs::EventKind>(k)));
  }
  const auto total = static_cast<double>(probe.sink.total());
  events += total;
  busiest = std::max(busiest, total);
  pending_peak = std::max(pending_peak, static_cast<double>(probe.sink.pending_peak()));
  arena_live_peak =
      std::max(arena_live_peak, static_cast<double>(probe.sink.arena_live_peak()));
  const gcs::Transport& net = probe.scenario->transport();
  sent += static_cast<double>(net.sent_count());
  delivered += static_cast<double>(net.delivered_count());
  dropped += static_cast<double>(net.dropped_count());
  mode_changes += static_cast<double>(probe.observer.mode_changes);
  logical_jumps += static_cast<double>(probe.observer.logical_jumps);
  max_raises += static_cast<double>(probe.observer.max_raises);
}

SkewSample sample_skew(gcs::Engine& engine, double gtilde, double sigma) {
  const gcs::SkewSnapshot snap = gcs::measure_skew(engine);
  SkewSample out;
  out.global_ratio = snap.global / gtilde;
  if (snap.worst_local > 0.0) {
    const double kappa = gcs::metric_kappa(engine, snap.worst_local_edge);
    out.edge_ratio = snap.worst_local / gcs::gradient_bound(kappa, gtilde, sigma);
  }
  return out;
}

double trigger_eval_ns(const gcs::AlgoParams& aopt, gcs::EdgeParams edge, double eps,
                       int degree, std::uint64_t seed) {
  edge.eps = eps;
  const gcs::EdgeConstants c = aopt.edge_constants(edge);
  // Many distinct peer sets, cycled, so no call sees the inputs of the one
  // before it and the compiler cannot hoist the work out of the loop.
  constexpr int kSets = 64;
  const auto width = static_cast<std::size_t>(std::max(degree, 1));
  std::vector<gcs::LevelPeer> peers(kSets * width);
  gcs::Rng rng(seed);
  for (gcs::LevelPeer& p : peers) {
    p.kappa = c.kappa;
    p.delta = c.delta;
    p.eps = eps;
    p.tau = edge.tau;
    p.est_minus_own = rng.uniform(-c.kappa, c.kappa);
    p.level_limit = gcs::kAllLevels;
    p.has_estimate = true;
  }
  constexpr int kCalls = 20000;
  constexpr int kBatches = 7;
  std::vector<double> per_call;
  std::uint64_t decisions = 0;
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kCalls; ++i) {
      const gcs::LevelPeer* set = peers.data() + static_cast<std::size_t>(i % kSets) * width;
      const gcs::TriggerDecision d =
          gcs::evaluate_triggers(set, width, aopt.mu, aopt.rho, aopt.level_cap);
      decisions += static_cast<std::uint64_t>(d.fast) + 2u * d.slow + d.fast_level;
    }
    per_call.push_back(static_cast<double>(now_ns() - t0) / kCalls);
  }
  keep(static_cast<double>(decisions));
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

}  // namespace perfbench
