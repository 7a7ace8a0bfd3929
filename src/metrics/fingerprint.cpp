#include "metrics/fingerprint.h"

#include <bit>
#include <cmath>

#include <memory>
#include <vector>

#include "core/engine.h"
#include "rt/chaos.h"
#include "rt/rt_cluster.h"
#include "rt/time_source.h"
#include "runner/island_runner.h"
#include "runner/scenario.h"

namespace gcs {

namespace {

constexpr std::uint64_t kHashSeed = 0x9e3779b97f4a7c15ULL;

std::uint64_t fold_word(std::uint64_t h, std::uint64_t w) {
  return TrajectoryFingerprinter::mix(h ^ w);
}

}  // namespace

std::int64_t TrajectoryFingerprinter::quantize(double logical) {
  // llrint is deterministic under the default (round-to-nearest-even)
  // mode, which nothing in the repo changes. Clocks are finite in any run
  // that completes; the guard keeps a corrupted run from raising FE traps.
  const double scaled = logical * kInvQuantum;
  if (!(std::fabs(scaled) < 9.0e18)) return std::signbit(scaled) ? -1 : 1;
  return std::llrint(scaled);
}

std::uint64_t TrajectoryFingerprinter::fold(std::uint64_t h, std::uint64_t time_bits,
                                            NodeId node, EventKind kind,
                                            std::int64_t qlogical) {
  h = fold_word(h, time_bits);
  h = fold_word(h, (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) << 8) |
                       static_cast<std::uint64_t>(kind));
  h = fold_word(h, static_cast<std::uint64_t>(qlogical));
  return h;
}

void TrajectoryFingerprinter::attach(Scenario& scenario, KernelTraceSink* chain) {
  engine_ = &scenario.engine();
  chain_ = chain;
  scenario.engine().set_kernel_trace(this);
  scenario.transport().set_kernel_trace(this);
}

void TrajectoryFingerprinter::on_event_fired(Time t, NodeId node, EventKind kind) {
  const std::int64_t q =
      engine_ != nullptr && node != kNoNode
          ? quantize(engine_->logical(node))
          : 0;
  hash_ = fold(hash_, std::bit_cast<std::uint64_t>(t), node, kind, q);
  ++events_;
  if (chain_ != nullptr) chain_->on_event_fired(t, node, kind);
}

FingerprintResult fingerprint_run(Scenario& scenario, Time horizon) {
  TrajectoryFingerprinter fp;
  fp.attach(scenario);
  scenario.start();
  scenario.run_until(horizon);
  return FingerprintResult{fp.value(), fp.events()};
}

FingerprintResult fingerprint_run(const ScenarioSpec& spec, Time horizon) {
  Scenario scenario(spec);
  return fingerprint_run(scenario, horizon);
}

namespace {

/// Per-shard passive event log; owned and written by exactly one shard
/// thread during the run, merged single-threaded afterwards.
class IslandLogSink final : public KernelTraceSink {
 public:
  struct Entry {
    Time t = 0.0;
    NodeId node = kNoNode;
    EventKind kind = EventKind::kClosure;
    std::int64_t qlogical = 0;
  };

  explicit IslandLogSink(const Engine& engine) : engine_(&engine) {}

  void on_event_fired(Time t, NodeId node, EventKind kind) override {
    const std::int64_t q =
        node != kNoNode ? TrajectoryFingerprinter::quantize(engine_->logical(node))
                        : 0;
    entries_.push_back({t, node, kind, q});
  }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  const Engine* engine_;
  std::vector<Entry> entries_;
};

}  // namespace

FingerprintResult fingerprint_run_islands(const ScenarioSpec& spec, Time horizon,
                                          int islands) {
  IslandExecutionPlan plan = plan_islands(spec, islands);
  if (!plan.islands_enabled) return fingerprint_run(spec, horizon);

  IslandRunner runner(spec, std::move(plan));
  std::vector<std::unique_ptr<IslandLogSink>> sinks;
  sinks.reserve(static_cast<std::size_t>(runner.shards()));
  for (int i = 0; i < runner.shards(); ++i) {
    Scenario& shard = runner.shard(i);
    sinks.push_back(std::make_unique<IslandLogSink>(shard.engine()));
    shard.engine().set_kernel_trace(sinks.back().get());
    shard.transport().set_kernel_trace(sinks.back().get());
  }
  runner.run(horizon);

  // K-way merge by (fire time, node). Shard logs are disjoint and
  // time-sorted (see the header doc), and equal-time events within one shard
  // already sit in their serial relative order, so within-shard order is
  // preserved. Cross-shard ties need care: the serial kernel breaks equal
  // times by scheduling sequence (simulator.h HeapEntry), and the only event
  // family that realistically collides across shards — synchronized
  // per-node drift changes (walk/blocks/sine fire every node at k·period;
  // ticks and beacons are phase-staggered on purpose) — is scheduled and
  // rescheduled in ascending node order, so its serial seq order IS node-id
  // order. Breaking cross-shard time ties by node id therefore reproduces
  // the serial fold; node ownership is disjoint so the key never ties
  // across shards.
  std::vector<std::size_t> pos(sinks.size(), 0);
  FingerprintResult out;
  out.hash = kHashSeed;
  const auto before = [](const IslandLogSink::Entry& a, const IslandLogSink::Entry& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.node < b.node;
  };
  for (;;) {
    int best = -1;
    for (int i = 0; i < static_cast<int>(sinks.size()); ++i) {
      const auto& log = sinks[static_cast<std::size_t>(i)]->entries();
      if (pos[static_cast<std::size_t>(i)] >= log.size()) continue;
      if (best < 0 ||
          before(log[pos[static_cast<std::size_t>(i)]],
                 sinks[static_cast<std::size_t>(best)]->entries()[pos[static_cast<std::size_t>(best)]])) {
        best = i;
      }
    }
    if (best < 0) break;
    const auto& e =
        sinks[static_cast<std::size_t>(best)]->entries()[pos[static_cast<std::size_t>(best)]++];
    out.hash = TrajectoryFingerprinter::fold(out.hash, std::bit_cast<std::uint64_t>(e.t),
                                             e.node, e.kind, e.qlogical);
    ++out.events;
  }
  return out;
}

FingerprintResult fingerprint_lockstep(const ScenarioSpec& spec,
                                       const std::string& chaos, Time horizon,
                                       Duration step, Duration sample_period) {
  VirtualClock clock;
  RtCluster cluster(spec, clock);
  if (!chaos.empty()) {
    // Same detector settings as the lockstep chaos tests: ingress silence
    // is supposed to cause real eviction/rediscovery during the run.
    DetectorConfig det;
    det.suspect_after = 1.5;
    det.evict_after = 4.0;
    det.probe_interval = 0.5;
    cluster.enable_detector(det);
    cluster.arm_chaos(ChaosScript::from_flag(chaos, cluster.size(),
                                             cluster.edges(), horizon, spec.seed));
  }
  cluster.start();
  cluster.schedule_samples(horizon, sample_period);
  cluster.run_lockstep(clock, horizon, step);

  // Fold the self-sampled series: PR 7 proved it bit-reproducible for a
  // fixed (spec, script), so it pins the lockstep trajectory the way the
  // kernel-event fold pins a simulation run.
  FingerprintResult result;
  result.hash = kHashSeed;
  const auto& samples = cluster.samples();
  for (std::size_t u = 0; u < samples.size(); ++u) {
    for (const RtSample& s : samples[u]) {
      result.hash = fold_word(result.hash, std::bit_cast<std::uint64_t>(s.t));
      result.hash = fold_word(
          result.hash,
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 1) |
              (s.live ? 1u : 0u));
      result.hash = fold_word(result.hash, static_cast<std::uint64_t>(
                                               TrajectoryFingerprinter::quantize(s.logical)));
      result.hash = fold_word(result.hash, static_cast<std::uint64_t>(
                                               TrajectoryFingerprinter::quantize(s.hardware)));
      ++result.events;
    }
  }
  return result;
}

}  // namespace gcs
