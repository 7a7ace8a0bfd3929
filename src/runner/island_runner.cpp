#include "runner/island_runner.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <mutex>
#include <thread>

namespace gcs {

IslandExecutionPlan plan_islands(const ScenarioSpec& spec, int requested) {
  IslandExecutionPlan out;
  const auto serial = [&out](std::string reason) -> IslandExecutionPlan& {
    out.islands_enabled = false;
    out.fallback_reason = std::move(reason);
    return out;
  };

  if (requested == 0) return serial("islands=off");
  int k = requested;
  if (requested < 0) {  // auto
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw < 2) return serial("islands=auto on a single hardware thread");
    k = static_cast<int>(std::min(hw, 8u));
  }

  // Spec-level decomposability. Each rule names the shared state that would
  // observe the execution order across islands (full matrix: ARCHITECTURE.md).
  if (!spec.engine.executed.empty())
    return serial("engine.executed already names a partial replica");
  if (spec.edge_params.msg_delay_min <= 0.0)
    return serial("msg_delay_min == 0 leaves no conservative window width");
  if (spec.gskew.kind == "oracle")
    return serial("gskew=oracle reads every node's live clock");
  if (spec.reference_node != kNoNode)
    return serial("reference-node runs are pinned to the serial engine");

  // Partition the t=0 topology. ChurnAdversary only toggles initial edges,
  // so this edge set bounds everything that can ever exist at runtime.
  const TopologyResult topo = materialize_topology(spec);
  IslandPlan partition = partition_islands(topo.n, topo.edges, k);
  if (!partition.feasible) return serial("partition infeasible: " + partition.reason);

  // Oracle sources read a *neighbor's* live clock, so they only work when
  // every neighbor is co-resident: mirror clocks are dead.
  const std::string& est = spec.estimates.kind;
  if ((est == "zero" || est == "uniform" || est == "adversarial") &&
      !partition.cut.empty()) {
    return serial("estimates=" + spec.estimates.kind +
                  " reads neighbors' live clocks across a non-empty cut");
  }

  out.islands_enabled = true;
  out.workers = partition.islands;
  out.partition = std::move(partition);
  return out;
}

/// Barrier + the per-phase shared flags. `stop` and `pending` are written
/// only inside the barrier completion step (single-threaded, sequenced
/// before any waiter resumes), so every shard reads one consistent value per
/// phase and all make the same control-flow decision — the phase counts stay
/// aligned and the barrier can never deadlock.
class IslandRunner::Sync {
 public:
  struct Completion {
    IslandRunner* runner;
    void operator()() const noexcept { runner->exchange(runner->sync_->horizon); }
  };

  Sync(int k, IslandRunner* runner)
      : barrier(static_cast<std::ptrdiff_t>(k), Completion{runner}) {}

  std::barrier<Completion> barrier;
  Time horizon = 0.0;
  bool pending = false;  ///< a drain-phase injection landed at <= horizon
  bool stop = false;     ///< a shard failed; everyone exits at the next check
  std::atomic<bool> failed{false};
  std::mutex err_mu;
  std::string error;
};

IslandRunner::IslandRunner(ScenarioSpec spec, IslandExecutionPlan plan)
    : spec_(std::move(spec)), plan_(std::move(plan)) {
  require(plan_.islands_enabled,
          "IslandRunner: plan is a serial fallback (" + plan_.fallback_reason + ")");
  // Every replica would derive the same G̃ from the same t=0 topology; derive
  // it once here and hand the shards the resolved value.
  if (spec_.gtilde_auto) {
    const TopologyResult topo = materialize_topology(spec_);
    spec_.aopt.gtilde_static =
        suggest_gtilde(topo.n, topo.edges, spec_.edge_params, spec_.aopt);
    spec_.gtilde_auto = false;
  }
  const int k = plan_.partition.islands;
  const int n = static_cast<int>(plan_.partition.island_of.size());
  outbox_.resize(static_cast<std::size_t>(k));
  shards_.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    // Full replica, partial execution: same spec + seed means topology,
    // detection delays, adversary schedule and drift replay identically on
    // every shard; the executed set restricts which nodes *act*.
    ScenarioSpec shard_spec = spec_;
    for (NodeId u = 0; u < n; ++u)
      if (plan_.partition.island_of[static_cast<std::size_t>(u)] == i)
        shard_spec.engine.executed.push_back(u);
    shards_.push_back(std::make_unique<Scenario>(std::move(shard_spec)));
    shards_.back()->transport().set_outbound(
        [this, i](NodeId from, NodeId to, Time sent_at, Time arrival,
                  const Payload& payload) {
          outbox_[static_cast<std::size_t>(i)].push_back(
              {from, to, sent_at, arrival, payload});
        });
  }
}

IslandRunner::~IslandRunner() = default;

void IslandRunner::exchange(Time horizon) {
  // Runs inside the barrier completion step: every shard thread is blocked,
  // so shard simulators and outboxes are safe to touch from this one thread.
  if (sync_->failed.load(std::memory_order_acquire)) {
    sync_->stop = true;
    sync_->pending = false;
    return;
  }
  auto& all = merge_scratch_;
  all.clear();
  for (auto& box : outbox_) {
    all.insert(all.end(), box.begin(), box.end());
    box.clear();
  }
  // Canonical merge order, invariant in the shard count: full-key ties can
  // only come from one sender shard (from is part of the key), where capture
  // order IS the sender's serial send order — stable sort preserves it.
  std::stable_sort(all.begin(), all.end(),
                   [](const CapturedSend& x, const CapturedSend& y) {
                     if (x.arrival != y.arrival) return x.arrival < y.arrival;
                     if (x.sent_at != y.sent_at) return x.sent_at < y.sent_at;
                     if (x.from != y.from) return x.from < y.from;
                     return x.to < y.to;
                   });
  bool pending = false;
  for (const CapturedSend& cs : all) {
    const int dest = plan_.partition.island_of[static_cast<std::size_t>(cs.to)];
    shard(dest).transport().inject_delivery(cs.from, cs.to, cs.sent_at, cs.arrival,
                                            cs.payload);
    if (cs.arrival <= horizon) pending = true;
  }
  sync_->pending = pending;
}

void IslandRunner::shard_main(int i, Time horizon, Duration window) {
  Scenario& scn = shard(i);
  const auto guarded = [&](auto&& fn) {
    if (sync_->failed.load(std::memory_order_acquire)) return;
    try {
      fn();
    } catch (const std::exception& e) {
      {
        const std::lock_guard<std::mutex> lock(sync_->err_mu);
        if (sync_->error.empty()) sync_->error = e.what();
      }
      sync_->failed.store(true, std::memory_order_release);
    } catch (...) {
      sync_->failed.store(true, std::memory_order_release);
    }
  };

  guarded([&] { scn.start(); });

  // Conservative windows: every message needs >= `window` to arrive, so a
  // capture from (w - window, w) lands at arrival >= w — injecting it at the
  // w barrier can never schedule into a shard's past. Identical arithmetic
  // on every thread keeps the barrier phase counts aligned.
  Time w = window;
  while (w < horizon) {
    guarded([&] { scn.sim().run_before(w); });
    sync_->barrier.arrive_and_wait();
    if (sync_->stop) return;
    w += window;
  }

  // Final inclusive segment, then drain: an injection may land exactly AT
  // the horizon (delays=min), and its handler may send again — but any send
  // fired at the horizon arrives strictly after it, so this settles in at
  // most two rounds.
  do {
    guarded([&] { scn.sim().run_until(horizon); });
    sync_->barrier.arrive_and_wait();
    if (sync_->stop) return;
  } while (sync_->pending);
}

void IslandRunner::run(Time horizon) {
  require(!ran_, "IslandRunner: run() called twice");
  ran_ = true;
  const Duration window = spec_.edge_params.msg_delay_min;
  require(window > 0.0, "IslandRunner: msg_delay_min must be > 0");

  Sync sync(shards(), this);
  sync.horizon = horizon;
  sync_ = &sync;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(shards()) - 1);
  for (int i = 1; i < shards(); ++i) {
    workers.emplace_back([this, i, horizon, window] { shard_main(i, horizon, window); });
  }
  shard_main(0, horizon, window);
  for (auto& t : workers) t.join();
  sync_ = nullptr;
  if (sync.failed.load(std::memory_order_acquire)) {
    throw std::runtime_error("IslandRunner: shard failed: " + sync.error);
  }
}

}  // namespace gcs
