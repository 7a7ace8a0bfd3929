// E12 — engineering micro-benchmarks (google-benchmark): simulator event
// throughput, trigger evaluation, legality checking, and whole-scenario
// simulation rates. These calibrate how large the reproduction experiments
// can be pushed on a given machine.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/triggers.h"
#include "metrics/legality.h"
#include "metrics/skew.h"
#include "runner/island_runner.h"
#include "runner/scenario.h"
#include "runner/sweep.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace gcs {
namespace {

/// The schedule-and-fire benches below draw their event times afresh every
/// iteration (one random draw per event is part of the measured cost):
/// replaying one schedule lets the branch predictor learn the kernel's
/// comparison outcomes, which real schedules never repeat.
void BM_SimulatorScheduleFire(benchmark::State& state) {
  Rng rng(0x5C4ED);
  for (auto _ : state) {
    Simulator sim;
    for (int i = 0; i < 1024; ++i) {
      sim.schedule_at(rng.uniform(0.0, 37.0), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.fired_count());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SimulatorScheduleFire);

/// Measures the SoA tag path + devirtualized channel dispatch in isolation:
/// typed node events through a registered channel, no closures, batch-drained
/// by run(). Compare against BM_SimulatorScheduleFire (closure arm).
void BM_SimulatorScheduleFireTyped(benchmark::State& state) {
  struct Counter {
    std::uint64_t fired = 0;
    void dispatch(const SimEvent& ev) { fired += static_cast<std::uint64_t>(ev.node); }
  };
  Rng rng(0x5C4ED);
  for (auto _ : state) {
    Simulator sim;
    Counter counter;
    const std::uint8_t ch =
        sim.register_dispatch_channel(&counter, [](void* self, const SimEvent& ev) {
          static_cast<Counter*>(self)->dispatch(ev);
        });
    for (int i = 0; i < 1024; ++i) {
      sim.schedule_event_at(rng.uniform(0.0, 37.0),
                            SimEvent::node_event(EventKind::kTick, ch, i & 15));
    }
    sim.run();
    benchmark::DoNotOptimize(counter.fired);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SimulatorScheduleFireTyped);

/// Far-tier stress: every event is scheduled beyond the L2 window (> 64*64
/// fine epochs = 128 time units at the kernel's bucket width 1/32), so the
/// kernel pays the full far-list -> L2 -> L1 -> sorted-run migration chain
/// before each fire. Measures wheel bookkeeping, not dispatch.
void BM_SimulatorScheduleFireFar(benchmark::State& state) {
  struct Counter {
    std::uint64_t fired = 0;
    void dispatch(const SimEvent&) { ++fired; }
  };
  Rng rng(0x5C4ED);
  for (auto _ : state) {
    Simulator sim;
    Counter counter;
    const std::uint8_t ch =
        sim.register_dispatch_channel(&counter, [](void* self, const SimEvent& ev) {
          static_cast<Counter*>(self)->dispatch(ev);
        });
    for (int i = 0; i < 1024; ++i) {
      // 140..143360 time units out: all far-tier at schedule time.
      sim.schedule_event_at(rng.uniform(140.0, 143360.0),
                            SimEvent::node_event(EventKind::kTick, ch, 0));
    }
    sim.run();
    benchmark::DoNotOptimize(counter.fired);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SimulatorScheduleFireFar);

/// Wheel promotion in isolation: each iteration parks N typed events in ONE
/// future fine bucket (epoch 32 of the next coarse block, so the bucket is
/// promoted as the sorted run rather than landing in the overlay heap) and
/// drains them. Arg 0 is N; arg 1 = 1 puts every event at one identical
/// time (the equal-time cluster case), arg 1 = 0 spreads them uniformly,
/// in random order, over the bucket's width. The spread times are drawn
/// afresh every iteration: replaying one input lets the branch predictor
/// learn a comparison sort's outcomes, which real buckets never repeat.
/// The Simulator is reused, so the steady state measures schedule + L2->L1
/// move + promotion + fire (+ one random draw per event).
void BM_WheelPromotion(benchmark::State& state) {
  struct Counter {
    std::uint64_t fired = 0;
    void dispatch(const SimEvent&) { ++fired; }
  };
  const auto n = static_cast<std::size_t>(state.range(0));
  const double spread = state.range(1) != 0 ? 0.0 : 0.9 / 32;  // W = 1/32
  Rng rng(0xB0C4E7);
  Simulator sim;
  Counter counter;
  const std::uint8_t ch =
      sim.register_dispatch_channel(&counter, [](void* self, const SimEvent& ev) {
        static_cast<Counter*>(self)->dispatch(ev);
      });
  for (auto _ : state) {
    // Coarse blocks span 64 * W = 2 time units; aim at the middle of the
    // next one.
    const Time base = 2.0 * (std::floor(sim.now() / 2.0) + 1.0) + 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      sim.schedule_event_at(base + rng.uniform(0.0, spread),
                            SimEvent::node_event(EventKind::kTick, ch, 0));
    }
    sim.run();
  }
  benchmark::DoNotOptimize(counter.fired);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_WheelPromotion)
    ->ArgNames({"n", "equal_time"})
    ->Args({64, 0})
    ->Args({512, 0})
    ->Args({4096, 0})
    ->Args({512, 1});

void BM_TriggerEvaluation(benchmark::State& state) {
  const auto peers = static_cast<int>(state.range(0));
  Rng rng(11);
  std::vector<LevelPeer> level_peers;
  for (int i = 0; i < peers; ++i) {
    LevelPeer p;
    p.level_limit = kAllLevels;
    p.kappa = 0.75;
    p.delta = 0.1;
    p.eps = 0.05;
    p.tau = 0.25;
    p.has_estimate = true;
    p.est_minus_own = rng.uniform(-8.0, 8.0);
    level_peers.push_back(p);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate_triggers(level_peers, 0.1, 1e-3, 64));
  }
  state.SetItemsProcessed(state.iterations() * peers);
}
BENCHMARK(BM_TriggerEvaluation)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

ScenarioSpec kernel_spec(int n) {
  ScenarioSpec spec;
  spec.n = n;
  spec.topology = ComponentSpec("line");
  spec.edge_params = default_edge_params(0.05, 0.25, 0.5, 0.1);
  spec.aopt.rho = 1e-3;
  spec.aopt.mu = 0.1;
  spec.gtilde_auto = true;
  spec.drift = ComponentSpec("spread");
  spec.estimates = ComponentSpec("uniform");
  return spec;
}

void BM_LegalityCheck(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  Scenario s(kernel_spec(n));
  s.start();
  s.run_until(50.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        check_legality(s.engine(), s.spec().aopt.gtilde_static));
  }
}
BENCHMARK(BM_LegalityCheck)->Arg(16)->Arg(64);

void BM_GradientMeasurement(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  Scenario s(kernel_spec(n));
  s.start();
  s.run_until(50.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure_gradient(s.engine(), 1.0));
  }
}
BENCHMARK(BM_GradientMeasurement)->Arg(16)->Arg(64);

void BM_ScenarioSimulation(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Scenario s(kernel_spec(n));
    s.start();
    s.run_until(50.0);
    benchmark::DoNotOptimize(s.sim().fired_count());
  }
  // Report simulated node-time-units per wall second.
  state.SetItemsProcessed(state.iterations() * n * 50);
}
BENCHMARK(BM_ScenarioSimulation)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_BeaconScenarioSimulation(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto spec = kernel_spec(n);
    spec.estimates = ComponentSpec("beacon");
    Scenario s(spec);
    s.start();
    s.run_until(50.0);
    benchmark::DoNotOptimize(s.sim().fired_count());
  }
  state.SetItemsProcessed(state.iterations() * n * 50);
}
BENCHMARK(BM_BeaconScenarioSimulation)->Arg(16)->Arg(64);

/// High fan-out beacon traffic (complete graph, degree n-1): ONE arena
/// payload per broadcast is shared by n-1 in-flight deliveries. Compare
/// against BM_ScenarioSimulation (line, degree 2), where the same arena slot
/// serves only two deliveries, so its put/release cost is amortized over
/// far fewer events.
void BM_DenseScenarioSimulation(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto spec = kernel_spec(n);
    spec.topology = ComponentSpec("complete");
    Scenario s(spec);
    s.start();
    s.run_until(50.0);
    benchmark::DoNotOptimize(s.sim().fired_count());
  }
  state.SetItemsProcessed(state.iterations() * n * 50);
}
BENCHMARK(BM_DenseScenarioSimulation)->Arg(32)->Arg(64);

/// Dense beacon traffic (complete graph, beacon estimates): every received
/// beacon changes a discrete trigger input, so each delivery re-evaluates
/// its receiver against n-1 peers. Most of those re-evaluations are settled
/// by AoptNode's certified beacon bound instead of a full trigger scan.
void BM_DenseBeaconScenarioSimulation(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto spec = kernel_spec(n);
    spec.topology = ComponentSpec("complete");
    spec.estimates = ComponentSpec("beacon");
    Scenario s(spec);
    s.start();
    s.run_until(50.0);
    benchmark::DoNotOptimize(s.sim().fired_count());
  }
  state.SetItemsProcessed(state.iterations() * n * 50);
}
BENCHMARK(BM_DenseBeaconScenarioSimulation)->Arg(32)->Arg(64);

/// Shared-instant stress for the coalesced drain: zero minimum delay with
/// pinned-minimum draws lands every beacon reception on its send instant,
/// so each broadcast forms one multi-event instant group.
void BM_InstantCoalescedSharedInstants(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto spec = kernel_spec(n);
    spec.edge_params = default_edge_params(0.05, 0.25, 0.5, 0.0);
    spec.delays = DelayMode::kMin;
    Scenario s(spec);
    s.start();
    s.run_until(50.0);
    benchmark::DoNotOptimize(s.sim().fired_count());
  }
  state.SetItemsProcessed(state.iterations() * n * 50);
}
BENCHMARK(BM_InstantCoalescedSharedInstants)->Arg(256);

/// ONE scenario through the island-parallel engine at 1/2/4/8 requested
/// workers (the islands arg; 4 is the ROADMAP acceptance point), on an
/// island-decomposable spec shape (beacon estimates, the default delays
/// keyed by sender, receiver and send count). grid_4096 and line_1024
/// partition cleanly and measure the scaling curve; on a 1-core host the committed
/// baselines instead pin the costs a multi-core run must amortize —
/// line_1024 (long horizon) isolates window/barrier/merge overhead, while
/// grid_4096 (short horizon, huge n) weighs setup (O(islands*n) replica
/// construction; the one G̃ derivation is 5 BFS there) against event work
/// (see ARCHITECTURE "Island-parallel execution").
/// complete_64 plans a serial fallback at >= 2 islands (the bipartition cut
/// exceeds the budget), so its 2/4/8-island rows pin the fallback's unchanged
/// serial rate.
void BM_IslandScenarioSimulation(benchmark::State& state, const char* topology,
                                 int n, Time horizon) {
  const int islands = static_cast<int>(state.range(0));
  ScenarioSpec base = kernel_spec(n);
  base.topology = ComponentSpec::parse(topology);
  base.estimates = ComponentSpec("beacon");
  std::uint64_t fired = 0;
  for (auto _ : state) {
    const IslandExecutionPlan plan = plan_islands(base, islands);
    if (plan.islands_enabled) {
      IslandRunner runner(base, plan);
      runner.run(horizon);
      for (int i = 0; i < runner.shards(); ++i) {
        fired += runner.shard(i).sim().fired_count();
      }
    } else {
      Scenario s(base);
      s.start();
      s.run_until(horizon);
      fired += s.sim().fired_count();
    }
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * n * static_cast<std::int64_t>(horizon));
}
BENCHMARK_CAPTURE(BM_IslandScenarioSimulation, grid_4096, "grid:rows=64,cols=64",
                  4096, 5.0)
    ->ArgName("islands")->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();
BENCHMARK_CAPTURE(BM_IslandScenarioSimulation, line_1024, "line", 1024, 20.0)
    ->ArgName("islands")->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();
BENCHMARK_CAPTURE(BM_IslandScenarioSimulation, complete_64, "complete", 64, 20.0)
    ->ArgName("islands")->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// Sweep throughput through SweepRunner's shared-counter worker pool: a grid
/// of independent line scenarios, reported as runs/second. The thread-count
/// arg exposes the scaling curve (on a multi-core host, near-linear to the
/// core count; the committed baselines from a 1-core container show the
/// pool's overhead is negligible when scaling is impossible).
void BM_SweepThroughput(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  auto base = kernel_spec(24);
  Sweep sweep(base);
  sweep.seeds({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  SweepOptions options;
  options.threads = threads;
  options.horizon = 25.0;
  options.check_legality = false;
  const SweepRunner runner(options);
  for (auto _ : state) {
    const auto results = runner.run(sweep);
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_SweepThroughput)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace
}  // namespace gcs

BENCHMARK_MAIN();
