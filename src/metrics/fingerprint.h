// Trajectory fingerprints: one 64-bit hash per scenario run, INET-style.
//
// A TrajectoryFingerprinter rides the kernel's passive trace hook
// (KernelTraceSink) and folds, per fired engine/transport event,
//
//   (time-bits, node, event-kind, skew-quantized logical clock)
//
// into a rolling 64-bit hash. Two runs produce the same fingerprint iff
// they fire the same events at bit-identical times in the same order with
// the observed node's logical clock equal to within the quantum — i.e. the
// fingerprint pins the trajectory the way a full event trace would, at the
// cost of ONE committed CSV row per scenario. That is what
// lets tests/fingerprints/fingerprints.csv pin dozens of scenario/spec
// combinations across the registry's topology x algorithm x drift x
// estimate cross-product, where a per-scenario golden trace could never
// scale (the same trade INET's fingerprint tables make against full
// event logs).
//
// ## What the hash reads, and why it cannot perturb the run
//
// The logical clock is read through Engine::peek_logical — a CONST
// extrapolation of the node's piecewise-linear clock to now() that does
// NOT advance the lazy integration state. Calling Engine::logical from an
// observer would advance (mutate) the clock at observation instants,
// changing the float accumulation path of the run being observed; the
// fingerprinter must be attachable without changing a single bit of the
// trajectory, or the pin is worthless.
//
// ## Quantization
//
// The logical value is folded as round(L / kQuantum) with kQuantum = 2^-20
// (about 1 microsecond at the model's second-scale time units). Trajectory
// divergence in this codebase is discrete — a different event order or a
// different estimate draw moves clocks by far more than the quantum within
// a few events — so the quantization costs no discrimination power, while
// keeping the fingerprint a function of "the trajectory" rather than of
// sub-quantum noise that no invariant in the repo is allowed to depend on
// anyway. Times are folded as raw IEEE-754 bits: the kernel orders events
// by exact time, so "same trajectory" means bit-identical times.
//
// ## Lockstep runtime variant
//
// fingerprint_lockstep() pins RtCluster::run_lockstep chaos runs the same
// way: the per-node self-sampled (logical, hardware, live) series — which
// PR 7 proved bit-reproducible for a fixed (spec, script) pair — is folded
// sample by sample into the same rolling hash.
#pragma once

#include <cstdint>
#include <string>

#include "runner/spec.h"
#include "sim/event.h"

namespace gcs {

class Engine;
class Scenario;

/// Passive trajectory hasher; see the header comment. Attach with
/// attach(scenario) (engine + transport) before Scenario::start().
class TrajectoryFingerprinter final : public KernelTraceSink {
 public:
  /// L is folded as llrint(L / kQuantum); 2^-20 keeps the fold exact for
  /// |L| up to 2^43 (the integer is formed in double precision).
  static constexpr double kInvQuantum = 1048576.0;  // 2^20

  TrajectoryFingerprinter() = default;

  /// Observe `engine`, forwarding every event to `chain` (optional), so the
  /// fingerprinter can share the single kernel-trace slot with another sink
  /// (test_fingerprint's per-row event dump does this).
  explicit TrajectoryFingerprinter(Engine& engine, KernelTraceSink* chain = nullptr)
      : engine_(&engine), chain_(chain) {}

  /// Install this sink on the scenario's engine AND transport trace hooks.
  void attach(Scenario& scenario, KernelTraceSink* chain = nullptr);

  void on_event_fired(Time t, NodeId node, EventKind kind) override;

  [[nodiscard]] std::uint64_t value() const { return hash_; }
  [[nodiscard]] std::uint64_t events() const { return events_; }

  // ------------------------------------------------- pure folding helpers
  /// splitmix64-style avalanche; the rolling fold's mixing step.
  [[nodiscard]] static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  }
  [[nodiscard]] static std::int64_t quantize(double logical);
  /// One event's fold step (order-dependent by construction).
  [[nodiscard]] static std::uint64_t fold(std::uint64_t h, std::uint64_t time_bits,
                                          NodeId node, EventKind kind,
                                          std::int64_t qlogical);

 private:
  Engine* engine_ = nullptr;
  KernelTraceSink* chain_ = nullptr;
  std::uint64_t hash_ = 0x9e3779b97f4a7c15ULL;  ///< non-zero seed
  std::uint64_t events_ = 0;
};

/// A finished run's fingerprint.
struct FingerprintResult {
  std::uint64_t hash = 0;
  std::uint64_t events = 0;  ///< events folded (sim) / samples folded (rt)
};

/// Build the scenario, attach a fingerprinter, run to `horizon`, report.
FingerprintResult fingerprint_run(const ScenarioSpec& spec, Time horizon);

/// Same, over a caller-built (not yet started) scenario, driving it to
/// `horizon`. Lets sweep/fuzz harnesses fingerprint inside their own run fn.
FingerprintResult fingerprint_run(Scenario& scenario, Time horizon);

/// Island-parallel fingerprint: plan `spec` for `islands` workers
/// (plan_islands encoding: 0 = off, -1 = auto, N >= 1); serial-fallback
/// plans delegate to fingerprint_run. Otherwise each shard logs its fired
/// events — per-shard logs are disjoint (engine events fire only for local
/// nodes, a delivery fires only on the destination's owner shard) and
/// time-sorted (conservative windows never inject into a shard's past) — and
/// the logs are k-way merged by (time, node) into the same canonical fold
/// the serial fingerprinter computes — the node tie-break matches the serial
/// kernel's FIFO seq order for the one family that collides across shards,
/// synchronized per-node drift changes (see the merge comment in the .cpp).
/// Equal hash at any worker count == the island engine reproduced the
/// serial trajectory.
FingerprintResult fingerprint_run_islands(const ScenarioSpec& spec, Time horizon,
                                          int islands);

/// Lockstep-runtime fingerprint: build an RtCluster (pipe backend) on a
/// VirtualClock from `spec`, arm the chaos script/preset `chaos` (preset
/// names resolve against the resolved topology, horizon and spec.seed, like
/// rt_loopback's --chaos flag; empty = no chaos), self-sample every
/// `sample_period`, run_lockstep to `horizon` in `step` increments, and fold
/// the sampled (t, node, logical, hardware, live) series.
FingerprintResult fingerprint_lockstep(const ScenarioSpec& spec,
                                       const std::string& chaos, Time horizon,
                                       Duration step, Duration sample_period);

}  // namespace gcs
