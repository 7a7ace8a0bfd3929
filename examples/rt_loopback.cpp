// rt_loopback: the runtime subsystem end to end, in one process.
//
// Runs N live AOPT nodes — each a full replica stack slaved to the wall
// clock — over the in-process pipe transport (lock-free SPSC rings,
// optional injected faults) or real UDP or TCP loopback sockets. Drift is
// simulated per node (osc-const ppm offsets), estimates come from the
// measured-RTT offset exchange, and every node self-samples its clocks on a
// shared model-time grid; the per-edge skew join runs offline at the end.
//
//   rt_loopback --nodes=4 --seconds=3 --time-scale=100        # pipe backend
//   rt_loopback --drop=0.1 --dup=0.05 --reorder=0.1 --jitter=0.02
//   rt_loopback --transport=udp --nodes=2 --seconds=3
//   rt_loopback --transport=tcp --nodes=4 --seconds=12 --time-scale=10 \
//       --detector --chaos=corrupt --check-bound
//   rt_loopback --seconds=30 --time-scale=10 --check-bound --csv=skew.csv
//   rt_loopback --detector --chaos=partition --chaos-seed=7 --check-bound
//
// --check-bound makes the exit code enforce the gradient bound: without
// chaos, over every post-warmup sample; with chaos, per quiet phase — after
// each scripted fault clears, every edge skew must be back within its bound
// throughout [clear + stabilization, next fault) (the re-convergence gate).
// It also enforces the wire-integrity invariant on the pipe and tcp
// backends: every chaos-injected bit flip must show up in rejected() — a
// corrupted frame that decoded anyway would be a codec bug (UDP is exempt
// only because the kernel may drop a corrupted datagram before delivery).
//
// --drop, --dup, --reorder and --jitter (with --delay, the hold drawn for a
// reordered message) are the pipe's injected message faults. Real sockets
// bring their own faults, so a socket transport refuses them (exit 2); use
// --chaos there, which every transport applies the same way.
//
// --chaos takes a preset name (crash|partition|churn|corrupt) or an inline
// script ("at 5 cut 0 1; at 12 heal 0 1" — see rt/chaos.h for the
// grammar). Chaos almost always wants --detector, which arms the liveness
// layer that turns the injected silence into real edge eviction and
// rediscovery.
#include <cmath>
#include <iostream>
#include <string>

#include "rt/rt_cluster.h"
#include "util/flags.h"
#include "util/table.h"

using namespace gcs;

namespace {

/// The runtime scenario preset: ring topology, per-node constant-ppm
/// oscillators, RTT estimates. msg_delay_min is 0 — a real transit can be
/// arbitrarily fast, and the causality compensation must stay sound —
/// while msg_delay_max bounds pump latency at the chosen time scale.
ScenarioSpec make_rt_spec(int n, double probe_period, double delay_max,
                          std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "rt-loopback";
  spec.n = n;
  spec.seed = seed;
  spec.topology = ComponentSpec(n >= 3 ? "ring" : "line");
  spec.drift = ComponentSpec("osc-const");
  spec.drift.params.set("ppm", "120/-180/60/-90/150/-40");
  spec.estimates = ComponentSpec("rtt");
  spec.estimates.params.set("probe", probe_period);
  spec.edge_params.eps = 0.1;
  spec.edge_params.tau = 0.5;
  spec.edge_params.msg_delay_max = delay_max;
  spec.edge_params.msg_delay_min = 0.0;
  spec.engine.beacon_period = probe_period;
  spec.engine.tick_period = probe_period;
  spec.gtilde_auto = true;
  return spec;
}

bool print_reports(const std::string& title,
                   const std::vector<RtEdgeReport>& reports,
                   bool require_samples) {
  Table table(title);
  table.headers({"edge", "samples", "max |skew|", "mean |skew|", "eps", "kappa",
                 "bound", "ok"});
  bool all_ok = true;
  for (const RtEdgeReport& r : reports) {
    const bool ok = r.max_abs_skew <= r.bound && (r.samples > 0 || !require_samples);
    all_ok = all_ok && ok;
    table.row()
        .cell(r.edge.str())
        .cell(r.samples)
        .cell(r.max_abs_skew)
        .cell(r.mean_abs_skew)
        .cell(r.eps)
        .cell(r.kappa)
        .cell(r.bound)
        .cell(ok ? "yes" : "NO");
  }
  table.print();
  return all_ok;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string transport = flags.get("transport", std::string("pipe"));
  RtBackend backend = RtBackend::kPipe;
  if (transport == "udp") {
    backend = RtBackend::kUdp;
  } else if (transport == "tcp") {
    backend = RtBackend::kTcp;
  } else if (transport != "pipe") {
    std::cerr << "unknown --transport=" << transport << " (pipe|udp|tcp)\n";
    return 2;
  }
  const bool pipe = backend == RtBackend::kPipe;
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get("seed", 1));
  FaultSpec faults;
  faults.drop = flags.get("drop", 0.0);
  faults.dup = flags.get("dup", 0.0);
  faults.reorder = flags.get("reorder", 0.0);
  faults.delay = flags.get("delay", 0.2);
  faults.jitter = flags.get("jitter", 0.0);
  faults.seed = seed;
  if (!pipe && faults.injects()) {
    std::cerr << "--drop/--dup/--reorder/--jitter inject pipe faults only; "
                 "use --chaos on --transport=" << transport << "\n";
    return 2;
  }
  const int n = flags.get("nodes", backend == RtBackend::kUdp ? 2 : 4);
  const double scale = flags.get("time-scale", 10.0);
  const Time horizon = flags.get("seconds", 3.0) * scale;  // model seconds
  const double probe = flags.get("probe", 0.25);
  const double sample_period = flags.get("sample-period", 0.5);
  // Transit bound in model time: pump cadence (~ms wall) times the scale,
  // with generous slack for scheduler stalls.
  const double delay_max = flags.get("delay-max", std::max(0.5, 0.05 * scale));
  const int warmup = flags.get(
      "warmup", static_cast<int>(std::ceil(0.25 * horizon / sample_period)));

  const ScenarioSpec spec = make_rt_spec(n, probe, delay_max, seed);

  MonotonicClock wall;
  ScaledClock clock(wall, scale);
  RtCluster cluster(spec, clock, faults, 1024, backend,
                    static_cast<std::uint16_t>(flags.get("base-port", 29200)));

  if (flags.get("detector", false) || flags.has("chaos")) {
    DetectorConfig detector;
    detector.suspect_after = flags.get("suspect", 3.0 * probe);
    detector.evict_after = flags.get("evict", 8.0 * probe);
    detector.probe_interval = flags.get("probe-interval", 2.0 * probe);
    cluster.enable_detector(detector);
  }

  ChaosScript script;
  // Must stay below the presets' inter-fault gaps (>= 0.14 * horizon) or
  // the quiet windows vanish and nothing gets gated.
  const double stabilization = flags.get("stabilization", 0.1 * horizon);
  if (flags.has("chaos")) {
    script = ChaosScript::from_flag(
        flags.get("chaos", std::string("churn")), cluster.size(),
        cluster.edges(), horizon,
        static_cast<std::uint64_t>(flags.get("chaos-seed", 1)));
    std::cout << "chaos script: " << script.str() << "\n";
    cluster.arm_chaos(script);
  }

  cluster.start();
  cluster.schedule_samples(horizon, sample_period);
  cluster.run_threads(horizon);
  // Settle pass: consume frames still sitting in socket buffers at the
  // horizon so the ingress counters cover everything transmitted.
  cluster.drain();

  std::uint64_t frames_out = 0;
  std::uint64_t frames_in = 0;
  for (NodeId u = 0; u < cluster.size(); ++u) {
    frames_out += cluster.node(u).egress_count();
    frames_in += cluster.node(u).ingress_count();
  }
  const std::string csv = flags.get("csv", std::string());
  if (!csv.empty()) {
    cluster.write_skew_csv(csv, 0);
    std::cout << "wrote " << csv << "\n";
  }
  if (pipe) {
    std::cout << "pipe hub: sent " << cluster.hub().sent() << ", dropped "
              << cluster.hub().dropped() << ", duplicated "
              << cluster.hub().duplicated() << ", delayed "
              << cluster.hub().delayed() << ", chaos-dropped "
              << cluster.hub().chaos_dropped() << ", ring-full "
              << cluster.hub().ring_full() << ", corrupted "
              << cluster.hub().corrupted() << ", wire-rejected "
              << cluster.hub().rejected() << "\n";
  } else if (backend == RtBackend::kUdp) {
    std::uint64_t sent = 0, dropped = 0, errors = 0;
    for (NodeId u = 0; u < cluster.size(); ++u) {
      sent += cluster.udp(u).sent();
      dropped += cluster.udp(u).dropped();
      errors += cluster.udp(u).send_errors();
    }
    std::cout << "udp: sent " << sent << ", chaos-dropped " << dropped
              << ", send-errors " << errors << ", corrupted "
              << cluster.total_corrupted() << ", wire-rejected "
              << cluster.total_rejected() << "\n";
  } else {
    std::uint64_t sent = 0, dropped = 0, backpressure = 0, conn_down = 0,
                  resets = 0, reconnects = 0;
    for (NodeId u = 0; u < cluster.size(); ++u) {
      sent += cluster.tcp(u).sent();
      dropped += cluster.tcp(u).dropped();
      backpressure += cluster.tcp(u).backpressure();
      conn_down += cluster.tcp(u).conn_down();
      resets += cluster.tcp(u).resets();
      reconnects += cluster.tcp(u).reconnects();
    }
    std::cout << "tcp: sent " << sent << ", chaos-dropped " << dropped
              << ", backpressure " << backpressure << ", conn-down "
              << conn_down << ", resets " << resets << ", reconnects "
              << reconnects << ", corrupted " << cluster.total_corrupted()
              << ", wire-rejected " << cluster.total_rejected() << "\n";
  }
  std::cout << "model horizon " << horizon << " s, frames out " << frames_out
            << ", frames in " << frames_in << "\n";

  const bool check = flags.get("check-bound", false);
  bool all_ok = true;
  if (script.empty()) {
    all_ok = print_reports("rt_loopback: per-edge skew over the sampled grid",
                           cluster.edge_report(warmup), /*require_samples=*/true);
  } else {
    print_reports("rt_loopback: whole-run skew (faulted intervals included)",
                  cluster.edge_report(warmup), /*require_samples=*/false);
    for (const ChaosPhase& phase : script.phases(horizon, stabilization)) {
      if (!phase.gateable()) {
        std::cout << "phase '" << phase.label << "' [" << phase.fault_at << ", "
                  << phase.clear_at << "]: no quiet window, not gated\n";
        continue;
      }
      const bool ok = print_reports(
          "re-convergence gate '" + phase.label + "': quiet window [" +
              std::to_string(phase.gate_begin) + ", " +
              std::to_string(phase.gate_end) + ")",
          cluster.edge_report_window(phase.gate_begin, phase.gate_end),
          /*require_samples=*/true);
      all_ok = all_ok && ok;
    }
  }
  if (check && !all_ok) {
    std::cout << "FAIL: a sampled edge skew exceeded its gradient bound\n";
    return 1;
  }
  // Wire-integrity gate: on backends with reliable in-process delivery
  // every injected bit flip must have been caught by the CRC and counted —
  // zero corrupted frames may reach the engine. (UDP is exempt: the kernel
  // may legitimately shed a corrupted datagram before our decoder sees it.)
  if (check && backend != RtBackend::kUdp &&
      cluster.total_rejected() != cluster.total_corrupted()) {
    std::cout << "FAIL: wire integrity: " << cluster.total_corrupted()
              << " corrupted frames but " << cluster.total_rejected()
              << " rejected at ingress\n";
    return 1;
  }
  return 0;
}
