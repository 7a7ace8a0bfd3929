// Runtime-layer probes: an RtTransport decorator that spans and counts every
// send/poll, and the benchmark's own lockstep loop for RtNodes over real
// TCP loopback. It repeats RtCluster::run_lockstep's loop (VirtualClock
// steps, a fixed number of round-robin pump rounds per step) so that the
// decorator can sit between RtNode::pump and the TcpTransport it calls.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "rt/liveness.h"
#include "rt/rt_cluster.h"
#include "rt/rt_node.h"
#include "rt/rt_transport.h"
#include "rt/tcp_transport.h"
#include "rt/time_source.h"
#include "rt/wire.h"
#include "runner/spec.h"
#include "sim_probe.h"
#include "tracer.h"

namespace perfbench {

/// Forwards every call to `inner` unchanged; spans send/poll as "rt.send" /
/// "rt.poll" and counts their outcomes. The first kCaptureCap frames sent are
/// kept as the run's frame mix for the codec timing.
class TracedTransport final : public gcs::RtTransport {
 public:
  static constexpr std::size_t kCaptureCap = 4096;

  TracedTransport(gcs::RtTransport& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}

  bool send(const gcs::WireMsg& m) override {
    const Tracer::Span span = tracer_.span("rt.send");
    ++send_calls_;
    if (captured_.size() < kCaptureCap) captured_.push_back(m);
    const bool ok = inner_.send(m);
    if (!ok) ++send_failed_;
    return ok;
  }
  bool poll(gcs::NodeId self, gcs::WireMsg& out) override {
    const Tracer::Span span = tracer_.span("rt.poll");
    ++poll_calls_;
    const bool got = inner_.poll(self, out);
    if (got) ++polled_;
    return got;
  }
  void set_link_fault(gcs::NodeId from, gcs::NodeId to, const gcs::LinkFault& f) override {
    inner_.set_link_fault(from, to, f);
  }
  [[nodiscard]] std::uint64_t rejected() const override { return inner_.rejected(); }

  [[nodiscard]] std::uint64_t send_calls() const { return send_calls_; }
  [[nodiscard]] std::uint64_t sent_ok() const { return send_calls_ - send_failed_; }
  [[nodiscard]] std::uint64_t send_failed() const { return send_failed_; }
  [[nodiscard]] std::uint64_t poll_calls() const { return poll_calls_; }
  [[nodiscard]] std::uint64_t polled() const { return polled_; }
  [[nodiscard]] const std::vector<gcs::WireMsg>& captured() const { return captured_; }

 private:
  gcs::RtTransport& inner_;
  Tracer& tracer_;
  std::vector<gcs::WireMsg> captured_;
  std::uint64_t send_calls_ = 0;
  std::uint64_t send_failed_ = 0;
  std::uint64_t poll_calls_ = 0;
  std::uint64_t polled_ = 0;
};

/// Step and pump rounds of RtCluster::run_lockstep, repeated here.
inline constexpr gcs::Duration kLockstepStep = 0.25;
inline constexpr int kLockstepRounds = 4;

/// The detector settings the repository's lockstep chaos runs use.
gcs::DetectorConfig lockstep_detector();

/// A fresh block of loopback ports for one cluster (process-unique, so the
/// clusters of one run never share a listener port).
std::uint16_t next_port_block();

/// One runtime cluster driven by the benchmark: per node a TcpTransport, its
/// TracedTransport decorator, and an RtNode on a shared VirtualClock. The
/// construction order (all transports, then all nodes) and the transport
/// arguments match RtCluster's TCP backend.
class LockstepRig {
 public:
  /// `fault_seed` feeds the transports' chaos/backoff streams, as
  /// FaultSpec::seed does for RtCluster.
  LockstepRig(const gcs::ScenarioSpec& spec, std::uint64_t fault_seed,
              std::uint16_t base_port, Tracer& tracer);
  LockstepRig(const LockstepRig&) = delete;
  LockstepRig& operator=(const LockstepRig&) = delete;

  /// Arm the detector on every node and start it.
  void start();

  /// RtCluster::schedule_samples, repeated.
  void schedule_samples(gcs::Time horizon, gcs::Duration period);

  /// Lockstep to `horizon` (a multiple of the step), continuing from where
  /// the previous call stopped.
  void run_to(gcs::Time horizon);

  /// Pump every node a few more times without advancing the clock, so frames
  /// still in socket buffers are consumed and counted (RtCluster::drain).
  void drain();

  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] gcs::RtNode& node(gcs::NodeId u) { return *nodes_[static_cast<std::size_t>(u)]; }
  [[nodiscard]] const gcs::TcpTransport& tcp(gcs::NodeId u) const {
    return *tcp_[static_cast<std::size_t>(u)];
  }
  [[nodiscard]] const TracedTransport& traced(gcs::NodeId u) const {
    return *traced_[static_cast<std::size_t>(u)];
  }
  [[nodiscard]] const std::vector<gcs::EdgeKey>& edges() const { return edges_; }
  [[nodiscard]] const std::vector<std::vector<gcs::RtSample>>& samples() const {
    return samples_;
  }

 private:
  Tracer& tracer_;
  gcs::VirtualClock clock_;
  std::vector<std::unique_ptr<gcs::TcpTransport>> tcp_;
  std::vector<std::unique_ptr<TracedTransport>> traced_;
  std::vector<std::unique_ptr<gcs::RtNode>> nodes_;
  std::vector<gcs::EdgeKey> edges_;
  std::vector<std::vector<gcs::RtSample>> samples_;
  std::int64_t steps_done_ = 0;
};

/// Skew quality of a sampled runtime run: per grid point where every node
/// sampled live, the worst edge |L_u − L_v| over the edge's gradient bound
/// and the global skew over G̃, fed to `window`.
void add_runtime_samples(const std::vector<std::vector<gcs::RtSample>>& samples,
                         const std::vector<gcs::EdgeKey>& edges,
                         const std::vector<double>& edge_bounds, double gtilde,
                         SkewWindow& window);

/// True iff two clusters' per-node sample series are identical, bit for bit.
bool same_samples(const std::vector<std::vector<gcs::RtSample>>& a,
                  const std::vector<std::vector<gcs::RtSample>>& b);

/// Median per-frame cost over `frames` of wire_encode + wire_decode
/// (codec_ns) and of crc32c over the bytes the trailer covers (crc_ns).
struct CodecCost {
  double codec_ns = 0.0;
  double crc_ns = 0.0;
};
CodecCost time_codec(const std::vector<gcs::WireMsg>& frames);

}  // namespace perfbench
