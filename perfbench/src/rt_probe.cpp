#include "rt_probe.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "runner/scenario.h"

namespace perfbench {

gcs::DetectorConfig lockstep_detector() {
  gcs::DetectorConfig det;
  det.suspect_after = 1.5;
  det.evict_after = 4.0;
  det.probe_interval = 0.5;
  return det;
}

std::uint16_t next_port_block() {
  // Blocks of 8 ports from a pid-derived start, so concurrent benchmark
  // processes on one host rarely collide (a collision fails the bind, and
  // the caller moves on to the next block).
  static int block = static_cast<int>(::getpid() % 3000) * 8;
  block = (block + 8) % 24000;
  return static_cast<std::uint16_t>(30000 + block);
}

LockstepRig::LockstepRig(const gcs::ScenarioSpec& spec, std::uint64_t fault_seed,
                         std::uint16_t base_port, Tracer& tracer)
    : tracer_(tracer) {
  const gcs::TopologyResult topo = gcs::materialize_topology(spec);
  edges_ = topo.edges;
  {
    const Tracer::Span span = tracer_.span("rt.transport_build");
    for (gcs::NodeId u = 0; u < topo.n; ++u) {
      tcp_.push_back(
          std::make_unique<gcs::TcpTransport>(topo.n, u, base_port, clock_, fault_seed));
      traced_.push_back(std::make_unique<TracedTransport>(*tcp_.back(), tracer_));
    }
  }
  const Tracer::Span span = tracer_.span("runner.scenario_build");
  for (gcs::NodeId u = 0; u < topo.n; ++u) {
    nodes_.push_back(std::make_unique<gcs::RtNode>(
        spec, u, *traced_[static_cast<std::size_t>(u)], clock_));
  }
  samples_.resize(nodes_.size());
}

void LockstepRig::start() {
  const Tracer::Span span = tracer_.span("rt.start");
  for (auto& node : nodes_) {
    node->enable_detector(lockstep_detector());
    node->start();
  }
}

void LockstepRig::schedule_samples(gcs::Time horizon, gcs::Duration period) {
  const int count = static_cast<int>(std::floor(horizon / period + 1e-9));
  for (std::size_t u = 0; u < nodes_.size(); ++u) {
    samples_[u].clear();
    samples_[u].reserve(static_cast<std::size_t>(count));
    gcs::RtNode* node = nodes_[u].get();
    std::vector<gcs::RtSample>* out = &samples_[u];
    for (int k = 1; k <= count; ++k) {
      const gcs::Time t = static_cast<gcs::Time>(k) * period;
      node->at(t, [node, out, t] {
        out->push_back(gcs::RtSample{t, node->logical(), node->hardware(),
                                     node->sampling_live()});
      });
    }
  }
}

void LockstepRig::run_to(gcs::Time horizon) {
  const Tracer::Span span = tracer_.span("rt.lockstep");
  for (;;) {
    const gcs::Time t = static_cast<gcs::Time>(steps_done_ + 1) * kLockstepStep;
    if (!(t < horizon + kLockstepStep * 0.5)) break;
    clock_.advance_to(std::min(t, horizon));
    for (int round = 0; round < kLockstepRounds; ++round) {
      for (auto& node : nodes_) {
        const Tracer::Span pump = tracer_.span("rt.pump");
        node->pump();
      }
    }
    ++steps_done_;
  }
}

void LockstepRig::drain() {
  constexpr int kRounds = 4;  // RtCluster::drain's default
  for (int round = 0; round < kRounds; ++round) {
    for (auto& node : nodes_) node->pump();
  }
}

void add_runtime_samples(const std::vector<std::vector<gcs::RtSample>>& samples,
                         const std::vector<gcs::EdgeKey>& edges,
                         const std::vector<double>& edge_bounds, double gtilde,
                         SkewWindow& window) {
  std::size_t points = samples.empty() ? 0 : samples.front().size();
  for (const auto& series : samples) points = std::min(points, series.size());
  for (std::size_t k = 0; k < points; ++k) {
    bool live = true;
    double lo = samples.front()[k].logical;
    double hi = lo;
    for (const auto& series : samples) {
      live = live && series[k].live;
      lo = std::min(lo, series[k].logical);
      hi = std::max(hi, series[k].logical);
    }
    if (!live) continue;
    double worst = 0.0;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const double skew =
          std::fabs(samples[static_cast<std::size_t>(edges[i].a)][k].logical -
                    samples[static_cast<std::size_t>(edges[i].b)][k].logical);
      worst = std::max(worst, skew / edge_bounds[i]);
    }
    window.add(samples.front()[k].t, worst, (hi - lo) / gtilde);
  }
}

bool same_samples(const std::vector<std::vector<gcs::RtSample>>& a,
                  const std::vector<std::vector<gcs::RtSample>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t u = 0; u < a.size(); ++u) {
    if (a[u].size() != b[u].size()) return false;
    for (std::size_t k = 0; k < a[u].size(); ++k) {
      const gcs::RtSample& x = a[u][k];
      const gcs::RtSample& y = b[u][k];
      if (x.t != y.t || x.logical != y.logical || x.hardware != y.hardware ||
          x.live != y.live) {
        return false;
      }
    }
  }
  return true;
}

CodecCost time_codec(const std::vector<gcs::WireMsg>& frames) {
  CodecCost cost;
  if (frames.empty()) return cost;
  std::vector<std::uint8_t> encoded(frames.size() * gcs::kWireMax);
  std::vector<std::size_t> lengths(frames.size());
  constexpr int kBatches = 7;
  std::vector<double> codec;
  std::vector<double> crc;
  std::uint64_t check = 0;
  for (int b = 0; b < kBatches; ++b) {
    std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < frames.size(); ++i) {
      std::uint8_t* buf = encoded.data() + i * gcs::kWireMax;
      lengths[i] = gcs::wire_encode(frames[i], buf);
      gcs::WireMsg back;
      check += gcs::wire_decode(buf, lengths[i], back) ? 1u : 0u;
    }
    codec.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(frames.size()));
    t0 = now_ns();
    for (std::size_t i = 0; i < frames.size(); ++i) {
      check += gcs::crc32c(encoded.data() + i * gcs::kWireMax,
                           lengths[i] - gcs::kWireCrcBytes);
    }
    crc.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(frames.size()));
  }
  keep(static_cast<double>(check));
  std::sort(codec.begin(), codec.end());
  std::sort(crc.begin(), crc.end());
  cost.codec_ns = codec[codec.size() / 2];
  cost.crc_ns = crc[crc.size() / 2];
  return cost;
}

}  // namespace perfbench
