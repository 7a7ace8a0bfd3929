#include "rt/rt_cluster.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "graph/topology.h"
#include "metrics/skew.h"
#include "util/csv.h"

namespace gcs {

RtCluster::RtCluster(const ScenarioSpec& spec, TimeSource& clock,
                     const FaultSpec& faults, std::size_t ring_capacity,
                     RtBackend backend, std::uint16_t base_port)
    : clock_(clock) {
  require(backend == RtBackend::kPipe || !faults.injects(),
          "RtCluster: FaultSpec drop/dup/reorder/jitter apply to the pipe "
          "backend only");
  // Resolved exactly as Scenario's constructor resolves it, so the
  // transports can be sized before any replica exists; every replica then
  // re-derives the identical edge list.
  TopologyResult topo = materialize_topology(spec);
  edges_ = std::move(topo.edges);
  if (backend == RtBackend::kPipe) {
    transports_.push_back(std::make_unique<PipeHub>(topo.n, clock, faults, ring_capacity));
  } else {
    transports_.reserve(static_cast<std::size_t>(topo.n));
    for (NodeId u = 0; u < topo.n; ++u) {
      if (backend == RtBackend::kUdp) {
        transports_.push_back(std::make_unique<UdpTransport>(topo.n, u, base_port,
                                                             &clock, faults.seed));
      } else {
        transports_.push_back(std::make_unique<TcpTransport>(topo.n, u, base_port,
                                                             clock, faults.seed));
      }
    }
  }
  nodes_.reserve(static_cast<std::size_t>(topo.n));
  for (NodeId u = 0; u < topo.n; ++u) {
    nodes_.push_back(std::make_unique<RtNode>(spec, u, transport_of(u), clock));
  }
  samples_.resize(nodes_.size());
}

RtTransport& RtCluster::transport_of(NodeId u) {
  // A lone slot is the shared hub (or the only node's socket).
  return *transports_[transports_.size() == 1 ? 0 : static_cast<std::size_t>(u)];
}

PipeHub& RtCluster::hub() {
  auto* hub = dynamic_cast<PipeHub*>(transports_.front().get());
  require(hub != nullptr, "RtCluster: no hub (socket backend)");
  return *hub;
}

UdpTransport& RtCluster::udp(NodeId u) {
  auto* udp = dynamic_cast<UdpTransport*>(&transport_of(u));
  require(udp != nullptr, "RtCluster: not the UDP backend");
  return *udp;
}

TcpTransport& RtCluster::tcp(NodeId u) {
  auto* tcp = dynamic_cast<TcpTransport*>(&transport_of(u));
  require(tcp != nullptr, "RtCluster: not the TCP backend");
  return *tcp;
}

void RtCluster::enable_detector(const DetectorConfig& config) {
  require(!started_, "RtCluster: enable_detector() after start()");
  for (auto& node : nodes_) node->enable_detector(config);
}

void RtCluster::arm_chaos(const ChaosScript& script) {
  require(!chaos_, "RtCluster: chaos already armed");
  script.validate(size());
  chaos_.emplace(script, *this);
}

void RtCluster::start() {
  require(!started_, "RtCluster: start() called twice");
  started_ = true;
  for (auto& node : nodes_) node->start();
}

void RtCluster::chaos_crash(NodeId u) {
  node(u).request_crash();
}

void RtCluster::chaos_restart(NodeId u) {
  node(u).request_restart();
}

void RtCluster::chaos_link(NodeId from, NodeId to, const LinkFault& f) {
  // The sender's transport owns the outbound slot; the scheduler calls this
  // once per direction.
  transport_of(from).set_link_fault(from, to, f);
}

void RtCluster::chaos_conn_reset(NodeId a, NodeId b) {
  // Each side owns its outbound connection; resetting both covers the
  // link. Transports without connections ignore the request.
  transport_of(a).request_reset(b);
  transport_of(b).request_reset(a);
}

std::uint64_t RtCluster::total_corrupted() const {
  std::uint64_t sum = 0;
  for (const auto& t : transports_) sum += t->corrupted();
  return sum;
}

std::uint64_t RtCluster::total_rejected() const {
  std::uint64_t sum = 0;
  for (const auto& t : transports_) sum += t->rejected();
  return sum;
}

void RtCluster::schedule_samples(Time horizon, Duration period) {
  require(started_, "RtCluster: schedule_samples() before start()");
  require(period > 0.0, "RtCluster: sample period must be positive");
  const int count = static_cast<int>(std::floor(horizon / period + 1e-9));
  for (std::size_t u = 0; u < nodes_.size(); ++u) {
    samples_[u].clear();
    samples_[u].reserve(static_cast<std::size_t>(count));
    RtNode* node = nodes_[u].get();
    std::vector<RtSample>* out = &samples_[u];
    for (int k = 1; k <= count; ++k) {
      const Time t = static_cast<Time>(k) * period;
      node->at(t, [node, out, t] {
        out->push_back(RtSample{t, node->logical(), node->hardware(),
                                node->sampling_live()});
      });
    }
  }
}

void RtCluster::run_lockstep(VirtualClock& vclock, Time horizon, Duration step) {
  require(started_, "RtCluster: run before start()");
  require(step > 0.0, "RtCluster: step must be positive");
  // A fixed number of round-robin sub-rounds per increment bounds message
  // latency at one step while letting multi-leg exchanges (probe → response
  // → estimate consumption) complete within the same model instant.
  constexpr int kRounds = 4;
  for (Time t = step; t < horizon + step * 0.5; t += step) {
    vclock.advance_to(std::min(t, horizon));
    // Chaos ops land at step boundaries, before any node pumps: the whole
    // run is then a pure function of (spec, faults, script).
    if (chaos_) chaos_->poll(vclock.now());
    for (int round = 0; round < kRounds; ++round) {
      for (auto& node : nodes_) node->pump();
    }
  }
}

void RtCluster::run_threads(Time horizon, Duration poll_interval) {
  require(started_, "RtCluster: run before start()");
  require(poll_interval > 0.0, "RtCluster: poll interval must be positive");
  std::atomic<bool> stop{false};
  std::thread chaos_thread;
  if (chaos_) {
    ChaosScheduler* sched = &*chaos_;
    TimeSource* clock = &clock_;
    chaos_thread = std::thread([sched, clock, &stop, poll_interval] {
      while (!stop.load(std::memory_order_acquire)) {
        sched->poll(clock->now());
        if (sched->done()) return;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(poll_interval));
      }
    });
  }
  std::vector<std::thread> threads;
  threads.reserve(nodes_.size());
  for (auto& node_ptr : nodes_) {
    RtNode* node = node_ptr.get();
    threads.emplace_back([node, horizon, poll_interval] {
      while (node->pump() < horizon) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(poll_interval));
      }
      // One last drain so frames sent by slower peers near the horizon are
      // still consumed (their senders may reach the horizon after us).
      node->pump();
    });
  }
  for (auto& th : threads) th.join();
  stop.store(true, std::memory_order_release);
  if (chaos_thread.joinable()) chaos_thread.join();
}

void RtCluster::drain(int rounds) {
  require(started_, "RtCluster: drain before start()");
  for (int round = 0; round < rounds; ++round) {
    for (auto& node : nodes_) node->pump();
  }
}

std::vector<RtCluster::JoinedSample> RtCluster::join_edge(const EdgeKey& e) const {
  const auto& sa = samples_[static_cast<std::size_t>(e.a)];
  const auto& sb = samples_[static_cast<std::size_t>(e.b)];
  const std::size_t count = std::min(sa.size(), sb.size());
  std::vector<JoinedSample> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    out.push_back(JoinedSample{sa[k].t, std::abs(sa[k].logical - sb[k].logical),
                               sa[k].live && sb[k].live});
  }
  return out;
}

RtEdgeReport RtCluster::summarize(const EdgeKey& e, Time begin, Time end,
                                  bool live_only) {
  RtEdgeReport r;
  r.edge = e;
  Engine& engine = node(e.a).engine();
  const AlgoParams& params = nodes_.front()->scenario().spec().aopt;
  r.eps = engine.edge_eps(e);
  r.kappa = engine.metric_kappa(e);
  r.bound = gradient_bound(r.kappa, params.gtilde_static, params.sigma());
  double sum = 0.0;
  for (const JoinedSample& s : join_edge(e)) {
    if (s.t < begin || s.t >= end) continue;
    if (live_only && !s.live) continue;
    r.max_abs_skew = std::max(r.max_abs_skew, s.skew);
    sum += s.skew;
    ++r.samples;
  }
  r.mean_abs_skew = r.samples > 0 ? sum / r.samples : 0.0;
  return r;
}

std::vector<RtEdgeReport> RtCluster::edge_report(int warmup_samples) {
  std::vector<RtEdgeReport> reports;
  reports.reserve(edges_.size());
  for (const EdgeKey& e : edges_) {
    // Warmup is expressed in grid points; convert to a time cut using the
    // joined series' own grid (uniform by construction).
    const auto joined = join_edge(e);
    const std::size_t w = static_cast<std::size_t>(std::max(warmup_samples, 0));
    Time begin = 0.0;
    if (w > 0) begin = w <= joined.size() ? joined[w - 1].t + 1e-12 : kTimeInf;
    reports.push_back(summarize(e, begin, kTimeInf, /*live_only=*/true));
  }
  return reports;
}

std::vector<RtEdgeReport> RtCluster::edge_report_window(Time begin, Time end) {
  std::vector<RtEdgeReport> reports;
  reports.reserve(edges_.size());
  for (const EdgeKey& e : edges_) {
    reports.push_back(summarize(e, begin, end, /*live_only=*/true));
  }
  return reports;
}

void RtCluster::write_skew_csv(const std::string& path, int warmup_samples) {
  CsvWriter csv(path);
  csv.row({"t", "a", "b", "skew", "eps", "kappa", "bound", "live"});
  for (const EdgeKey& e : edges_) {
    Engine& engine = node(e.a).engine();
    const double eps = engine.edge_eps(e);
    const double kappa = engine.metric_kappa(e);
    const double bound =
        gradient_bound(kappa, nodes_.front()->scenario().spec().aopt.gtilde_static,
                       nodes_.front()->scenario().spec().aopt.sigma());
    const auto joined = join_edge(e);
    for (std::size_t k = static_cast<std::size_t>(warmup_samples);
         k < joined.size(); ++k) {
      csv.field(joined[k].t)
          .field(e.a)
          .field(e.b)
          .field(joined[k].skew)
          .field(eps)
          .field(kappa)
          .field(bound)
          .field(joined[k].live ? 1 : 0)
          .endrow();
    }
  }
}

}  // namespace gcs
