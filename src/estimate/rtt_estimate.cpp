#include "estimate/rtt_estimate.h"

#include <algorithm>

#include "net/transport.h"

namespace gcs {

RttEstimateSource::RttEstimateSource(DynamicGraph& graph, Duration probe_period,
                                     double rho, double mu, int window,
                                     double outlier)
    : SnapshotEstimateSource(graph, probe_period, rho, mu),
      window_(window),
      outlier_(outlier),
      owners_(static_cast<std::size_t>(graph.size())) {
  require(window >= 1, "RttEstimateSource: window must be >= 1");
  require(outlier >= 1.0, "RttEstimateSource: outlier factor must be >= 1");
}

void RttEstimateSource::on_edge_lost(NodeId u, NodeId peer) {
  SnapshotEstimateSource::on_edge_lost(u, peer);
  edges_.erase(key(u, peer));
  // Orphan the in-flight probes toward that peer (a late response must not
  // resurrect the estimate of an edge the view already dropped).
  std::erase_if(owners_[static_cast<std::size_t>(u)].pending,
                [peer](const auto& kv) { return kv.second.peer == peer; });
}

void RttEstimateSource::on_probe(NodeId u, Transport& transport) {
  require(clocks_ != nullptr, "RttEstimateSource: bind() not called");
  const ClockValue hw = clocks_->true_hardware(u);
  Owner& owner = owners_[static_cast<std::size_t>(u)];
  // Prune this owner's stale in-flight probes (lost requests/responses).
  const ClockValue horizon = hw - kStaleRounds * period_;
  std::erase_if(owner.pending,
                [horizon](const auto& kv) { return kv.second.send_hw < horizon; });
  // Two back-to-back requests per neighbor (edyn's two-phase exchange): one
  // lost datagram still leaves this round a sample.
  for (const NeighborView& nv : graph_.view_neighbors(u)) {
    for (int shot = 0; shot < 2; ++shot) {
      const std::uint32_t id = owner.next_id++;
      if (transport.send(u, nv.id, TimeRequest{id, hw})) {
        owner.pending[id] = Pending{nv.id, hw};
      }
    }
  }
}

double RttEstimateSource::filtered_transit(const std::vector<double>& rtts,
                                           double outlier) {
  double lo = rtts.front();
  for (const double r : rtts) lo = std::min(lo, r);
  const double cut = lo * outlier;
  double sum = 0.0;
  int kept = 0;
  for (const double r : rtts) {
    if (r <= cut) {
      sum += r;
      ++kept;
    }
  }
  return 0.5 * sum / static_cast<double>(kept);  // kept >= 1: the minimum survives
}

void RttEstimateSource::on_time_response(const Delivery& d, const TimeResponse& resp) {
  require(clocks_ != nullptr, "RttEstimateSource: bind() not called");
  const NodeId owner = d.to;
  auto& pending = owners_[static_cast<std::size_t>(owner)].pending;
  const auto pit = pending.find(resp.id);
  if (pit == pending.end()) return;  // duplicate, stale, or post-edge-loss
  const Pending p = pit->second;
  pending.erase(pit);
  if (p.peer != d.from) return;  // response relayed by the wrong peer: discard
  if (graph_.find_neighbor(owner, d.from) == nullptr) return;
  const ClockValue hw = clocks_->true_hardware(owner);
  const double rtt = hw - resp.echo_hw;
  if (rtt < 0.0) return;  // clock anomaly; never poison the window
  EdgeSync& sync = edges_[key(owner, d.from)];
  if (sync.rtts.size() < static_cast<std::size_t>(window_)) {
    sync.rtts.push_back(rtt);
  } else {
    sync.rtts[sync.next] = rtt;
    sync.next = (sync.next + 1) % sync.rtts.size();
  }
  // The responder's logical clock has advanced by ~transit since it stamped
  // remote_logical; compensate with the measured one-way estimate, drift-
  // discounted like the beacon source's known-delay compensation.
  const double transit = filtered_transit(sync.rtts, outlier_);
  put(owner, d.from, resp.remote_logical + (1.0 - rho_) * transit, hw);
}

void register_rtt_estimate(Registry<EstimateFactory>& r) {
  using E = Registry<EstimateFactory>::Entry;
  r.add(E{"rtt",
          "measured-RTT offset exchange (two requests/round, sliding-window "
          "average with outlier rejection); the service-mode estimate source",
          {{"probe", "0", "probe period (0 = the engine's beacon period)"},
           {"window", "8", "RTT samples kept per directed edge"},
           {"outlier", "2", "reject samples above this multiple of the window minimum"}},
          [](const ParamMap& p, const EstimateArgs& a) -> std::unique_ptr<EstimateSource> {
            const double probe = p.get_double("probe", 0.0);
            return std::make_unique<RttEstimateSource>(
                a.graph, probe > 0.0 ? probe : a.beacon_period, a.rho, a.mu,
                p.get_int("window", 8), p.get_double("outlier", 2.0));
          }});
}

}  // namespace gcs
