// Measured-RTT estimate source (the service-mode realization of eq. 1).
//
// Instead of compensating beacon transit with the model's known delay floor
// (BeaconEstimateSource), this source *measures* the round-trip time with an
// edyn-style two-request/response offset exchange: each probe round sends two
// back-to-back TimeRequests per neighbor, every TimeResponse yields one RTT
// sample, and the transit compensation is half the sliding-window average of
// the surviving samples after outlier rejection (a sample more than
// `outlier` times the window minimum is a queueing spike, not a path
// property, and is excluded). Two requests per round means a single lost or
// deferred datagram cannot starve a round of samples — the reason edyn's
// exchange is two-phase.
//
// Each accepted response re-anchors the edge's snapshot entry, so the
// estimate, its ε and the incremental scan's read path (cached snapshot and
// certified bound) are SnapshotEstimateSource's, shared with the beacon
// source. This class keeps only the RTT window and the in-flight probes.
//
// The reported ε_e is beacon_eps(e, probe_period, ρ, µ): the worst-case
// receipt error of an *uncompensated* timestamp plus drift growth over one
// period. RTT compensation only shrinks the receipt term (the residual error
// is the path asymmetry, at most the delay uncertainty that the beacon bound
// already charges in full), so the beacon formula stays a sound, if
// conservative, bound for this source.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "estimate/estimate_source.h"

namespace gcs {

class RttEstimateSource final : public SnapshotEstimateSource {
 public:
  RttEstimateSource(DynamicGraph& graph, Duration probe_period, double rho,
                    double mu, int window, double outlier);

  void on_edge_lost(NodeId u, NodeId peer) override;

  [[nodiscard]] Duration probe_period() const override { return period_; }
  void on_probe(NodeId u, Transport& transport) override;
  void on_time_response(const Delivery& d, const TimeResponse& resp) override;

 private:
  /// Per-directed-edge RTT window (owner's view of one peer).
  struct EdgeSync {
    std::vector<double> rtts;     ///< sliding window, circular overwrite
    std::size_t next = 0;         ///< overwrite cursor into rtts
  };
  /// An unanswered TimeRequest. Entries older than kStaleRounds probe
  /// periods are pruned on the owner's next probe — a response that late is
  /// indistinguishable from a duplicate and would be dropped either way.
  struct Pending {
    NodeId peer = kNoNode;
    ClockValue send_hw = 0.0;
  };
  /// One node's probe state: its id counter and in-flight probes, so a
  /// probe round or an edge loss touches only that node's own probes.
  struct Owner {
    std::uint32_t next_id = 0;
    std::unordered_map<std::uint32_t, Pending> pending;  ///< by probe id
  };
  static constexpr double kStaleRounds = 4.0;

  /// Outlier-rejected mean of the window, halved into a one-way transit.
  [[nodiscard]] static double filtered_transit(const std::vector<double>& rtts,
                                               double outlier);

  int window_;
  double outlier_;
  std::unordered_map<std::uint64_t, EdgeSync> edges_;  ///< key(owner, peer)
  std::vector<Owner> owners_;                          ///< per node
};

/// Hook for estimate_source.cpp's builtin registration.
void register_rtt_estimate(Registry<EstimateFactory>& r);

}  // namespace gcs
