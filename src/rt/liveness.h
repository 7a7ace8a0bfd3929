// Heartbeat failure detector for the runtime (service mode only).
//
// The paper assumes the adversary TELLS each endpoint about edge changes
// (within the detection delay tau). A real deployment has no adversary to
// ask: membership must be *observed*. This detector turns the passive
// ingress stream into that observation — every frame from a peer (beacon,
// probe, anything) is liveness evidence — and drives the DynamicGraph
// through the same edge-event machinery the simulated adversary uses, so
// the paper's insertion-rule semantics apply unchanged to edges the
// detector discovers or evicts.
//
// Per-peer state machine:
//
//   Alive --(silence >= suspect_after)--> Suspect
//   Suspect --(silence >= evict_after)--> Down   [emit kEvict: remove edge]
//   Suspect/Down --(any frame)--> Alive          [Down->Alive: edge re-inserted]
//
// While Suspect or Down the detector emits kProbe actions on a schedule:
// fixed probe_interval while Suspect (the peer may just be slow), then
// exponential backoff from probe_interval up to probe_max while Down, so a
// long-dead peer costs O(log) traffic but a revived one is found within one
// backoff period. Probes are LivenessPing frames answered at the runtime
// ingress (never injected into the engine) — they keep flowing after
// eviction, when protocol traffic over the edge has stopped, and are what
// bootstraps rediscovery after a partition heals.
//
// The detector itself is pure bookkeeping over injected "now" values: no
// clock, no transport, no threads. RtNode owns one per replica and applies
// the emitted actions (src/rt/rt_node.cpp), which keeps this class
// deterministic and unit-testable.
#pragma once

#include <vector>

#include "util/common.h"

namespace gcs {

struct DetectorConfig {
  Duration suspect_after = 1.5;  ///< silence before Alive -> Suspect
  Duration evict_after = 4.0;    ///< silence before Suspect -> Down (evict)
  Duration probe_interval = 0.5; ///< probe cadence while Suspect (backoff base)
  double probe_backoff = 2.0;    ///< gap multiplier per probe while Down
  Duration probe_max = 4.0;      ///< backoff cap

  void validate() const {
    require(suspect_after > 0.0, "DetectorConfig: suspect_after must be > 0");
    require(evict_after > suspect_after,
            "DetectorConfig: evict_after must exceed suspect_after");
    require(probe_interval > 0.0, "DetectorConfig: probe_interval must be > 0");
    require(probe_backoff >= 1.0, "DetectorConfig: probe_backoff must be >= 1");
    require(probe_max >= probe_interval,
            "DetectorConfig: probe_max must be >= probe_interval");
  }
};

enum class PeerLiveness { kAlive, kSuspect, kDown };

[[nodiscard]] const char* to_string(PeerLiveness s);

/// One thing the owner must do as a consequence of poll().
struct LivenessAction {
  enum class Kind {
    kEvict,  ///< peer confirmed down: remove the edge from the local graph
    kProbe,  ///< send a LivenessPing to the peer
  };
  Kind kind = Kind::kProbe;
  NodeId peer = kNoNode;
};

class LivenessDetector {
 public:
  explicit LivenessDetector(const DetectorConfig& config);

  /// Register a monitored peer. `alive` seeds the initial state: true for
  /// t=0 topology neighbors (heard-at-now), false for peers that must first
  /// prove themselves (starts Down, probing immediately).
  void add_peer(NodeId peer, Time now, bool alive);

  /// Liveness evidence: any frame from `peer` arrived. Returns true iff the
  /// peer was Down — the caller must then re-insert the edge (the paper's
  /// insertion rule: a rediscovered edge is inserted, not assumed legal).
  /// Unmonitored peers are ignored (returns false).
  bool on_frame(NodeId peer, Time now);

  /// Advance the state machines to `now`, appending due actions. Evictions
  /// precede probes; peers are visited in id order — deterministic given the
  /// same call sequence.
  void poll(Time now, std::vector<LivenessAction>& out);

  /// Force a peer to Down WITHOUT emitting kEvict (the caller already knows
  /// — e.g. a restarting node drops all its own edges). Probing restarts
  /// from the base interval.
  void mark_down(NodeId peer, Time now);

  [[nodiscard]] PeerLiveness state(NodeId peer) const;
  [[nodiscard]] Time last_heard(NodeId peer) const;

  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  [[nodiscard]] std::uint64_t revivals() const { return revivals_; }
  [[nodiscard]] std::uint64_t probes() const { return probes_; }

 private:
  struct Peer {
    NodeId id = kNoNode;
    PeerLiveness state = PeerLiveness::kAlive;
    Time heard = 0.0;       ///< last evidence time
    Time next_probe = 0.0;  ///< earliest next kProbe (while not Alive)
    Duration probe_gap = 0.0;
  };

  Peer* find(NodeId peer);
  [[nodiscard]] const Peer* find(NodeId peer) const;
  void start_probing(Peer& p, Time now);

  DetectorConfig config_;
  std::vector<Peer> peers_;  ///< sorted by id
  std::uint64_t evictions_ = 0;
  std::uint64_t revivals_ = 0;
  std::uint64_t probes_ = 0;
};

}  // namespace gcs
