// Wire messages exchanged by the synchronization protocols.
#pragma once

#include <variant>

#include "util/common.h"

namespace gcs {

/// Periodic beacon: carries the sender's logical clock and max estimate
/// ("nodes piggy-back their current max estimate to each message sent").
/// The min estimate is piggy-backed as well: it is the symmetric flooded
/// lower bound on the minimum clock that the distributed global-skew
/// estimator (§7 substrate) is built from.
struct Beacon {
  ClockValue logical = 0.0;
  ClockValue max_estimate = 0.0;
  ClockValue min_estimate = 0.0;
};

/// Listing 1 line 9: insertedge({u,v}, L_ins, G̃) from the edge leader.
struct InsertEdgeMsg {
  ClockValue l_ins = 0.0;
  double gtilde = 0.0;
};

/// RTT offset-exchange probe (edyn-style two-request/response scheme, see
/// estimate/rtt_estimate.h). The sender stamps its own hardware clock; the
/// responder echoes it back untouched so the round-trip time needs no state
/// at the responder.
struct TimeRequest {
  std::uint32_t id = 0;         ///< matches the response to the pending probe
  ClockValue sender_hw = 0.0;   ///< sender's hardware clock at send
};

/// Reply to a TimeRequest: the echoed request stamp plus the responder's
/// logical clock at response time (the quantity the estimate layer tracks).
struct TimeResponse {
  std::uint32_t id = 0;
  ClockValue echo_hw = 0.0;        ///< TimeRequest::sender_hw, echoed
  ClockValue remote_logical = 0.0; ///< responder's L at response send
};

/// Failure-detector probe (rt/liveness.h). Pings bypass the engine entirely:
/// the runtime ingress answers a ping with a pong and feeds both into the
/// detector as liveness evidence, so a fully partitioned edge can be
/// rediscovered even though no protocol traffic flows over it. Never used in
/// simulation mode.
struct LivenessPing {
  std::uint32_t seq = 0;   ///< sender-local probe counter
  std::uint32_t kind = 0;  ///< 0 = ping, 1 = pong (echoes the ping's seq)
};

using Payload =
    std::variant<Beacon, InsertEdgeMsg, TimeRequest, TimeResponse, LivenessPing>;

/// A message delivered to a node. `payload` points into the transport's
/// message arena (net/arena.h) and is valid only for the duration of the
/// on_delivery call — consumers that keep a message must copy the Payload
/// (or the fields they need) out.
struct Delivery {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  Time sent_at = 0.0;
  Time delivered_at = 0.0;
  /// Receiver-known lower bound on the transit time (edge msg_delay_min):
  /// what the receiver may safely add, scaled by (1−ρ), to clock values in
  /// the payload (paper §3.1, "causality" relation).
  Duration known_min_delay = 0.0;
  const Payload* payload = nullptr;
};

}  // namespace gcs
