#include "rt/rt_node.h"

namespace gcs {

ScenarioSpec RtNode::localize(ScenarioSpec spec, NodeId self) {
  spec.engine.executed = {self};
  return spec;
}

RtNode::RtNode(ScenarioSpec spec, NodeId self, RtTransport& net, TimeSource& clock)
    : self_(self), net_(net), clock_(clock),
      scenario_(localize(std::move(spec), self)) {
  // Every send of a one-node replica is outbound. The wire carries no
  // arrival time, so the delay drawn for it is unused: the receiver injects
  // the frame at its own clock's now (see inject).
  scenario_.transport().set_outbound([this](NodeId from, NodeId to, Time sent_at,
                                            Time /*arrival*/, const Payload& payload) {
    // Only the executed node ever sends; anything else would mean a mirror
    // node ran logic it must not.
    require(from == self_, "RtNode: egress from a non-executed node");
    if (muted_) return;  // restart catch-up: the dead period stays silent
    WireMsg m;
    m.from = from;
    m.to = to;
    m.sent_at = sent_at;
    m.payload = payload;
    if (net_.send(m)) ++egress_;
  });
}

void RtNode::enable_detector(const DetectorConfig& config) {
  require(!detector_, "RtNode: detector already enabled");
  config.validate();
  detector_config_ = config;
}

void RtNode::start() {
  scenario_.start();
  if (detector_config_) {
    // Monitor the t=0 neighbors: the membership universe is the spec
    // topology (every replica knows the same potential edges and their
    // params); what the detector decides is which of them are LIVE.
    detector_.emplace(*detector_config_);
    for (const NeighborView& nv : scenario_.graph().view_neighbors(self_)) {
      monitored_.push_back(nv.id);
      detector_->add_peer(nv.id, scenario_.sim().now(), /*alive=*/true);
    }
  }
}

Time RtNode::pump() {
  int admin = admin_.load(std::memory_order_acquire);
  if (admin == kCrashRequested) {
    int expected = kCrashRequested;
    admin = admin_.compare_exchange_strong(expected, kDown) ? kDown : expected;
  }
  if (admin == kDown) {
    // Crashed: execute nothing, but keep draining the ingress so rings and
    // socket buffers do not fill with frames the dead node will never read.
    WireMsg m;
    while (net_.poll(self_, m)) ++discarded_;
    return clock_.now();
  }
  if (admin == kRestartRequested) {
    do_restart();
    int expected = kRestartRequested;
    admin_.compare_exchange_strong(expected, kUp);
  }
  Simulator& sim = scenario_.sim();
  const Time t = clock_.now();
  // Slave the kernel to the wall clock: fire everything due, idling model
  // time up to t even when the queue is empty.
  if (t > sim.now()) sim.run_until(t);
  // Drain the ingress. Injected deliveries run at the current model instant;
  // the engine defers trigger evaluation to the instant flush, which the
  // trailing (degenerate) run_until forces before we hand the thread back.
  // A stream transport puts a sent frame on the wire at the next poll, so
  // a pass whose liveness or flush step sent anything runs again: the pump
  // always ends with a poll after its last send.
  WireMsg m;
  for (;;) {
    bool work = false;
    while (net_.poll(self_, m)) {
      handle_ingress(m);
      work = true;
    }
    const std::uint64_t egress_at_last_poll = egress_;
    if (detector_ && apply_liveness(sim.now())) work = true;
    if (work) sim.run_until(sim.now());
    if (egress_ == egress_at_last_poll) break;
  }
  return sim.now();
}

void RtNode::handle_ingress(const WireMsg& m) {
  if (m.to != self_) {
    ++rejected_;
    return;
  }
  // Any frame is liveness evidence — fed BEFORE the view-based rejection
  // below, since a frame from an evicted peer is exactly what rediscovery
  // looks like. A revival re-creates the edge first, so the same frame that
  // revived the peer can then be injected normally.
  if (detector_ && detector_->on_frame(m.from, scenario_.sim().now())) {
    revive_edge(m.from);
  }
  if (const auto* ping = std::get_if<LivenessPing>(&m.payload)) {
    // Runtime-layer traffic: answer pings, consume pongs, inject neither.
    ++ingress_;
    if (ping->kind == 0) send_ping(m.from, /*kind=*/1, ping->seq);
    return;
  }
  inject(m);
}

void RtNode::inject(const WireMsg& m) {
  // Same rule the in-sim transport applies at delivery time: a frame from a
  // peer outside our current view is dropped (paper §3.1 allows it, and the
  // estimate layer must never consume data from unknown edges).
  const NeighborView* nv = scenario_.graph().find_neighbor(self_, m.from);
  if (nv == nullptr) {
    ++rejected_;
    return;
  }
  Delivery d;
  d.from = m.from;
  d.to = self_;
  d.sent_at = m.sent_at;
  d.delivered_at = scenario_.sim().now();
  d.known_min_delay = nv->params->msg_delay_min;
  d.payload = &m.payload;
  static_cast<DeliverySink&>(scenario_.engine()).on_delivery(d);
  ++ingress_;
}

void RtNode::revive_edge(NodeId peer) {
  const EdgeKey e(self_, peer);
  DynamicGraph& graph = scenario_.graph();
  // The record survives eviction, so the params are the originals — checked
  // identical by create_edge. Instant flip: the peer demonstrably exists
  // RIGHT NOW; the detector's own latency already covered any tau. The
  // engine's on_edge_discovered then runs the full insertion handshake
  // (rediscovered means inserted, never assumed legal).
  graph.create_edge_instant(e, graph.params(e));
}

bool RtNode::apply_liveness(Time now) {
  actions_.clear();
  detector_->poll(now, actions_);
  for (const LivenessAction& a : actions_) {
    switch (a.kind) {
      case LivenessAction::Kind::kEvict:
        scenario_.graph().destroy_edge_instant(EdgeKey(self_, a.peer));
        break;
      case LivenessAction::Kind::kProbe:
        send_ping(a.peer, /*kind=*/0, ping_seq_++);
        break;
    }
  }
  return !actions_.empty();
}

void RtNode::send_ping(NodeId peer, std::uint32_t kind, std::uint32_t seq) {
  WireMsg m;
  m.from = self_;
  m.to = peer;
  m.sent_at = scenario_.sim().now();
  m.payload = LivenessPing{seq, kind};
  if (!muted_ && net_.send(m)) ++egress_;
}

void RtNode::do_restart() {
  Simulator& sim = scenario_.sim();
  // Discard the backlog addressed to the dead incarnation.
  WireMsg m;
  while (net_.poll(self_, m)) ++discarded_;
  // Fast-forward the kernel through the outage with egress muted: the
  // backlogged periodic timers (beacons, probes, drift updates, sampling
  // closures) fire in order without leaking frames from the dead period,
  // leaving every recurring event re-armed on the live timeline.
  muted_ = true;
  const Time t = clock_.now();
  if (t > sim.now()) sim.run_until(t);
  muted_ = false;
  // Forget our neighbors: while we were dead they evicted us, and the paper
  // offers exactly one way back — the insertion protocol. Dropping our side
  // makes the rejoin symmetric: our probes revive us over there, their
  // frames revive them over here, both ends re-insert.
  if (detector_) {
    for (NodeId peer : monitored_) {
      scenario_.graph().destroy_edge_instant(EdgeKey(self_, peer));
      detector_->mark_down(peer, sim.now());
    }
    sim.run_until(sim.now());  // flush the edge-loss instant
  }
  ++restarts_;
}

void RtNode::request_crash() {
  int expected = kUp;
  admin_.compare_exchange_strong(expected, kCrashRequested);
}

void RtNode::request_restart() {
  for (;;) {
    int cur = admin_.load(std::memory_order_acquire);
    if (cur == kUp || cur == kRestartRequested) return;
    // kDown -> restart at next pump; an unconsumed crash request collapses
    // with the restart into one down-and-back blip.
    if (admin_.compare_exchange_weak(cur, kRestartRequested)) return;
  }
}

void RtNode::recover_logical(ClockValue anchor) {
  Engine& engine = scenario_.engine();
  if (anchor > engine.logical(self_)) engine.corrupt_logical(self_, anchor);
}

}  // namespace gcs
