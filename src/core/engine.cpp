#include "core/engine.h"

#include <algorithm>
#include <cmath>

#include "util/log.h"

namespace gcs {

// ----------------------------------------------------------------- NodeApi

const AlgoParams& NodeApi::algo_params() const { return engine_.params_; }
void NodeApi::set_rate_multiplier(double mult) {
  engine_.set_rate_multiplier(id_, mult);
}
void NodeApi::set_logical_value(ClockValue v) { engine_.set_logical_value(id_, v); }

const std::vector<NeighborView>& NodeApi::neighbors() const {
  return engine_.graph_.view_neighbors(id_);
}
const EdgeParams& NodeApi::edge_params(NodeId peer) const {
  return engine_.graph_.params(EdgeKey(id_, peer));
}
double NodeApi::edge_eps(NodeId peer) const {
  return engine_.estimates_.eps(EdgeKey(id_, peer));
}
bool NodeApi::send_insert_edge(NodeId peer, ClockValue l_ins, double gtilde) {
  return engine_.transport_.send(id_, peer, InsertEdgeMsg{l_ins, gtilde});
}
double NodeApi::global_skew_estimate() { return engine_.gskew_.estimate(id_); }

void NodeApi::schedule_at_logical(ClockValue target, std::function<void()> fn) {
  engine_.add_logical_target(id_, target, std::move(fn));
}

void NodeApi::schedule_after(Duration dt, std::function<void()> fn) {
  engine_.sim_.schedule_after(dt, std::move(fn));
}

// ------------------------------------------------------------------ Engine

Engine::Engine(Simulator& sim, DynamicGraph& graph, Transport& transport,
               DriftModel& drift, EstimateSource& estimates,
               GlobalSkewEstimator& gskew, AlgoParams params, EngineConfig config,
               const AlgorithmFactory& factory)
    : sim_(sim),
      graph_(graph),
      transport_(transport),
      drift_(drift),
      estimates_(estimates),
      gskew_(gskew),
      params_(params),
      config_(config) {
  // Channel dispatch: the thunk's static_cast call is a direct call, so
  // fired typed events never go through a vtable.
  channel_ = sim_.register_dispatch_channel(this, [](void* self, const SimEvent& ev) {
    static_cast<Engine*>(self)->dispatch(ev);
  });
  // Instant-coalesced evaluation: deferred (dirty-node) trigger scans run
  // when the kernel closes the current instant group.
  sim_.register_instant_flush(this, [](void* self) {
    static_cast<Engine*>(self)->flush_dirty();
  });
  const auto validation = params_.validate();
  require(validation.ok(), "Engine: invalid AlgoParams:\n" + validation.str());
  require(config_.tick_period > 0.0 && config_.beacon_period > 0.0,
          "Engine: periods must be positive");

  const int n = graph_.size();
  // Sized exactly once: algorithms hold pointers into this vector, so it
  // must never reallocate after this loop.
  nodes_.reserve(static_cast<std::size_t>(n));
  hot_.resize(static_cast<std::size_t>(n));
  const Time t0 = sim_.now();
  for (NodeId u = 0; u < n; ++u) {
    NodeState& state = nodes_.emplace_back(*this, u);
    NodeHot& h = hot(u);
    const double h_rate = drift_.rate_at(u, t0);
    // H, L (mult=1 initially) and M run at h. The min estimate starts at the
    // true minimum (0) and advances at the safe rate (1-rho)/(1+rho)*h,
    // which cannot overtake any logical clock.
    h.clocks = NodeClocks(
        t0, {h_rate, h_rate, h_rate, (1.0 - params_.rho) / (1.0 + params_.rho) * h_rate});
    h.m_locked = true;
    state.algo = factory(u);
    require(state.algo != nullptr, "Engine: factory returned null algorithm");
    state.algo->attach(&state.api);
  }
  estimates_.bind(this);
  oracle_estimates_ = dynamic_cast<OracleEstimateSource*>(&estimates_);
  snapshot_estimates_ = dynamic_cast<SnapshotEstimateSource*>(&estimates_);
  require(oracle_estimates_ != nullptr || snapshot_estimates_ != nullptr,
          "Engine: the estimate source must be an oracle or a snapshot source");
  estimates_consume_beacons_ = estimates_.consumes_beacons();
  graph_.set_listener(this);
  transport_.set_sink(this);
  if (!config_.executed.empty()) {
    executed_.assign(static_cast<std::size_t>(n), 0);
    for (const NodeId u : config_.executed) {
      require(u >= 0 && u < n, "Engine: executed node " + std::to_string(u) +
                                   " out of range for n=" + std::to_string(n));
      executed_[static_cast<std::size_t>(u)] = 1;
    }
    transport_.set_executed(&executed_);
  }
}

void Engine::start() {
  require(!started_, "Engine: start() called twice");
  require(executed_.empty() || transport_.has_outbound(),
          "Engine: a partial replica (EngineConfig::executed) needs an outbound "
          "hook (Transport::set_outbound)");
  started_ = true;
  // When tick and beacon cadence coincide (the default), one heartbeat
  // event per node drives both duties in the order the split events fired
  // (tick first, FIFO): half the recurring kernel load.
  merged_heartbeat_ = config_.enable_beacons &&
                      config_.tick_period == config_.beacon_period;
  const int n = size();
  // Probe timer (RTT offset exchange): only sources that ask for one get
  // one — probe_period() == 0 schedules nothing, keeping probe-free event
  // sequences identical to the pre-probe engine.
  const Duration probe_period = estimates_.probe_period();
  for (NodeId u = 0; u < n; ++u) {
    // Partial replica: only executed nodes run; the rest are mirrors.
    if (!executes(u)) continue;
    node(u).algo->init();
    schedule_drift(u);
    // Stagger per-node periodic events so same-time bursts do not mask
    // event-ordering bugs and beacons do not synchronize artificially.
    const double phase = (static_cast<double>(u) + 1.0) / (static_cast<double>(n) + 1.0);
    if (merged_heartbeat_) {
      sim_.schedule_event_after(
          config_.tick_period * phase,
          SimEvent::node_event(EventKind::kHeartbeat, channel_, u));
    } else {
      schedule_tick(u, config_.tick_period * phase);
      if (config_.enable_beacons) schedule_beacon(u, config_.beacon_period * phase);
    }
    if (probe_period > 0.0) {
      sim_.schedule_event_after(probe_period * phase,
                                SimEvent::node_event(EventKind::kProbe, channel_, u));
    }
    reevaluate(u);
  }
}

double Engine::unlocked_max_rate(const NodeHot& n) const {
  return (1.0 - params_.rho) / (1.0 + params_.rho) * n.clocks.rate(NodeClocks::kHw);
}

bool Engine::max_locked(NodeId u) const { return hot(u).m_locked; }
double Engine::rate_multiplier(NodeId u) const { return hot(u).mult; }
double Engine::hardware_rate(NodeId u) const { return hot(u).clocks.rate(NodeClocks::kHw); }
Algorithm& Engine::algorithm(NodeId u) { return *node(u).algo; }

double Engine::true_global_skew() const {
  double lo = kTimeInf;
  double hi = -kTimeInf;
  for (NodeId u = 0; u < size(); ++u) {
    const ClockValue l = logical(u);
    lo = std::min(lo, l);
    hi = std::max(hi, l);
  }
  return size() > 0 ? hi - lo : 0.0;
}

void Engine::corrupt_logical(NodeId u, ClockValue value) {
  NodeHot& n = hot(u);
  NodeState& st = node(u);
  const ClockValue m_before = max_estimate(u);
  n.clocks.set_value(sim_.now(), NodeClocks::kLog, value);
  if (min_estimate(u) > value) n.clocks.set_value(sim_.now(), NodeClocks::kMin, value);
  if (value >= m_before) {
    // The paper's invariant M_u >= L_u (eq. 4) must keep holding.
    n.m_locked = true;
    if (st.mlock_event.valid()) sim_.cancel(st.mlock_event);
    st.mlock_event = EventId{};
  } else if (n.m_locked) {
    // L dropped below the old M: keep M at its former value, now unlocked.
    n.m_locked = false;
    n.clocks.set_value(sim_.now(), NodeClocks::kMax, m_before);
    n.clocks.set_rate(sim_.now(), NodeClocks::kMax, unlocked_max_rate(n));
    reschedule_mlock(u);
  } else {
    reschedule_mlock(u);
  }
  reschedule_logical_event(u);
  reevaluate(u);
}

void Engine::corrupt_max_estimate(NodeId u, ClockValue value) {
  NodeHot& n = hot(u);
  NodeState& st = node(u);
  if (value <= logical(u)) {
    n.m_locked = true;
    if (st.mlock_event.valid()) sim_.cancel(st.mlock_event);
    st.mlock_event = EventId{};
  } else {
    n.m_locked = false;
    n.clocks.set_value(sim_.now(), NodeClocks::kMax, value);
    n.clocks.set_rate(sim_.now(), NodeClocks::kMax, unlocked_max_rate(n));
    reschedule_mlock(u);
  }
  reevaluate(u);
}

double Engine::metric_kappa(const EdgeKey& e) {
  const auto it = kappa_cache_.find(e);
  if (it != kappa_cache_.end()) return it->second;
  EdgeParams params = graph_.params(e);
  params.eps = estimates_.eps(e);
  const double kappa = params_.edge_constants(params).kappa;
  kappa_cache_.emplace(e, kappa);
  return kappa;
}

void Engine::on_edge_discovered(NodeId u, NodeId peer) {
  kappa_cache_.erase(EdgeKey(u, peer));  // belt-and-braces vs ε policy changes
  // Partial replica: mirror nodes track topology but never run algorithm
  // logic — a mirror reacting to an edge event would send from a node this
  // replica does not execute.
  if (!executes(u)) return;
  node(u).algo->on_edge_discovered(peer);
  if (started_) mark_dirty(u);
}

void Engine::on_edge_lost(NodeId u, NodeId peer) {
  estimates_.on_edge_lost(u, peer);
  if (!executes(u)) return;
  node(u).algo->on_edge_lost(peer);
  if (started_) mark_dirty(u);
}

void Engine::apply_drift(NodeId u) {
  NodeHot& n = hot(u);
  const double h_rate = drift_.rate_at(u, sim_.now());
  n.clocks.set_rate(sim_.now(), NodeClocks::kHw, h_rate);
  n.clocks.set_rate(sim_.now(), NodeClocks::kLog, n.mult * h_rate);
  n.clocks.set_rate(sim_.now(), NodeClocks::kMin, unlocked_max_rate(n));
  if (!n.m_locked) n.clocks.set_rate(sim_.now(), NodeClocks::kMax, unlocked_max_rate(n));
  reschedule_logical_event(u);
  reschedule_mlock(u);
}

void Engine::dispatch(const SimEvent& ev) {
  const NodeId u = ev.node;
  switch (ev.kind) {
    case EventKind::kTick:
      trace(EventKind::kTick, u);
      mark_dirty(u);  // the guard-band scan: unconditionally dirty
      schedule_tick(u, config_.tick_period);
      break;
    case EventKind::kBeacon:
      trace(EventKind::kBeacon, u);
      fire_beacon(u);
      break;
    case EventKind::kDriftChange:
      trace(EventKind::kDriftChange, u);
      apply_drift(u);
      schedule_drift(u);
      break;
    case EventKind::kMLockCatch:
      trace(EventKind::kMLockCatch, u);
      fire_mlock(u);
      break;
    case EventKind::kLogicalTarget:
      trace(EventKind::kLogicalTarget, u);
      fire_logical_targets(u);
      break;
    case EventKind::kHeartbeat:
      // Both duties, in the order the split events fired (tick scheduled
      // first, so FIFO ran it first at the shared instant).
      trace(EventKind::kTick, u);
      mark_dirty(u);
      trace(EventKind::kBeacon, u);
      fire_beacon(u);
      break;
    case EventKind::kProbe:
      trace(EventKind::kProbe, u);
      estimates_.on_probe(u, transport_);
      sim_.schedule_event_after(estimates_.probe_period(),
                                SimEvent::node_event(EventKind::kProbe, channel_, u));
      break;
    case EventKind::kClosure:
    case EventKind::kDelivery:
      require(false, "Engine::dispatch: unexpected event kind");
  }
}

void Engine::schedule_drift(NodeId u) {
  const Time next = drift_.next_change_after(u, sim_.now());
  if (next == kTimeInf) return;
  sim_.schedule_event_at(next,
                         SimEvent::node_event(EventKind::kDriftChange, channel_, u));
}

void Engine::schedule_tick(NodeId u, Duration delay) {
  sim_.schedule_event_after(delay, SimEvent::node_event(EventKind::kTick, channel_, u));
}

void Engine::schedule_beacon(NodeId u, Duration delay) {
  sim_.schedule_event_after(delay,
                            SimEvent::node_event(EventKind::kBeacon, channel_, u));
}

void Engine::fire_beacon(NodeId u) {
  const Beacon beacon{logical(u), max_estimate(u), min_estimate(u)};
  // view_neighbors is sorted by id, so the fan-out order — and with it the
  // sequence of RNG-drawn transport delays — is stdlib-independent.
  transport_.send_fanout(u, graph_.view_neighbors(u), beacon);
  if (merged_heartbeat_) {
    sim_.schedule_event_after(config_.beacon_period,
                              SimEvent::node_event(EventKind::kHeartbeat, channel_, u));
  } else {
    schedule_beacon(u, config_.beacon_period);
  }
}

void Engine::add_logical_target(NodeId u, ClockValue target,
                                std::function<void()> fn) {
  NodeState& n = node(u);
  n.logical_targets.push_back(
      LogicalTarget{target, next_target_seq_++, std::move(fn)});
  std::push_heap(n.logical_targets.begin(), n.logical_targets.end(),
                 LogicalTargetOrder{});
  reschedule_logical_event(u);
}

void Engine::reschedule_logical_event(NodeId u) {
  NodeState& n = node(u);
  if (n.logical_targets.empty()) {
    if (n.logical_event.valid()) {
      sim_.cancel(n.logical_event);
      n.logical_event = EventId{};
    }
    return;
  }
  const Time fire_at = hot(u).clocks.time_of_value(
      NodeClocks::kLog, n.logical_targets.front().at, sim_.now());
  if (n.logical_event.valid() && sim_.reschedule(n.logical_event, fire_at)) return;
  n.logical_event = sim_.schedule_event_at(
      fire_at, SimEvent::node_event(EventKind::kLogicalTarget, channel_, u));
}

void Engine::fire_logical_targets(NodeId u) {
  NodeState& n = node(u);
  n.logical_event = EventId{};
  // Fire every target at or (within float fuzz) below the current L.
  const ClockValue l = logical(u);
  const ClockValue fuzz = 1e-9 * (std::fabs(l) + 1.0);
  // Collect the due targets before running any (they may schedule more).
  // The scratch buffer is moved out for the duration of the calls so a
  // re-entrant fire on another node degrades to a fresh allocation instead
  // of corrupting the list.
  std::vector<LogicalTarget> due = std::move(due_scratch_);
  due.clear();
  while (!n.logical_targets.empty() && n.logical_targets.front().at <= l + fuzz) {
    std::pop_heap(n.logical_targets.begin(), n.logical_targets.end(),
                  LogicalTargetOrder{});
    due.push_back(std::move(n.logical_targets.back()));
    n.logical_targets.pop_back();
  }
  for (LogicalTarget& target : due) target.fn();
  due.clear();
  due_scratch_ = std::move(due);
  reschedule_logical_event(u);
  mark_dirty(u);
}

void Engine::reschedule_mlock(NodeId u) {
  NodeHot& n = hot(u);
  NodeState& st = node(u);
  if (n.m_locked) {
    if (st.mlock_event.valid()) {
      sim_.cancel(st.mlock_event);
      st.mlock_event = EventId{};
    }
    return;
  }
  const double l_rate = n.clocks.rate(NodeClocks::kLog);
  const double m_rate = n.clocks.rate(NodeClocks::kMax);
  const double gap = n.clocks.at(NodeClocks::kMax, sim_.now()) -
      n.clocks.at(NodeClocks::kLog, sim_.now());
  if (gap <= 0.0) {
    // Degenerate (value corruption): lock immediately.
    if (st.mlock_event.valid()) {
      sim_.cancel(st.mlock_event);
      st.mlock_event = EventId{};
    }
    n.m_locked = true;
    return;
  }
  require(l_rate > m_rate, "Engine: logical rate must exceed unlocked M rate");
  const Time fire_at = sim_.now() + gap / (l_rate - m_rate);
  if (st.mlock_event.valid() && sim_.reschedule(st.mlock_event, fire_at)) return;
  st.mlock_event = sim_.schedule_event_at(
      fire_at, SimEvent::node_event(EventKind::kMLockCatch, channel_, u));
}

void Engine::fire_mlock(NodeId u) {
  node(u).mlock_event = EventId{};
  hot(u).m_locked = true;  // from now on M_u tracks L_u exactly
  mark_dirty(u);
}

bool Engine::apply_max_candidate(NodeId u, ClockValue candidate) {
  NodeHot& n = hot(u);
  if (n.m_locked) {
    if (candidate > logical(u)) {
      n.m_locked = false;
      n.clocks.set_value(sim_.now(), NodeClocks::kMax, candidate);
      n.clocks.set_rate(sim_.now(), NodeClocks::kMax, unlocked_max_rate(n));
      reschedule_mlock(u);
      if (observer_ != nullptr) {
        observer_->on_max_estimate_raised(sim_.now(), u, candidate);
      }
      return true;
    }
    return false;
  }
  if (candidate > n.clocks.at(NodeClocks::kMax, sim_.now())) {
    n.clocks.set_value(sim_.now(), NodeClocks::kMax, candidate);
    reschedule_mlock(u);
    if (observer_ != nullptr) {
      observer_->on_max_estimate_raised(sim_.now(), u, candidate);
    }
    return true;
  }
  return false;
}

void Engine::set_rate_multiplier(NodeId u, double mult) {
  require(mult > 0.0, "Engine: rate multiplier must be positive");
  NodeHot& n = hot(u);
  if (n.mult == mult) return;
  if (observer_ != nullptr) observer_->on_mode_change(sim_.now(), u, n.mult, mult);
  n.mult = mult;
  n.clocks.set_rate(sim_.now(), NodeClocks::kLog, mult * n.clocks.rate(NodeClocks::kHw));
  reschedule_logical_event(u);
  reschedule_mlock(u);
}

void Engine::set_logical_value(NodeId u, ClockValue v) {
  NodeHot& n = hot(u);
  const ClockValue m_before = max_estimate(u);
  if (observer_ != nullptr) observer_->on_logical_jump(sim_.now(), u, logical(u), v);
  n.clocks.set_value(sim_.now(), NodeClocks::kLog, v);
  if (v >= m_before) {
    n.m_locked = true;
    NodeState& st = node(u);
    if (st.mlock_event.valid()) sim_.cancel(st.mlock_event);
    st.mlock_event = EventId{};
  } else {
    reschedule_mlock(u);
  }
  reschedule_logical_event(u);
}

void Engine::reevaluate(NodeId u) {
  NodeState& n = node(u);
  if (n.in_reevaluate) return;
  n.in_reevaluate = true;
  n.algo->reevaluate();
  n.in_reevaluate = false;
}

void Engine::mark_dirty(NodeId u) {
  NodeState& n = node(u);
  if (n.dirty) return;
  n.dirty = true;
  dirty_queue_.push_back(u);
  sim_.request_instant_flush();
}

void Engine::flush_dirty() {
  // Index loop: a reevaluate may append (another node turning dirty at this
  // instant through a re-entrant effect), and appended entries must run in
  // this same flush.
  for (std::size_t i = 0; i < dirty_queue_.size(); ++i) {
    const NodeId u = dirty_queue_[i];
    node(u).dirty = false;
    reevaluate(u);
  }
  dirty_queue_.clear();
}

void Engine::on_delivery(const Delivery& d) {
  // Track whether this delivery changed any *discrete* trigger input of the
  // receiver. Only then does the instant's evaluation need to cover it —
  // continuous drift between discrete changes is the tick's job (footnote 6).
  bool dirty = false;
  if (const auto* beacon = std::get_if<Beacon>(d.payload)) {
    if (estimates_consume_beacons_) {
      estimates_.on_beacon(d);
      // Dirty-peer notification: the discrete estimate state for (to, from)
      // just changed; incremental scans drop their cached snapshot of it.
      node(d.to).algo->on_estimate_dirty(d.from);
      dirty = true;
    }
    // Max-estimate flooding (Condition 4.3): the receiver may add the
    // drift-discounted known transit lower bound.
    const ClockValue candidate =
        beacon->max_estimate + (1.0 - params_.rho) * d.known_min_delay;
    dirty |= apply_max_candidate(d.to, candidate);
    // Min-estimate flooding: the sender's lower bound, advanced by the
    // drift-discounted transit floor, is still a lower bound on min_v L_v.
    // m_u feeds the distributed G̃ (read during handshakes), not the
    // triggers, so raising it does not dirty the node.
    const ClockValue min_candidate =
        beacon->min_estimate + (1.0 - params_.rho) * d.known_min_delay;
    if (min_candidate > min_estimate(d.to)) {
      hot(d.to).clocks.set_value(sim_.now(), NodeClocks::kMin, min_candidate);
    }
  } else if (const auto* ins = std::get_if<InsertEdgeMsg>(d.payload)) {
    node(d.to).algo->on_insert_edge_msg(d.from, *ins);
    dirty = true;
  } else if (const auto* req = std::get_if<TimeRequest>(d.payload)) {
    // Probe responder: echo the sender's stamp with our logical clock.
    // Responding reads but does not change this node's discrete trigger
    // inputs, so it never dirties the receiver.
    transport_.send(d.to, d.from, TimeResponse{req->id, req->sender_hw, logical(d.to)});
  } else if (const auto* resp = std::get_if<TimeResponse>(d.payload)) {
    estimates_.on_time_response(d, *resp);
    node(d.to).algo->on_estimate_dirty(d.from);
    dirty = true;
  }
  if (dirty) mark_dirty(d.to);
}

}  // namespace gcs
