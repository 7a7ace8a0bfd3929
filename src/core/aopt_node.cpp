#include "core/aopt_node.h"

#include <algorithm>
#include <cmath>

#include "core/algo_registry.h"
#include "util/log.h"

namespace gcs {

namespace {

/// Levels above this share the last per-level counter bucket.
constexpr int kCountedLevels = 16;

AoptNode::LevelDecisions& at_level(std::vector<AoptNode::LevelDecisions>& by_level,
                                   int s) {
  const auto i = static_cast<std::size_t>(std::min(s, kCountedLevels));
  if (by_level.size() <= i) by_level.resize(i + 1);
  return by_level[i];
}

}  // namespace

double AoptNode::PeerInfo::insertion_time(int s) const {
  require(s >= 1, "PeerInfo::insertion_time: s >= 1");
  return t0 + (1.0 - std::exp2(1.0 - static_cast<double>(s))) * insertion_duration;
}

const AoptNode::Peer* AoptNode::find_peer(NodeId id) const {
  for (const Peer& p : peers_) {
    if (p.id >= id) return p.id == id ? &p : nullptr;
  }
  return nullptr;
}

AoptNode::Peer& AoptNode::peer_slot(NodeId id) {
  auto it = peers_.begin();
  while (it != peers_.end() && it->id < id) ++it;
  if (it == peers_.end() || it->id != id) {
    it = peers_.insert(it, Peer{});
    it->id = id;
  }
  return *it;
}

void AoptNode::on_edge_discovered(NodeId peer) {
  hot_dirty_ = true;
  Peer& p = peer_slot(peer);
  p.present = true;
  ++p.gen;
  p.discovered_at = api_->now();
  p.discovered_logical = api_->logical();
  p.t0 = kTimeInf;
  p.insertion_duration = 0.0;

  // Derive κ_e, δ_e from the edge parameters, with ε taken from the estimate
  // layer (the binding accuracy guarantee, eq. 1).
  EdgeParams ep = api_->edge_params(peer);
  ep.eps = api_->edge_eps(peer);
  const EdgeConstants ec = params_.edge_constants(ep);
  p.kappa = ec.kappa;
  p.delta = ec.delta;
  p.eps = ep.eps;
  p.tau = ep.tau;
  p.tmsg = ep.msg_delay_max;

  if (api_->now() == 0.0) {
    // Paper §4.2: all neighbor sets are initialized to N_u(0) — edges that
    // exist at time 0 are fully inserted with no handshake.
    p.t0 = 0.0;
    p.insertion_duration = 0.0;
    p.gtilde = api_->global_skew_estimate();
    return;
  }

  if (params_.insertion == InsertionPolicy::kImmediate) {
    // Ablation: skip the handshake and join every level at once.
    p.t0 = p.discovered_logical;
    p.insertion_duration = 0.0;
    p.gtilde = api_->global_skew_estimate();
    return;
  }

  if (is_leader_of(peer)) {
    // Listing 1 lines 4-10. "Wait for at least ∆ time": we wait until our
    // logical clock has advanced by (1+ρ)(1+µ)∆, which both guarantees the
    // real-time wait (rates are at most (1+ρ)(1+µ)) and makes the logical
    // presence-window condition of line 6 checkable via discovered_logical.
    const double delta_hs = params_.handshake_delta(ep);
    const ClockValue wait_until = p.discovered_logical + params_.beta() * delta_hs;
    const std::uint64_t gen = p.gen;
    api_->schedule_at_logical(wait_until,
                              [this, peer, gen] { leader_check(peer, gen); });
  }
}

void AoptNode::leader_check(NodeId peer, std::uint64_t gen) {
  Peer* found = find_peer(peer);
  if (found == nullptr) return;
  Peer& p = *found;
  // gen mismatch <=> the edge was lost (or re-discovered) since the wait
  // began, i.e. v was NOT in N⁰_u throughout the logical window (line 6).
  if (!p.present || p.gen != gen) return;
  const double gtilde = api_->global_skew_estimate();
  const ClockValue l_ins = api_->logical() + gtilde + params_.beta() * p.tmsg;
  if (!api_->send_insert_edge(peer, l_ins, gtilde)) return;
  compute_insertion_times(p, l_ins, gtilde);
}

void AoptNode::on_insert_edge_msg(NodeId from, const InsertEdgeMsg& msg) {
  Peer* found = find_peer(from);
  if (found == nullptr || !found->present) return;
  Peer& p = *found;
  // Listing 1 line 12: wait at least T+τ but at most ∆−τ. Waiting until the
  // logical clock advances by (1+ρ)(1+µ)(T+τ) satisfies both: real wait is
  // >= T+τ (rate <= (1+ρ)(1+µ)) and <= (1+ρ)(1+µ)(T+τ)/(1−ρ) = ∆−τ.
  const ClockValue wait_until =
      api_->logical() + params_.beta() * (p.tmsg + p.tau);
  const std::uint64_t gen = p.gen;
  api_->schedule_at_logical(
      wait_until, [this, from, gen, msg] { follower_check(from, gen, msg); });
}

void AoptNode::follower_check(NodeId peer, std::uint64_t gen, InsertEdgeMsg msg) {
  Peer* found = find_peer(peer);
  if (found == nullptr) return;
  Peer& p = *found;
  if (!p.present || p.gen != gen) return;  // line 13 presence window violated
  // Line 13 also requires the presence window to span (1+ρ)(1+µ)(T+τ) of
  // logical time before now.
  const ClockValue fuzz = 1e-9 * (std::fabs(api_->logical()) + 1.0);
  if (api_->logical() - p.discovered_logical <
      params_.beta() * (p.tmsg + p.tau) - fuzz) {
    return;
  }
  compute_insertion_times(p, msg.l_ins, msg.gtilde);
}

void AoptNode::compute_insertion_times(Peer& p, ClockValue l_ins, double gtilde) {
  hot_dirty_ = true;  // t0 / insertion duration feed the cached level state
  p.gtilde = gtilde;
  switch (params_.insertion) {
    case InsertionPolicy::kStagedStatic:
      p.insertion_duration = params_.insertion_duration_static(gtilde);
      break;
    case InsertionPolicy::kStagedDynamic:
      p.insertion_duration =
          params_.insertion_duration_dynamic(gtilde, p.tmsg, p.tau);
      break;
    case InsertionPolicy::kWeightDecay:
      p.insertion_duration = params_.insertion_duration_static(gtilde);
      p.kappa_init = 2.0 * gtilde + p.kappa;
      break;
    case InsertionPolicy::kImmediate:
      require(false, "compute_insertion_times unreachable for kImmediate");
  }
  // Listing 2 line 3: T₀ = min { T >= L_ins : T / I in Z }.
  p.t0 = std::ceil(l_ins / p.insertion_duration) * p.insertion_duration;

  // Exact re-evaluation points at the first few level insertions and at full
  // insertion (later T_s are closer together than a tick anyway).
  for (int s = 1; s <= 8; ++s) {
    const double ts = p.t0 + (1.0 - std::exp2(1.0 - static_cast<double>(s))) *
                                 p.insertion_duration;
    api_->schedule_at_logical(ts, [] {});
  }
  api_->schedule_at_logical(p.t0 + p.insertion_duration, [] {});
}

void AoptNode::on_edge_lost(NodeId peer) {
  Peer* found = find_peer(peer);
  if (found == nullptr) return;
  hot_dirty_ = true;
  Peer& p = *found;
  // Listing 1 lines 15-18: leave all neighbor sets, T_s := ⊥.
  p.present = false;
  ++p.gen;
  p.t0 = kTimeInf;
  p.insertion_duration = 0.0;
}

AoptNode::LevelState AoptNode::level_state(const Peer& p,
                                           ClockValue own_logical) const {
  // The limit is piecewise constant in own-logical time; `next` is the exact
  // boundary of the current piece, so a caller that re-queries only when
  // own_logical crosses it sees bit-identical limits to recomputing always.
  if (p.t0 == kTimeInf) return {0, kTimeInf};  // changes only via structure
  if (own_logical < p.t0) return {0, p.t0};
  if (params_.insertion == InsertionPolicy::kWeightDecay ||
      params_.insertion == InsertionPolicy::kImmediate) {
    return {kAllLevels, kTimeInf};  // all levels at once (κ may still decay)
  }
  if (p.insertion_duration <= 0.0 ||
      own_logical >= p.t0 + p.insertion_duration) {
    return {kAllLevels, kTimeInf};
  }
  // Largest s >= 1 with T_s = T0 + (1 − 2^{1−s})·I <= L. The loop evaluates
  // the same float expression used elsewhere, so membership is consistent.
  int s = 1;
  double next = p.t0 + p.insertion_duration;  // full insertion flips the limit
  while (s < params_.level_cap) {
    const double ts_next =
        p.t0 + (1.0 - std::exp2(-static_cast<double>(s))) * p.insertion_duration;
    if (own_logical < ts_next) {
      next = ts_next;
      break;
    }
    ++s;
  }
  return {s, next};
}

double AoptNode::current_kappa(const Peer& p, ClockValue own_logical) const {
  if (params_.insertion != InsertionPolicy::kWeightDecay ||
      p.t0 == kTimeInf || p.kappa_init <= p.kappa || p.insertion_duration <= 0.0) {
    return p.kappa;
  }
  if (own_logical <= p.t0) return p.kappa_init;
  if (own_logical >= p.t0 + p.insertion_duration) return p.kappa;
  // Exponential decay from κ_init at T0 to κ_e at T0 + I.
  const double frac = (own_logical - p.t0) / p.insertion_duration;
  return std::max(p.kappa, p.kappa_init * std::pow(p.kappa / p.kappa_init, frac));
}

bool AoptNode::edge_in_level(NodeId peer, int s) const {
  const Peer* p = find_peer(peer);
  if (p == nullptr) return false;
  return level_limit(*p, api_->logical()) >= s;
}

double AoptNode::edge_kappa(NodeId peer) const {
  const Peer* p = find_peer(peer);
  if (p == nullptr) return 0.0;
  return current_kappa(*p, api_->logical());
}

std::optional<AoptNode::PeerInfo> AoptNode::peer_info(NodeId peer) const {
  const Peer* found = find_peer(peer);
  if (found == nullptr) return std::nullopt;
  const Peer& p = *found;
  PeerInfo info;
  info.present = p.present;
  info.t0 = p.t0;
  info.insertion_duration = p.insertion_duration;
  info.gtilde = p.gtilde;
  info.kappa = p.kappa;
  info.delta = p.delta;
  return info;
}

void AoptNode::report_trigger_conflict() {
  saw_conflict_ = true;  // impossible per Lemma 5.3 when eq. (9) holds
  GCS_ERROR << "node " << api_->id() << ": fast and slow triggers both hold";
}

void AoptNode::rebuild_hot(ClockValue own) {
  const SnapshotEstimateSource* const snapshots = api_->snapshot_source();
  hot_.clear();
  level_peers_.clear();
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    const Peer& p = peers_[i];
    if (!p.present) continue;
    const LevelState ls = level_state(p, own);
    HotPeer h;
    h.id = p.id;
    h.peer_index = static_cast<int>(i);
    h.level_next = ls.next;
    if (snapshots != nullptr) h.has_entry = snapshots->snapshot(api_->id(), p.id, h.entry);
    LevelPeer lp;
    lp.level_limit = ls.limit;
    lp.kappa = p.kappa;  // weight decay refreshes this per scan
    lp.delta = p.delta;
    lp.eps = p.eps;
    lp.tau = p.tau;
    hot_.push_back(h);
    level_peers_.push_back(lp);
  }
  hot_dirty_ = false;
}

void AoptNode::on_estimate_dirty(NodeId peer) {
  // Oracle estimates are read afresh by every scan, and the pending rebuild
  // of a dirty mirror fetches every snapshot itself.
  const SnapshotEstimateSource* const snapshots = api_->snapshot_source();
  if (snapshots == nullptr || hot_dirty_) return;
  const auto it = std::lower_bound(
      hot_.begin(), hot_.end(), peer,
      [](const HotPeer& h, NodeId id) { return h.id < id; });
  if (it == hot_.end() || it->id != peer) return;
  // The engine calls this after the estimate layer consumed a beacon or a
  // time response, and an entry changes only on such a receipt (which lands
  // here) or an edge loss (which sets hot_dirty_), so the cached snapshot
  // stays current.
  HotPeer& h = *it;
  h.has_entry = snapshots->snapshot(api_->id(), peer, h.entry);
  const auto i = static_cast<std::size_t>(it - hot_.begin());
  if (h.has_entry && level_peers_[i].level_limit >= 1) {
    bound_.widen(h.entry.base, h.entry.recv_hw);
  }
}

bool AoptNode::bound_settles(ClockValue own) const {
  // The bound covers exactly the level-(>=1) peers of the last scan, so it
  // applies only while that set and its aggregates are current: no
  // membership change, no level threshold crossed, no clock regression, and
  // κ constant (weight decay changes it every scan).
  if (api_->snapshot_source() == nullptr || hot_dirty_ || own < last_own_ ||
      own >= level_next_min_ || params_.insertion == InsertionPolicy::kWeightDecay) {
    return false;
  }
  const ClockValue own_hw = api_->hardware();
  const double bound = bound_.bound(own_hw, own);
  if (!triggers_quick_reject(agg_, bound)) return false;
#ifndef NDEBUG
  // Shadow check: the exact max_abs the scan would compute, from the
  // cached snapshots (a pure read), must be rejected too.
  double exact = 0.0;
  for (std::size_t i = 0; i < hot_.size(); ++i) {
    const HotPeer& h = hot_[i];
    if (level_peers_[i].level_limit < 1 || !h.has_entry) continue;
    const double est = h.entry.base + (own_hw - h.entry.recv_hw);
    exact = std::max(exact, std::fabs(est - own));
  }
  require(exact <= bound && triggers_quick_reject(agg_, exact),
          "AoptNode: certified snapshot bound below the exact discrepancy");
#endif
  return true;
}

void AoptNode::scan_triggers(ClockValue own) {
  // Incremental scan (see the HotPeer comment in the header): membership and
  // per-edge constants come from the cached mirror; levels refresh only at
  // their precomputed thresholds; estimates are evaluated fresh — they move
  // with the clocks — through the inline read path of the source's shape,
  // which returns exactly what its estimate() would. `own < last_own_` catches
  // logical-clock regression (fault injection), where the piecewise-constant
  // level caching assumption breaks.
  bool agg_stale = false;
  if (hot_dirty_ || own < last_own_) {
    rebuild_hot(own);
    agg_stale = true;
  }
  last_own_ = own;

  const OracleEstimateSource* const oracle = api_->oracle_source();
  const bool decay = params_.insertion == InsertionPolicy::kWeightDecay;
  const Time now = api_->now();
  const ClockValue own_hw = oracle == nullptr ? api_->hardware() : 0.0;
  const std::size_t count = hot_.size();
  double max_abs = 0.0;
  double next_min = kTimeInf;
  SnapshotBound bound;
  for (std::size_t i = 0; i < count; ++i) {
    HotPeer& h = hot_[i];
    LevelPeer& lp = level_peers_[i];
    if (own >= h.level_next) {
      const LevelState ls = level_state(peers_[static_cast<std::size_t>(h.peer_index)], own);
      agg_stale |= (lp.level_limit < 1) != (ls.limit < 1);
      lp.level_limit = ls.limit;
      h.level_next = ls.next;
    }
    next_min = h.level_next < next_min ? h.level_next : next_min;
    if (lp.level_limit < 1) {
      // Discovery-set-only edges play no trigger role; their estimate is
      // not read.
      lp.has_estimate = false;
      continue;
    }
    if (decay) {
      lp.kappa = current_kappa(peers_[static_cast<std::size_t>(h.peer_index)], own);
    }
    bool have;
    double est = 0.0;
    if (oracle != nullptr) {
      est = oracle->perturb(api_->id(), h.id, now, api_->peer_true_logical(h.id), own,
                            lp.eps);
      have = true;
    } else {
      have = h.has_entry;
      if (have) {
        est = h.entry.base + (own_hw - h.entry.recv_hw);
        bound.widen(h.entry.base, h.entry.recv_hw);
      }
    }
    lp.has_estimate = have;
    lp.est_minus_own = have ? est - own : 0.0;
    if (have) {
      const double abs_d = std::fabs(lp.est_minus_own);
      max_abs = abs_d > max_abs ? abs_d : max_abs;
    }
  }
  level_next_min_ = next_min;
  bound_ = bound;
  if (agg_stale || decay) {
    agg_ = compute_trigger_aggregates(level_peers_.data(), count);
  }

  last_decision_ = evaluate_triggers(level_peers_.data(), count, agg_, max_abs,
                                     params_.mu, params_.rho, params_.level_cap);
  if (last_decision_.fast) ++at_level(decisions_, last_decision_.fast_level).fast;
  if (last_decision_.slow) ++at_level(decisions_, last_decision_.slow_level).slow;
  if (last_decision_.fast && last_decision_.slow) [[unlikely]] {
    report_trigger_conflict();
  }
}

void AoptNode::reevaluate() {
  const ClockValue own = api_->logical();
  if (bound_settles(own)) {
    last_own_ = own;
    last_decision_ = TriggerDecision{};
    ++bound_settled_;
  } else {
    scan_triggers(own);
  }

  // Listing 3.
  const double fast_mult = 1.0 + params_.mu;
  double target = api_->rate_multiplier();
  if (last_decision_.slow) {
    target = 1.0;
  } else if (last_decision_.fast) {
    target = fast_mult;
  } else if (api_->max_locked()) {
    target = 1.0;  // slow max-estimate trigger (L_u = M_u)
  } else if (own <= api_->max_estimate() - params_.iota) {
    target = fast_mult;  // fast max-estimate trigger
  }
  // Otherwise: neither trigger applies — keep the current mode (the paper
  // allows a nondeterministic choice here).
  if (target != api_->rate_multiplier()) {
    ++mode_switches_;
    api_->set_rate_multiplier(target);
  }
}

void register_aopt_algorithm(Registry<AlgoFactory>& r) {
  r.add(Registry<AlgoFactory>::Entry{
      "aopt",
      "the paper's gradient algorithm (AOPT, §4) — parameters via AlgoParams",
      {},
      [](const ParamMap&, const AlgoArgs& a) -> Engine::AlgorithmFactory {
        const AlgoParams params = a.params;
        return [params](NodeId) -> std::unique_ptr<Algorithm> {
          return std::make_unique<AoptNode>(params);
        };
      }});
}

}  // namespace gcs
