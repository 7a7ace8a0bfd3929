// AOPT — the paper's optimal dynamic gradient clock synchronization
// algorithm (§4): neighbor-set hierarchy with staged edge insertion
// (Listings 1 and 2), fast/slow mode triggers (Defs. 4.5/4.6), and the
// max-estimate fallback (Def. 4.7 / Listing 3).
//
// Besides the paper's insertion strategy (static eq. 10 and dynamic
// Lemma 7.1 durations), the class implements two ablation policies used by
// the experiments in §5.5: immediate insertion and weight-decay insertion.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/params.h"
#include "core/triggers.h"

namespace gcs {

class AoptNode final : public Algorithm {
 public:
  explicit AoptNode(AlgoParams params) : params_(params) {}

  [[nodiscard]] const char* name() const override { return "AOPT"; }

  void on_edge_discovered(NodeId peer) override;
  void on_edge_lost(NodeId peer) override;
  void on_insert_edge_msg(NodeId from, const InsertEdgeMsg& msg) override;
  void on_estimate_dirty(NodeId peer) override;
  void reevaluate() override;

  [[nodiscard]] bool edge_in_level(NodeId peer, int s) const override;
  [[nodiscard]] double edge_kappa(NodeId peer) const override;

  // ------------------------------------------------------- introspection

  struct PeerInfo {
    bool present = false;
    double t0 = kTimeInf;  ///< T₀ (logical); kTimeInf while not agreed
    double insertion_duration = 0.0;  ///< I_e
    double gtilde = 0.0;              ///< G̃ used for this insertion
    double kappa = 0.0;
    double delta = 0.0;
    /// Level-s insertion time T_s = T₀ + (1 − 2^{1−s})·I (s >= 1).
    [[nodiscard]] double insertion_time(int s) const;
    /// Logical time by which the edge is inserted on all levels.
    [[nodiscard]] double fully_inserted_at() const { return t0 + insertion_duration; }
  };
  [[nodiscard]] std::optional<PeerInfo> peer_info(NodeId peer) const;

  [[nodiscard]] long long mode_switches() const { return mode_switches_; }
  /// Gradient-trigger decisions at one witness level.
  struct LevelDecisions {
    long long fast = 0;
    long long slow = 0;
  };
  /// Element s counts the re-evaluations whose fast (slow) trigger fired
  /// with witness level s; element 0 stays zero and the last element also
  /// counts every level above it. Empty until the first decision. Pure
  /// counters: they never feed the run.
  [[nodiscard]] const std::vector<LevelDecisions>& decisions_by_level() const {
    return decisions_;
  }
  /// Re-evaluations the certified snapshot bound settled without a scan.
  [[nodiscard]] long long bound_settled() const { return bound_settled_; }
  [[nodiscard]] bool last_fast_trigger() const { return last_decision_.fast; }
  [[nodiscard]] bool last_slow_trigger() const { return last_decision_.slow; }

  /// True iff a Lemma 5.3 violation (both triggers at once) was ever seen.
  [[nodiscard]] bool saw_trigger_conflict() const { return saw_conflict_; }

 private:
  struct Peer {
    // Hot fields first: reevaluate walks these on every event.
    NodeId id = kNoNode;
    bool present = false;
    // Derived per-edge constants (κ_e, δ_e, ε_e, τ_e).
    double kappa = 0.0;
    double delta = 0.0;
    double eps = 0.0;
    double tau = 0.0;
    // Insertion agreement (Listing 2). T0 == kTimeInf means "⊥".
    double t0 = kTimeInf;
    double insertion_duration = 0.0;
    // ---- cold: handshake bookkeeping ----
    std::uint64_t gen = 0;  ///< bumped on every discovery/loss; guards callbacks
    Time discovered_at = 0.0;
    ClockValue discovered_logical = 0.0;
    double tmsg = 0.0;        ///< T_e (msg_delay_max)
    double gtilde = 0.0;
    double kappa_init = 0.0;  ///< weight-decay start value
  };

  /// Incremental re-evaluation state: a compact mirror of the *present*
  /// peers, parallel to a persistent LevelPeer staging array. reevaluate()
  /// runs after every event touching this node, so instead of re-deriving
  /// every input per scan, each input is refreshed only when its own
  /// invalidation condition fires:
  ///   - membership / handshake state (t0, I, per-edge constants): rebuild
  ///     on hot_dirty_, set by discovery, loss and insertion agreement;
  ///   - level_limit: recomputed only when the own logical clock crosses
  ///     level_next (the exact next T_s threshold), which reproduces the
  ///     full recomputation bit-for-bit because limits are piecewise
  ///     constant in own-logical time;
  ///   - snapshot entries (beacon or RTT): fetched by the rebuild, then
  ///     re-fetched by on_estimate_dirty (the engine's dirty-peer
  ///     notification on every receipt), which finds the peer by binary
  ///     search (hot_ is id-sorted);
  ///   - κ and the structural trigger aggregates: constant per edge except
  ///     under weight decay, which downgrades to per-scan recomputation.
  /// Estimates themselves are still *evaluated* every scan (they move
  /// continuously with the clocks), through one inline read path per
  /// estimate shape: the pure read NodeApi::peer_true_logical +
  /// OracleEstimateSource::perturb at now(), or the cached snapshot entry —
  /// exactly what the source's estimate() returns. The oracle path always
  /// scans: an O(1) bound on its discrepancies does not exist yet.
  ///
  /// Snapshot mode can skip the scan altogether. There every discrepancy is
  /// est − own = c_i + d with a per-peer constant c_i = base_i − recv_hw_i
  /// and a per-node term d = H_u − L_u, so bound_ (a SnapshotBound over the
  /// level-(>=1) peers with an entry) bounds max_abs in O(1). A full scan
  /// sets it exactly; on_estimate_dirty only widens it. When
  /// triggers_quick_reject holds at that bound it holds at the exact
  /// max_abs too, and the decision is {} (bound_settles).
  struct HotPeer {
    NodeId id = kNoNode;
    int peer_index = 0;            ///< into peers_ (stable since last rebuild)
    double level_next = kTimeInf;  ///< own-logical threshold to refresh level
    SnapshotEstimateSource::Entry entry;  ///< cached snapshot entry
    bool has_entry = false;        ///< entry exists (snapshot mode only)
  };
  /// level_limit plus the own-logical threshold at which the cached value
  /// must be recomputed (kTimeInf when only structure can change it).
  struct LevelState {
    int limit = 0;
    double next = kTimeInf;
  };

  [[nodiscard]] bool is_leader_of(NodeId peer) const { return api_->id() < peer; }
  /// The peer record for `id`, or nullptr if never seen. Peers live in a
  /// sorted flat vector: iteration order is then stdlib-independent (hot_
  /// inherits it, and on_estimate_dirty binary-searches hot_ by id), and the
  /// per-reevaluate walk touches contiguous memory.
  [[nodiscard]] const Peer* find_peer(NodeId id) const;
  [[nodiscard]] Peer* find_peer(NodeId id) {
    return const_cast<Peer*>(std::as_const(*this).find_peer(id));
  }
  Peer& peer_slot(NodeId id);  ///< find-or-insert (sorted)
  void leader_check(NodeId peer, std::uint64_t gen);
  void follower_check(NodeId peer, std::uint64_t gen, InsertEdgeMsg msg);
  void compute_insertion_times(Peer& p, ClockValue l_ins, double gtilde);
  [[nodiscard]] LevelState level_state(const Peer& p, ClockValue own_logical) const;
  /// Largest level the peer currently belongs to (0 = discovery set only).
  [[nodiscard]] int level_limit(const Peer& p, ClockValue own_logical) const {
    if (!p.present) return -1;
    return level_state(p, own_logical).limit;
  }
  [[nodiscard]] double current_kappa(const Peer& p, ClockValue own_logical) const;
  /// Rebuild hot_/level_peers_ from the present peers (membership changed).
  void rebuild_hot(ClockValue own);
  /// True when the snapshot bound proves that no trigger fires at `own`
  /// without a scan (see HotPeer); false whenever a precondition fails.
  [[nodiscard]] bool bound_settles(ClockValue own) const;
  /// The full incremental scan: refreshes every input and decides.
  void scan_triggers(ClockValue own);
  /// Lemma 5.3 violation reporting, off the reevaluate hot path (the log
  /// machinery would otherwise bloat its stack frame).
  [[gnu::cold]] [[gnu::noinline]] void report_trigger_conflict();

  AlgoParams params_;
  std::vector<Peer> peers_;  ///< sorted by id; entries persist across edge loss
  std::vector<HotPeer> hot_;         ///< present peers, scan order (= id order)
  std::vector<LevelPeer> level_peers_;  ///< parallel to hot_
  TriggerAggregates agg_;            ///< cached structural fold over level_peers_
  SnapshotBound bound_;              ///< snapshot mode: see the HotPeer comment
  double level_next_min_ = kTimeInf;  ///< min level_next over hot_ at the last scan
  bool hot_dirty_ = true;            ///< membership/handshake changed
  bool saw_conflict_ = false;
  ClockValue last_own_ = -kTimeInf;  ///< guards against logical-clock regression
  TriggerDecision last_decision_;
  long long mode_switches_ = 0;
  std::vector<LevelDecisions> decisions_;
  long long bound_settled_ = 0;
};

}  // namespace gcs
