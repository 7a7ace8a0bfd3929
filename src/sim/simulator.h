// Deterministic discrete-event simulation kernel.
//
// Events fire in non-decreasing time order; equal-time events fire in
// scheduling (FIFO) order, which makes every execution reproducible.
//
// ## Timer structure: hierarchical timing wheel in front of a 4-ary heap
//
// Pending events live in one of four tiers:
//
//   near   the near horizon: every event whose fine epoch (floor(time / W),
//          W = 1/32 time units) is <= the wheel's current epoch. Split into
//          two structures ordered by the packed (time, seq) key:
//            run     the promoted bucket, ordered once at promotion and then
//                    consumed front-to-back (O(1) pops, sequential memory);
//            overlay a generation-tagged, index-tracked 4-ary min-heap for
//                    events that land in the near horizon *after* the
//                    promotion (zero-delay self-schedules and the like).
//          The next event is whichever of run-front/overlay-root fires
//          first — one key comparison.
//   L1     the remainder of the current coarse block: 64 fine buckets, one
//          per epoch (aligned, so a bucket never mixes epochs).
//   L2     the next 64 coarse blocks (64 fine epochs each): one bucket per
//          block; entries are redistributed into L1 when their block starts.
//   far    everything beyond the L2 window (more than 64*64 fine epochs
//          ahead), an unsorted list rescanned when the L2 window slides.
//
// Bucket insertion and removal are O(1) (append / swap-remove); ordering
// cost is paid once per bucket at promotion, and far-future timers (mlock
// catch-ups, drift changes, periodic heartbeats) stop inflating every
// comparison on the hot pop path. Promotion is a calendar-queue pass rather
// than a comparison sort: the bucket's n entries are counted and scattered
// over S = bit_ceil(n) equal sub-epochs, and only entries sharing a
// sub-epoch are compared. Spread-out times cost O(n); an equal-time cluster
// shares one sub-epoch and costs one O(k log k) sort of its k entries.
//
// ### Invariants the implementation relies on
//
//  * Wheel -> near promotion preserves order exactly: epoch assignment
//    floor(time / W) is monotone in time, so every event in a bucket fires
//    strictly after every event currently in the near horizon; the packed
//    (time_bits, seq) key is a total order (seq is unique), so the sorted
//    run realizes global FIFO order no matter in which order the bucket was
//    filled. The sub-epoch index is monotone in time too, so distributing
//    by sub-epoch and sorting within each yields the same run a sort of the
//    whole bucket would. Promotion happens lazily, only when the near
//    horizon runs empty (`prepare_next`), and never moves `now`.
//  * Every pending event occupies a stable slot (reused through a free list,
//    guarded against stale handles by a generation counter). The slot's
//    8-byte metadata packs (tier, bucket, position) into one word whose
//    overlay-heap encoding is the plain heap position, so heap sifts touch
//    exactly the same bytes a heap-only kernel would.
//  * Cancel and reschedule work in any tier: O(1) in a wheel bucket,
//    O(log n) in the overlay heap, O(run length) in the sorted run (erase
//    keeps it sorted; runs are one bucket long and such cancels are rare —
//    recurring far-future timers live in the wheel, not the run).
//    A reschedule re-sequences the event (fresh seq number) exactly as if
//    it had been cancelled and scheduled anew, wherever the new time lands.
//  * Times are non-negative and compared as raw IEEE-754 bit patterns (see
//    HeapEntry); epochs saturate for astronomically far times. Such events
//    wait in the far list until nothing earlier is pending; then the wheel
//    jumps to the saturated epoch, and from there on every event goes
//    through the overlay heap (correct, just without the wheel's savings).
//
// ## SoA slot storage
//
// A slot's data is split structure-of-arrays so the schedule/fire round trip
// moves the minimum number of bytes per event:
//
//   meta_   8 B   (tier location, generation) — the only bytes heap sifts
//                 and wheel migrations write
//   recs_  32 B   the hot record (SimEvent: kind, dispatch channel, node,
//                 sender, send time, payload ref) — half the old 64-byte
//                 record and aligned, so schedule-in/fire-out touches ONE
//                 line per event and compiles to straight 16-byte block
//                 copies (field-wise repacking measurably loses to this)
//   closures_     out-of-line std::function, kClosure slots only
//
// The ordering key (16-byte HeapEntry) is what migrates between timer tiers;
// slot data never moves after schedule time. Payload bytes never reach the
// kernel: a delivery carries an opaque arena reference (see net/arena.h).
//
// ## Fire path: batch drain + devirtualized dispatch
//
// run_until consumes the sorted run in one tight loop: while the run front
// is the next event, it releases the slot and dispatches without re-entering
// wheel bookkeeping (prepare_next/advance_wheel run only when the near tier
// empties). This cannot reorder events: anything scheduled DURING the drain
// lands in the overlay heap (never in the run — insert_entry only ever
// appends to the heap or a wheel bucket), and the drain compares the run
// front against the overlay root before every pop, so a later-scheduled but
// earlier-firing event still preempts the run. Typed events dispatch through
// a registered channel: a plain function pointer whose body makes a direct
// call into the owner (Engine/Transport) — no vtable load. The steady-state
// schedule/fire/cancel cycle performs no allocation.
//
// ## Instant boundaries
//
// Equal-time events form an *instant group*. Owners that defer work until
// every effect of the current instant has applied (the engine's
// instant-coalesced trigger evaluation) register an instant-flush hook and
// arm it with request_instant_flush(). The kernel guarantees:
//
//  * armed hooks run BEFORE any event with a strictly greater timestamp
//    fires, before the queue is declared empty, and before run_until idles
//    past its horizon — i.e. while now() still equals the instant's time;
//  * FIFO (time, seq) order *within* the instant group is untouched — the
//    flush inserts nothing between same-time events, it only runs after the
//    last of them;
//  * a flush hook may schedule new events, including at the current instant;
//    those fire (in FIFO order among themselves) and the hooks run again
//    before time advances — the instant closes only when no armed hook and
//    no same-time event remains.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event.h"
#include "util/common.h"

namespace gcs {

/// Opaque handle to a scheduled event; valid until it fires or is cancelled.
/// Packs (slot index, slot generation); never 0 for a live event.
struct EventId {
  std::uint64_t value = 0;
  [[nodiscard]] bool valid() const { return value != 0; }
  friend bool operator==(const EventId&, const EventId&) = default;
};

class Simulator {
 public:
  using Callback = std::function<void()>;
  /// A registered dispatch channel's fire hook. Implementations are expected
  /// to be one direct (devirtualized) call into the registering object.
  using DispatchFn = void (*)(void* self, const SimEvent& ev);
  /// An instant-flush hook (see the header comment, "Instant boundaries").
  using FlushFn = void (*)(void* self);

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Register a typed-event dispatcher for channel dispatch (see event.h).
  /// The returned id is stamped into SimEvent::channel by the owner; `fn`
  /// must outlive every event scheduled with it. At most 255 channels.
  std::uint8_t register_dispatch_channel(void* self, DispatchFn fn);

  /// Register an instant-flush hook. Hooks run — in registration order —
  /// whenever request_instant_flush() has been called since the last flush
  /// and the kernel is about to advance past the current instant (see the
  /// header comment). `fn` must outlive the simulator's use of it.
  void register_instant_flush(void* self, FlushFn fn);

  /// Arm the registered flush hooks for the current instant. Cheap and
  /// idempotent; typically called by an owner the moment it first defers
  /// work during an event handler.
  void request_instant_flush() { flush_armed_ = true; }

  /// Current simulated time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `fn` at absolute time `at` (>= now, tolerating tiny negative
  /// drift from floating-point arithmetic, which is clamped to now).
  EventId schedule_at(Time at, Callback fn);

  /// Schedule `fn` after a non-negative delay.
  EventId schedule_after(Duration delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedule a typed event record (no allocation; one aligned 32-byte copy
  /// into the kernel's slot storage). Same time rules. The event's channel
  /// must be a registered dispatch channel (unchecked on this hot path).
  EventId schedule_event_at(Time at, const SimEvent& ev);
  EventId schedule_event_after(Duration delay, const SimEvent& ev) {
    return schedule_event_at(now_ + delay, ev);
  }

  /// Cancel a pending event. Returns false if already fired/cancelled.
  bool cancel(EventId id);

  /// Move a pending event to a new time, keeping its payload and handle.
  /// The event is re-sequenced as if freshly scheduled (FIFO among equal
  /// times). Returns false if the event already fired/was cancelled.
  bool reschedule(EventId id, Time at);

  /// True if the event is still pending.
  [[nodiscard]] bool pending(EventId id) const { return resolve(id) != kNoSlot; }

  /// Fire the next event; returns false if the queue is empty.
  bool step();

  /// Run events until the queue is empty or `t` is passed.
  /// Afterwards now() == max(now, t) (time advances to t even if idle).
  void run_until(Time t);

  /// Run events with time strictly BELOW `t` — the island runner's window
  /// primitive (src/runner/island_runner): shards drain [now, t) between
  /// barriers, so an event injected by a peer shard AT time t still fires in
  /// order. Unlike run_until, now() is NOT idle-advanced to t (an injected
  /// event may land anywhere in [now, t)); any instant left open at the
  /// horizon is flushed before returning, exactly as run_until would.
  void run_before(Time t);

  /// Run until the queue is empty.
  void run();

  [[nodiscard]] std::size_t pending_count() const {
    return heap_.size() + (run_.size() - run_head_) + wheel_count_;
  }
  [[nodiscard]] std::uint64_t fired_count() const { return fired_; }

 private:
  // Slot index width inside a heap key: up to ~1M concurrently pending
  // events; the remaining 44 bits of sequence number allow ~1.7e13 schedules
  // per Simulator lifetime (both bounds checked).
  static constexpr int kSlotBits = 20;
  static constexpr std::uint64_t kSlotMask = (1ULL << kSlotBits) - 1;

  // Wheel geometry: 64 fine buckets per coarse block, 64 coarse buckets.
  static constexpr int kL1Bits = 6;
  static constexpr std::uint64_t kL1Count = 1ULL << kL1Bits;
  static constexpr std::uint64_t kL1Mask = kL1Count - 1;
  static constexpr std::uint64_t kL2Count = 64;
  /// 1 / W for the fine-epoch width W = 1/32 time units, which suits the
  /// engine's sub-second cadences. A power of two, so `t * kInvBucketWidth`
  /// and the sub-epoch arithmetic in promote_bucket are exact.
  static constexpr double kInvBucketWidth = 32.0;
  /// Epochs saturate here: every time at or beyond 4.5e15 * W (see
  /// epoch_of) shares this epoch, which degrades to the overlay heap.
  static constexpr std::uint64_t kEpochSat = 1ULL << 62;

  // Slot location tiers, packed into SlotMeta::loc (see below). The near
  // tier (0) has two sub-containers distinguished by the bucket field:
  // bucket 0 = overlay heap (loc is then the raw heap position, which keeps
  // sift writes single-store), bucket 1 = sorted run.
  static constexpr std::uint32_t kTierNear = 0;
  static constexpr std::uint32_t kTierL1 = 1;
  static constexpr std::uint32_t kTierL2 = 2;
  static constexpr std::uint32_t kTierFar = 3;
  static constexpr std::uint32_t kRunBucket = 1;

  /// 16 bytes: fire time plus (seq << kSlotBits | slot). The sequence is
  /// strictly increasing per schedule, so comparing keys realizes the FIFO
  /// tie-break among equal times and the slot bits never influence order.
  /// The time is stored as its raw bits — event times are always >= +0.0
  /// (clamp_time enforces this, normalizing -0.0), and non-negative doubles
  /// order identically to their bit patterns — so (time, seq) comparisons
  /// compile to a single 128-bit unsigned compare instead of two
  /// hard-to-predict branches (heap sifts are mispredict-bound).
  struct HeapEntry {
    std::uint64_t time_bits;
    std::uint64_t key;
    [[nodiscard]] Time time() const { return std::bit_cast<Time>(time_bits); }
    [[nodiscard]] std::uint32_t slot() const {
      return static_cast<std::uint32_t>(key & kSlotMask);
    }
  };
  /// Compact per-slot bookkeeping, separate from the event payload arrays so
  /// heap sifts touch only this 8-byte array. `loc` packs
  /// (tier << 30 | bucket << 24 | position); the heap tier is 0, so for heap
  /// entries `loc` IS the heap position and sifts write it directly.
  struct SlotMeta {
    std::uint32_t loc = 0;
    std::uint32_t gen = 1;  ///< bumped on release; 0 is never a live gen
  };
  struct Channel {
    void* self = nullptr;
    DispatchFn fn = nullptr;
  };
  struct FlushHook {
    void* self = nullptr;
    FlushFn fn = nullptr;
  };
  static constexpr std::uint32_t kPosMask = (1U << 24) - 1;
  static constexpr std::uint32_t pack_loc(std::uint32_t tier, std::uint32_t bucket,
                                          std::uint32_t pos) {
    return (tier << 30) | (bucket << 24) | pos;
  }

#ifdef __SIZEOF_INT128__
  static unsigned __int128 order_key(const HeapEntry& e) {
    return (static_cast<unsigned __int128>(e.time_bits) << 64) | e.key;
  }
  static bool fires_before(const HeapEntry& a, const HeapEntry& b) {
    return order_key(a) < order_key(b);
  }
#else
  static bool fires_before(const HeapEntry& a, const HeapEntry& b) {
    if (a.time_bits != b.time_bits) return a.time_bits < b.time_bits;
    return a.key < b.key;
  }
#endif
  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return EventId{(static_cast<std::uint64_t>(gen) << 32) | slot};
  }

  /// Slot index for a live handle, or kNoSlot if stale/invalid.
  static constexpr std::uint32_t kNoSlot = ~0U;
  [[nodiscard]] std::uint32_t resolve(EventId id) const;

  [[nodiscard]] Time clamp_time(Time at) const;
  /// Fine epoch of a time (saturating; monotone in `at`).
  [[nodiscard]] std::uint64_t epoch_of(Time at) const {
    const double scaled = at * kInvBucketWidth;
    return scaled >= 4.5e15 ? kEpochSat : static_cast<std::uint64_t>(scaled);
  }
  /// Index of the smallest child of `pos` in a heap of size n (pos must
  /// have at least one child). Shared by sift_down and pop_root so the
  /// selection logic cannot diverge.
  [[nodiscard]] std::size_t min_child(std::size_t pos, std::size_t n) const;
  std::uint32_t acquire_slot();
  /// `kind` is passed in because every caller already holds the tag word.
  void release_slot(std::uint32_t slot, EventKind kind);
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void restore_heap(std::size_t pos);
  void remove_heap_entry(std::size_t pos);
  void pop_root();

  // ---- wheel machinery (see the class comment for the tier invariants)
  /// The container a wheel tier lives in (kTierL1/kTierL2/kTierFar only).
  [[nodiscard]] std::vector<HeapEntry>& tier_vec(std::uint32_t tier,
                                                 std::uint32_t bucket);
  void push_heap_entry(const HeapEntry& e);
  /// Route a new/moved entry to its tier based on epoch vs. cur_epoch_.
  void insert_entry(const HeapEntry& e);
  void bucket_push(std::uint32_t tier, std::uint32_t bucket, const HeapEntry& e);
  /// Swap-remove from a bucket/far list, fixing the displaced slot's meta.
  void bucket_remove(std::uint32_t tier, std::uint32_t bucket, std::uint32_t pos);
  /// Detach a live entry from whatever tier holds it, returning it.
  HeapEntry detach_entry(std::uint32_t slot);
  /// Ensure some near-tier event exists (run front or overlay root),
  /// promoting wheel buckets as needed. False iff nothing is pending.
  bool prepare_next();
  /// True if the next event to fire is the run front (else: overlay root).
  /// Pre: prepare_next() returned true.
  [[nodiscard]] bool next_is_run() const {
    return run_head_ < run_.size() &&
           (heap_.empty() || fires_before(run_[run_head_], heap_[0]));
  }
  /// Fire one event already detached from its container.
  void fire_entry(const HeapEntry& top);
  /// The one drain loop behind run_until (kBefore = false: fire events at
  /// <= t, then idle now_ up to t) and run_before (kBefore = true: fire
  /// events strictly below t, leave now_ where the last event put it).
  template <bool kBefore>
  void drain(Time t);
  /// Run the armed instant-flush hooks until none re-arms. Pre: flush_armed_.
  void flush_instant();
  /// Advance cur_epoch_ to the next epoch holding events and promote its
  /// bucket as the new sorted run. Pre: near tier empty, wheel_count_ > 0.
  void advance_wheel();
  /// Adopt L1 bucket `b` (fine epoch cur_epoch_) as the new run, sorted by
  /// the packed (time, seq) key in linear expected time; `b` is left empty.
  /// Pre: the run is fully consumed.
  void promote_bucket(std::vector<HeapEntry>& b);
  /// Move every entry of the L2 bucket for coarse block `block` into L1.
  void drain_l2_block(std::uint64_t block);
  /// Pull far-list entries that now fit the L2/L1 windows (or the heap).
  void drain_far();

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t fired_ = 0;
  std::uint64_t cur_epoch_ = 0;      ///< near tier covers fine epochs <= this
  std::size_t wheel_count_ = 0;      ///< entries in l1_ + l2_ + far_
  std::uint64_t far_min_coarse_ = kEpochSat;  ///< conservative lower bound
  std::vector<HeapEntry> run_;       ///< promoted bucket, sorted ascending
  std::size_t run_head_ = 0;         ///< first unconsumed run entry
  // promote_bucket scratch, reused across promotions (grown lazily, so the
  // steady state allocates nothing): the distributed entries, which are
  // then swapped into run_, and each sub-epoch's end offset.
  std::vector<HeapEntry> promo_;
  std::vector<std::uint32_t> sub_end_;
  std::vector<HeapEntry> heap_;      ///< overlay 4-ary min-heap by (time, key)
  std::vector<HeapEntry> l1_[kL1Count];
  std::vector<HeapEntry> l2_[kL2Count];
  std::vector<HeapEntry> far_;
  std::vector<SlotMeta> meta_;       ///< parallel to recs_/closures_
  std::vector<SimEvent> recs_;       ///< hot 32-byte event records by slot
  std::vector<Callback> closures_;   ///< kClosure callbacks, same slot index
  std::vector<std::uint32_t> free_slots_;
  std::vector<Channel> channels_;    ///< registered typed-event dispatchers
  std::vector<FlushHook> flush_hooks_;  ///< instant-flush hooks, registration order
  bool flush_armed_ = false;         ///< a hook deferred work this instant
};

}  // namespace gcs
