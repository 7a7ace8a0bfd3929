#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace gcs {

std::uint8_t Simulator::register_dispatch_channel(void* self, DispatchFn fn) {
  require(self != nullptr && fn != nullptr, "Simulator: null dispatch channel");
  require(channels_.size() < kNoChannel, "Simulator: too many dispatch channels");
  channels_.push_back(Channel{self, fn});
  return static_cast<std::uint8_t>(channels_.size() - 1);
}

void Simulator::register_instant_flush(void* self, FlushFn fn) {
  require(self != nullptr && fn != nullptr, "Simulator: null flush hook");
  flush_hooks_.push_back(FlushHook{self, fn});
}

void Simulator::flush_instant() {
  // A hook may re-arm (its deferred work can schedule same-instant events
  // whose handlers defer again); loop until the instant is quiescent. Events
  // scheduled by hooks are NOT fired here — the caller's loop fires them
  // (still at now()) and re-enters this flush before advancing time.
  while (flush_armed_) {
    flush_armed_ = false;
    for (const FlushHook& h : flush_hooks_) h.fn(h.self);
  }
}

Time Simulator::clamp_time(Time at) const {
  if (std::isnan(at)) throw std::invalid_argument("Simulator: NaN event time");
  if (at < now_) {
    // Tolerate tiny negative offsets caused by float round-off in rate
    // conversions; anything larger is a logic error in the caller.
    if (now_ - at > 1e-6 * (std::fabs(now_) + 1.0)) {
      throw std::invalid_argument("Simulator: scheduling in the past");
    }
    at = now_;
  }
  // Times are non-negative (now_ starts at 0 and is monotone), which the
  // heap's bit-pattern ordering relies on; normalize -0.0 to +0.0.
  return at + 0.0;
}

std::uint32_t Simulator::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  if (meta_.size() >= kSlotMask) [[unlikely]] {
    throw std::runtime_error("Simulator: too many pending events");
  }
  meta_.emplace_back();
  recs_.emplace_back();
  closures_.emplace_back();
  return static_cast<std::uint32_t>(meta_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot, EventKind kind) {
  // Only a closure can own resources; typed slot data is plain and may go
  // stale in place (overwritten on reuse).
  if (kind == EventKind::kClosure) closures_[slot] = nullptr;
  SlotMeta& m = meta_[slot];
  if (++m.gen == 0) m.gen = 1;  // invalidate stale handles (wrap skips 0)
  free_slots_.push_back(slot);
}

std::uint32_t Simulator::resolve(EventId id) const {
  if (!id.valid()) return kNoSlot;
  const std::uint32_t slot = static_cast<std::uint32_t>(id.value);
  const std::uint32_t gen = static_cast<std::uint32_t>(id.value >> 32);
  if (slot >= meta_.size() || meta_[slot].gen != gen) return kNoSlot;
  return slot;  // a live generation always has an entry in some tier
}

void Simulator::sift_up(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!fires_before(entry, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    meta_[heap_[pos].slot()].loc = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = entry;
  meta_[entry.slot()].loc = static_cast<std::uint32_t>(pos);
}

void Simulator::sift_down(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  const std::size_t n = heap_.size();
  while (4 * pos + 1 < n) {
    const std::size_t best = min_child(pos, n);
    if (!fires_before(heap_[best], entry)) break;
    heap_[pos] = heap_[best];
    meta_[heap_[pos].slot()].loc = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = entry;
  meta_[entry.slot()].loc = static_cast<std::uint32_t>(pos);
}

std::size_t Simulator::min_child(std::size_t pos, std::size_t n) const {
  const std::size_t first = 4 * pos + 1;
  std::size_t best = first;
  const std::size_t last = first + 4 < n ? first + 4 : n;
#ifdef __SIZEOF_INT128__
  // Branchless min-of-children: sift comparisons are data-dependent and
  // mispredict ~50% of the time, so select via conditional moves.
  unsigned __int128 best_key = order_key(heap_[first]);
  for (std::size_t c = first + 1; c < last; ++c) {
    const unsigned __int128 ck = order_key(heap_[c]);
    const bool smaller = ck < best_key;
    best = smaller ? c : best;
    best_key = smaller ? ck : best_key;
  }
#else
  for (std::size_t c = first + 1; c < last; ++c) {
    if (fires_before(heap_[c], heap_[best])) best = c;
  }
#endif
  return best;
}

void Simulator::restore_heap(std::size_t pos) {
  if (pos > 0 && fires_before(heap_[pos], heap_[(pos - 1) / 4])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void Simulator::remove_heap_entry(std::size_t pos) {
  const std::size_t last = heap_.size() - 1;
  if (pos != last) {
    heap_[pos] = heap_[last];
    meta_[heap_[pos].slot()].loc = static_cast<std::uint32_t>(pos);
    heap_.pop_back();
    restore_heap(pos);
  } else {
    heap_.pop_back();
  }
}

void Simulator::push_heap_entry(const HeapEntry& e) {
  heap_.push_back(e);
  meta_[e.slot()].loc = static_cast<std::uint32_t>(heap_.size() - 1);
  sift_up(heap_.size() - 1);
}

std::vector<Simulator::HeapEntry>& Simulator::tier_vec(std::uint32_t tier,
                                                       std::uint32_t bucket) {
  return tier == kTierL1 ? l1_[bucket] : tier == kTierL2 ? l2_[bucket] : far_;
}

void Simulator::bucket_push(std::uint32_t tier, std::uint32_t bucket,
                            const HeapEntry& e) {
  std::vector<HeapEntry>& v = tier_vec(tier, bucket);
  meta_[e.slot()].loc = pack_loc(tier, bucket, static_cast<std::uint32_t>(v.size()));
  v.push_back(e);
  ++wheel_count_;
}

void Simulator::bucket_remove(std::uint32_t tier, std::uint32_t bucket,
                              std::uint32_t pos) {
  std::vector<HeapEntry>& v = tier_vec(tier, bucket);
  const std::uint32_t last = static_cast<std::uint32_t>(v.size()) - 1;
  if (pos != last) {
    v[pos] = v[last];
    meta_[v[pos].slot()].loc = pack_loc(tier, bucket, pos);
  }
  v.pop_back();
  --wheel_count_;
}

void Simulator::insert_entry(const HeapEntry& e) {
  const std::uint64_t ep = epoch_of(e.time());
  if (ep <= cur_epoch_) {
    push_heap_entry(e);
    return;
  }
  const std::uint64_t block = ep >> kL1Bits;
  const std::uint64_t cur_block = cur_epoch_ >> kL1Bits;
  if (block == cur_block) {
    bucket_push(kTierL1, static_cast<std::uint32_t>(ep & kL1Mask), e);
  } else if (block - cur_block <= kL2Count) {
    bucket_push(kTierL2, static_cast<std::uint32_t>(block & (kL2Count - 1)), e);
  } else {
    bucket_push(kTierFar, 0, e);
    far_min_coarse_ = std::min(far_min_coarse_, block);
  }
}

Simulator::HeapEntry Simulator::detach_entry(std::uint32_t slot) {
  const std::uint32_t loc = meta_[slot].loc;
  const std::uint32_t tier = loc >> 30;
  if (tier == kTierNear) {
    if (((loc >> 24) & 0x3f) == kRunBucket) {
      // Erase from the sorted run, preserving order; refresh the positions
      // of the shifted tail. Rare (see the header comment) and O(run).
      const std::uint32_t pos = loc & kPosMask;
      const HeapEntry e = run_[pos];
      run_.erase(run_.begin() + static_cast<std::ptrdiff_t>(pos));
      for (std::size_t i = pos; i < run_.size(); ++i) {
        meta_[run_[i].slot()].loc =
            pack_loc(kTierNear, kRunBucket, static_cast<std::uint32_t>(i));
      }
      return e;
    }
    const HeapEntry e = heap_[loc];
    remove_heap_entry(loc);
    return e;
  }
  const std::uint32_t bucket = (loc >> 24) & 0x3f;
  const std::uint32_t pos = loc & kPosMask;
  const HeapEntry e = tier_vec(tier, bucket)[pos];
  bucket_remove(tier, bucket, pos);
  return e;
}

void Simulator::drain_far() {
  const std::uint64_t cur_block = cur_epoch_ >> kL1Bits;
  if (far_.empty() || far_min_coarse_ > cur_block + kL2Count) return;
  std::size_t w = 0;
  std::uint64_t remaining_min = kEpochSat;
  for (std::size_t i = 0; i < far_.size(); ++i) {
    const HeapEntry e = far_[i];
    const std::uint64_t block = epoch_of(e.time()) >> kL1Bits;
    if (block <= cur_block + kL2Count) {
      --wheel_count_;  // leaving the far list; insert_entry re-counts it
      insert_entry(e);
    } else {
      far_[w] = e;
      meta_[e.slot()].loc = pack_loc(kTierFar, 0, static_cast<std::uint32_t>(w));
      ++w;
      remaining_min = std::min(remaining_min, block);
    }
  }
  far_.resize(w);
  far_min_coarse_ = remaining_min;
}

void Simulator::drain_l2_block(std::uint64_t block) {
  std::vector<HeapEntry>& v = l2_[block & (kL2Count - 1)];
  wheel_count_ -= v.size();
  for (const HeapEntry& e : v) insert_entry(e);
  v.clear();
}

void Simulator::advance_wheel() {
  // 1) The remainder of the current coarse block: promote the next
  //    non-empty fine bucket wholesale into the (empty) heap.
  const std::uint64_t block_end = (cur_epoch_ >> kL1Bits << kL1Bits) | kL1Mask;
  for (std::uint64_t e = cur_epoch_ + 1; e <= block_end; ++e) {
    std::vector<HeapEntry>& b = l1_[e & kL1Mask];
    if (b.empty()) continue;
    cur_epoch_ = e;
    wheel_count_ -= b.size();
    // The near tier is empty here, so the bucket is adopted wholesale as
    // the new run: one ordering pass, then every pop is a sequential O(1)
    // read.
    promote_bucket(b);
    for (std::size_t pos = 0; pos < run_.size(); ++pos) {
      meta_[run_[pos].slot()].loc =
          pack_loc(kTierNear, kRunBucket, static_cast<std::uint32_t>(pos));
    }
    return;
  }
  // 2) Jump to the next coarse block holding events (L2 window or far
  //    list), slide the windows, and let the next prepare_next() iteration
  //    promote within it.
  const std::uint64_t cur_block = cur_epoch_ >> kL1Bits;
  std::uint64_t target = kEpochSat;
  for (std::uint64_t i = 1; i <= kL2Count; ++i) {
    if (!l2_[(cur_block + i) & (kL2Count - 1)].empty()) {
      target = cur_block + i;
      break;
    }
  }
  if (!far_.empty()) {
    // far_min_coarse_ is a conservative (possibly stale-low) bound; take the
    // exact minimum so the jump always lands on a block with events.
    std::uint64_t fmin = kEpochSat;
    for (const HeapEntry& e : far_) {
      fmin = std::min(fmin, epoch_of(e.time()) >> kL1Bits);
    }
    far_min_coarse_ = fmin;
    target = std::min(target, fmin);
  }
  // wheel_count_ > 0 with L1 exhausted means L2 or far holds something, and
  // saturated epochs still map to a finite block (kEpochSat >> kL1Bits).
  require(target != kEpochSat, "Simulator: wheel accounting corrupted");
  cur_epoch_ = target << kL1Bits;
  // Drain the target block BEFORE the far list: far entries for block
  // target + kL2Count share the target's L2 bucket (residue collision), so
  // the bucket must be empty when they arrive.
  drain_l2_block(target);
  drain_far();
  // Entries at the block-start epoch landed in the heap directly; the rest
  // are distributed over this block's L1 buckets for step 1 to find.
}

void Simulator::promote_bucket(std::vector<HeapEntry>& b) {
  // Split the bucket's epoch into S = bit_ceil(n) equal sub-epochs. The
  // sub-epoch floor((t / W - epoch) * S) is monotone in t, so ordering the
  // entries by sub-epoch and then each sub-epoch by the packed key yields
  // exactly the order one sort of the whole bucket would.
  const std::size_t n = b.size();
  const std::size_t subs = std::bit_ceil(n);
  const double epoch = static_cast<double>(cur_epoch_);
  const double scale = static_cast<double>(subs);
  const double last_sub = static_cast<double>(subs - 1);
  const auto sub_of = [&](const HeapEntry& x) {
    // Every entry has t / W in [epoch, epoch + 1), so the value already
    // lies in [0, S); clamping it in double, before the integer cast, keeps
    // the cast defined whatever the time (an out-of-range double -> integer
    // conversion is undefined behaviour).
    return static_cast<std::size_t>(
        std::clamp((x.time() * kInvBucketWidth - epoch) * scale, 0.0, last_sub));
  };
  // Counting scatter: count, exclusive prefix sum, then place; placing
  // advances each sub-epoch's cursor from its start to its end.
  sub_end_.assign(subs, 0);
  for (const HeapEntry& x : b) ++sub_end_[sub_of(x)];
  std::uint32_t start = 0;
  for (std::uint32_t& c : sub_end_) {
    const std::uint32_t count = c;
    c = start;
    start += count;
  }
  promo_.resize(n);
  for (const HeapEntry& x : b) promo_[sub_end_[sub_of(x)]++] = x;
  const auto by_key = [](const HeapEntry& x, const HeapEntry& y) {
    return fires_before(x, y);
  };
  std::uint32_t begin = 0;
  for (const std::uint32_t end : sub_end_) {
    if (end - begin > 1) std::sort(promo_.begin() + begin, promo_.begin() + end, by_key);
    begin = end;
  }
  b.clear();
  run_.swap(promo_);
  run_head_ = 0;
}

bool Simulator::prepare_next() {
  while (run_head_ >= run_.size() && heap_.empty()) {
    if (wheel_count_ == 0) return false;
    advance_wheel();
  }
  return true;
}

EventId Simulator::schedule_event_at(Time at, const SimEvent& ev) {
  at = clamp_time(at);
  const std::uint32_t slot = acquire_slot();
  // One aligned 32-byte block copy: for node events the delivery fields are
  // dead weight, but they live in the same cache line, and the straight
  // struct copy beats any field-wise repacking.
  recs_[slot] = ev;
  const std::uint64_t seq = next_seq_++;
  if (seq >= (1ULL << (64 - kSlotBits))) [[unlikely]] {
    throw std::runtime_error("Simulator: sequence space exhausted");
  }
  insert_entry(HeapEntry{std::bit_cast<std::uint64_t>(at), (seq << kSlotBits) | slot});
  return make_id(slot, meta_[slot].gen);
}

EventId Simulator::schedule_at(Time at, Callback fn) {
  const EventId id = schedule_event_at(at, SimEvent{});
  // The slot index is the low EventId bits; park the callback beside it.
  closures_[static_cast<std::uint32_t>(id.value)] = std::move(fn);
  return id;
}

bool Simulator::cancel(EventId id) {
  const std::uint32_t slot = resolve(id);
  if (slot == kNoSlot) return false;
  (void)detach_entry(slot);
  release_slot(slot, recs_[slot].kind);
  return true;
}

bool Simulator::reschedule(EventId id, Time at) {
  const std::uint32_t slot = resolve(id);
  if (slot == kNoSlot) return false;
  at = clamp_time(at);
  const std::uint64_t seq = next_seq_++;  // re-sequence: FIFO among equal times
  if (seq >= (1ULL << (64 - kSlotBits))) [[unlikely]] {
    throw std::runtime_error("Simulator: sequence space exhausted");
  }
  const HeapEntry entry{std::bit_cast<std::uint64_t>(at), (seq << kSlotBits) | slot};
  const std::uint32_t loc = meta_[slot].loc;
  if (loc <= kPosMask && epoch_of(at) <= cur_epoch_) {
    // Overlay-heap entry staying in the near horizon (loc <= kPosMask means
    // tier 0, bucket 0): update in place, one restore instead of two sifts.
    heap_[loc] = entry;
    restore_heap(loc);
    return true;
  }
  (void)detach_entry(slot);
  insert_entry(entry);
  return true;
}

void Simulator::pop_root() {
  const std::size_t n = heap_.size() - 1;
  if (n == 0) {
    heap_.pop_back();
    return;
  }
  // Floyd's variant: walk the hole down along min-children to the bottom,
  // then drop the last element in and sift it up (it rarely moves far).
  // Unlike the remove-and-restore path this needs no per-level "done yet"
  // comparison against the displaced element.
  std::size_t pos = 0;
  while (4 * pos + 1 < n) {
    const std::size_t best = min_child(pos, n);
    heap_[pos] = heap_[best];
    meta_[heap_[pos].slot()].loc = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = heap_[n];
  meta_[heap_[pos].slot()].loc = static_cast<std::uint32_t>(pos);
  heap_.pop_back();
  sift_up(pos);
}

void Simulator::fire_entry(const HeapEntry& top) {
  const std::uint32_t slot = top.slot();
  now_ = top.time();
  ++fired_;
  // One aligned 32-byte copy out of the slot, so the handler may schedule
  // freely (growing recs_) without invalidating the record it was handed.
  const SimEvent ev = recs_[slot];
  if (ev.kind == EventKind::kClosure) {
    // Move the callback out before firing: the handler may schedule new
    // events, growing closures_ and invalidating references into it.
    const Callback fn = std::move(closures_[slot]);
    release_slot(slot, EventKind::kClosure);
    fn();
    return;
  }
#ifndef NDEBUG
  // A typed record must carry a registered channel; kNoChannel (an owner
  // that scheduled before registering) would index past channels_.
  require(ev.channel < channels_.size(),
          "Simulator: typed event fired without a registered dispatch channel");
#endif
  release_slot(slot, ev.kind);
  // Channel dispatch: one indirect call through a plain function pointer
  // whose body is a direct call into the owner class.
  const Channel ch = channels_[ev.channel];
  ch.fn(ch.self, ev);
}

bool Simulator::step() {
  for (;;) {
    if (!prepare_next()) {
      if (!flush_armed_) return false;
      flush_instant();  // may schedule new events; re-check the queue
      continue;
    }
    const bool from_run = next_is_run();
    const HeapEntry top = from_run ? run_[run_head_] : heap_[0];
    if (flush_armed_ && top.time() > now_) {
      // Close the current instant before firing into the next one. The
      // flush may schedule earlier-firing (same-instant) events, so loop.
      flush_instant();
      continue;
    }
    if (from_run) {
      ++run_head_;
    } else {
      pop_root();
    }
    fire_entry(top);
    return true;
  }
}

template <bool kBefore>
void Simulator::drain(Time t) {
  // The horizon test and the idle-advance are the only differences between
  // run_until and run_before; both are resolved at compile time, so the
  // per-event loop carries no extra branch.
  const auto beyond = [t](const HeapEntry& e) {
    if constexpr (kBefore) {
      return e.time() >= t;  // events AT t wait for after the caller's barrier
    } else {
      return e.time() > t;
    }
  };
  const auto idle_to_horizon = [this, t] {
    // run_before never idles: a peer shard may inject anywhere in [now, t).
    if constexpr (!kBefore) {
      if (now_ < t) now_ = t;
    }
  };
  while (prepare_next()) {
    // Batch-drain the sorted run: while the run front is the next event,
    // pop-and-fire in this tight loop without re-entering wheel bookkeeping.
    // Events scheduled during the drain can only land in the overlay heap
    // (insert_entry never appends to the run), and the run front is compared
    // against the overlay root before every pop, so a later-scheduled but
    // earlier-firing event still preempts the run — order is preserved.
    while (run_head_ < run_.size() &&
           (heap_.empty() || fires_before(run_[run_head_], heap_[0]))) {
      const HeapEntry top = run_[run_head_];
      if (flush_armed_ && top.time() > now_) {
        // Instant boundary inside the run: close the current instant first.
        // The flush may schedule earlier-firing overlay events, so re-check
        // both loop conditions from scratch.
        flush_instant();
        continue;
      }
      if (beyond(top)) {
        // The degenerate t <= now() call can reach here with the instant
        // still open (the boundary check above only fires for top > now).
        if (flush_armed_) {
          flush_instant();
          continue;
        }
        idle_to_horizon();  // the run front is beyond the horizon
        return;
      }
      ++run_head_;
      if (run_head_ < run_.size()) {
        // The next event's slot record is known one pop ahead — pull its
        // (randomly scattered) line in while this event runs.
        __builtin_prefetch(&recs_[run_[run_head_].slot()]);
      }
      fire_entry(top);
    }
    if (!heap_.empty()) {
      const HeapEntry top = heap_[0];
      if (flush_armed_ && top.time() > now_) {
        flush_instant();
        continue;  // the flush may have changed what fires next
      }
      if (beyond(top)) {
        if (flush_armed_) {
          flush_instant();
          continue;
        }
        idle_to_horizon();
        return;
      }
      pop_root();
      fire_entry(top);
    }
    // Near tier exhausted: loop back into prepare_next to promote the next
    // wheel bucket (or detect an empty queue).
  }
  // Queue drained with the last instant possibly still open: flush, and
  // keep firing if the flush scheduled follow-up events within the horizon.
  if (flush_armed_) {
    flush_instant();
    if (prepare_next()) {
      drain<kBefore>(t);
      return;
    }
  }
  idle_to_horizon();
}

void Simulator::run_until(Time t) { drain<false>(t); }

void Simulator::run_before(Time t) { drain<true>(t); }

void Simulator::run() {
  while (step()) {
  }
}

}  // namespace gcs
