// Generation-tagged arena for in-flight message payloads.
//
// Zero-copy delivery: every send puts one Payload in the arena and every
// delivery it schedules references it by an opaque 64-bit ref. A beacon
// fan-out puts ONE payload for the whole neighborhood with the number of
// scheduled deliveries as the initial reference count (a unicast or an
// injected delivery: one); each delivery firing (or drop) releases one
// reference, and the slot is reclaimed — its generation bumped, its index
// freelisted — when the last reference goes. The kernel round trip moves
// an 8-byte ref, never payload bytes.
//
// Ref encoding (hot-path design): the low 48 bits are the slot's ADDRESS,
// the high 16 bits its generation tag. Resolving a ref is therefore one AND
// plus a generation compare — no index arithmetic, no chunk-table walk —
// and the payload line can be prefetched from the raw ref before any
// validation (Transport::dispatch issues that prefetch first thing, so the
// payload's cache miss overlaps the graph lookup that follows). Slots live
// in fixed 64-slot chunks that are never relocated, which is what makes the
// embedded addresses (and the Payload& returned by get()) stable across
// concurrent put() calls.
//
// Lifetime rules:
//  * A ref is live from put() until its matching release(); get() on a
//    stale ref throws (the generation tag catches slot reuse; it wraps at
//    2^16 − 1, so a ref must not outlive ~65k reuses of its slot — in-flight
//    deliveries release long before that).
//  * The Payload& returned by get() is stable until the ref's last
//    release(): a delivery handler may send new messages while it still
//    reads the payload it was handed.
//  * Refs are produced by put() and are never 0; 0 is usable as a "no
//    payload" sentinel by callers. Passing anything other than a put() ref
//    (or 0) to the accessors is undefined.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/message.h"
#include "util/common.h"

namespace gcs {

class MessageArena {
 public:
  using Ref = std::uint64_t;

  /// Store `payload` with `refs` outstanding references; returns its ref.
  Ref put(Payload payload, std::uint32_t refs) {
    require(refs > 0, "MessageArena: need at least one reference");
    Slot* s;
    if (!free_.empty()) {
      s = free_.back();
      free_.pop_back();
    } else {
      if (next_in_chunk_ == kChunkSize) {
        chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
        next_in_chunk_ = 0;
      }
      s = &chunks_.back()[next_in_chunk_++];
    }
    s->payload = std::move(payload);
    s->refs = refs;
    ++live_;
    const auto addr = reinterpret_cast<std::uintptr_t>(s);
    require((addr & ~kAddrMask) == 0, "MessageArena: address exceeds 48 bits");
    return (static_cast<Ref>(s->gen) << kAddrBits) | addr;
  }

  /// The payload behind a live ref. Stable until the ref's last release().
  [[nodiscard]] const Payload& get(Ref ref) const { return slot_of(ref)->payload; }

  /// Unchecked variant of get() for refs whose liveness is structurally
  /// guaranteed (an in-flight delivery HOLDS a reference, so its slot cannot
  /// be reclaimed): one AND, no generation compare. Debug builds validate.
  [[nodiscard]] const Payload* peek(Ref ref) const {
#ifndef NDEBUG
    require(valid(ref), "MessageArena: peek of stale or invalid ref");
#endif
    return &reinterpret_cast<const Slot*>(ref & kAddrMask)->payload;
  }

  /// True iff the ref is live (its slot generation still matches).
  [[nodiscard]] bool valid(Ref ref) const {
    const Slot* s = reinterpret_cast<const Slot*>(ref & kAddrMask);
    return s != nullptr && s->refs > 0 &&
           s->gen == static_cast<std::uint16_t>(ref >> kAddrBits);
  }

  /// Drop one reference; reclaims the slot when the last one goes.
  /// Precondition: `ref` is live (callers release exactly the refs they
  /// created — validated in debug builds; get() stays checked always).
  void release(Ref ref) {
    Slot* s = reinterpret_cast<Slot*>(ref & kAddrMask);
#ifndef NDEBUG
    require(valid(ref), "MessageArena: release of stale or invalid ref");
#endif
    if (--s->refs == 0) {
      if (++s->gen == 0) s->gen = 1;  // stale refs must never validate again
      free_.push_back(s);
      --live_;
    }
  }

  /// Pull the payload line into cache without touching the slot's state.
  /// Safe on any put() ref regardless of liveness (prefetch never faults).
  static void prefetch(Ref ref) {
    __builtin_prefetch(reinterpret_cast<const void*>(ref & kAddrMask));
  }

  /// Number of payloads currently held (distinct slots, not references).
  [[nodiscard]] std::size_t live() const { return live_; }

 private:
  // x86-64/AArch64 user-space addresses fit in 48 bits, leaving 16 for the
  // generation tag (asserted per ref in slot_of via the round trip check).
  static constexpr int kAddrBits = 48;
  static constexpr Ref kAddrMask = (Ref{1} << kAddrBits) - 1;
  static constexpr std::size_t kChunkSize = 64;

  struct Slot {
    Payload payload;
    std::uint32_t refs = 0;
    std::uint16_t gen = 1;
  };

  [[nodiscard]] Slot* slot_of(Ref ref) const {
    Slot* s = reinterpret_cast<Slot*>(ref & kAddrMask);
    require(s != nullptr && s->refs > 0 &&
                s->gen == static_cast<std::uint16_t>(ref >> kAddrBits),
            "MessageArena: stale or invalid ref");
    return s;
  }

  // Fixed-size chunks, never relocated: slot addresses (and with them every
  // outstanding ref and get() result) survive arbitrary put() growth.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::size_t next_in_chunk_ = kChunkSize;
  std::vector<Slot*> free_;
  std::size_t live_ = 0;
};

}  // namespace gcs
