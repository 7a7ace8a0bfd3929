// Typed event records for the simulation kernel.
//
// The engine's recurring events (ticks, beacons, drift changes, max-estimate
// catch-ups, logical-time targets) and the transport's message deliveries are
// described by a compact 32-byte record instead of a type-erased closure, so
// scheduling them allocates nothing. The record is the kernel's per-slot hot
// storage, copied in and out as one aligned block; only the ordering
// metadata and closures live in separate side arrays — see the SoA slot
// layout in simulator.h. Wire payloads never ride in the record: every
// delivery keeps its payload in the transport's generation-tagged message
// arena (net/arena.h), and the record carries an opaque 64-bit reference.
// The kernel never interprets it, which is why this header does not depend
// on net/message.h.
//
// ## Dispatch channels
//
// A fired typed event is handed back to its owner through a dispatch
// channel: the owner registered itself with
// Simulator::register_dispatch_channel(self, fn) and stamps the returned
// channel id into its records. The kernel calls the registered plain
// function pointer, whose body is a direct call into the owner class — no
// vtable load on the fire path.
//
// ## Lifecycle invariants (see docs/ARCHITECTURE.md for the full table)
//
//  * A record is copied INTO the kernel's slot storage at schedule time and
//    copied OUT again at fire time, before its slot is released — handlers
//    may schedule freely without invalidating the record they are handling.
//    Records are trivially copyable and carry no owned state; only kClosure
//    events own resources (kept out-of-line in the kernel, keyed by the same
//    slot), and arena payload refs are owned by the transport, not the
//    kernel (cancelling a delivery event strands its ref until the arena
//    dies with the scenario — the transport never cancels deliveries).
//  * Between schedule and fire, an event may migrate between the kernel's
//    timer tiers (wheel bucket -> sorted run / overlay heap); migration
//    copies the 16-byte ordering entry only, never the slot data, and cannot
//    change fire order (simulator.h documents why).
//  * One-shot kinds (kMLockCatch, kLogicalTarget) are RESCHEDULED in place
//    by the engine when clock rates change — the EventId handle survives,
//    the FIFO sequence is re-drawn. Periodic kinds (kTick/kBeacon/
//    kHeartbeat) re-arm by scheduling a fresh event from their handler.
//  * kHeartbeat exists only as a scheduling optimization: when tick and
//    beacon cadence coincide it drives both duties and reports itself to
//    trace sinks as kTick followed by kBeacon, so traces are identical to
//    the split-cadence event sequence.
#pragma once

#include <cstdint>

#include "util/common.h"

namespace gcs {

/// Discriminator of a scheduled event. The typed kinds cover every recurring
/// event of the engine/transport hot path; everything else is kClosure.
enum class EventKind : std::uint8_t {
  kClosure = 0,    ///< type-erased callback (escape hatch)
  kTick,           ///< periodic re-evaluation of one node
  kBeacon,         ///< periodic beacon fan-out of one node
  kDriftChange,    ///< hardware rate change of one node
  kMLockCatch,     ///< L_u catches M_u (engine mlock event)
  kLogicalTarget,  ///< a node's logical clock reaches a scheduled target
  kDelivery,       ///< message arrival at a node
  /// One periodic timer driving both the tick and the beacon duty when the
  /// two cadences coincide (the default): halves the recurring event load.
  /// Never traced as such — it reports its two duties as kTick + kBeacon.
  kHeartbeat,
  /// Periodic RTT offset-exchange round of one node (estimate sources with
  /// probe_period() > 0; never scheduled otherwise, so probe-free scenarios
  /// keep their exact pre-probe event sequence).
  kProbe,
};

[[nodiscard]] constexpr const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kClosure: return "closure";
    case EventKind::kTick: return "tick";
    case EventKind::kBeacon: return "beacon";
    case EventKind::kDriftChange: return "drift";
    case EventKind::kMLockCatch: return "mlock";
    case EventKind::kLogicalTarget: return "ltarget";
    case EventKind::kDelivery: return "delivery";
    case EventKind::kHeartbeat: return "heartbeat";
    case EventKind::kProbe: return "probe";
  }
  return "?";
}

/// "No registered dispatch channel": the channel of kClosure records and of
/// an owner before it registers. Never valid on a scheduled typed event.
inline constexpr std::uint8_t kNoChannel = 0xFF;

/// A scheduled event, as handed to Simulator::schedule_event_at and handed
/// back to the owner at fire time. This IS the kernel's per-slot hot record:
/// exactly 32 aligned bytes (half the old 64-byte record, which also dragged
/// an inline std::variant payload along), copied in and out as one aligned
/// block — field-wise repacking measurably loses to the straight struct copy.
/// Note there is no dispatcher pointer here: channel dispatch needs only the
/// one-byte channel id.
///
/// `payload_ref` is fully opaque to the kernel — it is stored and handed
/// back untouched. The transport packs a MessageArena ref there (slot
/// address in the low 48 bits, generation tag above) and prefetches the
/// payload line from it at dispatch entry; other kinds leave it 0.
struct alignas(32) SimEvent {
  EventKind kind = EventKind::kClosure;
  std::uint8_t channel = kNoChannel;  ///< dispatch channel, or kNoChannel
  NodeId node = kNoNode;              ///< acted-on node (receiver for kDelivery)
  NodeId from = kNoNode;              ///< kDelivery: sender
  Time sent_at = 0.0;                 ///< kDelivery: send time
  std::uint64_t payload_ref = 0;      ///< kDelivery: opaque arena ref

  static SimEvent node_event(EventKind kind, std::uint8_t channel, NodeId node) {
    SimEvent ev;
    ev.kind = kind;
    ev.channel = channel;
    ev.node = node;
    return ev;
  }

  static SimEvent delivery(std::uint8_t channel, NodeId from, NodeId to,
                           Time sent_at, std::uint64_t payload_ref) {
    SimEvent ev;
    ev.kind = EventKind::kDelivery;
    ev.channel = channel;
    ev.node = to;
    ev.from = from;
    ev.sent_at = sent_at;
    ev.payload_ref = payload_ref;
    return ev;
  }
};
static_assert(sizeof(SimEvent) == 32, "SimEvent is the kernel's hot record");

/// Passive probe of the kernel's fire sequence: called once per fired engine/
/// transport event with (time, node, kind). Used by the trajectory
/// fingerprinter (metrics/fingerprint.h) and available for ad-hoc debugging.
class KernelTraceSink {
 public:
  virtual ~KernelTraceSink() = default;
  virtual void on_event_fired(Time t, NodeId node, EventKind kind) = 0;
};

}  // namespace gcs
