// Runtime transports: how WireMsgs move between live nodes.
//
// Three backends behind one interface: non-blocking send and poll, the
// chaos fault slot, the integrity counters, and a conn-reset request that
// only a stream transport acts on. Callers above it never name a backend.
//
//  * PipeHub — in-process: one lock-free SPSC ring per directed node pair
//    (sender thread is the sole producer, receiver thread the sole
//    consumer). Faults are injected on the SENDER side, keyed by (from, to,
//    the link's send count), so a fixed seed yields the same fault decisions
//    regardless of thread interleaving; a delayed copy travels in a hold
//    record stamped with its release time and is physically held back in a
//    receiver-side pending heap until the clock passes it (which is what
//    turns a "reorder" decision into an actual reordering relative to later
//    sends). The stamp never leaves the pipe.
//
//  * UdpTransport — one non-blocking UDP socket per node on 127.0.0.1,
//    frames encoded with the length-prefixed wire format (rt/wire.h).
//    Real sockets bring their own faults; transient send failures
//    (EAGAIN/ENOBUFS) get a bounded retry and land in send_errors(), never
//    in the injected-fault counters.
//
//  * TcpTransport (rt/tcp_transport.h) — the same frames over real loopback
//    connections with a reconnect state machine.
//
// Every backend injects chaos (drop, latency storm, corrupt) through one
// LinkChaos per sender (rt/chaos.h), which owns the per-link fault slots
// and send counters and the storm stash. Pipe frames
// never leave the process, so the pipe applies a storm as extra hold and a
// corruption by encoding, flipping and re-decoding; the socket
// backends flip the encoded frame and hold it in the stash. Every
// transport counts undecodable ingress in rejected().
#pragma once

#include <atomic>
#include <memory>
#include <queue>
#include <vector>

#include "rt/chaos.h"
#include "rt/spsc_ring.h"
#include "rt/time_source.h"
#include "rt/wire.h"
#include "util/rng.h"

namespace gcs {

class RtTransport {
 public:
  virtual ~RtTransport() = default;

  /// Non-blocking. False if the message could not be queued (backpressure /
  /// socket error) — callers treat that as a drop, never as fatal. A stream
  /// backend (TCP) only queues the frame: it leaves at the sender's next
  /// poll(), and RtNode::pump always ends with one after its last send. The
  /// pipe and UDP backends hand the frame over at once.
  virtual bool send(const WireMsg& m) = 0;

  /// Non-blocking receive for node `self`. False when nothing is ready.
  virtual bool poll(NodeId self, WireMsg& out) = 0;

  /// Chaos fault slot of the directed link from -> to (see rt/chaos.h).
  virtual void set_link_fault(NodeId from, NodeId to, const LinkFault& f) = 0;

  /// Ingress frames discarded as malformed — truncated, unknown version,
  /// or failing the CRC check. Every chaos-injected corruption must end up
  /// here; a nonzero count with no corruption armed means a real integrity
  /// problem on the wire.
  [[nodiscard]] virtual std::uint64_t rejected() const = 0;

  /// Chaos-injected bit flips on outbound frames. Defaulted (not pure) so a
  /// decorating transport need not forward it; such a wrapper reads 0.
  [[nodiscard]] virtual std::uint64_t corrupted() const { return 0; }

  /// Chaos conn-reset: hard-close this node's outbound connection to
  /// `peer`. Only a stream transport has connections, so the default is a
  /// no-op — over pipes and datagrams the op is inert by design.
  virtual void request_reset(NodeId peer) { (void)peer; }
};

/// Sender-side fault injection for the pipe backend. Probabilities are per
/// message; `delay` holds a message back for uniform(0, delay] model seconds
/// with probability `reorder` (later un-delayed messages overtake it), and
/// `jitter` adds uniform [0, jitter) to every message. Only the pipe injects
/// these; the socket backends take `seed` alone (it keys their chaos and
/// reconnect-jitter draws).
struct FaultSpec {
  double drop = 0.0;
  double dup = 0.0;
  double reorder = 0.0;
  Duration delay = 0.0;   ///< held-back duration drawn for reordered messages
  Duration jitter = 0.0;  ///< baseline delivery jitter on every message
  std::uint64_t seed = 1;

  /// True if any fault would fire. `delay` alone is inert: it only sizes
  /// the hold of a reordered message.
  [[nodiscard]] bool injects() const {
    return drop > 0.0 || dup > 0.0 || reorder > 0.0 || jitter > 0.0;
  }
};

class PipeHub final : public RtTransport {
 public:
  PipeHub(int n, TimeSource& clock, const FaultSpec& faults = {},
          std::size_t ring_capacity = 1024);

  bool send(const WireMsg& m) override;
  bool poll(NodeId self, WireMsg& out) override;
  void set_link_fault(NodeId from, NodeId to, const LinkFault& f) override;

  [[nodiscard]] std::uint64_t sent() const { return sent_.load(std::memory_order_relaxed); }
  /// FaultSpec-injected drops only: a pure function of the fault spec and
  /// the per-link send counts. Chaos and backpressure count separately.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t duplicated() const { return duplicated_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t delayed() const { return delayed_.load(std::memory_order_relaxed); }
  /// ChaosScheduler-injected drops (LinkFault slots).
  [[nodiscard]] std::uint64_t chaos_dropped() const { return chaos_dropped_.load(std::memory_order_relaxed); }
  /// SPSC-ring-full producer failures: backpressure loss, total and per
  /// directed link. Nonzero means the cluster is outrunning its consumers —
  /// distinct from every injected-fault counter.
  [[nodiscard]] std::uint64_t ring_full() const { return ring_full_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t ring_full(NodeId from, NodeId to) const {
    return ring_full_link_[link_index(from, to)].load(std::memory_order_relaxed);
  }
  /// Chaos-injected bit flips. Pipe frames never leave the process, so the
  /// corruption is simulated faithfully: the frame is wire-encoded, one bit
  /// flipped, and re-decoded; a decode failure (CRC catches every single-bit
  /// flip) lands in rejected() and the frame dies in flight.
  [[nodiscard]] std::uint64_t corrupted() const override { return corrupted_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t rejected() const override { return rejected_.load(std::memory_order_relaxed); }

 private:
  /// A frame in the pipe with its fault hold: the earliest model time the
  /// receiver may surface it (0 = at once).
  struct Held {
    WireMsg msg;
    Time deliver_at = 0.0;
  };
  struct PendingOrder {  // min-heap on (deliver_at, arrival seq)
    bool operator()(const std::pair<Held, std::uint64_t>& a,
                    const std::pair<Held, std::uint64_t>& b) const {
      if (a.first.deliver_at != b.first.deliver_at) {
        return a.first.deliver_at > b.first.deliver_at;
      }
      return a.second > b.second;
    }
  };
  /// Receiver-side reassembly state: ring pops land here and leave in
  /// deliver_at order. Owned exclusively by the receiver's thread.
  struct Inbox {
    std::priority_queue<std::pair<Held, std::uint64_t>,
                        std::vector<std::pair<Held, std::uint64_t>>, PendingOrder>
        pending;
    std::uint64_t seq = 0;
  };

  [[nodiscard]] std::size_t link_index(NodeId from, NodeId to) const {
    return static_cast<std::size_t>(from) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(to);
  }
  SpscRing<Held>& ring(NodeId from, NodeId to) {
    return *rings_[link_index(from, to)];
  }
  bool push_one(const Held& h);

  int n_;
  TimeSource& clock_;
  FaultSpec faults_;
  std::vector<std::unique_ptr<SpscRing<Held>>> rings_;  ///< [from * n + to]
  KeyedDraw drop_draw_;          ///< FaultSpec rolls, keyed like chaos_
  KeyedDraw dup_draw_;
  KeyedDraw reorder_draw_;
  KeyedDraw hold_draw_;
  KeyedDraw jitter_draw_;
  std::vector<LinkChaos> chaos_; ///< sender-owned, per node
  std::unique_ptr<std::atomic<std::uint64_t>[]> ring_full_link_; ///< per directed edge
  std::vector<Inbox> inboxes_;   ///< receiver-owned, per node
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> duplicated_{0};
  std::atomic<std::uint64_t> delayed_{0};
  std::atomic<std::uint64_t> chaos_dropped_{0};
  std::atomic<std::uint64_t> ring_full_{0};
  std::atomic<std::uint64_t> corrupted_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

/// UDP loopback backend: node u binds 127.0.0.1:(base_port + u). One
/// instance serves one node (`self`); send() addresses peers by port.
/// `clock` is only needed for chaos latency storms (stashed frames are
/// released against it); a clock-less instance REJECTS arming a latency
/// fault (set_link_fault throws) rather than silently degrading the storm
/// to zero delay. `chaos_seed` keys the LinkChaos draws, so every daemon
/// reproduces its own outbound decisions from (chaos_seed, self, to, send
/// count) alone — the same decisions PipeHub makes for the same link when
/// its FaultSpec seed equals chaos_seed (see LinkChaos).
class UdpTransport final : public RtTransport {
 public:
  UdpTransport(int n, NodeId self, std::uint16_t base_port,
               TimeSource* clock = nullptr, std::uint64_t chaos_seed = 1);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  bool send(const WireMsg& m) override;
  bool poll(NodeId self, WireMsg& out) override;
  /// Only the outbound (from == self) direction is stored; the peer's
  /// transport owns the reverse slot. Other `from` values are ignored, so a
  /// full-mesh scheduler can broadcast ops and each node keeps its side.
  void set_link_fault(NodeId from, NodeId to, const LinkFault& f) override;

  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] std::uint64_t received() const { return received_; }
  /// Chaos-injected drops only (pure function of the chaos script + seed).
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Real socket-level send failures after the bounded retry — never mixed
  /// into the injected-fault accounting.
  [[nodiscard]] std::uint64_t send_errors() const { return send_errors_; }
  /// Chaos-injected bit flips (applied to the encoded datagram before it
  /// hits the socket).
  [[nodiscard]] std::uint64_t corrupted() const override { return corrupted_; }
  /// Undecodable ingress datagrams (truncation, foreign sender, CRC
  /// mismatch) — previously swallowed silently by poll().
  [[nodiscard]] std::uint64_t rejected() const override { return rejected_; }

 private:
  bool transmit(const std::uint8_t* frame, std::size_t len, NodeId to);
  void flush_stash();

  int n_;
  NodeId self_;
  std::uint16_t base_port_;
  int fd_ = -1;
  TimeSource* clock_ = nullptr;
  LinkChaos chaos_;  ///< outbound links, sender-thread owned
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t send_errors_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace gcs
