#include "rt/rt_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace gcs {

// -------------------------------------------------------------------- pipe

PipeHub::PipeHub(int n, TimeSource& clock, const FaultSpec& faults,
                 std::size_t ring_capacity)
    : n_(n),
      clock_(clock),
      faults_(faults),
      drop_draw_(faults.seed, Domain::kPipeDrop),
      dup_draw_(faults.seed, Domain::kPipeDup),
      reorder_draw_(faults.seed, Domain::kPipeReorder),
      hold_draw_(faults.seed, Domain::kPipeHold),
      jitter_draw_(faults.seed, Domain::kPipeJitter) {
  require(n >= 1, "PipeHub: need n >= 1");
  const std::size_t nn = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  rings_.reserve(nn);
  for (std::size_t i = 0; i < nn; ++i) {
    rings_.push_back(std::make_unique<SpscRing<Held>>(ring_capacity));
  }
  chaos_.reserve(static_cast<std::size_t>(n));
  for (NodeId from = 0; from < n; ++from) chaos_.emplace_back(n, from, faults.seed);
  ring_full_link_ = std::make_unique<std::atomic<std::uint64_t>[]>(nn);
  inboxes_.resize(static_cast<std::size_t>(n));
}

void PipeHub::set_link_fault(NodeId from, NodeId to, const LinkFault& f) {
  require(from >= 0 && from < n_, "PipeHub: bad link");
  chaos_[static_cast<std::size_t>(from)].set(to, f);
}

bool PipeHub::push_one(const Held& h) {
  const WireMsg& m = h.msg;
  if (!ring(m.from, m.to).push(h)) {
    // Ring full: backpressure means loss, exactly like a saturated NIC
    // queue. The protocol tolerates loss by design — but the operator must
    // be able to see it, so it gets its own counter, per directed link.
    ring_full_.fetch_add(1, std::memory_order_relaxed);
    ring_full_link_[link_index(m.from, m.to)].fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  sent_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool PipeHub::send(const WireMsg& m) {
  require(m.from >= 0 && m.from < n_ && m.to >= 0 && m.to < n_ && m.from != m.to,
          "PipeHub: bad addressing");
  // The FaultSpec rolls are keyed by the chaos verdict's (from, to, k), and
  // each is drawn only when its fault is configured.
  const ChaosDecision chaos = chaos_[static_cast<std::size_t>(m.from)].decide(m.to);
  const auto roll = [&](const KeyedDraw& draw) {
    return draw.uniform01(m.from, m.to, chaos.send);
  };
  if (faults_.drop > 0.0 && roll(drop_draw_) < faults_.drop) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return true;  // swallowed in flight; the sender cannot tell
  }
  if (chaos.drop) {
    chaos_dropped_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (chaos.corrupt) {
    // Pipe frames are structs, not bytes, so corruption goes through the
    // real codec: encode, flip one bit, re-decode. CRC32C detects every
    // single-bit error, so the decode fails and the frame dies in flight,
    // counted exactly as a socket backend's receiver would count it.
    corrupted_.fetch_add(1, std::memory_order_relaxed);
    std::uint8_t frame[kWireMax];
    const std::size_t len = wire_encode(m, frame);
    chaos.flip_bit(frame, len);
    WireMsg decoded;
    if (!wire_decode(frame, len, decoded)) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return true;  // swallowed in flight, like a chaos drop
    }
    // Unreachable for single-bit flips, but if the codec ever let one
    // through, delivering the decoded bytes is the honest behavior.
  }
  Duration hold = chaos.extra_delay;
  if (faults_.jitter > 0.0) hold += roll(jitter_draw_) * faults_.jitter;
  if (faults_.reorder > 0.0 && roll(reorder_draw_) < faults_.reorder) {
    hold += roll(hold_draw_) * faults_.delay;
    delayed_.fetch_add(1, std::memory_order_relaxed);
  }
  const Held out{m, hold > 0.0 ? clock_.now() + hold : 0.0};
  const bool ok = push_one(out);
  if (faults_.dup > 0.0 && roll(dup_draw_) < faults_.dup) {
    duplicated_.fetch_add(1, std::memory_order_relaxed);
    push_one(out);
  }
  return ok;
}

bool PipeHub::poll(NodeId self, WireMsg& out) {
  require(self >= 0 && self < n_, "PipeHub: bad poll node");
  Inbox& inbox = inboxes_[static_cast<std::size_t>(self)];
  // Drain every inbound ring into the pending heap first: a freshly arrived
  // message may be due before an already-held delayed one.
  Held h;
  for (NodeId from = 0; from < n_; ++from) {
    if (from == self) continue;
    while (ring(from, self).pop(h)) {
      inbox.pending.emplace(h, inbox.seq++);
    }
  }
  if (inbox.pending.empty()) return false;
  const auto& head = inbox.pending.top();
  if (head.first.deliver_at > clock_.now()) return false;  // held back (fault delay)
  out = head.first.msg;
  inbox.pending.pop();
  return true;
}

// --------------------------------------------------------------------- udp

UdpTransport::UdpTransport(int n, NodeId self, std::uint16_t base_port,
                           TimeSource* clock, std::uint64_t chaos_seed)
    : n_(n),
      self_(self),
      base_port_(base_port),
      clock_(clock),
      chaos_(n, self, chaos_seed) {
  require(n >= 1 && self >= 0 && self < n, "UdpTransport: bad node");
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  require(fd_ >= 0, "UdpTransport: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(base_port + self));
  const int rc = ::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc != 0) {
    ::close(fd_);
    fd_ = -1;
    require(false, "UdpTransport: bind(127.0.0.1:" +
                       std::to_string(base_port + self) + ") failed: " +
                       std::strerror(errno));
  }
}

UdpTransport::~UdpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

void UdpTransport::set_link_fault(NodeId from, NodeId to, const LinkFault& f) {
  if (from != self_) return;  // the peer's transport owns the reverse slot
  // A latency storm needs a clock to measure the hold against. Refusing to
  // arm one here beats the old behavior (silently releasing stashed frames
  // with zero delay — a storm that quietly tests nothing).
  require(f.extra_delay <= 0.0f || clock_ != nullptr,
          "UdpTransport: latency fault armed without a clock");
  chaos_.set(to, f);
}

bool UdpTransport::transmit(const std::uint8_t* frame, std::size_t len, NodeId to) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(base_port_ + to));
  // Bounded retry on transient kernel-side backpressure: a loopback socket
  // buffer drains in microseconds, so a couple of immediate retries clear
  // almost every EAGAIN without ever blocking the pump thread.
  constexpr int kAttempts = 3;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    const ssize_t rc = ::sendto(fd_, frame, len, 0,
                                reinterpret_cast<const sockaddr*>(&addr),
                                sizeof(addr));
    if (rc == static_cast<ssize_t>(len)) {
      ++sent_;
      return true;
    }
    const bool transient =
        rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS);
    if (!transient) break;
  }
  // A real socket failure, NOT an injected fault: dropped() stays a pure
  // function of the chaos script.
  ++send_errors_;
  return false;
}

void UdpTransport::flush_stash() {
  if (!chaos_.holding() || clock_ == nullptr) return;
  chaos_.release_due(clock_->now(),
                     [this](const std::uint8_t* frame, std::size_t len, NodeId to) {
                       transmit(frame, len, to);
                     });
}

bool UdpTransport::send(const WireMsg& m) {
  require(m.to >= 0 && m.to < n_ && m.to != self_, "UdpTransport: bad addressing");
  flush_stash();
  const ChaosDecision chaos = chaos_.decide(m.to);
  if (chaos.drop) {
    ++dropped_;
    return true;  // swallowed in flight; the sender cannot tell
  }
  std::uint8_t frame[kWireMax];
  const std::size_t len = wire_encode(m, frame);
  if (chaos.corrupt) {
    chaos.flip_bit(frame, len);
    ++corrupted_;
  }
  if (chaos.extra_delay > 0.0f && clock_ != nullptr) {
    chaos_.stash(clock_->now() + chaos.extra_delay, frame, len, m.to);
    return true;
  }
  return transmit(frame, len, m.to);
}

bool UdpTransport::poll(NodeId self, WireMsg& out) {
  require(self == self_, "UdpTransport: instance serves one node");
  flush_stash();
  std::uint8_t buf[kWireMax];
  for (;;) {
    const ssize_t rc = ::recvfrom(fd_, buf, sizeof(buf), 0, nullptr, nullptr);
    if (rc < 0) return false;  // EWOULDBLOCK: nothing ready
    if (wire_decode(buf, static_cast<std::size_t>(rc), out)) {
      ++received_;
      return true;
    }
    // Undecodable datagram (chaos corruption, foreign sender, truncation):
    // count it and keep draining. The counter is what lets CI prove every
    // injected bit flip was caught rather than silently absorbed.
    ++rejected_;
  }
}

}  // namespace gcs
