#include "rt/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace gcs {

namespace {

void set_nodelay(int fd) {
  // Beacons are latency-sensitive; Nagle batching would stretch delivery
  // past msg_delay_max at high time scales.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Length of the wire frame starting at `frame` (its prefix plus the body
/// the prefix counts).
std::size_t frame_length(const std::uint8_t* frame) {
  std::uint16_t body = 0;
  std::memcpy(&body, frame, 2);
  return static_cast<std::size_t>(body) + 2;
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

TcpTransport::TcpTransport(int n, NodeId self, std::uint16_t base_port,
                           TimeSource& clock, std::uint64_t chaos_seed,
                           const TcpConfig& config)
    : n_(n),
      self_(self),
      base_port_(base_port),
      clock_(clock),
      config_(config),
      chaos_(n, self, chaos_seed),
      backoff_draw_(chaos_seed, Domain::kTcpBackoff) {
  require(n >= 1 && self >= 0 && self < n, "TcpTransport: bad node");
  require(config_.backoff_base > 0.0 && config_.backoff_max >= config_.backoff_base,
          "TcpTransport: bad backoff configuration");
  require(config_.write_buffer_cap >= kWireMax,
          "TcpTransport: write buffer smaller than one frame");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  require(listen_fd_ >= 0, "TcpTransport: socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const sockaddr_in addr =
      loopback_addr(static_cast<std::uint16_t>(base_port + self));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, config_.listen_backlog) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    require(false, "TcpTransport: listen(127.0.0.1:" +
                       std::to_string(base_port + self) + ") failed: " + err);
  }
  out_.resize(static_cast<std::size_t>(n));
  reset_requests_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(n));
}

TcpTransport::~TcpTransport() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (OutConn& c : out_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  for (InConn& c : in_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

void TcpTransport::set_link_fault(NodeId from, NodeId to, const LinkFault& f) {
  if (from != self_) return;  // the peer's transport owns the reverse slot
  chaos_.set(to, f);
}

void TcpTransport::request_reset(NodeId peer) {
  require(peer >= 0 && peer < n_ && peer != self_, "TcpTransport: bad peer");
  reset_requests_[static_cast<std::size_t>(peer)].store(
      true, std::memory_order_release);
}

TcpTransport::ConnState TcpTransport::conn_state(NodeId peer) const {
  require(peer >= 0 && peer < n_, "TcpTransport: bad peer");
  return out_[static_cast<std::size_t>(peer)].state;
}

int TcpTransport::backoff_attempts(NodeId peer) const {
  require(peer >= 0 && peer < n_, "TcpTransport: bad peer");
  return out_[static_cast<std::size_t>(peer)].attempt;
}

Duration TcpTransport::last_backoff(NodeId peer) const {
  require(peer >= 0 && peer < n_, "TcpTransport: bad peer");
  return out_[static_cast<std::size_t>(peer)].last_backoff;
}

void TcpTransport::fail_connection(OutConn& c, Time now, bool hard_reset) {
  if (c.fd >= 0) {
    if (hard_reset) {
      // linger(0) turns close() into an RST — a genuine reset on the wire,
      // which is what the conn-reset chaos verb promises.
      linger lg{1, 0};
      ::setsockopt(c.fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    }
    ::close(c.fd);
    c.fd = -1;
  }
  ++resets_;
  // Frames that died with the connection, a partly written head included.
  for (std::size_t at = c.head; at < c.wbuf.size(); at += frame_length(&c.wbuf[at])) {
    ++conn_down_;
  }
  c.wbuf.clear();
  c.head = 0;
  c.written = 0;
  c.state = ConnState::kBackoff;
  // Exponential backoff with deterministic seeded jitter: attempt k waits
  // min(base * 2^k, max) * (1 + jitter * u), u keyed by (self, peer, the
  // peer's backoff count): every node replays its own reconnect schedule.
  constexpr int kAttemptCap = 16;  // backoff_max dominates long before this
  const int exponent = std::min(c.attempt, kAttemptCap);
  c.attempt = std::min(c.attempt + 1, kAttemptCap);
  const Duration base =
      std::min(config_.backoff_base * std::ldexp(1.0, exponent),
               config_.backoff_max);
  // NOTE: c is always out_[peer]; index recovered to key the jitter draw.
  const auto peer = static_cast<std::uint32_t>(&c - out_.data());
  const double u = backoff_draw_.uniform01(self_, peer, c.backoffs++);
  c.last_backoff = base * (1.0 + config_.jitter * u);
  c.retry_at = now + c.last_backoff;
}

void TcpTransport::dial(OutConn& c, NodeId peer, Time now) {
  c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (c.fd < 0) {
    fail_connection(c, now, /*hard_reset=*/false);
    return;
  }
  set_nodelay(c.fd);
  const sockaddr_in addr =
      loopback_addr(static_cast<std::uint16_t>(base_port_ + peer));
  const int rc =
      ::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc == 0) {
    c.state = ConnState::kEstablished;
    c.attempt = 0;
    ++reconnects_;
  } else if (errno == EINPROGRESS) {
    c.state = ConnState::kConnecting;
  } else {
    fail_connection(c, now, /*hard_reset=*/false);
  }
}

void TcpTransport::advance(OutConn& c, NodeId peer, Time now) {
  switch (c.state) {
    case ConnState::kClosed:
      dial(c, peer, now);
      break;
    case ConnState::kBackoff:
      if (now >= c.retry_at) dial(c, peer, now);
      break;
    case ConnState::kConnecting: {
      pollfd pfd{c.fd, POLLOUT, 0};
      if (::poll(&pfd, 1, 0) <= 0) break;  // handshake still in flight
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0 || (pfd.revents & (POLLERR | POLLHUP)) != 0) {
        fail_connection(c, now, /*hard_reset=*/false);
      } else if ((pfd.revents & POLLOUT) != 0) {
        c.state = ConnState::kEstablished;
        c.attempt = 0;
        ++reconnects_;
      }
      break;
    }
    case ConnState::kEstablished:
      break;
  }
}

void TcpTransport::consume_reset_requests(Time now) {
  for (NodeId peer = 0; peer < n_; ++peer) {
    if (!reset_requests_[static_cast<std::size_t>(peer)].exchange(
            false, std::memory_order_acquire)) {
      continue;
    }
    OutConn& c = out_[static_cast<std::size_t>(peer)];
    if (c.fd >= 0) fail_connection(c, now, /*hard_reset=*/true);
    // Resetting an already-down connection is a no-op: the state machine is
    // in Backoff and will re-dial on its own schedule.
  }
}

bool TcpTransport::enqueue_frame(OutConn& c, const std::uint8_t* frame,
                                 std::size_t len) {
  if (c.wbuf.size() - c.head + len > config_.write_buffer_cap) {
    ++backpressure_;
    return false;
  }
  c.wbuf.insert(c.wbuf.end(), frame, frame + len);
  ++sent_;
  return true;
}

void TcpTransport::flush_wbuf(OutConn& c, Time now) {
  const ssize_t rc = ::send(c.fd, c.wbuf.data() + c.written,
                            c.wbuf.size() - c.written, MSG_NOSIGNAL);
  if (rc < 0) {
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      fail_connection(c, now, /*hard_reset=*/false);
    }
    return;  // kernel full: the next poll retries
  }
  c.written += static_cast<std::size_t>(rc);
  if (c.written == c.wbuf.size()) {
    c.wbuf.clear();
    c.head = 0;
    c.written = 0;
    return;
  }
  // Partial write: step the head past the frames now wholly on the wire,
  // and drop them once they are most of the buffer.
  while (c.head + frame_length(&c.wbuf[c.head]) <= c.written) {
    c.head += frame_length(&c.wbuf[c.head]);
  }
  if (c.head > c.wbuf.size() / 2) {
    c.wbuf.erase(c.wbuf.begin(), c.wbuf.begin() + static_cast<std::ptrdiff_t>(c.head));
    c.written -= c.head;
    c.head = 0;
  }
}

void TcpTransport::release_stash(Time now) {
  chaos_.release_due(now, [&](const std::uint8_t* frame, std::size_t len, NodeId to) {
    OutConn& c = out_[static_cast<std::size_t>(to)];
    advance(c, to, now);
    if (c.state == ConnState::kEstablished || c.state == ConnState::kConnecting) {
      enqueue_frame(c, frame, len);
    } else {
      ++conn_down_;
    }
  });
}

bool TcpTransport::send(const WireMsg& m) {
  require(m.to >= 0 && m.to < n_ && m.to != self_, "TcpTransport: bad addressing");
  const Time now = clock_.now();
  consume_reset_requests(now);
  release_stash(now);
  OutConn& c = out_[static_cast<std::size_t>(m.to)];
  advance(c, m.to, now);
  const ChaosDecision chaos = chaos_.decide(m.to);
  if (chaos.drop) {
    ++dropped_;
    return true;  // swallowed in flight; the sender cannot tell
  }
  if (c.state != ConnState::kEstablished && c.state != ConnState::kConnecting) {
    // Down connection: degrade to the plain drop contract. AOPT tolerates
    // loss; re-convergence after the reconnect heals the cluster.
    ++conn_down_;
    return false;
  }
  std::uint8_t frame[kWireMax];
  const std::size_t len = wire_encode(m, frame);
  if (chaos.corrupt) {
    chaos.flip_bit(frame, len);
    ++corrupted_;
  }
  if (chaos.extra_delay > 0.0f) {
    chaos_.stash(now + chaos.extra_delay, frame, len, m.to);
    return true;
  }
  return enqueue_frame(c, frame, len);
}

void TcpTransport::accept_pending() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;  // EAGAIN: no pending handshakes
    set_nodelay(fd);
    InConn c;
    c.fd = fd;
    in_.push_back(std::move(c));
  }
}

void TcpTransport::parse_frames(InConn& c) {
  while (c.rbuf.size() - c.consumed >= 2) {
    const std::size_t frame_len = frame_length(c.rbuf.data() + c.consumed);
    if (frame_len > kWireMax) {
      // A corrupted length prefix poisons the stream — there is no way to
      // resync. Drop the connection; the peer's reconnect machine re-dials.
      ++rejected_;
      ::close(c.fd);
      c.fd = -1;
      return;
    }
    if (c.rbuf.size() - c.consumed < frame_len) return;  // partial frame
    WireMsg msg;
    if (wire_decode(c.rbuf.data() + c.consumed, frame_len, msg)) {
      pending_.push_back(msg);
      ++received_;
    } else {
      // Framing is intact (we advanced by the prefix), the content is not:
      // CRC mismatch or malformed fields. Count and skip.
      ++rejected_;
    }
    c.consumed += frame_len;
  }
}

void TcpTransport::read_connection(InConn& c) {
  std::uint8_t chunk[4096];
  for (;;) {
    const ssize_t rc = ::recv(c.fd, chunk, sizeof(chunk), 0);
    if (rc > 0) {
      c.rbuf.insert(c.rbuf.end(), chunk, chunk + rc);
      // A short read took everything the kernel held.
      if (static_cast<std::size_t>(rc) < sizeof(chunk)) break;
      continue;
    }
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // EOF or a real error (ECONNRESET from a chaos conn-reset): the
    // sender side owns re-establishment; we just clean up.
    ::close(c.fd);
    c.fd = -1;
    break;
  }
  if (c.fd >= 0 || !c.rbuf.empty()) parse_frames(c);
  if (c.consumed == c.rbuf.size()) {
    c.rbuf.clear();
    c.consumed = 0;
  } else if (c.consumed > sizeof(chunk)) {
    c.rbuf.erase(c.rbuf.begin(),
                 c.rbuf.begin() + static_cast<std::ptrdiff_t>(c.consumed));
    c.consumed = 0;
  }
}

void TcpTransport::sweep() {
  sweep_fds_.clear();
  sweep_fds_.push_back(pollfd{listen_fd_, POLLIN, 0});
  for (const InConn& c : in_) sweep_fds_.push_back(pollfd{c.fd, POLLIN, 0});
  if (::poll(sweep_fds_.data(), sweep_fds_.size(), 0) <= 0) return;
  const std::size_t polled = in_.size();
  if (sweep_fds_[0].revents != 0) accept_pending();
  // In accept order, as the frames' arrival order; connections accepted
  // just now were not polled and may already hold their first frames.
  for (std::size_t i = 0; i < in_.size(); ++i) {
    if (i >= polled || sweep_fds_[i + 1].revents != 0) read_connection(in_[i]);
  }
  in_.erase(std::remove_if(in_.begin(), in_.end(),
                           [](const InConn& c) { return c.fd < 0; }),
            in_.end());
}

bool TcpTransport::poll(NodeId self, WireMsg& out) {
  require(self == self_, "TcpTransport: instance serves one node");
  const Time now = clock_.now();
  consume_reset_requests(now);
  release_stash(now);
  // Progress every non-idle outbound connection: finish handshakes, write
  // out everything queued since the last poll, re-dial expired backoffs (a
  // peer we have traffic for should come back even between sends —
  // liveness probes depend on it).
  for (NodeId peer = 0; peer < n_; ++peer) {
    OutConn& c = out_[static_cast<std::size_t>(peer)];
    if (c.state == ConnState::kClosed) continue;
    advance(c, peer, now);
    if (c.state == ConnState::kEstablished && !c.wbuf.empty()) flush_wbuf(c, now);
  }
  if (pending_.empty()) sweep();
  if (pending_.empty()) return false;
  out = pending_.front();
  pending_.pop_front();
  return true;
}

}  // namespace gcs
