// Runtime subsystem tests: SPSC ring, wire codec, time sources, pipe fault
// injection, and live AOPT clusters (lockstep-deterministic) including
// re-convergence under drop/duplicate/reorder faults, liveness-driven
// membership (failure detector, partition/heal, crash/restart) and the
// deterministic chaos layer. Also covers the RTT estimate source in plain
// simulation mode (registry-selected).
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "estimate/rtt_estimate.h"
#include "metrics/skew.h"
#include "net/transport.h"
#include "rt/chaos.h"
#include "rt/liveness.h"
#include "rt/rt_cluster.h"
#include "rt/rt_node.h"
#include "rt/rt_transport.h"
#include "rt/spsc_ring.h"
#include "rt/tcp_transport.h"
#include "rt/time_source.h"
#include "rt/wire.h"
#include "runner/scenario.h"

using namespace gcs;

namespace {

// ----------------------------------------------------------------- spsc ring

TEST(SpscRing, FifoAndCapacity) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.size_approx(), 0u);
  int out = 0;
  EXPECT_FALSE(ring.pop(out));
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.push(i));
  EXPECT_FALSE(ring.push(99)) << "full ring must refuse";
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.pop(out));
  // Wrap-around: cursors are monotone, the mask does the indexing.
  for (int round = 0; round < 10; ++round) {
    EXPECT_TRUE(ring.push(round));
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, round);
  }
}

TEST(SpscRing, RejectsNonPowerOfTwo) {
  EXPECT_THROW(SpscRing<int>(3), std::runtime_error);
  EXPECT_THROW(SpscRing<int>(1), std::runtime_error);
  EXPECT_NO_THROW(SpscRing<int>(2));
}

TEST(SpscRing, CrossThreadOrderPreserved) {
  SpscRing<int> ring(64);
  constexpr int kCount = 20000;
  std::vector<int> received;
  received.reserve(kCount);
  std::thread consumer([&] {
    int v = 0;
    while (static_cast<int>(received.size()) < kCount) {
      if (ring.pop(v)) received.push_back(v);
    }
  });
  for (int i = 0; i < kCount;) {
    if (ring.push(i)) ++i;
  }
  consumer.join();
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) ASSERT_EQ(received[i], i);
}

// ---------------------------------------------------------------- wire codec

WireMsg roundtrip(const WireMsg& in) {
  std::uint8_t buf[kWireMax];
  const std::size_t len = wire_encode(in, buf);
  EXPECT_LE(len, kWireMax);
  WireMsg out;
  EXPECT_TRUE(wire_decode(buf, len, out));
  return out;
}

TEST(Wire, RoundTripsEveryPayload) {
  WireMsg m;
  m.from = 3;
  m.to = 7;
  m.sent_at = 12.5;

  m.payload = Beacon{1.25, 2.5, 0.75};
  WireMsg b = roundtrip(m);
  EXPECT_EQ(b.from, 3);
  EXPECT_EQ(b.to, 7);
  EXPECT_DOUBLE_EQ(b.sent_at, 12.5);
  ASSERT_TRUE(std::holds_alternative<Beacon>(b.payload));
  EXPECT_DOUBLE_EQ(std::get<Beacon>(b.payload).logical, 1.25);
  EXPECT_DOUBLE_EQ(std::get<Beacon>(b.payload).max_estimate, 2.5);
  EXPECT_DOUBLE_EQ(std::get<Beacon>(b.payload).min_estimate, 0.75);

  m.payload = InsertEdgeMsg{9.0, 42.0};
  WireMsg ins = roundtrip(m);
  ASSERT_TRUE(std::holds_alternative<InsertEdgeMsg>(ins.payload));
  EXPECT_DOUBLE_EQ(std::get<InsertEdgeMsg>(ins.payload).l_ins, 9.0);
  EXPECT_DOUBLE_EQ(std::get<InsertEdgeMsg>(ins.payload).gtilde, 42.0);

  m.payload = TimeRequest{77u, 3.25};
  WireMsg req = roundtrip(m);
  ASSERT_TRUE(std::holds_alternative<TimeRequest>(req.payload));
  EXPECT_EQ(std::get<TimeRequest>(req.payload).id, 77u);
  EXPECT_DOUBLE_EQ(std::get<TimeRequest>(req.payload).sender_hw, 3.25);

  m.payload = TimeResponse{77u, 3.25, 4.5};
  WireMsg resp = roundtrip(m);
  ASSERT_TRUE(std::holds_alternative<TimeResponse>(resp.payload));
  EXPECT_EQ(std::get<TimeResponse>(resp.payload).id, 77u);
  EXPECT_DOUBLE_EQ(std::get<TimeResponse>(resp.payload).echo_hw, 3.25);
  EXPECT_DOUBLE_EQ(std::get<TimeResponse>(resp.payload).remote_logical, 4.5);

  m.payload = LivenessPing{123u, 1u};
  WireMsg ping = roundtrip(m);
  ASSERT_TRUE(std::holds_alternative<LivenessPing>(ping.payload));
  EXPECT_EQ(std::get<LivenessPing>(ping.payload).seq, 123u);
  EXPECT_EQ(std::get<LivenessPing>(ping.payload).kind, 1u);
}

TEST(Wire, RejectsMalformedFrames) {
  WireMsg m;
  m.from = 1;
  m.to = 2;
  m.payload = Beacon{1.0, 2.0, 3.0};
  std::uint8_t buf[kWireMax];
  const std::size_t len = wire_encode(m, buf);

  WireMsg out;
  EXPECT_FALSE(wire_decode(buf, len - 1, out)) << "truncated";
  EXPECT_FALSE(wire_decode(buf, 3, out)) << "shorter than header";

  std::uint8_t bad[kWireMax];
  std::copy(buf, buf + len, bad);
  bad[2] = 0xFF;  // version
  EXPECT_FALSE(wire_decode(bad, len, out));
  std::copy(buf, buf + len, bad);
  bad[3] = 9;  // tag
  EXPECT_FALSE(wire_decode(bad, len, out));
  std::copy(buf, buf + len, bad);
  bad[0] = static_cast<std::uint8_t>(bad[0] + 1);  // length prefix mismatch
  EXPECT_FALSE(wire_decode(bad, len, out));
}

TEST(Wire, CrcCatchesEverySingleBitFlip) {
  // CRC32 detects all single-bit errors, so this holds for EVERY position —
  // including the length prefix and the trailer itself.
  WireMsg m;
  m.from = 1;
  m.to = 2;
  m.payload = TimeResponse{77u, 3.25, 4.5};
  std::uint8_t buf[kWireMax];
  const std::size_t len = wire_encode(m, buf);
  std::uint8_t bad[kWireMax];
  WireMsg out;
  for (std::size_t bit = 0; bit < len * 8; ++bit) {
    std::copy(buf, buf + len, bad);
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(wire_decode(bad, len, out)) << "flip at bit " << bit;
  }
}

TEST(Wire, RejectsLegacyV1Frames) {
  // v2 is the only accepted version: a well-formed v1 frame (no CRC
  // trailer) from an old peer is dropped like any unknown version.
  // Synthesized from a v2 encode by stripping the trailer and rewriting the
  // version byte + length prefix.
  WireMsg m;
  m.from = 4;
  m.to = 5;
  m.sent_at = 6.5;
  m.payload = Beacon{1.25, 2.5, 0.75};
  std::uint8_t buf[kWireMax];
  const std::size_t v2_len = wire_encode(m, buf);
  ASSERT_GT(v2_len, kWireCrcBytes);
  const std::size_t v1_len = v2_len - kWireCrcBytes;
  const std::size_t v1_body = v1_len - 2;  // the prefix counts bytes after it
  buf[0] = static_cast<std::uint8_t>(v1_body & 0xFF);
  buf[1] = static_cast<std::uint8_t>(v1_body >> 8);
  buf[2] = 1;
  WireMsg out;
  EXPECT_FALSE(wire_decode(buf, v1_len, out));
}

TEST(Wire, FuzzNeverCrashesNeverAcceptsACorruptV2Frame) {
  // Hardening gate: 10k seeded adversarial buffers. Random bytes and
  // truncations must never crash the decoder, and nothing but an intact
  // frame may decode: CRC32C catches every error of at most 4 bits in
  // frames of at most 512 bits, and a noise buffer would need a matching
  // length prefix, version byte and CRC at once.
  Rng rng(0xf0220);
  std::uint8_t buf[kWireMax];
  WireMsg out;
  const std::vector<Payload> payloads{
      Beacon{1.0, 2.0, 3.0}, InsertEdgeMsg{4.0, 5.0}, TimeRequest{6u, 7.0},
      TimeResponse{8u, 9.0, 10.0}, LivenessPing{11u, 1u}};
  for (int iter = 0; iter < 10000; ++iter) {
    WireMsg m;
    m.from = static_cast<NodeId>(rng.below(16));
    m.to = static_cast<NodeId>(rng.below(16));
    m.sent_at = rng.uniform01();
    m.payload = payloads[rng.below(payloads.size())];
    const std::size_t len = wire_encode(m, buf);
    ASSERT_LE(len, kWireMax);
    // Every valid encode round-trips...
    ASSERT_TRUE(wire_decode(buf, len, out)) << "iter " << iter;
    ASSERT_EQ(out.payload.index(), m.payload.index());
    // ...every truncation is rejected...
    const std::size_t cut = rng.below(len);
    EXPECT_FALSE(wire_decode(buf, cut, out)) << "truncated to " << cut;
    // ...and so is every frame with 1..4 bits flipped.
    const int flips = 1 + static_cast<int>(rng.below(4));
    std::vector<std::size_t> bits;
    while (static_cast<int>(bits.size()) < flips) {
      const std::size_t bit = rng.below(len * 8);
      // Distinct positions only: flipping one bit twice is a no-op and the
      // unchanged frame would (correctly) decode.
      if (std::find(bits.begin(), bits.end(), bit) != bits.end()) continue;
      bits.push_back(bit);
      buf[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    EXPECT_FALSE(wire_decode(buf, len, out))
        << "iter " << iter << ": a corrupt frame slipped past the CRC";
    // Pure noise: arbitrary bytes at arbitrary length never decode.
    const std::size_t noise_len = rng.below(kWireMax + 1);
    for (std::size_t k = 0; k < noise_len; ++k) {
      buf[k] = static_cast<std::uint8_t>(rng.below(256));
    }
    EXPECT_FALSE(wire_decode(buf, noise_len, out)) << "iter " << iter;
  }
}

// -------------------------------------------------------------- time sources

TEST(TimeSourceSuite, ScaledClockScalesFromOrigin) {
  VirtualClock inner;
  inner.advance_to(100.0);
  ScaledClock scaled(inner, 10.0);  // origin captured at 100
  EXPECT_DOUBLE_EQ(scaled.now(), 0.0);
  inner.advance(2.0);
  EXPECT_DOUBLE_EQ(scaled.now(), 20.0);

  ScaledClock anchored(inner, 2.0, 100.0);  // explicit origin
  EXPECT_DOUBLE_EQ(anchored.now(), 4.0);
}

TEST(TimeSourceSuite, VirtualClockWakesSleepers) {
  VirtualClock clock;
  EXPECT_THROW(clock.advance_to(-1.0), std::runtime_error);
  std::thread sleeper([&] { clock.sleep_until(3.0); });
  clock.advance_to(1.0);
  clock.advance(2.0);
  sleeper.join();
  EXPECT_DOUBLE_EQ(clock.now(), 3.0);
}

TEST(TimeSourceSuite, MonotonicClockAdvances) {
  MonotonicClock clock;
  const Time a = clock.now();
  const Time b = clock.now();
  EXPECT_GE(b, a);
  EXPECT_GT(a, 0.0);
}

// ------------------------------------------------------------------ pipe hub

WireMsg beacon_msg(NodeId from, NodeId to, double tag) {
  WireMsg m;
  m.from = from;
  m.to = to;
  m.sent_at = tag;
  m.payload = Beacon{tag, tag, tag};
  return m;
}

TEST(PipeHub, DeliversInOrderWithoutFaults) {
  VirtualClock clock;
  PipeHub hub(2, clock);
  for (int i = 0; i < 5; ++i) hub.send(beacon_msg(0, 1, i));
  WireMsg out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(hub.poll(1, out));
    EXPECT_DOUBLE_EQ(out.sent_at, i);
  }
  EXPECT_FALSE(hub.poll(1, out));
  EXPECT_EQ(hub.sent(), 5u);
  EXPECT_EQ(hub.dropped(), 0u);
}

TEST(PipeHub, FaultsAreSeedDeterministic) {
  auto run = [](std::uint64_t seed) {
    VirtualClock clock;
    FaultSpec faults;
    faults.drop = 0.3;
    faults.dup = 0.2;
    faults.reorder = 0.3;
    faults.delay = 1.0;
    faults.seed = seed;
    PipeHub hub(2, clock, faults);
    for (int i = 0; i < 200; ++i) hub.send(beacon_msg(0, 1, i));
    clock.advance_to(10.0);  // release every delayed copy
    std::vector<double> seen;
    WireMsg out;
    while (hub.poll(1, out)) seen.push_back(out.sent_at);
    return seen;
  };
  const auto a = run(7);
  const auto b = run(7);
  const auto c = run(8);
  EXPECT_EQ(a, b) << "same seed, same interleaving -> same fault pattern";
  EXPECT_NE(a, c) << "different seed must differ";
  EXPECT_LT(a.size(), 220u);
  EXPECT_GT(a.size(), 120u);
}

TEST(PipeHub, ReorderHoldsBackUntilClockPasses) {
  VirtualClock clock;
  FaultSpec faults;
  faults.reorder = 1.0;  // every message delayed by uniform(0, delay]
  faults.delay = 5.0;
  PipeHub hub(2, clock, faults);
  hub.send(beacon_msg(0, 1, 1.0));
  WireMsg out;
  EXPECT_FALSE(hub.poll(1, out)) << "held back at t=0";
  clock.advance_to(5.0);
  EXPECT_TRUE(hub.poll(1, out));
  EXPECT_EQ(hub.delayed(), 1u);
}

TEST(PipeHub, DuplicateYieldsTwoCopies) {
  VirtualClock clock;
  FaultSpec faults;
  faults.dup = 1.0;
  PipeHub hub(2, clock, faults);
  hub.send(beacon_msg(0, 1, 1.0));
  WireMsg out;
  EXPECT_TRUE(hub.poll(1, out));
  EXPECT_TRUE(hub.poll(1, out));
  EXPECT_FALSE(hub.poll(1, out));
  EXPECT_EQ(hub.duplicated(), 1u);
}

TEST(PipeHub, RingFullCountsPerDirectedLink) {
  VirtualClock clock;
  PipeHub hub(2, clock, {}, 2);  // capacity-2 rings: backpressure on purpose
  for (int i = 0; i < 5; ++i) hub.send(beacon_msg(0, 1, i));
  EXPECT_EQ(hub.sent(), 2u);
  EXPECT_EQ(hub.ring_full(), 3u);
  EXPECT_EQ(hub.ring_full(0, 1), 3u);
  EXPECT_EQ(hub.ring_full(1, 0), 0u);
  EXPECT_EQ(hub.dropped(), 0u) << "backpressure is not an injected fault";
  // Draining frees the ring and sends succeed again.
  WireMsg out;
  EXPECT_TRUE(hub.poll(1, out));
  EXPECT_TRUE(hub.poll(1, out));
  EXPECT_FALSE(hub.poll(1, out));
  EXPECT_TRUE(hub.send(beacon_msg(0, 1, 9)));
  EXPECT_EQ(hub.ring_full(0, 1), 3u);
}

TEST(PipeHub, ChaosFaultSlotsAreDirectionalAndClearable) {
  VirtualClock clock;
  PipeHub hub(2, clock);
  hub.set_link_fault(0, 1, LinkFault{1.0f, 0.0f});  // block 0 -> 1
  WireMsg out;
  for (int i = 0; i < 10; ++i) hub.send(beacon_msg(0, 1, i));
  EXPECT_FALSE(hub.poll(1, out));
  EXPECT_EQ(hub.chaos_dropped(), 10u);
  EXPECT_EQ(hub.dropped(), 0u) << "chaos drops never pollute FaultSpec drops";
  // The reverse direction is a separate slot.
  EXPECT_TRUE(hub.send(beacon_msg(1, 0, 0)));
  EXPECT_TRUE(hub.poll(0, out));
  // Clearing restores the link.
  hub.set_link_fault(0, 1, LinkFault{});
  EXPECT_TRUE(hub.send(beacon_msg(0, 1, 42)));
  ASSERT_TRUE(hub.poll(1, out));
  EXPECT_DOUBLE_EQ(out.sent_at, 42.0);
  // A latency storm holds frames back until the clock passes the delay.
  hub.set_link_fault(0, 1, LinkFault{0.0f, 2.0f});
  hub.send(beacon_msg(0, 1, 43));
  EXPECT_FALSE(hub.poll(1, out));
  clock.advance_to(2.0);
  ASSERT_TRUE(hub.poll(1, out));
  EXPECT_DOUBLE_EQ(out.sent_at, 43.0);
}

TEST(PipeHub, CorruptedFramesAreRejectedNeverDelivered) {
  VirtualClock clock;
  PipeHub hub(2, clock);
  hub.set_link_fault(0, 1, LinkFault{0.0f, 0.0f, 1.0f});  // flip every frame
  for (int i = 0; i < 25; ++i) EXPECT_TRUE(hub.send(beacon_msg(0, 1, i)));
  // Every flip is a single-bit error, so the CRC catches every one: the
  // corrupted and rejected counters must agree exactly, and none reaches
  // the receiver. Chaos drops stay a separate counter.
  EXPECT_EQ(hub.corrupted(), 25u);
  EXPECT_EQ(hub.rejected(), 25u);
  EXPECT_EQ(hub.chaos_dropped(), 0u);
  WireMsg out;
  EXPECT_FALSE(hub.poll(1, out));
  // Clearing the fault restores clean delivery.
  hub.set_link_fault(0, 1, LinkFault{});
  EXPECT_TRUE(hub.send(beacon_msg(0, 1, 99)));
  ASSERT_TRUE(hub.poll(1, out));
  EXPECT_DOUBLE_EQ(out.sent_at, 99.0);
  EXPECT_EQ(hub.corrupted(), 25u);
}

TEST(PipeHub, CorruptionProbabilityIsSeedDeterministic) {
  // The corrupt decision stream is separate from the drop stream and a pure
  // function of the per-link send count — two hubs with the same seed must
  // corrupt the exact same frames.
  FaultSpec faults;
  faults.seed = 13;
  std::uint64_t counts[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    VirtualClock clock;
    PipeHub hub(2, clock, faults);
    hub.set_link_fault(0, 1, LinkFault{0.0f, 0.0f, 0.5f});
    for (int i = 0; i < 200; ++i) hub.send(beacon_msg(0, 1, i));
    counts[run] = hub.corrupted();
    EXPECT_EQ(hub.rejected(), hub.corrupted());
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_GT(counts[0], 50u);
  EXPECT_LT(counts[0], 150u);
}

TEST(UdpTransportSuite, ChaosDropsAreNotSendErrors) {
  VirtualClock clock;
  UdpTransport a(2, 0, 24710, &clock);
  UdpTransport b(2, 1, 24710, &clock);
  a.set_link_fault(0, 1, LinkFault{1.0f, 0.0f});
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(a.send(beacon_msg(0, 1, i)));
  EXPECT_EQ(a.dropped(), 5u);
  EXPECT_EQ(a.sent(), 0u);
  EXPECT_EQ(a.send_errors(), 0u) << "injected drops must not count as errors";
  // Foreign `from` slots are the peer's concern: ignored here.
  a.set_link_fault(1, 0, LinkFault{1.0f, 0.0f});
  a.set_link_fault(0, 1, LinkFault{});
  EXPECT_TRUE(a.send(beacon_msg(0, 1, 9)));
  EXPECT_EQ(a.sent(), 1u);
  WireMsg out;
  bool got = false;
  for (int i = 0; i < 500 && !(got = b.poll(1, out)); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(got) << "cleared link must deliver";
  EXPECT_DOUBLE_EQ(out.sent_at, 9.0);
  EXPECT_EQ(b.received(), 1u);
}

TEST(UdpTransportSuite, CorruptedDatagramsAreRejectedAtIngress) {
  VirtualClock clock;
  UdpTransport a(2, 0, 24730, &clock);
  UdpTransport b(2, 1, 24730, &clock);
  a.set_link_fault(0, 1, LinkFault{0.0f, 0.0f, 1.0f});
  constexpr std::uint64_t kCount = 20;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    EXPECT_TRUE(a.send(beacon_msg(0, 1, static_cast<double>(i))));
  }
  EXPECT_EQ(a.corrupted(), kCount);
  WireMsg out;
  for (int i = 0; i < 2000 && b.rejected() < kCount; ++i) {
    EXPECT_FALSE(b.poll(1, out)) << "a corrupted frame decoded";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Loopback doesn't drop at this volume: every flipped frame must have
  // been seen and refused, none delivered.
  EXPECT_EQ(b.rejected(), kCount);
  EXPECT_EQ(b.received(), 0u);
}

TEST(UdpTransportSuite, LatencyStormWithoutAClockFailsLoudly) {
  // A clock-less UdpTransport cannot hold frames back, so a latency storm
  // would silently degrade to zero extra delay — the transport must refuse
  // to arm it instead of lying about the fault it injects.
  UdpTransport a(2, 0, 24750, /*clock=*/nullptr);
  EXPECT_THROW(a.set_link_fault(0, 1, LinkFault{0.0f, 1.5f}),
               std::runtime_error);
  // Faults that need no clock still arm fine.
  EXPECT_NO_THROW(a.set_link_fault(0, 1, LinkFault{0.5f, 0.0f}));
  EXPECT_NO_THROW(a.set_link_fault(0, 1, LinkFault{0.0f, 0.0f, 0.5f}));
  // And clearing an armed storm is always allowed.
  EXPECT_NO_THROW(a.set_link_fault(0, 1, LinkFault{}));
}

// ------------------------------------------------------------ tcp transport

TEST(TcpTransportSuite, DeliversOverRealConnections) {
  VirtualClock clock;
  TcpTransport a(2, 0, 26000, clock);
  TcpTransport b(2, 1, 26000, clock);
  // First send dials; the frame rides the connection as soon as the
  // non-blocking connect completes.
  EXPECT_TRUE(a.send(beacon_msg(0, 1, 7.0)));
  WireMsg out;
  bool got = false;
  for (int i = 0; i < 2000 && !got; ++i) {
    a.poll(0, out);  // progresses the outbound connection
    got = b.poll(1, out);
    if (!got) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(got) << "frame never crossed the TCP connection";
  EXPECT_DOUBLE_EQ(out.sent_at, 7.0);
  EXPECT_EQ(out.from, 0);
  EXPECT_EQ(a.sent(), 1u);
  EXPECT_EQ(b.received(), 1u);
  EXPECT_EQ(b.rejected(), 0u);
  EXPECT_GE(a.reconnects(), 1u) << "establishment must be counted";
  EXPECT_EQ(a.conn_state(1), TcpTransport::ConnState::kEstablished);
}

TEST(TcpTransportSuite, ResetEntersBackoffThenReestablishes) {
  VirtualClock clock;
  TcpTransport a(2, 0, 26010, clock);
  TcpTransport b(2, 1, 26010, clock);
  WireMsg out;
  a.send(beacon_msg(0, 1, 1.0));
  for (int i = 0; i < 2000 && !b.poll(1, out); ++i) {
    a.poll(0, out);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(a.conn_state(1), TcpTransport::ConnState::kEstablished);

  // Chaos reset: consumed on the owning thread at the next send/poll; the
  // connection hard-closes and enters Backoff, during which sends degrade
  // to the "send() == false means drop" contract.
  a.request_reset(1);
  EXPECT_FALSE(a.send(beacon_msg(0, 1, 2.0)));
  EXPECT_EQ(a.conn_state(1), TcpTransport::ConnState::kBackoff);
  EXPECT_EQ(a.resets(), 1u);
  EXPECT_EQ(a.backoff_attempts(1), 1);
  EXPECT_GT(a.last_backoff(1), 0.0);
  EXPECT_GT(a.conn_down(), 0u);

  // Past the backoff deadline the machine re-dials and recovers.
  clock.advance_to(clock.now() + 10.0);
  bool got = false;
  for (int i = 0; i < 2000 && !got; ++i) {
    a.send(beacon_msg(0, 1, 3.0));
    a.poll(0, out);
    got = b.poll(1, out);
    if (!got) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(got) << "connection never re-established after reset";
  EXPECT_EQ(a.conn_state(1), TcpTransport::ConnState::kEstablished);
  EXPECT_GE(a.reconnects(), 2u);
  EXPECT_EQ(a.backoff_attempts(1), 0) << "re-establishment resets the count";
}

TEST(TcpTransportSuite, BackoffGrowsExponentiallyAndStaysCapped) {
  // No peer listener: every dial fails, so consecutive attempts walk the
  // whole backoff schedule. Growth must be monotone (modulo jitter) and
  // capped at backoff_max * (1 + jitter).
  VirtualClock clock;
  TcpConfig cfg;
  cfg.backoff_base = 0.05;
  cfg.backoff_max = 1.6;
  cfg.jitter = 0.25;
  TcpTransport a(2, 0, 26020, clock, 1, cfg);
  std::vector<Duration> backoffs;
  for (int i = 0; i < 12; ++i) {
    // Drive the machine until this dial attempt fails. A refused loopback
    // dial can collapse Backoff -> dial -> Backoff inside one send() call,
    // so the observable progress signal is the resets counter, not state.
    const auto target = static_cast<std::uint64_t>(i) + 1;
    for (int spin = 0; spin < 2000 && a.resets() < target; ++spin) {
      a.send(beacon_msg(0, 1, i));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(a.resets(), target) << "dial " << i << " never failed";
    ASSERT_EQ(a.conn_state(1), TcpTransport::ConnState::kBackoff);
    backoffs.push_back(a.last_backoff(1));
    clock.advance_to(clock.now() + a.last_backoff(1) + 0.01);
  }
  const double cap = cfg.backoff_max * (1.0 + cfg.jitter);
  for (std::size_t i = 0; i < backoffs.size(); ++i) {
    EXPECT_GT(backoffs[i], 0.0);
    EXPECT_LE(backoffs[i], cap) << "attempt " << i << " exceeded the cap";
  }
  // The first delay sits near the base; by the 8th the cap dominates.
  EXPECT_LE(backoffs.front(), cfg.backoff_base * (1.0 + cfg.jitter) + 1e-9);
  EXPECT_GE(backoffs.back(), cfg.backoff_max);
  EXPECT_EQ(a.reconnects(), 0u);
  EXPECT_GE(a.resets(), 12u);
}

TEST(TcpTransportSuite, CorruptedFramesAreRejectedAtIngress) {
  VirtualClock clock;
  TcpTransport a(2, 0, 26030, clock);
  TcpTransport b(2, 1, 26030, clock);
  a.set_link_fault(0, 1, LinkFault{0.0f, 0.0f, 1.0f});
  constexpr std::uint64_t kCount = 25;
  WireMsg out;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    a.send(beacon_msg(0, 1, static_cast<double>(i)));
    a.poll(0, out);
  }
  EXPECT_EQ(a.corrupted(), kCount);
  for (int i = 0; i < 2000 && b.rejected() < kCount; ++i) {
    a.poll(0, out);  // keep flushing the write buffer
    EXPECT_FALSE(b.poll(1, out)) << "a corrupted frame decoded";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The stream stays framed: every flipped frame was skipped by its length
  // prefix and counted, and the connection survived all of them.
  EXPECT_EQ(b.rejected(), kCount);
  EXPECT_EQ(b.received(), 0u);
  // Clean frames still flow on the same connection afterwards.
  a.set_link_fault(0, 1, LinkFault{});
  a.send(beacon_msg(0, 1, 99.0));
  bool got = false;
  for (int i = 0; i < 2000 && !got; ++i) {
    a.poll(0, out);
    got = b.poll(1, out);
    if (!got) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(got);
  EXPECT_DOUBLE_EQ(out.sent_at, 99.0);
}

// ------------------------------------------------- chaos decision-stream pins
//
// A sender of a 4-node cluster sends 256 frames on sender -> 2 with drop 0.5
// and corrupt 0.5 armed. Each send's (dropped, corrupted) outcome is folded
// into a digest pinned below, so any change to the keyed chaos draws or to
// what a send draws fails here, not only in end-to-end fingerprints. The
// draws are keyed by (seed, sender, destination, send count) alone, so the
// pipe, UDP and TCP backends must all hit the same pin, for sender 0 and for
// sender 1. The socket backends also pin the exact bytes put on the wire,
// which fixes the flipped bit of every corrupted frame.

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr int kPinFrames = 256;

struct ChaosPin {
  NodeId from;
  std::uint64_t decisions;  ///< every backend
  std::uint64_t bytes;      ///< the socket backends' wire bytes
};
constexpr ChaosPin kChaosPins[] = {
    {0, 0x59eafa7d26ec35a8ULL, 0xec9fdef4d787787aULL},
    {1, 0x8cf4de038c1448deULL, 0x9125aed343774e4fULL},
};

std::uint64_t fnv_step(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;
}

std::uint64_t fold_outcome(std::uint64_t h, bool dropped, bool corrupted) {
  return fnv_step(h, (dropped ? 1u : 0u) | (corrupted ? 2u : 0u));
}

/// A bare loopback socket standing in for node 2, so a test sees exactly the
/// bytes a transport put on the wire, corrupted frames included. Datagram
/// sinks bind; stream sinks listen and accept the sender's one connection.
class RawSink {
 public:
  /// A nonzero `rcvbuf` shrinks the receive buffer (an accepted connection
  /// inherits the listener's), so a sink that stops reading soon stalls the
  /// sender.
  RawSink(int type, std::uint16_t port, int rcvbuf = 0) : stream_(type == SOCK_STREAM) {
    fd_ = ::socket(AF_INET, type | SOCK_NONBLOCK, 0);
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (rcvbuf > 0) ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    ok_ = ::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0 &&
          (!stream_ || ::listen(fd_, 4) == 0);
  }
  ~RawSink() {
    if (conn_ >= 0) ::close(conn_);
    if (fd_ >= 0) ::close(fd_);
  }
  RawSink(const RawSink&) = delete;
  RawSink& operator=(const RawSink&) = delete;

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }
  [[nodiscard]] std::uint64_t digest() const { return digest_; }

  /// Fold everything readable right now into the byte digest.
  void drain() {
    if (stream_ && conn_ < 0) conn_ = ::accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK);
    const int fd = stream_ ? conn_ : fd_;
    if (fd < 0) return;
    std::uint8_t buf[4096];
    for (;;) {
      const ssize_t rc = ::recv(fd, buf, sizeof(buf), 0);
      if (rc <= 0) return;
      for (ssize_t i = 0; i < rc; ++i) digest_ = fnv_step(digest_, buf[i]);
      bytes_ += static_cast<std::size_t>(rc);
    }
  }

 private:
  bool stream_;
  bool ok_ = false;
  int fd_ = -1;
  int conn_ = -1;
  std::size_t bytes_ = 0;
  std::uint64_t digest_ = kFnvOffset;
};

/// Drive `send` for the pin workload; `drops` and `corrupts` read the
/// backend's chaos counters. Returns the decision digest; `wire_bytes`
/// receives the total size of the frames that were not dropped.
template <class Send, class Drops, class Corrupts>
std::uint64_t pin_decisions(NodeId from, Send send, Drops drops, Corrupts corrupts,
                            std::size_t& wire_bytes) {
  std::uint64_t h = kFnvOffset;
  wire_bytes = 0;
  for (int i = 0; i < kPinFrames; ++i) {
    const WireMsg m = beacon_msg(from, 2, i);
    const std::uint64_t d0 = drops();
    const std::uint64_t c0 = corrupts();
    EXPECT_TRUE(send(m));
    const bool dropped = drops() != d0;
    h = fold_outcome(h, dropped, corrupts() != c0);
    if (!dropped) {
      std::uint8_t frame[kWireMax];
      wire_bytes += wire_encode(m, frame);
    }
  }
  return h;
}

const LinkFault kPinFault{0.5f, 0.0f, 0.5f};

TEST(PipeHub, ChaosDecisionsMatchThePin) {
  for (const ChaosPin& pin : kChaosPins) {
    SCOPED_TRACE("sender " + std::to_string(pin.from));
    VirtualClock clock;
    PipeHub hub(4, clock);
    hub.set_link_fault(pin.from, 2, kPinFault);
    std::size_t wire_bytes = 0;
    const std::uint64_t h = pin_decisions(
        pin.from, [&](const WireMsg& m) { return hub.send(m); },
        [&] { return hub.chaos_dropped(); }, [&] { return hub.corrupted(); },
        wire_bytes);
    EXPECT_EQ(h, pin.decisions) << std::hex << "0x" << h;
    EXPECT_EQ(hub.rejected(), hub.corrupted());
  }
}

// The pipe's FaultSpec rolls and receiver-side hold, pinned the same way:
// sender 1 of 4 sends round-robin to 0, 2 and 3 with every FaultSpec fault
// and a chaos fault (drop, storm, corrupt) on 1 -> 2. Each send's counter
// deltas are folded, then the clock steps and every receiver's poll order
// and sent_at bits follow, so a change to what is drawn, what is held or
// when a held frame surfaces fails here.
TEST(PipeHub, FaultSpecDecisionsMatchThePin) {
  VirtualClock clock;
  FaultSpec faults;
  faults.drop = 0.3;
  faults.dup = 0.2;
  faults.reorder = 0.3;
  faults.delay = 1.0;
  faults.jitter = 0.05;
  PipeHub hub(4, clock, faults);
  hub.set_link_fault(1, 2, LinkFault{0.25f, 0.3f, 0.5f});
  const auto counters = [&] {
    return std::vector<std::uint64_t>{hub.sent(),          hub.dropped(),
                                      hub.duplicated(),    hub.delayed(),
                                      hub.chaos_dropped(), hub.corrupted(),
                                      hub.rejected()};
  };
  constexpr NodeId kReceivers[] = {0, 2, 3};
  std::uint64_t h = kFnvOffset;
  WireMsg out;
  const auto drain = [&] {
    for (const NodeId r : kReceivers) {
      while (hub.poll(r, out)) {
        h = fnv_step(fnv_step(h, static_cast<std::uint64_t>(r)),
                     std::bit_cast<std::uint64_t>(out.sent_at));
      }
    }
  };
  for (int i = 0; i < kPinFrames; ++i) {
    const std::vector<std::uint64_t> before = counters();
    hub.send(beacon_msg(1, kReceivers[i % 3], i));
    const std::vector<std::uint64_t> after = counters();
    for (std::size_t c = 0; c < after.size(); ++c) h = fnv_step(h, after[c] - before[c]);
    clock.advance_to(0.01 * (i + 1));
    drain();
  }
  clock.advance_to(10.0);  // release every held copy
  drain();
  for (const std::uint64_t c : counters()) EXPECT_GT(c, 0u) << "a fault never fired";
  EXPECT_EQ(h, 0x6d4807974e8a2667ULL) << std::hex << "0x" << h;
}

TEST(UdpTransportSuite, ChaosDecisionsMatchThePin) {
  for (const ChaosPin& pin : kChaosPins) {
    SCOPED_TRACE("sender " + std::to_string(pin.from));
    const auto base = static_cast<std::uint16_t>(24770 + 10 * pin.from);
    VirtualClock clock;
    RawSink sink(SOCK_DGRAM, static_cast<std::uint16_t>(base + 2));
    ASSERT_TRUE(sink.ok());
    UdpTransport a(4, pin.from, base, &clock);
    a.set_link_fault(pin.from, 2, kPinFault);
    std::size_t wire_bytes = 0;
    const std::uint64_t h = pin_decisions(
        pin.from,
        [&](const WireMsg& m) {
          const bool ok = a.send(m);
          sink.drain();  // loopback datagrams arrive synchronously
          return ok;
        },
        [&] { return a.dropped(); }, [&] { return a.corrupted(); }, wire_bytes);
    EXPECT_EQ(h, pin.decisions) << std::hex << "0x" << h;
    for (int i = 0; i < 2000 && sink.bytes() < wire_bytes; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      sink.drain();
    }
    ASSERT_EQ(sink.bytes(), wire_bytes);
    EXPECT_EQ(sink.digest(), pin.bytes) << std::hex << "0x" << sink.digest();
  }
}

TEST(TcpTransportSuite, ChaosDecisionsMatchThePin) {
  for (const ChaosPin& pin : kChaosPins) {
    SCOPED_TRACE("sender " + std::to_string(pin.from));
    const auto base = static_cast<std::uint16_t>(26060 + 10 * pin.from);
    VirtualClock clock;
    RawSink sink(SOCK_STREAM, static_cast<std::uint16_t>(base + 2));
    ASSERT_TRUE(sink.ok());
    TcpTransport a(4, pin.from, base, clock);
    a.set_link_fault(pin.from, 2, kPinFault);
    std::size_t wire_bytes = 0;
    WireMsg scratch;
    const std::uint64_t h = pin_decisions(
        pin.from,
        [&](const WireMsg& m) {
          const bool ok = a.send(m);
          a.poll(pin.from, scratch);  // progress the handshake, flush the write buffer
          sink.drain();
          return ok;
        },
        [&] { return a.dropped(); }, [&] { return a.corrupted(); }, wire_bytes);
    EXPECT_EQ(h, pin.decisions) << std::hex << "0x" << h;
    for (int i = 0; i < 2000 && sink.bytes() < wire_bytes; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      a.poll(pin.from, scratch);
      sink.drain();
    }
    ASSERT_EQ(sink.bytes(), wire_bytes);
    EXPECT_EQ(sink.digest(), pin.bytes) << std::hex << "0x" << sink.digest();
    EXPECT_EQ(a.conn_down(), 0u);
    EXPECT_EQ(a.backpressure(), 0u);
  }
}

// The stream contract: send() may only queue a frame; the sender's next
// poll() puts it on the wire, frames in send order. A burst larger than the
// socket buffers leaves the tail in the transport (the write stops partway,
// possibly inside a frame), and later polls resume it byte-exactly.
TEST(TcpTransportSuite, NextPollPutsQueuedFramesOnTheWireInSendOrder) {
  constexpr std::uint16_t kBase = 26230;
  VirtualClock clock;
  RawSink sink(SOCK_STREAM, kBase + 1, /*rcvbuf=*/4096);
  ASSERT_TRUE(sink.ok());
  TcpConfig cfg;
  cfg.write_buffer_cap = std::size_t{16} << 20;  // hold the whole burst
  TcpTransport a(2, 0, kBase, clock, 1, cfg);
  std::uint64_t digest = kFnvOffset;
  std::size_t total = 0;
  const auto queue = [&](double tag) {
    const WireMsg m = beacon_msg(0, 1, tag);
    EXPECT_TRUE(a.send(m));
    std::uint8_t frame[kWireMax];
    const std::size_t len = wire_encode(m, frame);
    for (std::size_t i = 0; i < len; ++i) digest = fnv_step(digest, frame[i]);
    total += len;
  };
  WireMsg scratch;
  // Establish the connection with a first frame.
  queue(0.0);
  for (int i = 0; i < 2000 && sink.bytes() < total; ++i) {
    a.poll(0, scratch);
    sink.drain();
    if (sink.bytes() < total) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(sink.bytes(), total) << "the first frame never arrived";
  ASSERT_EQ(a.conn_state(1), TcpTransport::ConnState::kEstablished);

  // A few frames: all of them readable after one poll.
  for (int i = 1; i <= 3; ++i) queue(i);
  a.poll(0, scratch);
  sink.drain();
  EXPECT_EQ(sink.bytes(), total) << "queued frames not written by the next poll";
  EXPECT_EQ(sink.digest(), digest);

  // A burst larger than the sink's receive buffer plus the largest send
  // buffer Linux grants by default (tcp_wmem max, 4 MiB): one poll writes
  // what the kernel takes; the sink, read without further polls, stops short.
  constexpr std::size_t kBurstBytes = std::size_t{8} << 20;
  const std::size_t before = total;
  int burst = 0;
  while (total - before < kBurstBytes) queue(100.0 + burst++);
  a.poll(0, scratch);
  for (int i = 0; i < 50; ++i) {
    sink.drain();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_LT(sink.bytes(), total) << "the burst never backed up into the transport";
  for (int i = 0; i < 5000 && sink.bytes() < total; ++i) {
    a.poll(0, scratch);
    sink.drain();
    if (sink.bytes() < total) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(sink.bytes(), total);
  EXPECT_EQ(sink.digest(), digest) << "bytes lost, repeated or out of order";
  EXPECT_EQ(a.sent(), static_cast<std::uint64_t>(burst) + 4u);
  EXPECT_EQ(a.backpressure(), 0u);
  EXPECT_EQ(a.conn_down(), 0u);
}

/// Latency-storm schedule shared by the socket backends, on link 0 -> 1:
/// frames 0-2 sent at t=0 under a 2 s storm, frame 3 at t=0.5 under 0.5 s,
/// frame 4 at t=1 under 1 s. Frame 3 falls due first and leaves alone at
/// t=1; frames 0, 1, 2 and 4 all fall due at t=2 and must leave in send
/// order. `a.poll` is what walks the sender's stash between sends.
template <class T>
void check_storm_release_order(VirtualClock& clock, T& a, T& b) {
  WireMsg out;
  auto arrives = [&](double tag) {
    for (int i = 0; i < 2000; ++i) {
      a.poll(0, out);
      if (b.poll(1, out)) {
        EXPECT_DOUBLE_EQ(out.sent_at, tag);
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  };
  auto quiet = [&] {
    for (int i = 0; i < 20; ++i) {
      a.poll(0, out);
      if (b.poll(1, out)) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  };
  a.set_link_fault(0, 1, LinkFault{0.0f, 2.0f});
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(a.send(beacon_msg(0, 1, i)));
  EXPECT_TRUE(quiet()) << "storm frames leaked at t=0";
  clock.advance_to(0.5);
  a.set_link_fault(0, 1, LinkFault{0.0f, 0.5f});
  EXPECT_TRUE(a.send(beacon_msg(0, 1, 3)));
  EXPECT_TRUE(quiet()) << "storm frames leaked at t=0.5";
  clock.advance_to(1.0);
  a.set_link_fault(0, 1, LinkFault{0.0f, 1.0f});
  EXPECT_TRUE(a.send(beacon_msg(0, 1, 4)));
  ASSERT_TRUE(arrives(3)) << "frame 3 is due at t=1";
  EXPECT_TRUE(quiet()) << "frames due at t=2 left early";
  clock.advance_to(1.5);
  EXPECT_TRUE(quiet()) << "frames due at t=2 left at t=1.5";
  clock.advance_to(2.0);
  for (const double tag : {0.0, 1.0, 2.0, 4.0}) {
    ASSERT_TRUE(arrives(tag)) << "frame " << tag << " never released";
  }
  EXPECT_TRUE(quiet());
}

TEST(UdpTransportSuite, LatencyStormReleasesInDueThenSendOrder) {
  VirtualClock clock;
  UdpTransport a(2, 0, 24790, &clock);
  UdpTransport b(2, 1, 24790, &clock);
  check_storm_release_order(clock, a, b);
  EXPECT_EQ(b.received(), 5u);
}

TEST(TcpTransportSuite, LatencyStormReleasesInDueThenSendOrder) {
  VirtualClock clock;
  TcpTransport a(2, 0, 26050, clock);
  TcpTransport b(2, 1, 26050, clock);
  check_storm_release_order(clock, a, b);
  EXPECT_EQ(b.received(), 5u);
  EXPECT_EQ(a.conn_down(), 0u);
}

// ------------------------------------------------------------------ liveness

DetectorConfig fast_detector() {
  DetectorConfig cfg;
  cfg.suspect_after = 1.0;
  cfg.evict_after = 3.0;
  cfg.probe_interval = 0.5;
  cfg.probe_backoff = 2.0;
  cfg.probe_max = 4.0;
  return cfg;
}

TEST(Liveness, SilenceSuspectsThenEvicts) {
  LivenessDetector det(fast_detector());
  det.add_peer(1, 0.0, true);
  std::vector<LivenessAction> acts;
  det.poll(0.9, acts);
  EXPECT_TRUE(acts.empty());
  EXPECT_EQ(det.state(1), PeerLiveness::kAlive);

  det.poll(1.0, acts);  // silence hits suspect_after: probe at once
  EXPECT_EQ(det.state(1), PeerLiveness::kSuspect);
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_EQ(acts[0].kind, LivenessAction::Kind::kProbe);
  EXPECT_EQ(acts[0].peer, 1);
  EXPECT_EQ(det.evictions(), 0u);

  acts.clear();
  det.poll(3.0, acts);  // silence hits evict_after: evict, keep probing
  EXPECT_EQ(det.state(1), PeerLiveness::kDown);
  ASSERT_GE(acts.size(), 1u);
  EXPECT_EQ(acts[0].kind, LivenessAction::Kind::kEvict);
  EXPECT_EQ(det.evictions(), 1u);
}

TEST(Liveness, AnyFrameRevivesADownPeer) {
  LivenessDetector det(fast_detector());
  det.add_peer(1, 0.0, true);
  std::vector<LivenessAction> acts;
  det.poll(3.0, acts);
  ASSERT_EQ(det.state(1), PeerLiveness::kDown);
  EXPECT_TRUE(det.on_frame(1, 3.5)) << "Down -> Alive must signal re-insertion";
  EXPECT_EQ(det.state(1), PeerLiveness::kAlive);
  EXPECT_EQ(det.revivals(), 1u);
  EXPECT_FALSE(det.on_frame(1, 3.6)) << "Alive -> Alive is not a revival";
  EXPECT_FALSE(det.on_frame(99, 3.7)) << "unmonitored peers are ignored";
  EXPECT_DOUBLE_EQ(det.last_heard(1), 3.6);
}

TEST(Liveness, ProbesBackOffWhileDownAndCap) {
  LivenessDetector det(fast_detector());
  det.add_peer(1, 0.0, true);
  std::vector<LivenessAction> probe_times_scratch;
  std::vector<Time> probes;
  for (Time t = 3.0; t <= 14.01; t += 0.5) {
    probe_times_scratch.clear();
    det.poll(t, probe_times_scratch);
    for (const LivenessAction& a : probe_times_scratch) {
      if (a.kind == LivenessAction::Kind::kProbe) probes.push_back(t);
    }
  }
  // Down at 3.0 with gap 0.5 doubling per probe, capped at 4.0:
  // 3.0 (gap->1), 4.0 (->2), 6.0 (->4), 10.0 (capped), 14.0.
  const std::vector<Time> expect = {3.0, 4.0, 6.0, 10.0, 14.0};
  EXPECT_EQ(probes, expect);
  EXPECT_EQ(det.probes(), expect.size());
}

TEST(Liveness, MarkDownSkipsEvictionAndProbesImmediately) {
  LivenessDetector det(fast_detector());
  det.add_peer(1, 0.0, true);
  det.mark_down(1, 5.0);  // the caller already knows (restart path)
  EXPECT_EQ(det.state(1), PeerLiveness::kDown);
  EXPECT_EQ(det.evictions(), 0u);
  std::vector<LivenessAction> acts;
  det.poll(5.0, acts);
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_EQ(acts[0].kind, LivenessAction::Kind::kProbe);
  acts.clear();
  det.poll(20.0, acts);  // long silence on a Down peer never re-evicts
  for (const LivenessAction& a : acts) {
    EXPECT_NE(a.kind, LivenessAction::Kind::kEvict);
  }
  EXPECT_EQ(det.evictions(), 0u);
}

TEST(Liveness, PeerAddedDownMustProveItself) {
  LivenessDetector det(fast_detector());
  det.add_peer(2, 1.0, /*alive=*/false);
  EXPECT_EQ(det.state(2), PeerLiveness::kDown);
  std::vector<LivenessAction> acts;
  det.poll(1.0, acts);
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_EQ(acts[0].kind, LivenessAction::Kind::kProbe);
  EXPECT_TRUE(det.on_frame(2, 1.2));
  EXPECT_EQ(det.state(2), PeerLiveness::kAlive);
}

// ------------------------------------------------------------------- chaos

TEST(Chaos, LinkFaultPacksLosslessly) {
  // drop and corrupt ride as bfloat16 (the preset probabilities are all
  // powers of two, exact in bf16); extra_delay keeps full float32.
  const LinkFault f{0.25f, 1.5f, 0.5f};
  const LinkFault g = unpack_link_fault(pack_link_fault(f));
  EXPECT_EQ(g.drop, f.drop);
  EXPECT_EQ(g.extra_delay, f.extra_delay);
  EXPECT_EQ(g.corrupt, f.corrupt);
  const LinkFault zero = unpack_link_fault(0);
  EXPECT_EQ(zero.drop, 0.0f);
  EXPECT_EQ(zero.extra_delay, 0.0f);
  EXPECT_EQ(zero.corrupt, 0.0f);
  // Non-dyadic probabilities quantize but stay within bf16 relative error
  // (<= 1/256) and never round a nonzero probability to zero.
  const LinkFault q = unpack_link_fault(pack_link_fault(LinkFault{0.3f, 0.0f, 0.7f}));
  EXPECT_NEAR(q.drop, 0.3f, 0.3f / 128.0f);
  EXPECT_NEAR(q.corrupt, 0.7f, 0.7f / 128.0f);
  EXPECT_GT(q.drop, 0.0f);
  EXPECT_GT(q.corrupt, 0.0f);
}

TEST(Chaos, ParsesInlineScriptsSortedByTime) {
  const ChaosScript s = ChaosScript::parse(
      "at 12 heal 0 1 # trailing comment\n"
      "at 5 cut 0 1; at 20 drop 1 2 0.5;; at 25 storm 0 2 0.3");
  ASSERT_EQ(s.ops().size(), 4u);
  EXPECT_EQ(s.ops()[0].kind, ChaosOp::Kind::kCut);
  EXPECT_DOUBLE_EQ(s.ops()[0].at, 5.0);
  EXPECT_EQ(s.ops()[1].kind, ChaosOp::Kind::kHeal);
  EXPECT_EQ(s.ops()[2].kind, ChaosOp::Kind::kDrop);
  EXPECT_DOUBLE_EQ(s.ops()[2].value, 0.5);
  EXPECT_EQ(s.ops()[3].kind, ChaosOp::Kind::kStorm);
  // The canonical form round-trips.
  EXPECT_EQ(ChaosScript::parse(s.str()).str(), s.str());
}

TEST(Chaos, RejectsMalformedScripts) {
  EXPECT_THROW(ChaosScript::parse("crash 0"), std::runtime_error);
  EXPECT_THROW(ChaosScript::parse("at -1 crash 0"), std::runtime_error);
  EXPECT_THROW(ChaosScript::parse("at 5 explode 1"), std::runtime_error);
  EXPECT_THROW(ChaosScript::parse("at 5 cut 0 0"), std::runtime_error);
  EXPECT_THROW(ChaosScript::parse("at 5 drop 0 1"), std::runtime_error);
  EXPECT_THROW(ChaosScript::parse("at 5 crash 0 junk"), std::runtime_error);
  EXPECT_THROW(ChaosScript::parse("at 5 corrupt 0 1"), std::runtime_error)
      << "corrupt needs a probability";
  EXPECT_THROW(ChaosScript::parse("at 5 conn-reset 0"), std::runtime_error);
  EXPECT_THROW(ChaosScript::parse("at 5 conn-reset 0 1 0.5"),
               std::runtime_error)
      << "conn-reset takes no value";
}

TEST(Chaos, ParsesCorruptAndConnResetVerbs) {
  const ChaosScript s = ChaosScript::parse(
      "at 5 corrupt 0 1 0.5; at 12 clear 0 1; at 20 conn-reset 1 2");
  ASSERT_EQ(s.ops().size(), 3u);
  EXPECT_EQ(s.ops()[0].kind, ChaosOp::Kind::kCorrupt);
  EXPECT_DOUBLE_EQ(s.ops()[0].value, 0.5);
  EXPECT_EQ(s.ops()[2].kind, ChaosOp::Kind::kConnReset);
  EXPECT_EQ(s.ops()[2].a, 1);
  EXPECT_EQ(s.ops()[2].b, 2);
  // Canonical form round-trips both verbs.
  EXPECT_EQ(ChaosScript::parse(s.str()).str(), s.str());
  // A conn-reset is instantaneous: alone it opens a zero-width phase that
  // still yields a gate window up to the next fault (or the horizon).
  const auto phases = s.phases(40.0, 2.0);
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_DOUBLE_EQ(phases[1].fault_at, 20.0);
  EXPECT_DOUBLE_EQ(phases[1].clear_at, 20.0);
  EXPECT_DOUBLE_EQ(phases[1].gate_begin, 22.0);
  EXPECT_DOUBLE_EQ(phases[1].gate_end, 40.0);
  EXPECT_TRUE(phases[1].gateable());
}

TEST(Chaos, RejectsEmptyScripts) {
  // An empty / all-comment / all-separator script is a mangled flag or a
  // file that failed to load, not a request for no chaos — the explicit
  // way to say "no chaos" is a default-constructed ChaosScript.
  EXPECT_THROW(ChaosScript::parse(""), std::runtime_error);
  EXPECT_THROW(ChaosScript::parse("   \n   \n"), std::runtime_error);
  EXPECT_THROW(ChaosScript::parse("# only comments\n# all the way down"),
               std::runtime_error);
  EXPECT_THROW(ChaosScript::parse(";;;"), std::runtime_error);
  // ...but comments/blanks alongside at least one op are fine.
  EXPECT_NO_THROW(ChaosScript::parse("# header\n\nat 5 crash 0 # eol"));
  EXPECT_TRUE(ChaosScript{}.empty());
}

TEST(Chaos, RejectsNegativeNodeIds) {
  EXPECT_THROW(ChaosScript::parse("at 5 crash -1"), std::runtime_error);
  EXPECT_THROW(ChaosScript::parse("at 5 restart -3"), std::runtime_error);
  EXPECT_THROW(ChaosScript::parse("at 5 cut -2 1"), std::runtime_error);
  EXPECT_THROW(ChaosScript::parse("at 5 cut 1 -2"), std::runtime_error);
  EXPECT_THROW(ChaosScript::parse("at 5 drop 0 -1 0.5"), std::runtime_error);
}

TEST(Chaos, ValidateRejectsOutOfRangeIds) {
  const ChaosScript s = ChaosScript::parse("at 5 crash 4; at 10 cut 0 3");
  EXPECT_NO_THROW(s.validate(5));
  EXPECT_THROW(s.validate(4), std::runtime_error);  // crash 4 needs n >= 5
  EXPECT_THROW(ChaosScript::parse("at 5 heal 0 9").validate(5),
               std::runtime_error);
  EXPECT_THROW(ChaosScript::parse("at 5 storm 9 0 0.3").validate(5),
               std::runtime_error);
}

TEST(Chaos, OutOfOrderTimestampsAreAcceptedAndStableSorted) {
  // Statements may be authored in any order: replay sorts by time, and
  // equal-time ops keep their text order, so the applied sequence is
  // deterministic regardless of how the script was written.
  const ChaosScript s = ChaosScript::parse(
      "at 30 heal 0 1; at 10 cut 0 1; at 10 crash 2; at 20 restart 2");
  ASSERT_EQ(s.ops().size(), 4u);
  EXPECT_EQ(s.ops()[0].kind, ChaosOp::Kind::kCut);    // t=10, first in text
  EXPECT_EQ(s.ops()[1].kind, ChaosOp::Kind::kCrash);  // t=10, second in text
  EXPECT_EQ(s.ops()[2].kind, ChaosOp::Kind::kRestart);
  EXPECT_EQ(s.ops()[3].kind, ChaosOp::Kind::kHeal);
  EXPECT_EQ(ChaosScript::parse(s.str()).str(), s.str());
}

TEST(Chaos, DerivesQuietPhaseGates) {
  const ChaosScript s = ChaosScript::parse(
      "at 10 cut 0 1; at 20 heal 0 1; at 40 crash 2; at 50 restart 2");
  const auto phases = s.phases(100.0, 5.0);
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_DOUBLE_EQ(phases[0].fault_at, 10.0);
  EXPECT_DOUBLE_EQ(phases[0].clear_at, 20.0);
  EXPECT_DOUBLE_EQ(phases[0].gate_begin, 25.0);
  EXPECT_DOUBLE_EQ(phases[0].gate_end, 40.0);
  EXPECT_TRUE(phases[0].gateable());
  EXPECT_DOUBLE_EQ(phases[1].gate_begin, 55.0);
  EXPECT_DOUBLE_EQ(phases[1].gate_end, 100.0);

  // Overlapping faults merge into one phase that clears when the active
  // set empties.
  const auto merged =
      ChaosScript::parse(
          "at 10 cut 0 1; at 15 crash 2; at 20 heal 0 1; at 30 restart 2")
          .phases(100.0, 5.0);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_DOUBLE_EQ(merged[0].fault_at, 10.0);
  EXPECT_DOUBLE_EQ(merged[0].clear_at, 30.0);

  // A never-cleared fault runs to the horizon and gates nothing.
  const auto open = ChaosScript::parse("at 10 cut 0 1").phases(50.0, 5.0);
  ASSERT_EQ(open.size(), 1u);
  EXPECT_DOUBLE_EQ(open[0].clear_at, 50.0);
  EXPECT_FALSE(open[0].gateable());
}

TEST(Chaos, PresetsAreSeedDeterministic) {
  const std::vector<EdgeKey> edges{EdgeKey(0, 1), EdgeKey(1, 2), EdgeKey(0, 2)};
  for (const char* name : {"crash", "partition", "churn"}) {
    const ChaosScript a = ChaosScript::preset(name, 3, edges, 40.0, 7);
    const ChaosScript b = ChaosScript::preset(name, 3, edges, 40.0, 7);
    EXPECT_EQ(a.str(), b.str()) << name;
    EXPECT_FALSE(a.empty()) << name;
    // Every preset phase gets a usable quiet window at the default
    // stabilization fraction (0.1 * horizon).
    for (const ChaosPhase& p : a.phases(40.0, 4.0)) {
      EXPECT_TRUE(p.gateable()) << name << " phase " << p.label;
    }
  }
  EXPECT_THROW(ChaosScript::preset("nope", 3, edges, 40.0, 7),
               std::runtime_error);
  // The corrupt preset mixes bit-flip windows with a conn-reset burst; the
  // burst's back-to-back instantaneous phases have no quiet window of their
  // own (by design — only the last reset gets gated), so it is checked
  // separately: deterministic, non-empty, and at least one gateable phase.
  const ChaosScript c1 = ChaosScript::preset("corrupt", 3, edges, 40.0, 7);
  const ChaosScript c2 = ChaosScript::preset("corrupt", 3, edges, 40.0, 7);
  EXPECT_EQ(c1.str(), c2.str());
  EXPECT_FALSE(c1.empty());
  bool any_corrupt = false, any_reset = false;
  for (const ChaosOp& op : c1.ops()) {
    any_corrupt = any_corrupt || op.kind == ChaosOp::Kind::kCorrupt;
    any_reset = any_reset || op.kind == ChaosOp::Kind::kConnReset;
  }
  EXPECT_TRUE(any_corrupt);
  EXPECT_TRUE(any_reset);
  int gateable = 0;
  for (const ChaosPhase& p : c1.phases(40.0, 4.0)) gateable += p.gateable();
  EXPECT_GE(gateable, 2);
}

// ----------------------------------------------- rt cluster (lockstep, pipe)

ScenarioSpec rt_spec(int n) {
  ScenarioSpec spec;
  spec.name = "rt-test";
  spec.n = n;
  spec.seed = 11;
  spec.topology = ComponentSpec(n >= 3 ? "ring" : "line");
  spec.drift = ComponentSpec("osc-const");
  spec.drift.params.set("ppm", "150/-200/80");
  spec.estimates = ComponentSpec("rtt");
  spec.edge_params.eps = 0.1;
  spec.edge_params.tau = 0.5;
  spec.edge_params.msg_delay_max = 0.6;
  spec.edge_params.msg_delay_min = 0.0;
  spec.gtilde_auto = true;
  return spec;
}

/// A lockstep cluster run: the clock must outlive the cluster, so both live
/// here together with the final logical clocks.
struct LockstepRun {
  std::unique_ptr<VirtualClock> clock = std::make_unique<VirtualClock>();
  std::unique_ptr<RtCluster> cluster;
  std::vector<ClockValue> logical;
};

LockstepRun run_lockstep_cluster(const ScenarioSpec& spec,
                                 const FaultSpec& faults, Time horizon) {
  LockstepRun run;
  run.cluster = std::make_unique<RtCluster>(spec, *run.clock, faults);
  run.cluster->start();
  run.cluster->schedule_samples(horizon, 1.0);
  run.cluster->run_lockstep(*run.clock, horizon, 0.25);
  for (NodeId u = 0; u < run.cluster->size(); ++u) {
    run.logical.push_back(run.cluster->node(u).logical());
  }
  return run;
}

TEST(RtCluster, ConvergesWithoutFaults) {
  LockstepRun run = run_lockstep_cluster(rt_spec(3), {}, 60.0);
  RtCluster* cluster = run.cluster.get();

  // Every replica kept running and stayed mutually synchronized.
  for (std::size_t u = 0; u < run.logical.size(); ++u) {
    EXPECT_GT(run.logical[u], 59.0) << "node " << u << " stalled";
  }
  // Estimates exist and are eps-accurate against the peer replica's true
  // logical clock (all replicas sit at the same model instant here).
  for (const EdgeKey& e : cluster->edges()) {
    Engine& engine = cluster->node(e.a).engine();
    const double eps = engine.edge_eps(e);
    const auto est = cluster->node(e.a).scenario().estimate_of(e.a, e.b);
    ASSERT_TRUE(est.has_value()) << "no estimate on " << e.str();
    const double err = std::abs(*est - cluster->node(e.b).logical());
    EXPECT_LE(err, eps) << "estimate error on " << e.str();
  }
  // Skew within the derived gradient bound on every post-warmup sample.
  for (const RtEdgeReport& r : cluster->edge_report(10)) {
    EXPECT_GT(r.samples, 0);
    EXPECT_LE(r.max_abs_skew, r.bound) << "edge " << r.edge.str();
  }
}

TEST(RtCluster, ReconvergesUnderDropDuplicateReorder) {
  FaultSpec faults;
  faults.drop = 0.3;
  faults.dup = 0.2;
  faults.reorder = 0.3;
  faults.delay = 0.5;
  faults.seed = 21;
  LockstepRun run = run_lockstep_cluster(rt_spec(3), faults, 60.0);
  RtCluster* cluster = run.cluster.get();

  EXPECT_GT(cluster->hub().dropped(), 0u);
  EXPECT_GT(cluster->hub().duplicated(), 0u);
  EXPECT_GT(cluster->hub().delayed(), 0u);
  for (std::size_t u = 0; u < run.logical.size(); ++u) {
    EXPECT_GT(run.logical[u], 59.0) << "node " << u << " stalled under faults";
  }
  for (const RtEdgeReport& r : cluster->edge_report(20)) {
    EXPECT_GT(r.samples, 0);
    EXPECT_LE(r.max_abs_skew, r.bound)
        << "edge " << r.edge.str() << " violated its bound under faults";
  }
}

TEST(RtCluster, LockstepRunsAreBitDeterministic) {
  FaultSpec faults;
  faults.drop = 0.25;
  faults.dup = 0.15;
  faults.reorder = 0.25;
  faults.delay = 0.5;
  faults.seed = 5;
  const auto a = run_lockstep_cluster(rt_spec(3), faults, 30.0).logical;
  const auto b = run_lockstep_cluster(rt_spec(3), faults, 30.0).logical;
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t u = 0; u < a.size(); ++u) {
    EXPECT_EQ(a[u], b[u]) << "node " << u << " diverged across identical runs";
  }
}

TEST(RtCluster, SocketBackendsRejectFaultSpecFaults) {
  // Only the pipe injects FaultSpec faults; a socket cluster handed one
  // must refuse it instead of running fault-free.
  VirtualClock clock;
  const auto with = [](double FaultSpec::*field) {
    FaultSpec f;
    f.*field = 0.1;
    return f;
  };
  for (const RtBackend backend : {RtBackend::kUdp, RtBackend::kTcp}) {
    for (const auto field : {&FaultSpec::drop, &FaultSpec::dup, &FaultSpec::reorder,
                             &FaultSpec::jitter}) {
      EXPECT_THROW(RtCluster(rt_spec(2), clock, with(field), 1024, backend, 27400),
                   std::runtime_error);
    }
  }
  // `delay` alone sizes a reorder hold and injects nothing: accepted.
  FaultSpec inert;
  inert.delay = 0.2;
  RtCluster udp(rt_spec(2), clock, inert, 1024, RtBackend::kUdp, 27400);
  EXPECT_EQ(udp.size(), 2);
  EXPECT_THROW((void)udp.hub(), std::runtime_error);
  EXPECT_THROW((void)udp.tcp(0), std::runtime_error);
}

TEST(RtNode, RejectsFramesFromUnknownPeers) {
  VirtualClock clock;
  PipeHub hub(4, clock);
  RtNode node(rt_spec(4), 0, hub, clock);
  node.start();
  // In the 4-ring, 0's neighbors are 1 and 3 — but NOT 2. A frame from a
  // non-neighbor must be dropped at injection (paper §3.1 delivery rule).
  hub.send(beacon_msg(1, 0, 1.0));
  hub.send(beacon_msg(2, 0, 2.0));
  hub.send(beacon_msg(3, 0, 3.0));
  clock.advance_to(0.25);
  node.pump();
  EXPECT_EQ(node.ingress_count(), 2u);
  EXPECT_EQ(node.rejected_count(), 1u);
}

// ------------------------------------- membership + chaos (lockstep, pipe)

/// A lockstep run with the failure detector armed and a chaos script
/// installed: the deterministic harness behind the partition/heal,
/// crash/restart and reproducibility tests.
LockstepRun run_chaos_cluster(const ScenarioSpec& spec,
                              const std::string& script, Time horizon) {
  LockstepRun run;
  run.cluster = std::make_unique<RtCluster>(spec, *run.clock);
  DetectorConfig det;
  det.suspect_after = 1.5;
  det.evict_after = 4.0;
  det.probe_interval = 0.5;
  run.cluster->enable_detector(det);
  run.cluster->arm_chaos(ChaosScript::parse(script));
  run.cluster->start();
  run.cluster->schedule_samples(horizon, 1.0);
  run.cluster->run_lockstep(*run.clock, horizon, 0.25);
  for (NodeId u = 0; u < run.cluster->size(); ++u) {
    run.logical.push_back(run.cluster->node(u).logical());
  }
  return run;
}

TEST(RtChaos, ArmChaosRejectsUnknownIds) {
  // arm_chaos validates every op against the cluster size before installing
  // the scheduler — a stray id would otherwise index past the node vector
  // (chaos_crash) or poke a nonexistent fault slot. A rejected script leaves
  // the cluster unarmed, so a corrected one can still be installed.
  VirtualClock clock;
  RtCluster cluster(rt_spec(3), clock);
  EXPECT_THROW(cluster.arm_chaos(ChaosScript::parse("at 5 crash 7")),
               std::runtime_error);
  EXPECT_THROW(cluster.arm_chaos(ChaosScript::parse("at 5 cut 0 9")),
               std::runtime_error);
  EXPECT_NO_THROW(cluster.arm_chaos(ChaosScript::parse("at 5 cut 0 2")));
}

TEST(RtChaos, PartitionHealEvictsThenReinsertsAndReconverges) {
  // The lockstep port of examples/partition_heal.cpp, with the detector
  // doing the work the simulated adversary does there: cut {0,1} -> silence
  // -> eviction at both endpoints; heal -> probe answered -> revival ->
  // insertion protocol -> skew back within the gradient bound.
  LockstepRun run =
      run_chaos_cluster(rt_spec(3), "at 15 cut 0 1; at 30 heal 0 1", 60.0);
  RtCluster& cluster = *run.cluster;

  const LivenessDetector* d0 = cluster.node(0).detector();
  const LivenessDetector* d1 = cluster.node(1).detector();
  ASSERT_NE(d0, nullptr);
  ASSERT_NE(d1, nullptr);
  EXPECT_GE(d0->evictions(), 1u) << "node 0 never noticed the partition";
  EXPECT_GE(d1->evictions(), 1u) << "node 1 never noticed the partition";
  EXPECT_GE(d0->revivals(), 1u) << "node 0 never rediscovered its peer";
  EXPECT_GE(d1->revivals(), 1u) << "node 1 never rediscovered its peer";
  EXPECT_EQ(d0->state(1), PeerLiveness::kAlive);
  EXPECT_EQ(d1->state(0), PeerLiveness::kAlive);
  EXPECT_GT(cluster.hub().chaos_dropped(), 0u);

  for (std::size_t u = 0; u < run.logical.size(); ++u) {
    EXPECT_GT(run.logical[u], 59.0) << "node " << u << " stalled";
  }
  // Re-convergence gate: well after the heal, every edge (including the
  // re-inserted one) is back within its derived bound.
  const auto gated = cluster.edge_report_window(45.0, 60.0);
  ASSERT_EQ(gated.size(), cluster.edges().size());
  for (const RtEdgeReport& r : gated) {
    EXPECT_GT(r.samples, 0) << "edge " << r.edge.str();
    EXPECT_LE(r.max_abs_skew, r.bound) << "edge " << r.edge.str();
  }
}

TEST(RtChaos, CrashRestartRejoinsMonotonically) {
  LockstepRun run =
      run_chaos_cluster(rt_spec(3), "at 15 crash 1; at 25 restart 1", 60.0);
  RtCluster& cluster = *run.cluster;

  EXPECT_EQ(cluster.node(1).restarts(), 1u);
  EXPECT_GT(cluster.node(1).discarded_count(), 0u)
      << "a crashed node must discard its ingress";
  // Neighbors saw the death and the rebirth.
  EXPECT_GE(cluster.node(0).detector()->evictions(), 1u);
  EXPECT_GE(cluster.node(0).detector()->revivals(), 1u);
  EXPECT_EQ(cluster.node(0).detector()->state(1), PeerLiveness::kAlive);

  // The restarted node's own samples: logical time never steps backwards
  // across the crash (monotone rejoin), and the dead stretch is flagged.
  const std::vector<RtSample>& s = cluster.samples()[1];
  int dead = 0;
  for (std::size_t k = 0; k < s.size(); ++k) {
    if (!s[k].live) ++dead;
    if (k > 0) {
      EXPECT_GE(s[k].logical, s[k - 1].logical)
          << "logical clock stepped backwards at grid point " << k;
    }
  }
  EXPECT_GE(dead, 5) << "~10 model seconds of downtime must flag samples";
  EXPECT_LT(dead, static_cast<int>(s.size()));

  for (std::size_t u = 0; u < run.logical.size(); ++u) {
    EXPECT_GT(run.logical[u], 59.0) << "node " << u << " stalled";
  }
  const auto gated = cluster.edge_report_window(40.0, 60.0);
  ASSERT_EQ(gated.size(), cluster.edges().size());
  for (const RtEdgeReport& r : gated) {
    EXPECT_GT(r.samples, 0) << "edge " << r.edge.str();
    EXPECT_LE(r.max_abs_skew, r.bound) << "edge " << r.edge.str();
  }
}

TEST(RtChaos, LockstepChaosRunsAreBitDeterministic) {
  const std::string script =
      "at 10 drop 0 1 0.5; at 18 clear 0 1; at 30 crash 2; at 38 restart 2";
  const LockstepRun a = run_chaos_cluster(rt_spec(3), script, 50.0);
  const LockstepRun b = run_chaos_cluster(rt_spec(3), script, 50.0);
  ASSERT_EQ(a.logical.size(), b.logical.size());
  for (std::size_t u = 0; u < a.logical.size(); ++u) {
    EXPECT_EQ(a.logical[u], b.logical[u]) << "node " << u << " diverged";
  }
  // The whole sampled series must match bit for bit, live flags included.
  const auto& sa = a.cluster->samples();
  const auto& sb = b.cluster->samples();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t u = 0; u < sa.size(); ++u) {
    ASSERT_EQ(sa[u].size(), sb[u].size());
    for (std::size_t k = 0; k < sa[u].size(); ++k) {
      EXPECT_EQ(sa[u][k].logical, sb[u][k].logical);
      EXPECT_EQ(sa[u][k].hardware, sb[u][k].hardware);
      EXPECT_EQ(sa[u][k].live, sb[u][k].live);
    }
  }
  EXPECT_EQ(a.cluster->hub().chaos_dropped(), b.cluster->hub().chaos_dropped());
  EXPECT_EQ(a.cluster->node(2).restarts(), b.cluster->node(2).restarts());
}

// --------------------------------------- rt cluster over tcp (lockstep)

/// A lockstep chaos run on the TCP stream backend: real loopback listeners
/// and connections, cranked by the virtual clock. Loopback TCP delivery is
/// synchronous with write(), so frame arrivals are step-quantized and the
/// run stays a pure function of (spec, seed, script) — bit-reproducible.
LockstepRun run_tcp_chaos_cluster(const ScenarioSpec& spec,
                                  const std::string& script, Time horizon,
                                  std::uint16_t base_port) {
  LockstepRun run;
  FaultSpec faults;  // only the seed matters: it feeds the chaos, corrupt
  faults.seed = 9;   // and backoff-jitter streams
  run.cluster = std::make_unique<RtCluster>(spec, *run.clock, faults, 1024,
                                            RtBackend::kTcp, base_port);
  DetectorConfig det;
  det.suspect_after = 1.5;
  det.evict_after = 4.0;
  det.probe_interval = 0.5;
  run.cluster->enable_detector(det);
  if (!script.empty()) run.cluster->arm_chaos(ChaosScript::parse(script));
  run.cluster->start();
  run.cluster->schedule_samples(horizon, 1.0);
  run.cluster->run_lockstep(*run.clock, horizon, 0.25);
  // Settle: consume frames still buffered in socket queues at the horizon
  // so the ingress counters cover everything transmitted.
  run.cluster->drain();
  for (NodeId u = 0; u < run.cluster->size(); ++u) {
    run.logical.push_back(run.cluster->node(u).logical());
  }
  return run;
}

TEST(RtClusterTcp, LockstepChaosRunsAreBitDeterministic) {
  // The tentpole acceptance gate: a 4-node TCP run with corruption AND a
  // connection reset must be bit-reproducible — same seed, same sample
  // series, same counter values — even though real sockets carry every
  // frame. Distinct base ports per run; the port never enters any RNG.
  const std::string script =
      "at 10 corrupt 0 1 0.5; at 20 clear 0 1; at 30 conn-reset 1 2";
  const LockstepRun a = run_tcp_chaos_cluster(rt_spec(4), script, 50.0, 26100);
  const LockstepRun b = run_tcp_chaos_cluster(rt_spec(4), script, 50.0, 26140);
  ASSERT_EQ(a.logical.size(), b.logical.size());
  for (std::size_t u = 0; u < a.logical.size(); ++u) {
    EXPECT_EQ(a.logical[u], b.logical[u]) << "node " << u << " diverged";
  }
  const auto& sa = a.cluster->samples();
  const auto& sb = b.cluster->samples();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t u = 0; u < sa.size(); ++u) {
    ASSERT_EQ(sa[u].size(), sb[u].size()) << "node " << u;
    for (std::size_t k = 0; k < sa[u].size(); ++k) {
      EXPECT_EQ(sa[u][k].logical, sb[u][k].logical) << u << "@" << k;
      EXPECT_EQ(sa[u][k].hardware, sb[u][k].hardware) << u << "@" << k;
      EXPECT_EQ(sa[u][k].live, sb[u][k].live) << u << "@" << k;
    }
  }
  // The corruption decisions are a pure function of per-link send counts,
  // so the counters agree across runs too...
  EXPECT_EQ(a.cluster->total_corrupted(), b.cluster->total_corrupted());
  EXPECT_EQ(a.cluster->total_rejected(), b.cluster->total_rejected());
  // ...and the wire-integrity invariant holds: every injected flip was
  // caught by the CRC at ingress, none decoded.
  EXPECT_GT(a.cluster->total_corrupted(), 0u);
  EXPECT_EQ(a.cluster->total_rejected(), a.cluster->total_corrupted());
  // The reset fired and both sides recovered.
  EXPECT_GE(a.cluster->tcp(1).resets(), 1u);
  EXPECT_GE(a.cluster->tcp(2).resets(), 1u);
  EXPECT_EQ(a.cluster->tcp(1).resets(), b.cluster->tcp(1).resets());
}

TEST(RtClusterTcp, FaultFreeLockstepMatchesThePin) {
  // A fault-free 4-node TCP lockstep run, pinned: every node's sample series
  // and each transport's frame counters fold into one digest. Lockstep over
  // loopback makes the run a pure function of (spec, seed), so a change to
  // when the transport puts frames on the wire or reads them back — one that
  // moves a frame by a pump — fails here even when the cluster still
  // converges.
  const LockstepRun run = run_tcp_chaos_cluster(rt_spec(4), "", 50.0, 26220);
  std::uint64_t h = kFnvOffset;
  for (const auto& series : run.cluster->samples()) {
    for (const RtSample& s : series) {
      h = fnv_step(h, std::bit_cast<std::uint64_t>(s.t));
      h = fnv_step(h, std::bit_cast<std::uint64_t>(s.logical));
      h = fnv_step(h, std::bit_cast<std::uint64_t>(s.hardware));
      h = fnv_step(h, s.live ? 1u : 0u);
    }
  }
  for (NodeId u = 0; u < run.cluster->size(); ++u) {
    const TcpTransport& tcp = run.cluster->tcp(u);
    h = fnv_step(fnv_step(h, tcp.sent()), tcp.received());
    EXPECT_EQ(tcp.conn_down(), 0u) << "node " << u;
    EXPECT_EQ(tcp.backpressure(), 0u) << "node " << u;
  }
  EXPECT_EQ(h, 0x21d23389a1d2fda5ULL) << std::hex << "0x" << h;
}

TEST(RtClusterTcp, ReconnectStormRecoversWithBoundedBackoff) {
  // Satellite gate: repeated conn-resets on one link during lockstep. The
  // transport must show bounded backoff growth, eventual re-establishment,
  // and the cluster must re-converge within the derived gradient bound in
  // the quiet tail — connection churn degrades to loss, never to divergence.
  const std::string script =
      "at 10 conn-reset 0 1; at 12 conn-reset 0 1; at 14 conn-reset 0 1; "
      "at 16 conn-reset 0 1; at 18 conn-reset 0 1";
  LockstepRun run = run_tcp_chaos_cluster(rt_spec(3), script, 60.0, 26180);
  RtCluster& cluster = *run.cluster;

  // Both owners of the link's two unidirectional connections saw all five
  // resets and re-established each time (plus the initial dial).
  EXPECT_GE(cluster.tcp(0).resets(), 5u);
  EXPECT_GE(cluster.tcp(1).resets(), 5u);
  EXPECT_GE(cluster.tcp(0).reconnects(), 6u);
  EXPECT_GE(cluster.tcp(1).reconnects(), 6u);
  EXPECT_EQ(cluster.tcp(0).conn_state(1),
            TcpTransport::ConnState::kEstablished);
  EXPECT_EQ(cluster.tcp(1).conn_state(0),
            TcpTransport::ConnState::kEstablished);
  // Backoff stayed bounded: each recovery reset the exponent, so the armed
  // delay never approached the cap and the attempt counter is back at zero.
  const TcpConfig cfg;  // cluster runs the defaults
  EXPECT_LE(cluster.tcp(0).last_backoff(1),
            cfg.backoff_max * (1.0 + cfg.jitter));
  EXPECT_EQ(cluster.tcp(0).backoff_attempts(1), 0);
  // Fast re-dials kept the silence below the detector's eviction horizon:
  // the storm churned connections, not membership.
  ASSERT_NE(cluster.node(0).detector(), nullptr);
  EXPECT_EQ(cluster.node(0).detector()->state(1), PeerLiveness::kAlive);
  EXPECT_EQ(cluster.node(1).detector()->state(0), PeerLiveness::kAlive);
  // Nobody stalled, and the quiet tail is back within the gradient bound.
  for (std::size_t u = 0; u < run.logical.size(); ++u) {
    EXPECT_GT(run.logical[u], 59.0) << "node " << u << " stalled";
  }
  const auto gated = cluster.edge_report_window(30.0, 60.0);
  ASSERT_EQ(gated.size(), cluster.edges().size());
  for (const RtEdgeReport& r : gated) {
    EXPECT_GT(r.samples, 0) << "edge " << r.edge.str();
    EXPECT_LE(r.max_abs_skew, r.bound) << "edge " << r.edge.str();
  }
}

TEST(RtNode, RecoverLogicalNeverLowers) {
  VirtualClock clock;
  PipeHub hub(2, clock);
  RtNode node(rt_spec(2), 0, hub, clock);
  node.start();
  node.pump();
  const ClockValue before = node.logical();
  node.recover_logical(before + 100.0);  // persisted anchor from a past life
  EXPECT_GE(node.logical(), before + 100.0);
  const ClockValue high = node.logical();
  node.recover_logical(1.0);  // a stale anchor must be a no-op
  EXPECT_GE(node.logical(), high);
}

// ------------------------------------------------- rtt estimates (sim mode)

TEST(RttEstimate, ConvergesInSimulationMode) {
  ScenarioSpec spec;
  spec.n = 4;
  spec.seed = 3;
  spec.topology = ComponentSpec("ring");
  spec.drift = ComponentSpec("spread");
  spec.estimates = ComponentSpec::parse("rtt:probe=0.5,window=4");
  spec.edge_params = default_edge_params();
  spec.gtilde_auto = true;
  Scenario scenario(spec);
  scenario.start();
  scenario.run_until(30.0);

  for (const EdgeKey& e : scenario.initial_edges()) {
    const double eps = scenario.engine().edge_eps(e);
    const auto est = scenario.estimate_of(e.a, e.b);
    ASSERT_TRUE(est.has_value()) << "no estimate on " << e.str();
    const double err = std::abs(*est - scenario.engine().logical(e.b));
    EXPECT_LE(err, eps) << "edge " << e.str();
    const auto back = scenario.estimate_of(e.b, e.a);
    ASSERT_TRUE(back.has_value());
  }
}

/// Hand-set clocks, so an estimate source can be driven without an engine.
struct ManualClocks final : ClockAccess {
  std::vector<ClockValue> hw;
  [[nodiscard]] ClockValue true_logical(NodeId u) const override { return hw[u]; }
  [[nodiscard]] ClockValue true_hardware(NodeId u) const override { return hw[u]; }
  [[nodiscard]] Time now() const override { return 0.0; }
};

TEST(RttEstimate, DiscardsStaleOrphanedAndMisroutedResponses) {
  Simulator sim;
  DynamicGraph graph(sim, 3);
  graph.create_edge_instant(EdgeKey(0, 1), default_edge_params());
  graph.create_edge_instant(EdgeKey(0, 2), default_edge_params());
  Transport transport(sim, graph);
  RttEstimateSource rtt(graph, /*probe_period=*/1.0, /*rho=*/0.0, /*mu=*/0.1,
                        /*window=*/4, /*outlier=*/2.0);
  ManualClocks clocks;
  clocks.hw = {0.0, 0.0, 0.0};
  rtt.bind(&clocks);
  // Node 0 answered by `from` for probe `id`, stamped at send time `echo`.
  const auto respond = [&](NodeId from, std::uint32_t id, ClockValue echo) {
    Delivery d;
    d.from = from;
    d.to = 0;
    rtt.on_time_response(d, TimeResponse{id, echo, 5.0});
  };
  SnapshotEstimateSource::Entry entry;

  // Round 1 at H = 0: ids 0, 1 go to peer 1 and ids 2, 3 to peer 2.
  rtt.on_probe(0, transport);
  clocks.hw[0] = 0.2;
  respond(1, 2, 0.0);  // peer 2's probe, relayed by peer 1
  EXPECT_FALSE(rtt.snapshot(0, 1, entry)) << "a misrouted response was accepted";
  rtt.on_edge_lost(0, 2);  // orphans peer 2's probes only
  respond(2, 3, 0.0);
  EXPECT_FALSE(rtt.snapshot(0, 2, entry)) << "a response outlived its edge";
  respond(1, 0, 0.0);
  ASSERT_TRUE(rtt.snapshot(0, 1, entry));
  EXPECT_DOUBLE_EQ(entry.recv_hw, 0.2);
  EXPECT_DOUBLE_EQ(entry.base, 5.0 + 0.1);  // half the 0.2 round trip

  // Round 2 at H = 10 prunes id 1 (older than four probe periods).
  clocks.hw[0] = 10.0;
  rtt.on_probe(0, transport);  // ids 4, 5 to peer 1
  respond(1, 1, 0.0);
  ASSERT_TRUE(rtt.snapshot(0, 1, entry));
  EXPECT_DOUBLE_EQ(entry.recv_hw, 0.2) << "a pruned probe was answered";
  clocks.hw[0] = 10.2;
  respond(1, 4, 10.0);
  ASSERT_TRUE(rtt.snapshot(0, 1, entry));
  EXPECT_DOUBLE_EQ(entry.recv_hw, 10.2);
}

TEST(RttEstimate, ProbePeriodDefaultsToBeaconPeriod) {
  ScenarioSpec spec;
  spec.n = 3;
  spec.seed = 3;
  spec.topology = ComponentSpec("ring");
  spec.estimates = ComponentSpec("rtt");
  spec.edge_params = default_edge_params();
  spec.engine.beacon_period = 0.4;
  spec.gtilde_auto = true;
  Scenario scenario(spec);
  scenario.start();
  scenario.run_until(5.0);
  // The engine scheduled probes (otherwise no estimate could ever form).
  ASSERT_TRUE(scenario.estimate_of(0, 1).has_value());
}

}  // namespace
