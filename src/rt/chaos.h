// Deterministic chaos injection for the runtime.
//
// A ChaosScript is a time-ordered list of fault ops — node crash/restart,
// bidirectional link cuts, asymmetric loss, latency storms — either parsed
// from a tiny text grammar or generated from a seeded preset, so every
// chaos run is reproducible from (script text | preset name + seed) alone.
// A ChaosScheduler replays the script against a ChaosTarget (RtCluster
// in-process, or a gcsd daemon applying the ops that involve itself); the
// ops themselves are applied through lock-free per-directed-link fault
// slots in the transports plus atomic crash/restart request flags in
// RtNode, so the scheduler may run on any thread.
//
// Script grammar (ops separated by ';' or newline, '#' comments to EOL):
//
//   at <t> crash <u>            node u stops executing and communicating
//   at <t> restart <u>          node u rejoins via the insertion protocol
//   at <t> cut <a> <b>          block the link both ways (partition edge)
//   at <t> heal <a> <b>         unblock both ways
//   at <t> drop <a> <b> <p>     lose fraction p of frames a -> b (one way)
//   at <t> clear <a> <b>        clear the a -> b fault slot
//   at <t> storm <a> <b> <d>    add d seconds of delay both ways
//   at <t> calm <a> <b>         clear both fault slots
//   at <t> corrupt <a> <b> <p>  flip one bit in fraction p of frames
//                               a -> b (one way; CRC must catch every one)
//   at <t> conn-reset <a> <b>   reset the transport connection both ways
//                               (stream backends; instantaneous, no clear)
//
// Each directed link has ONE LinkFault slot: cut/drop/storm/corrupt
// overwrite each other (last writer wins), which keeps the transport hot
// path to a single atomic load.
//
// Phases: the script partitions time into fault intervals (first fault op
// after quiet -> last op returning the active-fault set to empty). The
// re-convergence gate checks each quiet window [clear + stabilization,
// next fault): every sampled edge skew must be back within its derived
// gradient bound — the paper's stabilization guarantee, asserted live.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "rt/wire.h"
#include "util/common.h"
#include "util/rng.h"

namespace gcs {

/// One directed link's injected fault state. drop >= 1 means blocked.
/// Packed into a single 64-bit atomic by the transports, so floats rather
/// than doubles — and the two probabilities are stored as bfloat16 (top 16
/// bits of the float32) to keep all three fields in one word. Probabilities
/// round-trip only at bfloat16 precision (powers of two like 0.5 and 1.0
/// are exact; 0.3 quantizes to ~0.0007 relative error), which is far below
/// anything a chaos script cares about and keeps the hot path at a single
/// atomic load.
struct LinkFault {
  float drop = 0.0f;         ///< loss probability in [0,1]; >= 1 blocks
  float extra_delay = 0.0f;  ///< added model-seconds of delivery delay
  float corrupt = 0.0f;      ///< probability of a single in-flight bit flip
};

[[nodiscard]] inline std::uint64_t pack_link_fault(const LinkFault& f) {
  std::uint32_t d, e, c;
  static_assert(sizeof(float) == 4);
  __builtin_memcpy(&d, &f.drop, 4);
  __builtin_memcpy(&e, &f.extra_delay, 4);
  __builtin_memcpy(&c, &f.corrupt, 4);
  return (static_cast<std::uint64_t>(d >> 16) << 48) |
         (static_cast<std::uint64_t>(c >> 16) << 32) | e;
}

[[nodiscard]] inline LinkFault unpack_link_fault(std::uint64_t bits) {
  LinkFault f;
  const std::uint32_t d = static_cast<std::uint32_t>(bits >> 48) << 16;
  const std::uint32_t c = static_cast<std::uint32_t>((bits >> 32) & 0xFFFFu) << 16;
  const std::uint32_t e = static_cast<std::uint32_t>(bits);
  __builtin_memcpy(&f.drop, &d, 4);
  __builtin_memcpy(&f.corrupt, &c, 4);
  __builtin_memcpy(&f.extra_delay, &e, 4);
  return f;
}

/// One send's chaos verdict on a directed link (see LinkChaos::decide).
struct ChaosDecision {
  bool drop = false;              ///< swallow the frame in flight
  bool corrupt = false;           ///< flip one bit of the encoded frame
  float extra_delay = 0.0f;       ///< latency-storm hold, model seconds
  std::uint64_t corrupt_draw = 0; ///< the corruption u64; picks the bit
  std::uint64_t send = 0;         ///< the link's send count: the draws' k

  /// Flip the bit corrupt_draw picks, anywhere past the 2-byte length
  /// prefix: corrupting the prefix would break stream framing, which is a
  /// transport invariant, not an integrity property the CRC is meant to
  /// catch.
  void flip_bit(std::uint8_t* frame, std::size_t len) const {
    const std::size_t nbits = (len - 2) * 8;
    const std::size_t bit = 2 * 8 + static_cast<std::size_t>(corrupt_draw % nbits);
    frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
};

/// Outbound chaos for one sender, shared by every runtime transport: the
/// per-destination LinkFault slots (lock-free atomics the ChaosScheduler
/// writes from any thread), the per-destination send counters, and the
/// latency-storm stash of encoded frames.
///
/// Every decide() advances its link's send count k, armed or not, and makes
/// only the keyed draws on (self, to, k) an armed fault reads. A verdict is a
/// pure function of (seed, self, to, k), so lockstep chaos runs replay bit
/// for bit and the pipe, UDP and TCP backends decide alike. The corruption
/// draw decides both whether to flip (top 53 bits against the armed
/// probability) and which bit (the low bits, once the frame length is known).
class LinkChaos {
 public:
  LinkChaos(int n, NodeId self, std::uint64_t seed);

  /// Arm the fault slot of link self -> to. Callable from any thread.
  void set(NodeId to, const LinkFault& f);

  /// Draw the verdict for one send on self -> to. Sender thread only.
  [[nodiscard]] ChaosDecision decide(NodeId to);

  /// Hold an encoded (possibly already corrupted) frame for `to` until
  /// `release_at`: the corruption decision belongs to send time, so bytes
  /// are what the stash keeps.
  void stash(Time release_at, const std::uint8_t* frame, std::size_t len, NodeId to);

  /// Whether any stashed frame is still waiting for its release time.
  [[nodiscard]] bool holding() const { return !stash_.empty(); }

  /// Hand every stashed frame due by `now` to emit(frame, len, to), in
  /// release order and in send order within equal release times.
  template <class Emit>
  void release_due(Time now, Emit&& emit) {
    while (!stash_.empty() && stash_.top().release_at <= now) {
      const Stashed& top = stash_.top();
      emit(top.frame.data(), top.len, top.to);
      stash_.pop();
    }
  }

 private:
  struct Stashed {
    Time release_at = 0.0;
    std::uint64_t seq = 0;
    std::array<std::uint8_t, kWireMax> frame{};
    std::size_t len = 0;
    NodeId to = kNoNode;
  };
  struct Later {  // min-heap on (release_at, seq)
    bool operator()(const Stashed& a, const Stashed& b) const {
      if (a.release_at != b.release_at) return a.release_at > b.release_at;
      return a.seq > b.seq;
    }
  };

  int n_;
  NodeId self_;
  KeyedDraw drop_draw_;
  KeyedDraw corrupt_draw_;
  std::vector<std::uint64_t> sends_;  ///< per destination: sends so far
  std::unique_ptr<std::atomic<std::uint64_t>[]> faults_;  ///< packed LinkFault
  std::priority_queue<Stashed, std::vector<Stashed>, Later> stash_;
  std::uint64_t stash_seq_ = 0;
};

/// What a chaos script runs against. All methods must be callable from the
/// scheduler's thread (RtCluster maps them onto atomics).
class ChaosTarget {
 public:
  virtual ~ChaosTarget() = default;
  virtual void chaos_crash(NodeId u) = 0;
  virtual void chaos_restart(NodeId u) = 0;
  /// Set the fault slot of the directed link from -> to.
  virtual void chaos_link(NodeId from, NodeId to, const LinkFault& f) = 0;
  /// Reset the transport connection between a and b (both directions).
  /// Meaningful for stream backends (TCP); datagram and in-process
  /// backends have no connection to reset, hence the default no-op.
  virtual void chaos_conn_reset(NodeId a, NodeId b) {
    (void)a;
    (void)b;
  }
};

struct ChaosOp {
  enum class Kind {
    kCrash, kRestart, kCut, kHeal, kDrop, kClear, kStorm, kCalm,
    kCorrupt, kConnReset
  };
  Time at = 0.0;
  Kind kind = Kind::kCrash;
  NodeId a = kNoNode;
  NodeId b = kNoNode;    ///< second endpoint for link ops
  double value = 0.0;    ///< drop probability / storm delay
};

[[nodiscard]] const char* to_string(ChaosOp::Kind k);

/// A quiet-window gate derived from the script: after the fault interval
/// [fault_at, clear_at] the skew must be back within bounds throughout
/// [gate_begin, gate_end). gateable() is false when the next fault arrives
/// before the stabilization window elapses.
struct ChaosPhase {
  Time fault_at = 0.0;
  Time clear_at = 0.0;
  Time gate_begin = 0.0;
  Time gate_end = 0.0;
  std::string label;
  [[nodiscard]] bool gateable() const { return gate_end > gate_begin; }
};

class ChaosScript {
 public:
  /// Parse the text grammar above. Throws on malformed input — including
  /// negative node ids and scripts that parse to zero ops (an all-comment
  /// or empty string is a mangled flag, not a request for no chaos; use a
  /// default-constructed ChaosScript for that). Ops are sorted by time
  /// (stable: equal-time ops keep text order).
  static ChaosScript parse(const std::string& text);

  /// Seeded preset generator. Names: "crash" (two crash/restart cycles on
  /// rng-picked nodes), "partition" (cut + heal an rng-picked edge),
  /// "churn" (loss storm, crash cycle, cut cycle interleaved), "corrupt"
  /// (bit-flip storms on rng-picked edges plus a burst of connection
  /// resets — the wire-integrity stressor). Ops are placed at fixed
  /// fractions of `horizon`; node/edge picks come from Rng(seed), so
  /// (name, topology, horizon, seed) fully determine the run.
  static ChaosScript preset(const std::string& name, int n,
                            const std::vector<EdgeKey>& edges, Time horizon,
                            std::uint64_t seed);

  /// parse() if `spec` contains "at ", else preset(spec, ...).
  static ChaosScript from_flag(const std::string& spec, int n,
                               const std::vector<EdgeKey>& edges, Time horizon,
                               std::uint64_t seed);

  /// Throw if any op references a node id >= n. parse() already rejects
  /// negative ids; this closes the other side once the cluster size is
  /// known (RtCluster::arm_chaos calls it — a stray id would otherwise
  /// index straight past the node vector).
  void validate(int n) const;

  [[nodiscard]] const std::vector<ChaosOp>& ops() const { return ops_; }
  [[nodiscard]] bool empty() const { return ops_.empty(); }

  /// Derive the re-convergence gates (see header comment).
  [[nodiscard]] std::vector<ChaosPhase> phases(Time horizon,
                                               Duration stabilization) const;

  /// Canonical text form (round-trips through parse()).
  [[nodiscard]] std::string str() const;

 private:
  std::vector<ChaosOp> ops_;
};

/// Replays a script against a target. poll(now) applies every op with
/// at <= now, in order, exactly once.
class ChaosScheduler {
 public:
  ChaosScheduler(ChaosScript script, ChaosTarget& target)
      : script_(std::move(script)), target_(target) {}

  void poll(Time now);
  [[nodiscard]] bool done() const { return next_ >= script_.ops().size(); }
  [[nodiscard]] std::size_t applied() const { return next_; }

 private:
  ChaosScript script_;
  ChaosTarget& target_;
  std::size_t next_ = 0;
};

}  // namespace gcs
