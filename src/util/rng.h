// Deterministic, seedable random numbers: the xoshiro256** stream (Rng) for
// streams consumed in full, and the counter-based KeyedDraw for per-event
// draws that must not depend on execution order.
//
// We implement our own generator instead of std::mt19937_64 so that all
// experiment outputs are reproducible across standard-library versions (the
// std distributions are not pinned by the standard; ours are).
#pragma once

#include <array>
#include <cstdint>
#include <cmath>

#include "util/common.h"

namespace gcs {

/// splitmix64's increment (2^64 / golden ratio) and output finalizer, a
/// bijective 64-bit avalanche mix; its i-th output from state s is
/// mix64(s + i * kGolden).
constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The top 53 bits of `bits` as a uniform double in [0, 1).
constexpr double unit_double(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Every stream of keyed draws, named in one place, with its key (a, b, k);
/// k is a dense counter the consumer keeps per key, except where noted.
enum class Domain : std::uint64_t {
  kDelay = 1,    ///< Transport message delay: (from, to, from's send count)
  /// oracle estimate error: (u, v, the bit pattern of the read's time); no
  /// counter, so a read is a pure function of the instant
  kOracleError,
  /// PipeHub fault rolls: (from, to, the link's send count)
  kPipeDrop, kPipeDup, kPipeReorder, kPipeHold, kPipeJitter,
  /// LinkChaos drop roll and corruption draw: (self, to, the link's send count)
  kChaosDrop, kChaosCorrupt,
  kTcpBackoff,   ///< reconnect jitter: (self, peer, the peer's backoff count)
};

/// Counter-based random draws in the style of Salmon et al., "Parallel
/// random numbers: as easy as 1, 2, 3" (SC'11): a draw is a pure function of
/// (seed, domain, a, b, k), so it cannot depend on the order in which
/// threads, island shards or transport backends draw. (seed, domain) is
/// mixed once, at construction; a draw costs two finalizer rounds, one over
/// (a, b) and one stepping that key's splitmix64 sequence to its k-th output.
class KeyedDraw {
 public:
  KeyedDraw(std::uint64_t seed, Domain domain)
      : root_(mix64(mix64(seed) + kGolden * static_cast<std::uint64_t>(domain))) {}

  [[nodiscard]] std::uint64_t bits(std::uint32_t a, std::uint32_t b, std::uint64_t k) const {
    const std::uint64_t key = mix64(root_ ^ ((static_cast<std::uint64_t>(a) << 32) | b));
    return mix64(key + kGolden * (k + 1));
  }

  [[nodiscard]] double uniform01(std::uint32_t a, std::uint32_t b, std::uint64_t k) const {
    return unit_double(bits(a, b, k));
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  [[nodiscard]] double uniform(double lo, double hi, std::uint32_t a, std::uint32_t b,
                               std::uint64_t k) const {
    return lo + (hi - lo) * uniform01(a, b, k);
  }

 private:
  std::uint64_t root_;
};

/// xoshiro256** 1.0 — public-domain algorithm by Blackman & Vigna.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eedULL) {
    for (auto& word : s_) word = mix64(seed += kGolden);  // splitmix64 seeding
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform01() { return unit_double(next()); }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform01(); }

  /// Uniform integer in [0, n). Requires n > 0. Unbiased (rejection).
  std::uint64_t below(std::uint64_t n) {
    // Lemire-style rejection via modulo threshold; n is small in practice.
    const std::uint64_t threshold = (0ULL - n) % n;
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % n;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t between(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) { return uniform01() < p; }

  /// Standard normal via Marsaglia polar method.
  double normal() {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double m = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * m;
    have_spare_ = true;
    return u * m;
  }

  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Exponential with given rate (mean 1/rate).
  double exponential(double rate) {
    double u;
    do {
      u = uniform01();
    } while (u <= 0.0);
    return -std::log(u) / rate;
  }

  /// Derive an independent child generator (for per-node streams).
  [[nodiscard]] Rng fork(std::uint64_t stream) {
    return Rng(next() ^ (kGolden * (stream + 1)));
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
  bool have_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace gcs
