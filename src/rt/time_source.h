// The TimeSource seam: where "now" comes from.
//
// The simulator kernel owns time in simulation mode: it advances time by
// firing events, and no TimeSource is involved. In service mode the roles
// invert: a wall clock owns time and the runtime executor *slaves* the
// kernel to it with sim.run_until(clock.now()), so the same Engine/AoptNode
// code runs unmodified against real time. ScaledClock
// compresses wall time into model time for accelerated soak tests, and
// VirtualClock is a hand-cranked wall clock for deterministic runtime tests.
//
// All times are model-time seconds (the unit the whole codebase uses).
#pragma once

#include <condition_variable>
#include <mutex>

#include "util/common.h"

namespace gcs {

class TimeSource {
 public:
  virtual ~TimeSource() = default;

  /// Current model time. Monotone non-decreasing.
  [[nodiscard]] virtual Time now() = 0;

  /// Block the calling thread until now() >= t. May wake late (scheduler
  /// slop) but never early-returns with now() < t.
  virtual void sleep_until(Time t) = 0;
};

/// Wall clock: std::chrono::steady_clock seconds since an epoch shared by
/// every thread in the process (the clock's own epoch, NOT construction
/// time — two MonotonicClock instances agree, which is what lets separate
/// gcsd processes on one machine share a timeline up to process start skew).
class MonotonicClock final : public TimeSource {
 public:
  Time now() override;
  void sleep_until(Time t) override;
};

/// Decorator: model time runs `scale` times faster than the inner clock,
/// with model t=0 anchored at construction. scale=10 turns a 30 s wall-clock
/// soak into 300 s of model time.
class ScaledClock final : public TimeSource {
 public:
  ScaledClock(TimeSource& inner, double scale);
  /// Explicit-origin variant: model t=0 anchored at inner time `origin`
  /// instead of construction time. Separate gcsd processes pass the same
  /// origin to share a model timeline (MonotonicClock's epoch is machine-
  /// wide, so equal origins mean equal model clocks up to OS clock slop).
  ScaledClock(TimeSource& inner, double scale, Time origin);
  Time now() override { return (inner_.now() - origin_) * scale_; }
  void sleep_until(Time t) override { inner_.sleep_until(origin_ + t / scale_); }

 private:
  TimeSource& inner_;
  double scale_;
  Time origin_;
};

/// Hand-cranked wall clock for deterministic runtime tests: time moves only
/// when the test driver calls advance_to(). Thread-safe; sleepers are woken
/// by each advance.
class VirtualClock final : public TimeSource {
 public:
  Time now() override;
  void sleep_until(Time t) override;
  /// Move time forward (backwards throws). Wakes every sleeper.
  void advance_to(Time t);
  void advance(Duration dt);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  Time now_ = 0.0;
};

}  // namespace gcs
