// The four piecewise-linear clocks of one node: hardware H_u, logical L_u,
// max estimate M_u and min estimate m_u (paper §3). Each changes rate or
// value only at discrete events, so the record keeps one (value, rate) pair
// per clock and one shared last breakpoint, and a clock's value at t is the
// pure extrapolation value + rate·(t − last).
//
// Reads never write. Only a breakpoint — set_rate / set_value — integrates,
// and it integrates all four clocks to that instant at once (one shared
// last, vectorizable, one branch). Observing a run therefore cannot change
// the float path of the run observed.
#pragma once

#include <stdexcept>

#include "util/common.h"

namespace gcs {

class NodeClocks {
 public:
  enum : int { kHw = 0, kLog = 1, kMax = 2, kMin = 3 };

  NodeClocks() = default;
  /// All four clocks at 0 from `start`, running at `rates` (indexed by slot).
  NodeClocks(Time start, const double (&rates)[4])
      : rate_{rates[0], rates[1], rates[2], rates[3]}, last_(start) {}

  /// Value of clock k at t (>= the last breakpoint): an extrapolation.
  [[nodiscard]] double at(int k, Time t) const { return value_[k] + rate_[k] * (t - last_); }
  [[nodiscard]] double rate(int k) const { return rate_[k]; }

  /// A breakpoint at t: integrate all four clocks to t, then change clock
  /// k's rate / override its value.
  void set_rate(Time t, int k, double r) {
    advance(t);
    rate_[k] = r;
  }
  void set_value(Time t, int k, double v) {
    advance(t);
    value_[k] = v;
  }

  /// Time at which clock k reaches `target`, measured from `now` and
  /// assuming the rate never changes: `now` if the target is already
  /// reached. Requires a positive rate.
  [[nodiscard]] Time time_of_value(int k, double target, Time now) const {
    if (rate_[k] <= 0.0) throw std::logic_error("time_of_value: non-positive rate");
    const double v = at(k, now);
    if (target <= v) return now;
    return now + (target - v) / rate_[k];
  }

 private:
  void advance(Time t) {
    if (t < last_) {
      require(last_ - t <= 1e-9 * (last_ + 1.0), "NodeClocks: time went backwards");
      return;
    }
    const double dt = t - last_;
    value_[0] += rate_[0] * dt;
    value_[1] += rate_[1] * dt;
    value_[2] += rate_[2] * dt;
    value_[3] += rate_[3] * dt;
    last_ = t;
  }

  double value_[4] = {0.0, 0.0, 0.0, 0.0};
  double rate_[4] = {1.0, 1.0, 1.0, 1.0};
  Time last_ = 0.0;
};

}  // namespace gcs
