// Span tracer for the benchmark's own call sites.
//
// Every span is one call into a layer of the program under test, opened and
// closed by the benchmark around that call: (name, start, end, parent). The
// tracer keeps spans in memory and writes them out when the run ends; the
// per-layer self times are computed afterwards from the stored records.
//
// Self time of a span = its duration minus the part of its interval covered
// by its child spans (the union of the children, clipped to the parent), so
// time is never counted twice even if children overlap. When every span
// nests under one root, the self times of all spans sum to the root's
// duration exactly.
//
// A disabled tracer records nothing: span() returns an inert guard, so the
// untraced runs pay one predictable branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Keeps a computed value observable, so timed work cannot be discarded.
void keep(double value);

struct SpanRecord {
  const char* name = "";      ///< static string: the call site's layer name
  std::int32_t parent = -1;   ///< index of the enclosing span, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;   ///< -1 while open
};

/// Per-name totals over a set of closed spans.
struct SpanStats {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Self time (ns) of every record, index-aligned with `records`. Open spans
/// (end_ns < 0) count as zero-length.
std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& records);

/// Totals and self times per span name.
std::map<std::string, SpanStats> aggregate(const std::vector<SpanRecord>& records);

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) records_.reserve(1 << 16);
  }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII guard closing its span on destruction (inert when the tracer is
  /// disabled). Spans must close in LIFO order, which scoping guarantees.
  class Span {
   public:
    Span() = default;
    Span(Tracer* tracer, std::int32_t index) : tracer_(tracer), index_(index) {}
    Span(Span&& other) noexcept : tracer_(other.tracer_), index_(other.index_) {
      other.tracer_ = nullptr;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span& operator=(Span&&) = delete;
    ~Span() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }

   private:
    Tracer* tracer_ = nullptr;
    std::int32_t index_ = -1;
  };

  /// Open a span named `name` (a string literal) under the innermost open one.
  [[nodiscard]] Span span(const char* name) {
    if (!enabled_) return {};
    const auto index = static_cast<std::int32_t>(records_.size());
    records_.push_back({name, open_.empty() ? -1 : open_.back(), now_ns(), -1});
    open_.push_back(index);
    return {this, index};
  }

  [[nodiscard]] const std::vector<SpanRecord>& records() const { return records_; }

  /// Write every record as CSV (index,name,parent,start_ns,end_ns,self_ns).
  /// Returns false if the file could not be written.
  bool write_csv(const std::string& path) const;

 private:
  void close(std::int32_t index) {
    records_[static_cast<std::size_t>(index)].end_ns = now_ns();
    open_.pop_back();
  }

  bool enabled_;
  std::vector<SpanRecord> records_;
  std::vector<std::int32_t> open_;  ///< stack of open span indices
};

}  // namespace perfbench
