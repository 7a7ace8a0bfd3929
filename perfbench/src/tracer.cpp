#include "tracer.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

volatile double kept_value = 0.0;

void keep(double value) { kept_value = value; }

std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& records) {
  const std::size_t n = records.size();
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(n);
  for (const SpanRecord& r : records) {
    if (r.parent < 0 || r.end_ns < 0) continue;
    children[static_cast<std::size_t>(r.parent)].emplace_back(r.start_ns, r.end_ns);
  }
  std::vector<std::int64_t> self(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRecord& r = records[i];
    if (r.end_ns < 0) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the child intervals, clipped to [start, end].
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = -1;
    bool open_run = false;
    for (auto [s, e] : kids) {
      s = std::max(s, r.start_ns);
      e = std::min(e, r.end_ns);
      if (e <= s) continue;
      if (open_run && s <= run_end) {
        run_end = std::max(run_end, e);
        continue;
      }
      if (open_run) covered += run_end - run_start;
      run_start = s;
      run_end = e;
      open_run = true;
    }
    if (open_run) covered += run_end - run_start;
    self[i] = (r.end_ns - r.start_ns) - covered;
  }
  return self;
}

std::map<std::string, SpanStats> aggregate(const std::vector<SpanRecord>& records) {
  const std::vector<std::int64_t> self = self_times_ns(records);
  std::map<std::string, SpanStats> out;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& r = records[i];
    if (r.end_ns < 0) continue;
    SpanStats& s = out[r.name];
    ++s.count;
    s.total_s += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    s.self_s += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<std::int64_t> self = self_times_ns(records_);
  std::fprintf(f, "index,name,parent,start_ns,end_ns,self_ns\n");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    std::fprintf(f, "%zu,%s,%d,%lld,%lld,%lld\n", i, r.name, r.parent,
                 static_cast<long long>(r.start_ns), static_cast<long long>(r.end_ns),
                 static_cast<long long>(self[i]));
  }
  const bool write_ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && write_ok;
}

}  // namespace perfbench
