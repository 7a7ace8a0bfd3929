// Tests of the benchmark's own harness: the span self-time arithmetic and the
// RtTransport decorator. Self-contained (no test framework): each CHECK that
// fails prints its location, and the exit status is the failure count.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "rt_probe.h"
#include "tracer.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using perfbench::SpanRecord;

bool near(double a, double b) { return std::fabs(a - b) <= 1e-15; }

void nested_children_are_subtracted() {
  // root [0,100] > a [10,40] > aa [20,30];  root > b [50,60]
  const std::vector<SpanRecord> r = {
      {"root", -1, 0, 100}, {"a", 0, 10, 40}, {"aa", 1, 20, 30}, {"b", 0, 50, 60}};
  const auto self = perfbench::self_times_ns(r);
  CHECK(self[0] == 60);
  CHECK(self[1] == 20);
  CHECK(self[2] == 10);
  CHECK(self[3] == 10);
  CHECK(self[0] + self[1] + self[2] + self[3] == 100);  // sums to the root
}

void overlapping_children_count_once() {
  const std::vector<SpanRecord> r = {{"p", -1, 0, 100}, {"c", 0, 10, 50}, {"c", 0, 40, 70}};
  const auto self = perfbench::self_times_ns(r);
  CHECK(self[0] == 40);  // children cover [10,70]
}

void children_are_clipped_to_the_parent() {
  const std::vector<SpanRecord> r = {{"p", -1, 0, 10}, {"c", 0, 5, 20}};
  CHECK(perfbench::self_times_ns(r)[0] == 5);
}

void open_spans_count_as_empty() {
  const std::vector<SpanRecord> r = {{"p", -1, 0, 10}, {"c", 0, 2, -1}};
  const auto self = perfbench::self_times_ns(r);
  CHECK(self[0] == 10);
  CHECK(self[1] == 0);
}

void aggregate_sums_per_name() {
  const std::vector<SpanRecord> r = {
      {"root", -1, 0, 1000}, {"x", 0, 0, 100}, {"x", 0, 200, 500}, {"y", 2, 250, 300}};
  const auto stats = perfbench::aggregate(r);
  CHECK(stats.at("x").count == 2);
  CHECK(near(stats.at("x").total_s, 400e-9));
  CHECK(near(stats.at("x").self_s, 350e-9));
  CHECK(near(stats.at("root").self_s, 600e-9));
}

void live_tracer_nests_and_sums_to_the_root() {
  perfbench::Tracer tracer(true);
  {
    const auto root = tracer.span("root");
    for (int i = 0; i < 3; ++i) {
      const auto outer = tracer.span("outer");
      const auto inner = tracer.span("inner");
    }
  }
  const auto& r = tracer.records();
  CHECK(r.size() == 7);
  CHECK(r[1].parent == 0);
  CHECK(r[2].parent == 1);
  CHECK(r[3].parent == 0);
  std::int64_t sum = 0;
  for (std::int64_t s : perfbench::self_times_ns(r)) sum += s;
  CHECK(sum == r[0].end_ns - r[0].start_ns);

  perfbench::Tracer off(false);
  { const auto span = off.span("ignored"); }
  CHECK(off.records().empty());
}

void decorator_forwards_exactly() {
  // The rt-tcp-4 cluster over real loopback TCP: every decorator's counts
  // must equal its wrapped TcpTransport's own.
  gcs::ScenarioSpec spec;
  spec.n = 4;
  spec.seed = 3;
  spec.topology = gcs::ComponentSpec("ring");
  spec.estimates = gcs::ComponentSpec("rtt");
  spec.edge_params.msg_delay_min = 0.0;
  spec.gtilde_auto = true;
  perfbench::Tracer tracer(true);
  std::unique_ptr<perfbench::LockstepRig> rig;
  for (int attempt = 0; rig == nullptr && attempt < 16; ++attempt) {
    try {
      rig = std::make_unique<perfbench::LockstepRig>(spec, spec.seed,
                                                     perfbench::next_port_block(), tracer);
    } catch (const std::exception&) {
    }
  }
  CHECK(rig != nullptr);
  if (rig == nullptr) return;
  rig->start();
  rig->run_to(20.0);
  rig->drain();
  std::uint64_t sends = 0;
  for (gcs::NodeId u = 0; u < rig->size(); ++u) {
    const auto& traced = rig->traced(u);
    const auto& tcp = rig->tcp(u);
    CHECK(traced.sent_ok() == tcp.sent());
    CHECK(traced.polled() == tcp.received());
    CHECK(traced.send_calls() == traced.sent_ok() + traced.send_failed());
    CHECK(traced.rejected() == tcp.rejected());
    sends += traced.send_calls();
  }
  CHECK(sends > 0);
  // Every send and poll was spanned under a pump.
  const auto stats = perfbench::aggregate(tracer.records());
  CHECK(stats.at("rt.send").count == sends);
  CHECK(stats.count("rt.pump") == 1 && stats.count("rt.poll") == 1);
}

}  // namespace

int main() {
  nested_children_are_subtracted();
  overlapping_children_count_once();
  children_are_clipped_to_the_parent();
  open_spans_count_as_empty();
  aggregate_sums_per_name();
  live_tracer_nests_and_sums_to_the_root();
  decorator_forwards_exactly();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
