#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>
#include <variant>
#include <vector>

#include "graph/dynamic_graph.h"
#include "net/arena.h"
#include "net/transport.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace gcs {
namespace {

/// Hands every delivery to a closure: the test-side stand-in for the engine.
class FnSink final : public DeliverySink {
 public:
  explicit FnSink(std::function<void(const Delivery&)> fn) : fn_(std::move(fn)) {}
  void on_delivery(const Delivery& d) override { fn_(d); }

 private:
  std::function<void(const Delivery&)> fn_;
};

TEST(Simulator, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, SameTimeIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.pending(id));
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.pending(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel fails
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesTime) {
  Simulator sim;
  std::vector<double> fired;
  sim.schedule_at(1.0, [&] { fired.push_back(1.0); });
  sim.schedule_at(5.0, [&] { fired.push_back(5.0); });
  sim.run_until(3.0);
  EXPECT_EQ(fired, std::vector<double>{1.0});
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);  // idle time still advances
  sim.run_until(10.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 5.0}));
}

TEST(Simulator, RunBeforeLeavesHorizonEventsQueued) {
  // The island runner's window primitive: only events strictly below the
  // horizon fire, idle time is not advanced, and an instant still open at
  // the horizon is flushed (with its same-instant follow-ups) before return.
  struct Flush {
    Simulator* sim;
    std::vector<double>* fired;
    int runs = 0;
  };
  Simulator sim;
  std::vector<double> fired;
  Flush flush{&sim, &fired};
  sim.register_instant_flush(&flush, [](void* self) {
    auto* f = static_cast<Flush*>(self);
    ++f->runs;
    const Time t = f->sim->now();
    f->sim->schedule_at(t, [fired = f->fired, t] { fired->push_back(-t); });
  });
  const Time below = std::nextafter(2.0, 0.0);
  sim.schedule_at(1.0, [&] { fired.push_back(1.0); });
  sim.schedule_at(below, [&] {
    fired.push_back(below);
    sim.request_instant_flush();
  });
  sim.schedule_at(2.0, [&] { fired.push_back(2.0); });

  sim.run_before(2.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, below, -below}));
  EXPECT_EQ(flush.runs, 1);
  EXPECT_EQ(sim.now(), below);  // not idle-advanced to the horizon
  EXPECT_EQ(sim.pending_count(), 1u);  // the event AT the horizon waits

  sim.run_before(2.0);  // nothing below the horizon is left: a no-op
  EXPECT_EQ(sim.now(), below);
  EXPECT_EQ(fired.size(), 3u);

  sim.run_until(2.0);
  EXPECT_EQ(fired.back(), 2.0);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(Simulator, EventsScheduledDuringEventsRun) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    order.push_back(1);
    sim.schedule_after(0.5, [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 1.5);
}

TEST(Simulator, ZeroDelaySelfScheduleAtSameTimeRunsAfterPeers) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    order.push_back(1);
    sim.schedule_at(1.0, [&] { order.push_back(3); });
  });
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator sim;
  sim.schedule_at(10.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_at(std::nan(""), [] {}), std::invalid_argument);
}

TEST(Simulator, ToleratesTinyNegativeDelay) {
  Simulator sim;
  sim.schedule_at(1.0, [&] {
    // Float round-off in rate conversions can produce "now - 1e-12".
    EXPECT_NO_THROW(sim.schedule_at(sim.now() - 1e-12, [] {}));
  });
  sim.run();
}

TEST(Simulator, CountsFiredAndPending) {
  Simulator sim;
  sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending_count(), 2u);
  sim.run();
  EXPECT_EQ(sim.fired_count(), 2u);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(Simulator, ManyCancellationsStayConsistent) {
  Simulator sim;
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(sim.schedule_at(1.0 + i * 0.001, [&] { ++fired; }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) sim.cancel(ids[i]);
  sim.run();
  EXPECT_EQ(fired, 500);
}

TEST(Simulator, RescheduleMovesFireTimeAndResequences) {
  Simulator sim;
  std::vector<int> order;
  const EventId a = sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  // Moving `a` onto B's time re-sequences it: it now fires after B (FIFO
  // among equal times, as if freshly scheduled).
  EXPECT_TRUE(sim.reschedule(a, 2.0));
  EXPECT_TRUE(sim.pending(a));  // handle survives a reschedule
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_FALSE(sim.reschedule(a, 3.0));  // already fired
}

TEST(Simulator, RescheduleEarlierFiresEarlier) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  const EventId a = sim.schedule_at(5.0, [&] { order.push_back(5); });
  EXPECT_TRUE(sim.reschedule(a, 1.0));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{5, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Simulator, GenerationTagInvalidatesStaleHandlesAfterSlotReuse) {
  Simulator sim;
  bool old_fired = false;
  const EventId stale = sim.schedule_at(1.0, [&] { old_fired = true; });
  EXPECT_TRUE(sim.cancel(stale));
  // The freed slot is reused by the next schedule; the stale handle must
  // not alias the new event.
  bool new_fired = false;
  const EventId fresh = sim.schedule_at(1.0, [&] { new_fired = true; });
  EXPECT_NE(stale.value, fresh.value);
  EXPECT_FALSE(sim.pending(stale));
  EXPECT_TRUE(sim.pending(fresh));
  EXPECT_FALSE(sim.cancel(stale));       // stale handle: no-op
  EXPECT_FALSE(sim.reschedule(stale, 2.0));
  sim.run();
  EXPECT_FALSE(old_fired);
  EXPECT_TRUE(new_fired);
  // Handles of fired events are stale too, across further slot reuse.
  EXPECT_FALSE(sim.pending(fresh));
  sim.schedule_at(sim.now() + 1.0, [] {});
  EXPECT_FALSE(sim.cancel(fresh));
  sim.run();
}

// ---------------------------------------------------------------------------
// Timing-wheel-specific stress cases. Geometry: bucket width 1/32,
// 64 fine buckets per coarse block, 64 coarse blocks — so one L1 rotation
// spans 2 time units and the L2 window ends 128 time units out; anything
// beyond that lives in the far list until the window slides.

TEST(SimulatorWheel, EventsBeyondOneWheelRotationFireInOrder) {
  Simulator sim;
  std::vector<int> order;
  // One event per tier: current epoch, L1, L2, far — scheduled shuffled.
  sim.schedule_at(300.0, [&] { order.push_back(4); });  // far (> 128)
  sim.schedule_at(0.01, [&] { order.push_back(1); });   // current epoch
  sim.schedule_at(50.0, [&] { order.push_back(3); });   // L2 window
  sim.schedule_at(1.0, [&] { order.push_back(2); });    // L1 block
  EXPECT_EQ(sim.pending_count(), 4u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(sim.now(), 300.0);
}

TEST(SimulatorWheel, ManyRotationsWithRecurringEvents) {
  // A self-rescheduling chain crossing hundreds of L1 rotations and several
  // L2 windows, interleaved with far-future one-shots.
  Simulator sim;
  int chain = 0;
  std::function<void()> tick = [&] {
    ++chain;
    if (chain < 1000) sim.schedule_after(0.7, tick);
  };
  sim.schedule_after(0.7, tick);
  std::vector<double> far_fired;
  for (int i = 1; i <= 5; ++i) {
    const double at = 130.0 * i;  // each beyond the L2 window at schedule time
    sim.schedule_at(at, [&far_fired, at] { far_fired.push_back(at); });
  }
  sim.run();
  EXPECT_EQ(chain, 1000);
  EXPECT_EQ(far_fired, (std::vector<double>{130.0, 260.0, 390.0, 520.0, 650.0}));
}

TEST(SimulatorWheel, FifoTiesWithinOneBucket) {
  // Many events at the exact same far-future time land in one wheel bucket;
  // they must fire in scheduling order after promotion (the sorted run
  // orders by the packed (time, seq) key, and seq is the schedule order).
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    sim.schedule_at(77.25, [&order, i] { order.push_back(i); });
  }
  // Same time, scheduled later, from a different tier history: rescheduled
  // from near to far — must still fire last (reschedule re-sequences).
  const EventId moved = sim.schedule_at(0.5, [&order] { order.push_back(100); });
  ASSERT_TRUE(sim.reschedule(moved, 77.25));
  sim.run();
  ASSERT_EQ(order.size(), 101u);
  for (int i = 0; i <= 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorWheel, CancelAndRescheduleAcrossPromotionBoundary) {
  Simulator sim;
  std::vector<int> order;
  // Far event pulled into the near horizon, near event pushed beyond the
  // wheel window, and a bucket event cancelled after its neighbors fired.
  const EventId far_in = sim.schedule_at(200.0, [&] { order.push_back(1); });
  const EventId near_out = sim.schedule_at(0.5, [&] { order.push_back(2); });
  const EventId doomed = sim.schedule_at(10.0, [&] { order.push_back(3); });
  sim.schedule_at(10.0, [&] { order.push_back(4); });
  // Pins the wheel: when run_until drains past 5.0 the lazy promotion stops
  // at this event's bucket, so the 10.0 bucket is provably still unpromoted
  // when the cancel below runs (exercising the wheel-bucket removal path).
  sim.schedule_at(6.0, [&] { order.push_back(5); });
  EXPECT_TRUE(sim.reschedule(far_in, 1.0));    // far -> L1
  EXPECT_TRUE(sim.reschedule(near_out, 400.0));  // near -> far
  sim.run_until(5.0);  // fires far_in (at 1.0); 10.0 bucket not yet promoted
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_TRUE(sim.cancel(doomed));  // cancel inside an unpromoted bucket
  EXPECT_FALSE(sim.pending(doomed));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 5, 4, 2}));
}

TEST(SimulatorWheel, CancelWithinActiveSortedRun) {
  // Cancel an event whose bucket was already promoted (it sits in the
  // sorted run): the remaining run entries keep firing in order and their
  // handles stay valid.
  Simulator sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(sim.schedule_at(5.0 + 0.001 * i, [&order, i] { order.push_back(i); }));
  }
  // Fire the first two; the run for that bucket is now active.
  sim.step();
  sim.step();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_TRUE(sim.cancel(ids[3]));      // erase from the middle of the run
  EXPECT_TRUE(sim.reschedule(ids[5], 6.5));  // move out of the run
  EXPECT_TRUE(sim.cancel(ids[7]));      // erase the run's tail
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 4, 6, 5}));
}

TEST(SimulatorWheel, IdleGapsPromoteLazily) {
  // Long idle stretches between events: run_until across empty windows must
  // advance time without losing far events, and pending bookkeeping must
  // stay consistent.
  Simulator sim;
  std::vector<double> fired;
  sim.schedule_at(1000.0, [&] { fired.push_back(1000.0); });
  sim.schedule_at(1.0, [&] { fired.push_back(1.0); });
  sim.run_until(500.0);
  EXPECT_EQ(fired, std::vector<double>{1.0});
  EXPECT_EQ(sim.pending_count(), 1u);
  EXPECT_DOUBLE_EQ(sim.now(), 500.0);
  // Scheduling relative to the advanced now still interleaves correctly
  // with the parked far event.
  sim.schedule_at(600.0, [&] { fired.push_back(600.0); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<double>{1.0, 600.0, 1000.0}));
}

// Randomized schedule/cancel/reschedule interleavings, checked against a
// naive reference queue implementing the documented ordering contract:
// events fire in (time, sequence) order, where every schedule AND every
// reschedule draws the next sequence number.
TEST(Simulator, RandomizedOpsMatchNaiveReferenceQueue) {
  struct RefEvent {
    double time = 0.0;
    std::uint64_t seq = 0;
    int tag = 0;
  };
  Rng rng(0xDECADE);
  Simulator sim;
  std::vector<int> fired;                      // tags in kernel fire order
  std::vector<RefEvent> ref;                   // naive pending list
  std::vector<std::pair<EventId, int>> live;   // kernel handle -> tag
  std::uint64_t ref_seq = 0;
  int next_tag = 0;

  // Mostly near-horizon offsets, with a fat tail reaching through the L1
  // block, the L2 window and into the far list (window ends 128 out), so
  // cancels/reschedules hit every wheel tier.
  const auto draw_offset = [&] {
    return rng.chance(0.25) ? rng.uniform(0.0, 400.0) : rng.uniform(0.0, 10.0);
  };

  const auto schedule = [&](double at) {
    const int tag = next_tag++;
    live.emplace_back(sim.schedule_at(at, [&fired, tag] { fired.push_back(tag); }),
                      tag);
    ref.push_back(RefEvent{at, ++ref_seq, tag});
  };
  const auto ref_erase = [&](int tag) {
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (ref[i].tag == tag) {
        ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
    FAIL() << "tag missing from reference";
  };

  for (int round = 0; round < 4000; ++round) {
    const double roll = rng.uniform01();
    if (roll < 0.45 || live.empty()) {
      schedule(sim.now() + draw_offset());
    } else if (roll < 0.65) {
      const std::size_t pick = static_cast<std::size_t>(rng.below(live.size()));
      ASSERT_TRUE(sim.cancel(live[pick].first));
      ref_erase(live[pick].second);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (roll < 0.85) {
      const std::size_t pick = static_cast<std::size_t>(rng.below(live.size()));
      const double at = sim.now() + draw_offset();
      ASSERT_TRUE(sim.reschedule(live[pick].first, at));
      for (RefEvent& e : ref) {
        if (e.tag == live[pick].second) {
          e.time = at;
          e.seq = ++ref_seq;  // reschedule re-sequences, like a fresh schedule
        }
      }
    } else {
      // Fire the next event; drop it from both views.
      if (sim.step()) {
        ASSERT_FALSE(fired.empty());
        const int tag = fired.back();
        ref_erase(tag);
        std::erase_if(live, [tag](const auto& kv) { return kv.second == tag; });
      }
    }
    ASSERT_EQ(sim.pending_count(), ref.size()) << "round " << round;
  }

  // Drain: the kernel must fire the remaining events in exactly the
  // reference order.
  std::stable_sort(ref.begin(), ref.end(), [](const RefEvent& a, const RefEvent& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  });
  const std::size_t already_fired = fired.size();
  sim.run();
  ASSERT_EQ(fired.size(), already_fired + ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(fired[already_fired + i], ref[i].tag) << "drain position " << i;
  }
  EXPECT_EQ(sim.pending_count(), 0u);
}

// Bucket promotion distributes a bucket over sub-epochs and sorts only
// within each; these cases target the shapes where that could diverge from
// one sort of the whole bucket. Each schedules `times` in the given order
// (tag = index) into a fresh simulator, optionally cancels some tags before
// anything fires, and checks the drain against the naive reference order:
// (time, schedule order).
void expect_naive_order(const std::vector<double>& times,
                        const std::vector<std::size_t>& cancelled = {}) {
  Simulator sim;
  std::vector<std::size_t> fired;
  std::vector<EventId> ids;
  ids.reserve(times.size());
  for (std::size_t tag = 0; tag < times.size(); ++tag) {
    ids.push_back(sim.schedule_at(times[tag], [&fired, tag] { fired.push_back(tag); }));
  }
  std::vector<bool> live(times.size(), true);
  for (const std::size_t tag : cancelled) {
    ASSERT_TRUE(sim.cancel(ids[tag]));
    live[tag] = false;
  }
  std::vector<std::size_t> expected;
  for (std::size_t tag = 0; tag < times.size(); ++tag) {
    if (live[tag]) expected.push_back(tag);
  }
  // Tags are schedule order, so a stable sort by time is the reference.
  std::stable_sort(expected.begin(), expected.end(),
                   [&times](std::size_t a, std::size_t b) { return times[a] < times[b]; });
  sim.run();
  ASSERT_EQ(fired.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(fired[i], expected[i]) << "fire position " << i;
  }
}

constexpr double kFineWidth = 1.0 / 32;  // the wheel's fine-epoch width W

TEST(SimulatorPromotion, LargeShuffledBucketMatchesNaiveOrder) {
  // 1500 distinct-ish times inside the single fine epoch starting at 5.0
  // (mid-block, so the bucket is promoted rather than heap-inserted), in
  // random schedule order, plus a few duplicates of earlier times.
  Rng rng(0x5B0C);
  std::vector<double> times;
  for (int i = 0; i < 1500; ++i) times.push_back(5.0 + rng.uniform(0.0, kFineWidth));
  for (int i = 0; i < 100; ++i) times.push_back(times[rng.below(times.size())]);
  expect_naive_order(times);
}

TEST(SimulatorPromotion, EqualTimeClusterKeepsFifoInsideSpreadBucket) {
  // 300 events at one identical time share a bucket with 300 spread ones:
  // the cluster collapses into one sub-epoch and must keep FIFO order.
  Rng rng(0xC1A5);
  std::vector<double> times;
  const double cluster = 7.0 + 0.4 * kFineWidth;
  for (int i = 0; i < 600; ++i) {
    times.push_back(i % 2 == 0 ? cluster : 7.0 + rng.uniform(0.0, kFineWidth));
  }
  expect_naive_order(times);
}

TEST(SimulatorPromotion, EpochAndSubEpochBoundaryTimes) {
  // Times exactly on fine-epoch boundaries k*W, the double just below each
  // (the previous epoch's last sub-epoch), and exact sub-epoch edges for
  // several bucket sizes, scheduled in shuffled order.
  Rng rng(0xB0DE);
  std::vector<double> times;
  for (int k = 150; k < 200; ++k) {
    const double edge = k * kFineWidth;
    times.push_back(edge);
    times.push_back(std::nextafter(edge, 0.0));
    for (const int parts : {4, 64, 512}) {
      const double sub = edge + kFineWidth * static_cast<double>(rng.below(parts)) / parts;
      times.push_back(sub);
      times.push_back(std::nextafter(sub, 0.0));
    }
  }
  for (std::size_t i = times.size() - 1; i > 0; --i) {
    std::swap(times[i], times[rng.below(i + 1)]);
  }
  expect_naive_order(times);
}

TEST(SimulatorPromotion, SaturatedFarFutureTimesKeepOrder) {
  // Beyond 4.5e15 * W the fine epoch saturates; at 1e13 one epoch holds
  // only 16 representable times. Mix both with near events.
  const double sat = 4.5e15 * kFineWidth;
  std::vector<double> times;
  for (int i = 0; i < 40; ++i) {
    times.push_back(sat * (1.0 + 0.01 * (i % 7)));
    times.push_back(sat * 3.0);
    times.push_back(1e13 + kFineWidth * (i % 5) / 8.0);
    times.push_back(3.0 + kFineWidth * (i % 9) / 9.0);
  }
  times.push_back(std::numeric_limits<double>::max());
  times.push_back(sat);
  expect_naive_order(times);
}

TEST(SimulatorPromotion, BucketReorderedByCancelsBeforePromotion) {
  // Cancels swap-remove inside a wheel bucket, moving its last entry into
  // the hole, so the promoted bucket is no longer in schedule order.
  Rng rng(0xCA9C);
  std::vector<double> times;
  for (int i = 0; i < 800; ++i) {
    // Coarse time quantization keeps many equal-time ties in play.
    times.push_back(9.0 + kFineWidth * static_cast<double>(rng.below(40)) / 40.0);
  }
  std::vector<std::size_t> cancelled;
  for (std::size_t tag = 0; tag < times.size(); ++tag) {
    if (rng.chance(0.3)) cancelled.push_back(tag);
  }
  expect_naive_order(times, cancelled);
}


// ---------------------------------------------------------------------------
// Message arena (zero-copy delivery payloads) and dispatch channels.

TEST(MessageArena, LastReleaseReclaimsFanoutSlot) {
  MessageArena arena;
  const auto ref = arena.put(Beacon{1.0, 2.0, 3.0}, 3);  // fan-out of three
  EXPECT_EQ(arena.live(), 1u);
  arena.release(ref);
  arena.release(ref);
  ASSERT_TRUE(arena.valid(ref));  // one reference still outstanding
  const auto* b = std::get_if<Beacon>(&arena.get(ref));
  ASSERT_NE(b, nullptr);
  EXPECT_DOUBLE_EQ(b->logical, 1.0);
  arena.release(ref);  // the last delivery frees the slot
  EXPECT_FALSE(arena.valid(ref));
  EXPECT_EQ(arena.live(), 0u);
}

TEST(MessageArena, GenerationTagGuardsSlotReuse) {
  MessageArena arena;
  const auto ref1 = arena.put(Beacon{1.0, 0.0, 0.0}, 1);
  arena.release(ref1);
  const auto ref2 = arena.put(InsertEdgeMsg{7.0, 9.0}, 1);
  // The freelist hands back the same slot index, but with a fresh
  // generation: the stale ref must not alias the new payload.
  EXPECT_EQ(static_cast<std::uint32_t>(ref1), static_cast<std::uint32_t>(ref2));
  EXPECT_NE(ref1, ref2);
  EXPECT_FALSE(arena.valid(ref1));
  ASSERT_TRUE(arena.valid(ref2));
  EXPECT_THROW((void)arena.get(ref1), std::runtime_error);
  EXPECT_NE(std::get_if<InsertEdgeMsg>(&arena.get(ref2)), nullptr);
}

TEST(MessageArena, TransportFanoutReclaimsAfterLastInFlightDelivery) {
  Simulator sim;
  DynamicGraph graph{sim, 4, 5};
  graph.set_detection_delay_mode(DetectionDelayMode::kZero);
  EdgeParams p;
  p.eps = 0.1;
  p.tau = 0.2;
  p.msg_delay_min = 0.1;
  p.msg_delay_max = 0.5;
  graph.create_edge_instant(EdgeKey(0, 1), p);
  graph.create_edge_instant(EdgeKey(0, 2), p);
  graph.create_edge_instant(EdgeKey(0, 3), p);
  Transport transport{sim, graph, 9};
  int delivered = 0;
  FnSink sink([&](const Delivery&) { ++delivered; });
  transport.set_sink(&sink);
  transport.set_directional_delay(0, 1, 0.1);
  transport.set_directional_delay(0, 2, 0.4);
  transport.set_directional_delay(0, 3, 0.4);
  transport.send_fanout(0, graph.view_neighbors(0), Beacon{5.0, 5.0, 0.0});
  EXPECT_EQ(transport.arena().live(), 1u);  // ONE payload for all deliveries
  sim.run_until(0.2);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(transport.arena().live(), 1u);  // later deliveries still hold it
  sim.run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(transport.arena().live(), 0u);  // last delivery reclaimed the slot
}

TEST(MessageArena, DegreeTwoFanoutSharesOneSlotAndKeepsPayloadBits) {
  // A sparse fan-out takes the same arena path as a dense one: one slot,
  // reclaimed by the last delivery, and every delivered payload is
  // bit-identical to the sent one.
  Simulator sim;
  DynamicGraph graph{sim, 3, 5};
  graph.set_detection_delay_mode(DetectionDelayMode::kZero);
  EdgeParams p;
  p.eps = 0.1;
  p.tau = 0.2;
  p.msg_delay_min = 0.1;
  p.msg_delay_max = 0.5;
  graph.create_edge_instant(EdgeKey(0, 1), p);
  graph.create_edge_instant(EdgeKey(0, 2), p);
  Transport transport{sim, graph, 9};
  std::vector<Beacon> seen;
  FnSink sink([&](const Delivery& d) { seen.push_back(std::get<Beacon>(*d.payload)); });
  transport.set_sink(&sink);
  transport.send_fanout(0, graph.view_neighbors(0), Beacon{5.0, 7.0, -1.0});
  EXPECT_EQ(transport.arena().live(), 1u);
  sim.run();
  ASSERT_EQ(seen.size(), 2u);
  for (const Beacon& b : seen) {
    EXPECT_EQ(b.logical, 5.0);
    EXPECT_EQ(b.max_estimate, 7.0);
    EXPECT_EQ(b.min_estimate, -1.0);
  }
  EXPECT_EQ(transport.arena().live(), 0u);
}

TEST(Simulator, ClosureAndChannelEventsCoexist) {
  struct Recorder {
    std::vector<SimEvent> fired;
    void dispatch(const SimEvent& ev) { fired.push_back(ev); }
  };
  Simulator sim;
  Recorder channel_rec;
  const std::uint8_t ch =
      sim.register_dispatch_channel(&channel_rec, [](void* self, const SimEvent& ev) {
        static_cast<Recorder*>(self)->dispatch(ev);
      });
  std::vector<int> closure_hits;
  sim.schedule_event_at(1.0, SimEvent::node_event(EventKind::kTick, ch, 7));
  sim.schedule_at(2.0, [&] { closure_hits.push_back(2); });
  sim.schedule_event_at(3.0, SimEvent::delivery(ch, 4, 5, 0.5, 42));
  sim.run();
  ASSERT_EQ(channel_rec.fired.size(), 2u);
  EXPECT_EQ(channel_rec.fired[0].kind, EventKind::kTick);
  EXPECT_EQ(channel_rec.fired[0].node, 7);
  EXPECT_EQ(channel_rec.fired[1].kind, EventKind::kDelivery);
  EXPECT_EQ(channel_rec.fired[1].from, 4);
  EXPECT_EQ(channel_rec.fired[1].node, 5);
  EXPECT_DOUBLE_EQ(channel_rec.fired[1].sent_at, 0.5);
  EXPECT_EQ(channel_rec.fired[1].payload_ref, 42u);
  EXPECT_EQ(closure_hits, std::vector<int>{2});
}

// Randomized arena-vs-copying equivalence: every delivered payload must be
// byte-equal to the copy its sender took at send time, no matter how arena
// slots were reused in between (interleaved sends, fan-outs, and partially
// drained flights). Closure events run alongside to cover coexistence on
// the same kernel.
TEST(Transport, ArenaVsCopyingEquivalenceRandomized) {
  constexpr int kN = 6;
  Simulator sim;
  DynamicGraph graph{sim, kN, 3};
  graph.set_detection_delay_mode(DetectionDelayMode::kZero);
  EdgeParams p;
  p.eps = 0.1;
  p.tau = 0.2;
  p.msg_delay_min = 0.05;
  p.msg_delay_max = 0.6;
  for (NodeId u = 0; u < kN; ++u) {
    for (NodeId v = u + 1; v < kN; ++v) graph.create_edge_instant(EdgeKey(u, v), p);
  }
  Transport transport{sim, graph, 77};
  std::vector<Beacon> sent_copies;  // the copying reference model
  std::uint64_t checked = 0;
  FnSink sink([&](const Delivery& d) {
    const auto* b = std::get_if<Beacon>(d.payload);
    ASSERT_NE(b, nullptr);
    const auto serial = static_cast<std::size_t>(b->logical);
    ASSERT_LT(serial, sent_copies.size());
    EXPECT_EQ(b->logical, sent_copies[serial].logical);
    EXPECT_EQ(b->max_estimate, sent_copies[serial].max_estimate);
    EXPECT_EQ(b->min_estimate, sent_copies[serial].min_estimate);
    ++checked;
  });
  transport.set_sink(&sink);
  Rng rng(123);
  std::uint64_t closure_fired = 0;
  for (int round = 0; round < 300; ++round) {
    const NodeId u = static_cast<NodeId>(rng.below(kN));
    const Beacon b{static_cast<double>(sent_copies.size()),
                   rng.uniform(0.0, 100.0), rng.uniform(-50.0, 0.0)};
    if (rng.uniform01() < 0.5) {
      transport.send_fanout(u, graph.view_neighbors(u), b);
    } else {
      const NodeId v = static_cast<NodeId>(
          (u + 1 + static_cast<NodeId>(rng.below(kN - 1))) % kN);
      ASSERT_TRUE(transport.send(u, v, b));
    }
    sent_copies.push_back(b);
    sim.schedule_after(rng.uniform(0.0, 0.2), [&] { ++closure_fired; });
    sim.run_until(sim.now() + rng.uniform(0.0, 0.3));
  }
  sim.run();
  EXPECT_EQ(checked, transport.delivered_count());
  EXPECT_EQ(transport.dropped_count(), 0u);
  EXPECT_GT(checked, 300u);
  EXPECT_EQ(closure_fired, 300u);
  EXPECT_EQ(transport.arena().live(), 0u);
}

}  // namespace
}  // namespace gcs
