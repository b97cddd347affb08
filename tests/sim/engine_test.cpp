// Discrete-event engine: ordering, determinism, cancellation, clock
// semantics.  The engine is the clock for every benchmark figure, so these
// invariants are load-bearing for the whole reproduction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/engine.hpp"

namespace partib::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, DispatchesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(e.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, TiesBreakByInsertionOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    e.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, ClockAdvancesToEventTime) {
  Engine e;
  Time seen = -1;
  e.schedule_at(123, [&] { seen = e.now(); });
  e.run();
  EXPECT_EQ(seen, 123);
  EXPECT_EQ(e.now(), 123);
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine e;
  Time seen = -1;
  e.schedule_at(100, [&] {
    e.schedule_after(50, [&] { seen = e.now(); });
  });
  e.run();
  EXPECT_EQ(seen, 150);
}

TEST(Engine, CallbackMaySchedule) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) e.schedule_after(10, recurse);
  };
  e.schedule_at(0, recurse);
  e.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(e.now(), 40);
}

TEST(Engine, CancelPreventsDispatch) {
  Engine e;
  bool ran = false;
  const auto id = e.schedule_at(10, [&] { ran = true; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_FALSE(ran);
}

TEST(Engine, CancelTwiceFails) {
  Engine e;
  const auto id = e.schedule_at(10, [] {});
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, CancelAfterDispatchFails) {
  Engine e;
  const auto id = e.schedule_at(10, [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, CancelInvalidIdFails) {
  Engine e;
  EXPECT_FALSE(e.cancel(Engine::EventId{}));
}

TEST(Engine, CancelFromCallback) {
  Engine e;
  bool second_ran = false;
  Engine::EventId second = e.schedule_at(20, [&] { second_ran = true; });
  e.schedule_at(10, [&] { EXPECT_TRUE(e.cancel(second)); });
  e.run();
  EXPECT_FALSE(second_ran);
}

TEST(Engine, StepDispatchesExactlyOne) {
  Engine e;
  int count = 0;
  e.schedule_at(1, [&] { ++count; });
  e.schedule_at(2, [&] { ++count; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(e.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(e.step());
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  std::vector<Time> fired;
  for (Time t : {10, 20, 30, 40}) {
    e.schedule_at(t, [&fired, &e] { fired.push_back(e.now()); });
  }
  EXPECT_EQ(e.run_until(25), 2u);
  EXPECT_EQ(fired, (std::vector<Time>{10, 20}));
  EXPECT_EQ(e.now(), 25);  // clock advances even while idle
  EXPECT_EQ(e.pending(), 2u);
}

TEST(Engine, RunUntilInclusiveOfDeadline) {
  Engine e;
  bool ran = false;
  e.schedule_at(25, [&] { ran = true; });
  e.run_until(25);
  EXPECT_TRUE(ran);
}

TEST(Engine, ProcessedCountAccumulates) {
  Engine e;
  for (int i = 0; i < 5; ++i) e.schedule_at(i, [] {});
  e.run();
  EXPECT_EQ(e.processed_count(), 5u);
}

TEST(Engine, DeterministicAcrossRuns) {
  // Two engines given identical schedules must produce identical
  // dispatch sequences — the foundation of reproducible benchmarks.
  auto trace = [] {
    Engine e;
    std::vector<std::pair<Time, int>> out;
    for (int i = 0; i < 50; ++i) {
      e.schedule_at((i * 37) % 101, [&out, i, &e] {
        out.emplace_back(e.now(), i);
      });
    }
    e.run();
    return out;
  };
  EXPECT_EQ(trace(), trace());
}

TEST(Engine, ZeroDelayEventRunsAtCurrentTime) {
  Engine e;
  Time seen = -1;
  e.schedule_at(42, [&] {
    e.schedule_after(0, [&] { seen = e.now(); });
  });
  e.run();
  EXPECT_EQ(seen, 42);
}

// -- next_time_bound: the real-time pump's O(1) deadline query -------------

TEST(EngineTimeBound, EmptyEngineReportsNoDeadline) {
  Engine e;
  EXPECT_EQ(e.next_time_bound(), std::nullopt);
  e.schedule_at(5, [] {});
  e.run();
  EXPECT_EQ(e.next_time_bound(), std::nullopt);
}

TEST(EngineTimeBound, BoundNeverExceedsEarliestLiveKey) {
  // Spread keys over many radix buckets and interleave partial drains,
  // cancels and fresh schedules; after every step the bound must not
  // pass the true earliest live key.
  Engine e;
  std::vector<std::pair<Time, Engine::EventId>> live;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  auto check_bound = [&] {
    if (live.empty()) {
      EXPECT_EQ(e.next_time_bound(), std::nullopt);
      return;
    }
    Time earliest = live.front().first;
    for (const auto& p : live) earliest = std::min(earliest, p.first);
    const std::optional<Time> bound = e.next_time_bound();
    ASSERT_TRUE(bound.has_value());
    EXPECT_LE(*bound, earliest);
  };
  for (int round = 0; round < 64; ++round) {
    for (int i = 0; i < 16; ++i) {
      const Time t = e.now() + static_cast<Time>(next() % (1u << 20));
      live.emplace_back(t, e.schedule_at(t, [] {}));
    }
    check_bound();
    for (int i = 0; i < 4 && !live.empty(); ++i) {
      const std::size_t k = next() % live.size();
      EXPECT_TRUE(e.cancel(live[k].second));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      check_bound();
    }
    e.run_until(e.now() + static_cast<Time>(next() % (1u << 18)));
    std::erase_if(live, [&](const auto& p) { return p.first <= e.now(); });
    check_bound();
  }
}

TEST(EngineTimeBound, CancellingTheMinimumKeepsABoundOnTheNext) {
  Engine e;
  const Engine::EventId first = e.schedule_at(100, [] {});
  e.schedule_at(300, [] {});
  e.schedule_at(200, [] {});
  EXPECT_LE(e.next_time_bound().value(), 100);
  ASSERT_TRUE(e.cancel(first));
  // The tombstone may keep the bound at 100; it must not pass 200.
  EXPECT_LE(e.next_time_bound().value(), 200);
  e.run_until(150);
  EXPECT_LE(e.next_time_bound().value(), 200);
  EXPECT_EQ(e.pending(), 2u);
}

TEST(EngineTimeBound, QueryLeavesScheduleAtNowLegalAndOrdered) {
  // After run_until(150) the radix base sits at the last key popped
  // (100) while the next live key is 200.  A query that settled the
  // heap would raise the base to 200 and make schedule_at(150) assert.
  Engine e;
  std::vector<std::pair<Time, int>> order;
  e.schedule_at(100, [&] { order.emplace_back(e.now(), 0); });
  e.schedule_at(200, [&] { order.emplace_back(e.now(), 1); });
  EXPECT_EQ(e.run_until(150), 1u);
  EXPECT_EQ(e.next_time_bound(), std::optional<Time>(200));
  e.schedule_at(e.now(), [&] { order.emplace_back(e.now(), 2); });
  e.schedule_at(e.now(), [&] { order.emplace_back(e.now(), 3); });
  EXPECT_EQ(e.next_time_bound(), std::optional<Time>(150));
  e.run();
  EXPECT_EQ(order, (std::vector<std::pair<Time, int>>{
                       {100, 0}, {150, 2}, {150, 3}, {200, 1}}));
}

}  // namespace
}  // namespace partib::sim
