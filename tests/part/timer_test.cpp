// Timer-based aggregation semantics (§IV-D, Fig 5): the first arrival of
// a transport group arms a delta deadline; on expiry the maximal
// contiguous arrived runs are flushed; later arrivals send immediately;
// if the group completes early the timer is disarmed and one WR covers
// the whole group.
#include <gtest/gtest.h>

#include "backend/des_backend.hpp"
#include "common/units.hpp"
#include "support/test_world.hpp"

namespace partib::test {
namespace {

// One transport group of 4 partitions (static TP=1 over 4 user
// partitions) with an explicit delta, so arrival timing is ours to script.
struct TimerFixture : ChannelFixture {
  explicit TimerFixture(Duration delta, std::size_t partitions = 4)
      : ChannelFixture(partitions * KiB, partitions,
                       make_options(delta, partitions)) {
    engine.run();  // settle handshake
    fill_pattern(sbuf, 1);
    PARTIB_ASSERT(partib::ok(send->start()));
    PARTIB_ASSERT(partib::ok(recv->start()));
    engine.run();  // deliver the round credit
  }

  static part::Options make_options(Duration delta, std::size_t partitions) {
    part::Options o;
    // Timer plan with a single transport group covering all partitions.
    auto agg = std::make_shared<agg::TimerPLogGPAggregator>(
        model::LogGPParams::niagara_mpi_measured(), delta);
    o.aggregator = std::move(agg);
    o.transport_partitions_override = 1;
    (void)partitions;
    return o;
  }

  void pready_at(Duration when, std::size_t i) {
    engine.schedule_at(when, [this, i] {
      PARTIB_ASSERT(partib::ok(send->pready(i)));
    });
  }
};

TEST(TimerAgg, AllArriveBeforeDeadlineMeansOneWr) {
  TimerFixture fx(usec(100));
  const Time t0 = fx.engine.now();
  for (std::size_t i = 0; i < 4; ++i) {
    fx.pready_at(t0 + usec(5) * static_cast<Duration>(i + 1), i);
  }
  fx.engine.run();
  EXPECT_TRUE(fx.send->test());
  EXPECT_TRUE(fx.recv->test());
  EXPECT_EQ(fx.send->wrs_posted_total(), 1u);
  EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf));
}

TEST(TimerAgg, Fig5ScenarioFlushesRunsThenLateArrival) {
  // delta = delta_b from the paper's Fig 5: p0, p1, p3 arrive before the
  // deadline, p2 after.  Expect WRs {0,1}, {3} at the deadline and {2}
  // on arrival: three WRs total.
  TimerFixture fx(usec(50));
  const Time t0 = fx.engine.now();
  fx.pready_at(t0 + usec(1), 0);
  fx.pready_at(t0 + usec(10), 1);
  fx.pready_at(t0 + usec(20), 3);
  fx.pready_at(t0 + usec(500), 2);  // laggard, past deadline (t0+1+50)
  fx.engine.run();
  EXPECT_TRUE(fx.send->test());
  EXPECT_TRUE(fx.recv->test());
  EXPECT_EQ(fx.send->wrs_posted_total(), 3u);
  EXPECT_EQ(fx.recv->messages_received_total(), 3u);
  EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf));
}

TEST(TimerAgg, DeadlineFlushHappensBeforeLaggard) {
  // Early partitions must land at the receiver while the laggard is
  // still "computing" — the whole point of early-bird transmission.
  TimerFixture fx(usec(50));
  const Time t0 = fx.engine.now();
  fx.pready_at(t0 + usec(1), 0);
  fx.pready_at(t0 + usec(2), 1);
  fx.pready_at(t0 + usec(3), 2);
  fx.pready_at(t0 + msec(5), 3);  // far laggard
  fx.engine.run_until(t0 + msec(1));
  // By 1 ms the deadline (t0 + 51 us) has flushed {0,1,2}.
  EXPECT_TRUE(fx.recv->parrived(0));
  EXPECT_TRUE(fx.recv->parrived(1));
  EXPECT_TRUE(fx.recv->parrived(2));
  EXPECT_FALSE(fx.recv->parrived(3));
  fx.engine.run();
  EXPECT_TRUE(fx.recv->test());
  EXPECT_EQ(fx.send->wrs_posted_total(), 2u);  // {0,1,2} then {3}
}

TEST(TimerAgg, NonContiguousArrivalsFlushAsSeparateRuns) {
  // p0 and p2 arrive before the deadline (non-adjacent): two WRs at the
  // deadline, then {1} and {3} individually: four total.
  TimerFixture fx(usec(50));
  const Time t0 = fx.engine.now();
  fx.pready_at(t0 + usec(1), 0);
  fx.pready_at(t0 + usec(2), 2);
  fx.pready_at(t0 + usec(500), 1);
  fx.pready_at(t0 + usec(600), 3);
  fx.engine.run();
  EXPECT_TRUE(fx.send->test());
  EXPECT_EQ(fx.send->wrs_posted_total(), 4u);
  EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf));
}

TEST(TimerAgg, LastArrivalJustBeforeDeadlineCancelsTimer) {
  TimerFixture fx(usec(50));
  const Time t0 = fx.engine.now();
  for (std::size_t i = 0; i < 4; ++i) fx.pready_at(t0 + usec(49), i);
  fx.engine.run();
  EXPECT_EQ(fx.send->wrs_posted_total(), 1u);
  EXPECT_TRUE(fx.send->test());
}

TEST(TimerAgg, ZeroDeltaDegeneratesTowardPerArrivalSends) {
  // With delta = 0 the deadline fires immediately after the first
  // arrival; each later arrival ships by itself (worst case: one WR per
  // partition).
  TimerFixture fx(0);
  const Time t0 = fx.engine.now();
  for (std::size_t i = 0; i < 4; ++i) {
    fx.pready_at(t0 + usec(10) * static_cast<Duration>(i + 1), i);
  }
  fx.engine.run();
  EXPECT_TRUE(fx.send->test());
  EXPECT_EQ(fx.send->wrs_posted_total(), 4u);
  EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf));
}

TEST(TimerAgg, ReverseOrderArrivalAfterDeadline) {
  // Reverse arrival order with only the highest index early.
  TimerFixture fx(usec(20));
  const Time t0 = fx.engine.now();
  fx.pready_at(t0 + usec(1), 3);
  fx.pready_at(t0 + usec(100), 2);
  fx.pready_at(t0 + usec(200), 1);
  fx.pready_at(t0 + usec(300), 0);
  fx.engine.run();
  EXPECT_TRUE(fx.send->test());
  // {3} at deadline, then {2}, {1}, {0} individually.
  EXPECT_EQ(fx.send->wrs_posted_total(), 4u);
  EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf));
}

TEST(TimerAgg, AdjacentLateArrivalsMergeWhenSimultaneous) {
  // p0 early; p1 and p2 marked ready at the same instant after the
  // deadline, p1 first: p1's flush ships only {1} (p2 not yet ready),
  // p2 then ships {2}; finally p3.
  TimerFixture fx(usec(10));
  const Time t0 = fx.engine.now();
  fx.pready_at(t0 + usec(1), 0);
  fx.pready_at(t0 + usec(100), 1);
  fx.pready_at(t0 + usec(100), 2);
  fx.pready_at(t0 + usec(200), 3);
  fx.engine.run();
  EXPECT_TRUE(fx.send->test());
  EXPECT_EQ(fx.send->wrs_posted_total(), 4u);
}

TEST(TimerAgg, SecondRoundTimerStateResets) {
  TimerFixture fx(usec(50));
  const Time t0 = fx.engine.now();
  fx.pready_at(t0 + usec(1), 0);
  fx.pready_at(t0 + usec(2), 1);
  fx.pready_at(t0 + usec(200), 2);
  fx.pready_at(t0 + usec(300), 3);
  fx.engine.run();
  ASSERT_TRUE(fx.send->test());
  const auto first_round_wrs = fx.send->wrs_posted_total();
  EXPECT_EQ(first_round_wrs, 3u);  // {0,1}, {2}, {3}

  // Round 2: everyone arrives inside delta -> exactly one more WR.
  fill_pattern(fx.sbuf, 2);
  ASSERT_TRUE(ok(fx.send->start()));
  ASSERT_TRUE(ok(fx.recv->start()));
  const Time t1 = fx.engine.now();
  for (std::size_t i = 0; i < 4; ++i) fx.pready_at(t1 + usec(5), i);
  fx.engine.run();
  EXPECT_TRUE(fx.send->test());
  EXPECT_EQ(fx.send->wrs_posted_total(), first_round_wrs + 1);
  EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf));
}

TEST(TimerAgg, MultipleGroupsArmIndependentTimers) {
  // 8 partitions in 2 transport groups of 4.  Group 0 completes early
  // (one WR); group 1 is flushed by its own deadline.
  backend::DesBackend des(mpi::backend_config({}));
  sim::Engine& engine = des.engine();
  mpi::World world(des, {});
  std::vector<std::byte> sbuf(8 * KiB), rbuf(8 * KiB);
  part::Options opts;
  opts.aggregator = std::make_shared<agg::TimerPLogGPAggregator>(
      model::LogGPParams::niagara_mpi_measured(), usec(50));
  opts.transport_partitions_override = 2;
  std::unique_ptr<part::PsendRequest> send;
  std::unique_ptr<part::PrecvRequest> recv;
  ASSERT_TRUE(ok(part::psend_init(world.rank(0), sbuf, 8, 1, 0, 0, opts,
                                  &send)));
  ASSERT_TRUE(ok(part::precv_init(world.rank(1), rbuf, 8, 0, 0, 0, opts,
                                  &recv)));
  engine.run();
  fill_pattern(sbuf, 1);
  ASSERT_TRUE(ok(send->start()));
  ASSERT_TRUE(ok(recv->start()));
  engine.run();
  const Time t0 = engine.now();
  // Group 0 (partitions 0-3): all within delta.
  for (std::size_t i = 0; i < 4; ++i) {
    engine.schedule_at(t0 + usec(5), [&send, i] {
      ASSERT_TRUE(ok(send->pready(i)));
    });
  }
  // Group 1 (partitions 4-7): 4,5 early; 6,7 late.
  for (std::size_t i : {4u, 5u}) {
    engine.schedule_at(t0 + usec(5), [&send, i] {
      ASSERT_TRUE(ok(send->pready(i)));
    });
  }
  for (std::size_t i : {6u, 7u}) {
    engine.schedule_at(t0 + usec(500) + static_cast<Duration>(i), [&send, i] {
      ASSERT_TRUE(ok(send->pready(i)));
    });
  }
  engine.run();
  EXPECT_TRUE(send->test());
  EXPECT_TRUE(recv->test());
  // Group 0: 1 WR.  Group 1: {4,5} at deadline, {6}, {7}: 3 WRs.
  EXPECT_EQ(send->wrs_posted_total(), 4u);
  EXPECT_TRUE(buffers_equal(sbuf, rbuf));
}

}  // namespace
}  // namespace partib::test
