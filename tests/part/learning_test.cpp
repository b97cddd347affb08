// Online arrival-learning aggregation at the channel level: the sender
// must learn a repeating arrival pattern, re-plan layout and delta at
// Start with hysteresis, stay byte-exact while the layout shifts under
// it, accept oracle seeding, and replay bit-identically from a fixed
// scenario (docs/ADAPTIVE.md).
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "check/determinism.hpp"
#include "common/units.hpp"
#include "model/arrival_plan.hpp"
#include "support/test_world.hpp"

namespace partib::test {
namespace {

// Drive one round with per-partition pready offsets `truth` (ns from the
// round's first pready).
void run_round_with_arrivals(ChannelFixture& fx, int round,
                             const std::vector<Duration>& truth) {
  fill_pattern(fx.sbuf, round);
  ASSERT_TRUE(ok(fx.send->start()));
  ASSERT_TRUE(ok(fx.recv->start()));
  const Time t0 = fx.engine.now();
  for (std::size_t i = 0; i < truth.size(); ++i) {
    fx.engine.schedule_at(t0 + truth[i], [&fx, i] {
      ASSERT_TRUE(ok(fx.send->pready(i)));
    });
  }
  fx.engine.run();
  ASSERT_TRUE(fx.send->test());
  ASSERT_TRUE(fx.recv->test());
  ASSERT_TRUE(buffers_equal(fx.sbuf, fx.rbuf));
}

std::vector<Duration> bursty_truth(std::size_t n, Duration spread) {
  std::vector<Duration> a(n);
  const std::size_t head = n - n / 8;
  for (std::size_t i = 0; i < head; ++i) {
    a[i] = (usec(120) * static_cast<Duration>(i)) /
           static_cast<Duration>(head - 1);
  }
  for (std::size_t i = head; i < n; ++i) {
    a[i] = spread + (usec(600) * static_cast<Duration>(i - head)) /
                        static_cast<Duration>(n - head - 1);
  }
  return a;
}

std::vector<Duration> ramp_truth(std::size_t n, Duration spread) {
  std::vector<Duration> a(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = (spread * static_cast<Duration>(i)) /
           static_cast<Duration>(n - 1);
  }
  return a;
}

TEST(Learning, WarmProfileReplansToTheArrivalPattern) {
  ChannelFixture fx(64 * MiB, 64, learning_options());
  fx.engine.run();
  ASSERT_TRUE(fx.send->plan().learning);
  EXPECT_EQ(fx.send->profile_epochs(), 0u);
  EXPECT_EQ(fx.send->replans_adopted(), 0u);

  const auto truth = bursty_truth(64, msec(6));
  for (int round = 1; round <= 4; ++round) {
    run_round_with_arrivals(fx, round, truth);
  }
  EXPECT_GE(fx.send->profile_epochs(), 3u);
  EXPECT_GE(fx.send->replans_adopted(), 1u);

  // The adopted layout must isolate the straggler cluster: no group may
  // contain both a head partition (<= 55) and a tail partition (>= 56).
  const auto firsts = fx.send->group_firsts();
  const auto counts = fx.send->group_counts();
  ASSERT_EQ(firsts.size(), counts.size());
  bool boundary_at_56 = false;
  for (std::size_t g = 0; g < firsts.size(); ++g) {
    EXPECT_FALSE(firsts[g] < 56 && firsts[g] + counts[g] > 56);
    if (firsts[g] == 56) boundary_at_56 = true;
  }
  EXPECT_TRUE(boundary_at_56);
}

TEST(Learning, StationaryWorkloadDoesNotFlap) {
  ChannelFixture fx(64 * MiB, 64, learning_options());
  fx.engine.run();
  const auto truth = bursty_truth(64, msec(6));
  for (int round = 1; round <= 6; ++round) {
    run_round_with_arrivals(fx, round, truth);
  }
  // The profile has converged (identical epochs keep the EWMA fixed), so
  // the candidate equals the incumbent and hysteresis must hold the plan
  // perfectly still from here on.
  const std::uint64_t adopted = fx.send->replans_adopted();
  EXPECT_GE(adopted, 1u);
  const std::vector<std::size_t> firsts(fx.send->group_firsts().begin(),
                                        fx.send->group_firsts().end());
  const Duration delta = fx.send->plan().timer_delta;
  for (int round = 7; round <= 14; ++round) {
    run_round_with_arrivals(fx, round, truth);
  }
  EXPECT_EQ(fx.send->replans_adopted(), adopted);
  EXPECT_EQ(fx.send->plan().timer_delta, delta);
  ASSERT_EQ(fx.send->group_firsts().size(), firsts.size());
  for (std::size_t g = 0; g < firsts.size(); ++g) {
    EXPECT_EQ(fx.send->group_firsts()[g], firsts[g]);
  }
}

TEST(Learning, ByteExactWhileTheLayoutShiftsUnderneath) {
  ChannelFixture fx(16 * MiB, 32, learning_options());
  fx.engine.run();
  // Regime churn: every few rounds the pattern changes, so replans keep
  // re-shaping the layout mid-stream.  Delivery must stay exact and
  // every posted WR must be received.
  int round = 0;
  for (const auto& truth :
       {bursty_truth(32, msec(6)), bursty_truth(32, msec(6)),
        ramp_truth(32, msec(4)), ramp_truth(32, msec(4)),
        ramp_truth(32, usec(5)), ramp_truth(32, usec(5)),
        bursty_truth(32, msec(2)), bursty_truth(32, msec(2))}) {
    run_round_with_arrivals(fx, ++round, truth);
  }
  EXPECT_EQ(fx.recv->messages_received_total(), fx.send->wrs_posted_total());
  EXPECT_GE(fx.send->replans_adopted(), 1u);
}

TEST(Learning, GroupBudgetAndCoverHoldAcrossReplans) {
  part::Options opts = learning_options();
  const auto& learn =
      static_cast<const agg::ArrivalLearningAggregator&>(*opts.aggregator)
          .config();
  ChannelFixture fx(16 * MiB, 64, opts);
  fx.engine.run();
  int round = 0;
  for (const auto& truth :
       {bursty_truth(64, msec(6)), bursty_truth(64, msec(6)),
        ramp_truth(64, msec(8)), ramp_truth(64, msec(8)),
        bursty_truth(64, msec(1)), bursty_truth(64, msec(1))}) {
    run_round_with_arrivals(fx, ++round, truth);
    // Every layout the replan installs is a contiguous cover of the user
    // partitions within the transport budget — the fixed-capacity
    // buffers the allocation-free replan writes into are never exceeded.
    const auto firsts = fx.send->group_firsts();
    const auto counts = fx.send->group_counts();
    ASSERT_LE(firsts.size(), learn.max_groups);
    std::size_t next = 0;
    for (std::size_t g = 0; g < firsts.size(); ++g) {
      ASSERT_EQ(firsts[g], next);
      next += counts[g];
    }
    ASSERT_EQ(next, 64u);
  }
}

TEST(Learning, OracleSeedReplansOnTheNextStart) {
  ChannelFixture fx(64 * MiB, 64, learning_options());
  fx.engine.run();
  const auto truth = bursty_truth(64, msec(6));
  // Seed the ground truth before the first data round: the very next
  // Start must already adopt the pattern-shaped plan, no warm-up epochs.
  ASSERT_TRUE(ok(fx.send->seed_profile(truth)));
  EXPECT_GE(fx.send->profile_epochs(), 1u);
  run_round_with_arrivals(fx, 1, truth);
  EXPECT_GE(fx.send->replans_adopted(), 1u);
  bool boundary_at_56 = false;
  for (std::size_t f : fx.send->group_firsts()) {
    if (f == 56) boundary_at_56 = true;
  }
  EXPECT_TRUE(boundary_at_56);
}

TEST(Learning, SeedProfileRejectsBadCalls) {
  ChannelFixture learning_fx(1 * MiB, 16, learning_options());
  learning_fx.engine.run();
  const std::vector<Duration> wrong_size(8, usec(1));
  EXPECT_EQ(learning_fx.send->seed_profile(wrong_size),
            Status::kInvalidArgument);

  ChannelFixture static_fx(1 * MiB, 16, ploggp_options());
  static_fx.engine.run();
  const std::vector<Duration> right_size(16, usec(1));
  EXPECT_EQ(static_fx.send->seed_profile(right_size),
            Status::kInvalidState);
}

TEST(Learning, ScenarioReplaysBitIdentically) {
  const auto run_scenario = [] {
    ChannelFixture fx(16 * MiB, 64, learning_options());
    check::DeterminismAuditor auditor;  // after fx: detaches before it dies
    auditor.attach(fx.engine);
    fx.engine.run();
    int round = 0;
    for (const auto& truth :
         {bursty_truth(64, msec(6)), bursty_truth(64, msec(6)),
          ramp_truth(64, msec(3)), bursty_truth(64, msec(6))}) {
      run_round_with_arrivals(fx, ++round, truth);
    }
    return std::pair{auditor.fingerprint(), auditor.events_observed()};
  };
  const auto a = run_scenario();
  const auto b = run_scenario();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_GT(a.second, 0u);
}

}  // namespace
}  // namespace partib::test
