// End-to-end recovery on the partitioned channel: transient transport
// faults are absorbed by the staged-WR retransmit path (exact bytes still
// arrive), QP errors recycle through RESET -> RTS, and a channel that
// exhausts its failure budget surfaces a structured error on both sides
// instead of hanging.
#include <gtest/gtest.h>

#include "check/check.hpp"
#include "check/determinism.hpp"
#include "common/units.hpp"
#include "support/test_world.hpp"

namespace partib::part {
namespace {

using test::ChannelFixture;
using test::buffers_equal;
using test::fill_pattern;

mpi::WorldOptions faulty_world(fabric::FaultPlanConfig faults) {
  mpi::WorldOptions w;
  w.faults = faults;
  return w;
}

fabric::FaultPlanConfig transient_faults(std::uint64_t seed) {
  fabric::FaultPlanConfig f;
  f.seed = seed;
  f.drop_rate = 0.05;
  f.delay_rate = 0.10;
  f.rnr_rate = 0.05;
  f.retry_exc_rate = 0.05;
  return f;
}

struct Recovery : ::testing::Test {
  void SetUp() override { check::reset(); }
  void TearDown() override { check::reset(); }
};

TEST_F(Recovery, TransientFaultsStillDeliverExactBytes) {
  // Static 16KiB aggregation => 16 transport messages per round, enough
  // draws that the 25% combined fault rate is guaranteed to bite.
  ChannelFixture fx(256 * KiB, 64, test::static_options(16 * KiB, 4),
                    faulty_world(transient_faults(17)));
  for (int round = 0; round < 4; ++round) {
    fx.run_round(round);
    EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf)) << "round " << round;
    EXPECT_FALSE(fx.send->failed());
    EXPECT_FALSE(fx.recv->failed());
  }
  // The plan actually bit: faults were injected and every one was either
  // retransmitted below verbs or retried from the staged-WR slab.
  const fabric::FabricStats& stats = fx.world->fab().stats();
  EXPECT_GT(stats.faults_injected, 0u);
  EXPECT_EQ(fx.send->status(), Status::kOk);
  EXPECT_EQ(fx.recv->status(), Status::kOk);
}

TEST_F(Recovery, QpFlushFaultsRecycleAndComplete) {
  // Flush faults wedge a QP chain mid-round; the sender must recycle the
  // errored QPs (RESET -> INIT -> RTR -> RTS) and repost from the slab.
  fabric::FaultPlanConfig f;
  f.seed = 23;
  f.qp_flush_rate = 0.10;
  ChannelFixture fx(128 * KiB, 32, test::static_options(16 * KiB, 2),
                    faulty_world(f));
  for (int round = 0; round < 3; ++round) {
    fx.run_round(round);
    EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf)) << "round " << round;
    EXPECT_FALSE(fx.send->failed());
  }
  const fabric::FabricStats& stats = fx.world->fab().stats();
  EXPECT_GT(stats.failed_ops, 0u);  // flushes happened and were survived
}

TEST_F(Recovery, BudgetExhaustionSurfacesStructuredError) {
  check::ScopedPolicy policy(check::Policy::kCount);
  fabric::FaultPlanConfig f;
  f.seed = 5;
  f.retry_exc_rate = 1.0;  // every transaction fails; retries cannot win
  part::Options opts = test::ploggp_options();
  opts.max_send_retries = 2;
  opts.retry_backoff = usec(1);
  ChannelFixture fx(64 * KiB, 16, opts, faulty_world(f));

  fill_pattern(fx.sbuf, 0);
  ASSERT_TRUE(ok(fx.send->start()));
  ASSERT_TRUE(ok(fx.recv->start()));
  for (std::size_t i = 0; i < fx.send->user_partitions(); ++i) {
    ASSERT_TRUE(ok(fx.send->pready(i)));
  }
  fx.engine.run();

  // The channel failed closed, on both sides, with a structured status —
  // and the simulation reached quiescence (no hang).
  EXPECT_TRUE(fx.send->failed());
  EXPECT_TRUE(fx.recv->failed());
  EXPECT_EQ(fx.send->status(), Status::kRemoteError);
  EXPECT_EQ(fx.recv->status(), Status::kRemoteError);
  EXPECT_TRUE(fx.send->test());
  EXPECT_TRUE(fx.recv->test());
  if (check::hooks_compiled_in()) {
    EXPECT_GE(check::count_rule("part.retry_exhausted"), 1u);
  }

  // Later lifecycle calls report the failure instead of restarting.
  EXPECT_EQ(fx.send->start(), Status::kRemoteError);
  EXPECT_EQ(fx.send->pready(0), Status::kRemoteError);
  EXPECT_EQ(fx.recv->start(), Status::kRemoteError);
  fx.engine.run();
  EXPECT_TRUE(fx.send->test());
  EXPECT_TRUE(fx.recv->test());
}

TEST_F(Recovery, FaultedRunsAreDeterministic) {
  // Same geometry + same fault seed => byte-identical event stream, even
  // through retries, recycles and retransmissions.
  std::uint64_t fp[2];
  for (int i = 0; i < 2; ++i) {
    ChannelFixture fx(128 * KiB, 32, test::ploggp_options(),
                      faulty_world(transient_faults(99)));
    check::DeterminismAuditor auditor;  // after fx: detaches before it dies
    auditor.attach(fx.engine);
    for (int round = 0; round < 2; ++round) fx.run_round(round);
    EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf));
    fp[i] = auditor.fingerprint();
    EXPECT_GT(auditor.events_observed(), 0u);
  }
  EXPECT_EQ(fp[0], fp[1]);
  EXPECT_TRUE(
      check::DeterminismAuditor::expect_identical(fp[0], fp[1], "recovery"));
}

}  // namespace
}  // namespace partib::part
