// API misuse: the error paths psend_init / precv_init / start / pready /
// parrived must reject, mirroring MPI's erroneous-program rules (no
// wildcards, no double Pready, power-of-two geometry, ...).
#include <gtest/gtest.h>

#include "backend/des_backend.hpp"
#include "common/units.hpp"
#include "support/backend_fixture.hpp"
#include "support/test_world.hpp"

namespace partib::test {
namespace {

// Validation happens before anything touches the wire, so rejecting on
// one transport and not another would be a conformance bug — the whole
// file (minus the DES-only death test) runs over every backend.
using InitErrors = test::BackendTest;
using UsageErrors = test::BackendTest;
using Overrides = test::BackendTest;
using Backpressure = test::BackendTest;

struct ErrFixture {
  std::unique_ptr<backend::Backend> backend =
      backend::make_backend(current_backend());
  mpi::World world{*backend, {}};
  std::vector<std::byte> buf = std::vector<std::byte>(16 * KiB);
  std::unique_ptr<part::PsendRequest> send;
  std::unique_ptr<part::PrecvRequest> recv;
  part::Options opts = ploggp_options();
};

TEST_P(InitErrors, NonPowerOfTwoPartitions) {
  ErrFixture fx;
  EXPECT_EQ(part::psend_init(fx.world.rank(0), fx.buf, 3, 1, 0, 0, fx.opts,
                             &fx.send),
            Status::kInvalidArgument);
  EXPECT_EQ(part::precv_init(fx.world.rank(1), fx.buf, 12, 0, 0, 0, fx.opts,
                             &fx.recv),
            Status::kInvalidArgument);
}

TEST_P(InitErrors, ZeroPartitions) {
  ErrFixture fx;
  EXPECT_EQ(part::psend_init(fx.world.rank(0), fx.buf, 0, 1, 0, 0, fx.opts,
                             &fx.send),
            Status::kInvalidArgument);
}

TEST_P(InitErrors, BufferNotDivisible) {
  ErrFixture fx;
  std::vector<std::byte> odd(1000);  // not divisible by 16
  EXPECT_EQ(part::psend_init(fx.world.rank(0), odd, 16, 1, 0, 0, fx.opts,
                             &fx.send),
            Status::kInvalidArgument);
}

TEST_P(InitErrors, EmptyBuffer) {
  ErrFixture fx;
  std::vector<std::byte> empty;
  EXPECT_EQ(part::psend_init(fx.world.rank(0), empty, 4, 1, 0, 0, fx.opts,
                             &fx.send),
            Status::kInvalidArgument);
}

TEST_P(InitErrors, WildcardLikeNegativeTagRejected) {
  ErrFixture fx;
  EXPECT_EQ(part::psend_init(fx.world.rank(0), fx.buf, 4, 1, -1, 0, fx.opts,
                             &fx.send),
            Status::kInvalidArgument);
  EXPECT_EQ(part::precv_init(fx.world.rank(1), fx.buf, 4, 0, -1, 0, fx.opts,
                             &fx.recv),
            Status::kInvalidArgument);
}

TEST_P(InitErrors, WildcardLikeNegativeSourceRejected) {
  ErrFixture fx;
  EXPECT_EQ(part::precv_init(fx.world.rank(1), fx.buf, 4, -1, 0, 0, fx.opts,
                             &fx.recv),
            Status::kInvalidArgument);
}

TEST_P(InitErrors, PeerOutOfRange) {
  ErrFixture fx;
  EXPECT_EQ(part::psend_init(fx.world.rank(0), fx.buf, 4, 9, 0, 0, fx.opts,
                             &fx.send),
            Status::kInvalidArgument);
}

TEST_P(InitErrors, SelfChannelUnsupported) {
  ErrFixture fx;
  EXPECT_EQ(part::psend_init(fx.world.rank(0), fx.buf, 4, 0, 0, 0, fx.opts,
                             &fx.send),
            Status::kUnsupported);
  EXPECT_EQ(part::precv_init(fx.world.rank(0), fx.buf, 4, 0, 0, 0, fx.opts,
                             &fx.recv),
            Status::kUnsupported);
}

TEST_P(InitErrors, MissingAggregator) {
  ErrFixture fx;
  part::Options bad;  // aggregator left null
  EXPECT_EQ(part::psend_init(fx.world.rank(0), fx.buf, 4, 1, 0, 0, bad,
                             &fx.send),
            Status::kInvalidArgument);
}

TEST_P(UsageErrors, PreadyBeforeStart) {
  ChannelFixture fx(16 * KiB, 4, ploggp_options());
  fx.drive();
  EXPECT_EQ(fx.send->pready(0), Status::kInvalidState);
}

TEST_P(UsageErrors, PreadyOutOfRange) {
  ChannelFixture fx(16 * KiB, 4, ploggp_options());
  ASSERT_TRUE(ok(fx.send->start()));
  EXPECT_EQ(fx.send->pready(4), Status::kInvalidArgument);
  EXPECT_EQ(fx.send->pready(1000), Status::kInvalidArgument);
}

TEST_P(UsageErrors, DoublePreadyIsErroneous) {
  ChannelFixture fx(16 * KiB, 4, ploggp_options());
  ASSERT_TRUE(ok(fx.send->start()));
  ASSERT_TRUE(ok(fx.recv->start()));
  ASSERT_TRUE(ok(fx.send->pready(1)));
  EXPECT_EQ(fx.send->pready(1), Status::kInvalidArgument);
}

TEST_P(UsageErrors, PreadyRangeBadBounds) {
  ChannelFixture fx(16 * KiB, 4, ploggp_options());
  ASSERT_TRUE(ok(fx.send->start()));
  EXPECT_EQ(fx.send->pready_range(2, 1), Status::kInvalidArgument);
  EXPECT_EQ(fx.send->pready_range(0, 4), Status::kInvalidArgument);
}

TEST_P(UsageErrors, PreadyRangePartialSuccessKeepsEarlierPartitions) {
  // pready_range stops at the first failure but does NOT roll back the
  // partitions it already marked (the header's partial-success contract:
  // Pready is not undoable, groups may already be on the wire).
  ChannelFixture fx(16 * KiB, 4, ploggp_options());
  ASSERT_TRUE(ok(fx.send->start()));
  ASSERT_TRUE(ok(fx.recv->start()));
  ASSERT_TRUE(ok(fx.send->pready(1)));  // pre-mark the failure point

  // Range marks 0, then fails on the double-Pready of 1; 2 and 3 untouched.
  EXPECT_EQ(fx.send->pready_range(0, 3), Status::kInvalidArgument);

  // Partition 0 stayed marked: marking it again is a double Pready.
  EXPECT_EQ(fx.send->pready(0), Status::kInvalidArgument);

  // The partitions after the failure point were never marked; the caller
  // resumes from there and the round completes normally.
  EXPECT_TRUE(ok(fx.send->pready_range(2, 3)));
  fx.drive();
  EXPECT_TRUE(fx.send->test());
  EXPECT_TRUE(fx.recv->test());
}

TEST_P(UsageErrors, StartWhileRoundInFlight) {
  ChannelFixture fx(16 * KiB, 4, ploggp_options());
  ASSERT_TRUE(ok(fx.send->start()));
  ASSERT_TRUE(ok(fx.recv->start()));
  ASSERT_TRUE(ok(fx.send->pready(0)));  // round incomplete
  EXPECT_EQ(fx.send->start(), Status::kInvalidState);
  // Receiver likewise: nothing arrived yet.
  EXPECT_EQ(fx.recv->start(), Status::kInvalidState);
}

TEST_P(UsageErrors, InactiveRequestTestsComplete) {
  ChannelFixture fx(16 * KiB, 4, ploggp_options());
  EXPECT_TRUE(fx.send->test());
  EXPECT_TRUE(fx.recv->test());
}

TEST(GeometryDeath, GeometryMismatchAborts) {
  // Sender and receiver disagreeing on the *total buffer size* is a fatal
  // program error.  (Differing partition counts are legal per MPI-4.0 and
  // exercised in integration/uneven_test.cpp.)
  backend::DesBackend des(mpi::backend_config({}));
  sim::Engine& engine = des.engine();
  mpi::World world(des, {});
  std::vector<std::byte> sbuf(16 * KiB), rbuf(32 * KiB);
  std::unique_ptr<part::PsendRequest> send;
  std::unique_ptr<part::PrecvRequest> recv;
  ASSERT_TRUE(ok(part::psend_init(world.rank(0), sbuf, 4, 1, 0, 0,
                                  ploggp_options(), &send)));
  ASSERT_TRUE(ok(part::precv_init(world.rank(1), rbuf, 4, 0, 0, 0,
                                  ploggp_options(), &recv)));
  EXPECT_DEATH(engine.run(), "geometry mismatch");
}

TEST_P(InitErrors, PartitionCountBeyondImmediateFieldRejected) {
  // The (start, count) pair must fit two 16-bit immediate halves.
  ErrFixture fx;
  std::vector<std::byte> big(128 * KiB);
  EXPECT_EQ(part::psend_init(fx.world.rank(0), big, 1 << 17, 1, 0, 0,
                             fx.opts, &fx.send),
            Status::kInvalidArgument);
}

TEST_P(Overrides, TransportPartitionOverrideWins) {
  part::Options opts = ploggp_options();
  opts.transport_partitions_override = 16;
  ChannelFixture fx(64 * KiB, 16, opts);
  EXPECT_EQ(fx.send->transport_partitions(), 16u);
}

TEST_P(Overrides, QpCountOverrideWins) {
  part::Options opts = ploggp_options();
  opts.qp_count_override = 4;
  ChannelFixture fx(64 * KiB, 16, opts);
  EXPECT_EQ(fx.send->qp_count(), 4);
}

TEST_P(Overrides, OverrideAboveUserCountClamps) {
  part::Options opts = ploggp_options();
  opts.transport_partitions_override = 64;
  ChannelFixture fx(16 * KiB, 4, opts);
  EXPECT_EQ(fx.send->transport_partitions(), 4u);
}

TEST_P(Backpressure, WrSlotExhaustionMidFlushDrainsThroughBacklog) {
  // One QP, 64 single-partition messages per round, but only 16 WR slots
  // (QpCaps.max_send_wr): the flush must hit kResourceExhausted mid-round,
  // park the staged WRs on the per-QP backlog, and drain them as send CQEs
  // free slots — with no posts lost, duplicated, or reordered.
  ChannelFixture fx(64 * KiB, 64, static_options(/*tp=*/64, /*qps=*/1));
  ASSERT_EQ(fx.send->qp_count(), 1);
  for (int round = 1; round <= 3; ++round) {
    fx.run_round(round);
    EXPECT_TRUE(fx.send->test());
    EXPECT_TRUE(fx.recv->test());
    EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf)) << "round " << round;
    // Every partition is its own message: 64 WRs per round, all posted
    // even though at most 16 ever fit in the QP at once.
    EXPECT_EQ(fx.send->wrs_posted_total(),
              static_cast<std::uint64_t>(round) * 64);
  }
}

TEST_P(Backpressure, DeferredCallbacksReplayInPreadyOrder) {
  // Pready everything before the handshake completes: every post lands on
  // the deferred queue and must replay in pready order once the ack
  // arrives.  One QP and one partition per message make the wire order
  // observable: the receiver's arrival sequence is exactly the replay
  // order.
  ChannelFixture fx(32 * KiB, 8, static_options(/*tp=*/8, /*qps=*/1));
  ASSERT_TRUE(ok(fx.send->start()));
  ASSERT_TRUE(ok(fx.recv->start()));
  const std::vector<std::size_t> pready_order{5, 2, 7, 0, 3, 6, 1, 4};
  for (std::size_t p : pready_order) {
    ASSERT_TRUE(ok(fx.send->pready(p)));
  }
  std::vector<std::size_t> arrivals;
  Time last = 0;
  fx.recv->set_arrival_hook([&](std::size_t p, Time when) {
    EXPECT_GE(when, last);
    last = when;
    arrivals.push_back(p);
  });
  fx.drive();
  EXPECT_TRUE(fx.send->test());
  EXPECT_TRUE(fx.recv->test());
  EXPECT_EQ(arrivals, pready_order);
}

PARTIB_INSTANTIATE_BACKENDS(InitErrors);
PARTIB_INSTANTIATE_BACKENDS(UsageErrors);
PARTIB_INSTANTIATE_BACKENDS(Overrides);
PARTIB_INSTANTIATE_BACKENDS(Backpressure);

}  // namespace
}  // namespace partib::test
