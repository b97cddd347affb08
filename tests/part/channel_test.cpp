// End-to-end tests of a partitioned channel: handshake, rounds, data
// integrity, restart semantics, and aggregation behaviour on the wire.
#include <gtest/gtest.h>

#include "backend/des_backend.hpp"
#include "common/units.hpp"
#include "support/backend_fixture.hpp"
#include "support/test_world.hpp"

namespace partib::test {
namespace {

// End-to-end channel behaviour is transport-independent, so the fixture
// suite runs over every conformance backend.  The two matcher-ordering
// tests at the bottom build a DES world directly and stay DES-only under
// a separate suite name (gtest forbids mixing TEST and TEST_P in one
// suite).
using Channel = test::BackendTest;

TEST_P(Channel, SingleRoundDeliversData) {
  ChannelFixture fx(64 * KiB, 16, ploggp_options());
  fx.run_round(1);
  EXPECT_TRUE(fx.send->test());
  EXPECT_TRUE(fx.recv->test());
  EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf));
}

TEST_P(Channel, HandshakeCompletesAfterInit) {
  ChannelFixture fx(4 * KiB, 4, ploggp_options());
  EXPECT_FALSE(fx.send->handshake_done());
  fx.drive();
  EXPECT_TRUE(fx.send->handshake_done());
  EXPECT_TRUE(fx.recv->matched());
}

TEST_P(Channel, PersistentBaselineSendsOneWrPerPartition) {
  ChannelFixture fx(64 * KiB, 16, persistent_options());
  fx.run_round(1);
  EXPECT_EQ(fx.send->wrs_posted_total(), 16u);
  EXPECT_EQ(fx.recv->messages_received_total(), 16u);
  EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf));
}

TEST_P(Channel, FullAggregationSendsOneWr) {
  ChannelFixture fx(64 * KiB, 16, static_options(/*tp=*/1, /*qps=*/1));
  fx.run_round(1);
  EXPECT_EQ(fx.send->wrs_posted_total(), 1u);
  EXPECT_EQ(fx.recv->messages_received_total(), 1u);
  EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf));
}

TEST_P(Channel, StaticPlanUsesRequestedTransportPartitions) {
  ChannelFixture fx(64 * KiB, 32, static_options(/*tp=*/8, /*qps=*/2));
  EXPECT_EQ(fx.send->transport_partitions(), 8u);
  EXPECT_EQ(fx.send->group_size(), 4u);
  EXPECT_EQ(fx.send->qp_count(), 2);
  fx.run_round(1);
  EXPECT_EQ(fx.send->wrs_posted_total(), 8u);
}

// An aggregator that hands psend an explicit, non-uniform contiguous
// layout through Plan::group_first / group_count.
class ExplicitLayoutAggregator final : public agg::Aggregator {
 public:
  agg::Plan plan(std::size_t, std::size_t) const override {
    agg::Plan p;
    p.transport_partitions = 3;
    p.group_first = {0, 10, 48};
    p.group_count = {10, 38, 16};
    return p;
  }
  const char* name() const override { return "explicit-layout"; }
};

TEST_P(Channel, ExplicitPlanLayoutIsAdoptedAndDeliversByteExact) {
  ChannelFixture fx(64 * KiB, 64,
                    options_with(std::make_shared<ExplicitLayoutAggregator>()));
  const auto firsts = fx.send->group_firsts();
  const auto counts = fx.send->group_counts();
  EXPECT_EQ(std::vector<std::size_t>(firsts.begin(), firsts.end()),
            (std::vector<std::size_t>{0, 10, 48}));
  EXPECT_EQ(std::vector<std::size_t>(counts.begin(), counts.end()),
            (std::vector<std::size_t>{10, 38, 16}));
  EXPECT_EQ(fx.send->transport_partitions(), 3u);
  for (int round = 1; round <= 3; ++round) {
    fx.run_round(round);
    ASSERT_TRUE(fx.send->test()) << "round " << round;
    ASSERT_TRUE(fx.recv->test()) << "round " << round;
    ASSERT_TRUE(buffers_equal(fx.sbuf, fx.rbuf)) << "round " << round;
  }
  // One WR per group per round: the layout held across Starts.
  EXPECT_EQ(fx.send->wrs_posted_total(), 9u);
  EXPECT_EQ(fx.recv->messages_received_total(), 9u);
}

TEST_P(Channel, MultipleRoundsReuseTheChannel) {
  ChannelFixture fx(32 * KiB, 8, ploggp_options());
  for (int round = 1; round <= 5; ++round) {
    fx.run_round(round);
    ASSERT_TRUE(fx.send->test()) << "round " << round;
    ASSERT_TRUE(fx.recv->test()) << "round " << round;
    ASSERT_TRUE(buffers_equal(fx.sbuf, fx.rbuf)) << "round " << round;
  }
  EXPECT_EQ(fx.send->round(), 5);
}

TEST_P(Channel, ParrivedTracksIndividualPartitions) {
  ChannelFixture fx(16 * KiB, 4, persistent_options());
  fill_pattern(fx.sbuf, 1);
  ASSERT_TRUE(ok(fx.send->start()));
  ASSERT_TRUE(ok(fx.recv->start()));
  // Only partition 2 is marked ready.
  ASSERT_TRUE(ok(fx.send->pready(2)));
  fx.drive();
  EXPECT_FALSE(fx.recv->test());
  EXPECT_TRUE(fx.recv->parrived(2));
  EXPECT_FALSE(fx.recv->parrived(0));
  EXPECT_FALSE(fx.recv->parrived(1));
  EXPECT_FALSE(fx.recv->parrived(3));
  // The rest arrive; the round completes.
  ASSERT_TRUE(ok(fx.send->pready(0)));
  ASSERT_TRUE(ok(fx.send->pready(1)));
  ASSERT_TRUE(ok(fx.send->pready(3)));
  fx.drive();
  EXPECT_TRUE(fx.recv->test());
  EXPECT_TRUE(fx.send->test());
}

TEST_P(Channel, PreadyRangeMarksInclusiveRange) {
  ChannelFixture fx(16 * KiB, 8, static_options(8, 1));
  ASSERT_TRUE(ok(fx.send->start()));
  ASSERT_TRUE(ok(fx.recv->start()));
  ASSERT_TRUE(ok(fx.send->pready_range(0, 7)));
  fx.drive();
  EXPECT_TRUE(fx.send->test());
  EXPECT_TRUE(fx.recv->test());
}

TEST_P(Channel, WhenCompleteFiresOnRoundCompletion) {
  ChannelFixture fx(8 * KiB, 4, ploggp_options());
  ASSERT_TRUE(ok(fx.send->start()));
  ASSERT_TRUE(ok(fx.recv->start()));
  bool send_done = false;
  bool recv_done = false;
  fx.send->when_complete([&] { send_done = true; });
  fx.recv->when_complete([&] { recv_done = true; });
  for (std::size_t i = 0; i < 4; ++i) ASSERT_TRUE(ok(fx.send->pready(i)));
  fx.drive();
  EXPECT_TRUE(send_done);
  EXPECT_TRUE(recv_done);
}

TEST_P(Channel, RecvCompletionNotBeforeSendCompletion) {
  // The receiver observes completion no later than the sender does plus
  // the ACK latency; both must see consistent round state afterwards.
  ChannelFixture fx(128 * KiB, 16, ploggp_options());
  ASSERT_TRUE(ok(fx.send->start()));
  ASSERT_TRUE(ok(fx.recv->start()));
  Time send_done = -1;
  Time recv_done = -1;
  fx.send->when_complete([&] { send_done = fx.engine.now(); });
  fx.recv->when_complete([&] { recv_done = fx.engine.now(); });
  for (std::size_t i = 0; i < 16; ++i) ASSERT_TRUE(ok(fx.send->pready(i)));
  fx.drive();
  ASSERT_GE(send_done, 0);
  ASSERT_GE(recv_done, 0);
  // RC semantics: the sender's completion implies remote delivery, so the
  // receiver's arrival time cannot be later than the sender's completion.
  EXPECT_LE(recv_done, send_done);
}

TEST(ChannelMatching, ReverseInitOrderStillMatches) {
  // Precv_init first, Psend_init second (matcher queues the recv side).
  backend::DesBackend des(mpi::backend_config({}));
  sim::Engine& engine = des.engine();
  mpi::World world(des, {});
  std::vector<std::byte> sbuf(16 * KiB), rbuf(16 * KiB);
  std::unique_ptr<part::PrecvRequest> recv;
  std::unique_ptr<part::PsendRequest> send;
  ASSERT_TRUE(ok(part::precv_init(world.rank(1), rbuf, 4, 0, 9, 0,
                                  ploggp_options(), &recv)));
  engine.run();  // receiver waits alone
  EXPECT_FALSE(recv->matched());
  ASSERT_TRUE(ok(part::psend_init(world.rank(0), sbuf, 4, 1, 9, 0,
                                  ploggp_options(), &send)));
  engine.run();
  EXPECT_TRUE(recv->matched());
  EXPECT_TRUE(send->handshake_done());
}

TEST(ChannelMatching, TwoChannelsSameTagMatchInOrder) {
  // Two Psend_init/Precv_init pairs with identical (src, tag, comm) must
  // match in posted order (MPI Partitioned ordering rule).
  backend::DesBackend des(mpi::backend_config({}));
  sim::Engine& engine = des.engine();
  mpi::World world(des, {});
  std::vector<std::byte> s1(4 * KiB), s2(8 * KiB);
  std::vector<std::byte> r1(4 * KiB), r2(8 * KiB);
  std::unique_ptr<part::PsendRequest> send1, send2;
  std::unique_ptr<part::PrecvRequest> recv1, recv2;
  const auto opts = ploggp_options();
  ASSERT_TRUE(ok(part::psend_init(world.rank(0), s1, 4, 1, 5, 0, opts, &send1)));
  ASSERT_TRUE(ok(part::psend_init(world.rank(0), s2, 8, 1, 5, 0, opts, &send2)));
  ASSERT_TRUE(ok(part::precv_init(world.rank(1), r1, 4, 0, 5, 0, opts, &recv1)));
  ASSERT_TRUE(ok(part::precv_init(world.rank(1), r2, 8, 0, 5, 0, opts, &recv2)));
  engine.run();
  ASSERT_TRUE(recv1->matched());
  ASSERT_TRUE(recv2->matched());

  fill_pattern(s1, 1);
  fill_pattern(s2, 2);
  ASSERT_TRUE(ok(send1->start()));
  ASSERT_TRUE(ok(send2->start()));
  ASSERT_TRUE(ok(recv1->start()));
  ASSERT_TRUE(ok(recv2->start()));
  for (std::size_t i = 0; i < 4; ++i) ASSERT_TRUE(ok(send1->pready(i)));
  for (std::size_t i = 0; i < 8; ++i) ASSERT_TRUE(ok(send2->pready(i)));
  engine.run();
  EXPECT_EQ(r1, s1);
  EXPECT_EQ(r2, s2);
}

PARTIB_INSTANTIATE_BACKENDS(Channel);

}  // namespace
}  // namespace partib::test
