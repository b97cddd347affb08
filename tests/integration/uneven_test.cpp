// MPI-4.0 allows the sender and receiver to partition the same buffer
// differently; the receiver tracks arrival by byte coverage.  Also covers
// pbuf_prepare and DPU-offloaded aggregation.
#include <gtest/gtest.h>

#include "backend/des_backend.hpp"
#include "common/units.hpp"
#include "support/test_world.hpp"

namespace partib::test {
namespace {

struct UnevenFixture {
  backend::DesBackend des;
  sim::Engine& engine;
  mpi::World world;
  std::vector<std::byte> sbuf;
  std::vector<std::byte> rbuf;
  std::unique_ptr<part::PsendRequest> send;
  std::unique_ptr<part::PrecvRequest> recv;

  UnevenFixture(std::size_t bytes, std::size_t send_parts,
                std::size_t recv_parts, mpi::WorldOptions wopts = {},
                part::Options opts = ploggp_options())
      : des(mpi::backend_config(wopts)),
        engine(des.engine()),
        world(des, wopts),
        sbuf(bytes),
        rbuf(bytes) {
    PARTIB_ASSERT(partib::ok(part::psend_init(world.rank(0), sbuf,
                                              send_parts, 1, 0, 0, opts,
                                              &send)));
    PARTIB_ASSERT(partib::ok(part::precv_init(world.rank(1), rbuf,
                                              recv_parts, 0, 0, 0, opts,
                                              &recv)));
    engine.run();
  }

  void run_round(int round) {
    fill_pattern(sbuf, round);
    PARTIB_ASSERT(partib::ok(send->start()));
    PARTIB_ASSERT(partib::ok(recv->start()));
    for (std::size_t i = 0; i < send->user_partitions(); ++i) {
      PARTIB_ASSERT(partib::ok(send->pready(i)));
    }
    engine.run();
  }
};

TEST(Uneven, SenderFinerThanReceiver) {
  // 16 send partitions -> 4 receive partitions.
  UnevenFixture fx(64 * KiB, 16, 4);
  fx.run_round(1);
  EXPECT_TRUE(fx.send->test());
  EXPECT_TRUE(fx.recv->test());
  EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_TRUE(fx.recv->parrived(i));
}

TEST(Uneven, ReceiverFinerThanSender) {
  // 4 send partitions -> 16 receive partitions: each send partition's
  // arrival completes four receive partitions at once.
  UnevenFixture fx(64 * KiB, 4, 16);
  fx.run_round(1);
  EXPECT_TRUE(fx.recv->test());
  EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf));
}

TEST(Uneven, PartialCoverageLeavesReceivePartitionPending) {
  // 8 send partitions -> 2 receive partitions, one message per send
  // partition (persistent plan).  Marking three of the four send
  // partitions of the first half leaves receive partition 0 pending;
  // the fourth completes it.
  UnevenFixture fx(32 * KiB, 8, 2, {}, persistent_options());
  fill_pattern(fx.sbuf, 1);
  ASSERT_TRUE(ok(fx.send->start()));
  ASSERT_TRUE(ok(fx.recv->start()));
  for (std::size_t i : {0u, 1u, 2u}) ASSERT_TRUE(ok(fx.send->pready(i)));
  fx.engine.run();
  EXPECT_FALSE(fx.recv->parrived(0));
  EXPECT_FALSE(fx.recv->parrived(1));
  ASSERT_TRUE(ok(fx.send->pready(3)));
  fx.engine.run();
  EXPECT_TRUE(fx.recv->parrived(0));
  EXPECT_FALSE(fx.recv->parrived(1));
  for (std::size_t i = 4; i < 8; ++i) ASSERT_TRUE(ok(fx.send->pready(i)));
  fx.engine.run();
  EXPECT_TRUE(fx.recv->test());
  EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf));
}

TEST(Uneven, SingleSendPartitionManyReceivePartitions) {
  UnevenFixture fx(16 * KiB, 1, 16);
  fx.run_round(1);
  EXPECT_TRUE(fx.recv->test());
  EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf));
}

TEST(Uneven, MultipleRoundsResetByteAccounting) {
  UnevenFixture fx(32 * KiB, 8, 4);
  for (int round = 1; round <= 3; ++round) {
    fx.run_round(round);
    ASSERT_TRUE(fx.recv->test()) << round;
    ASSERT_TRUE(buffers_equal(fx.sbuf, fx.rbuf)) << round;
  }
}

TEST(Uneven, ManySenderPartitionsIntoFewReceivePartitions) {
  // 128 send partitions -> 4 receive partitions: the receiver's SRQ must
  // hold one receive WR per *sender* partition, the worst case it tops up
  // to each round, not 64 sized from its own 4.
  UnevenFixture fx(128 * KiB, 128, 4);
  for (int round = 1; round <= 2; ++round) {
    fx.run_round(round);
    ASSERT_TRUE(fx.send->test()) << round;
    ASSERT_TRUE(fx.recv->test()) << round;
    ASSERT_TRUE(buffers_equal(fx.sbuf, fx.rbuf)) << round;
  }
}

TEST(PbufPrepare, FiresAfterHandshake) {
  backend::DesBackend des(mpi::backend_config({}));
  sim::Engine& engine = des.engine();
  mpi::World world(des, {});
  std::vector<std::byte> sbuf(4 * KiB), rbuf(4 * KiB);
  std::unique_ptr<part::PsendRequest> send;
  std::unique_ptr<part::PrecvRequest> recv;
  ASSERT_TRUE(ok(part::psend_init(world.rank(0), sbuf, 4, 1, 0, 0,
                                  ploggp_options(), &send)));
  bool prepared = false;
  send->pbuf_prepare([&] { prepared = true; });
  EXPECT_FALSE(send->buffer_prepared());
  engine.run();  // receiver not posted yet: no handshake completes
  EXPECT_FALSE(prepared);
  ASSERT_TRUE(ok(part::precv_init(world.rank(1), rbuf, 4, 0, 0, 0,
                                  ploggp_options(), &recv)));
  engine.run();
  EXPECT_TRUE(prepared);
  EXPECT_TRUE(send->buffer_prepared());
}

TEST(PbufPrepare, ImmediateWhenAlreadyPrepared) {
  ChannelFixture fx(4 * KiB, 4, ploggp_options());
  fx.engine.run();
  ASSERT_TRUE(fx.send->buffer_prepared());
  bool prepared = false;
  fx.send->pbuf_prepare([&] { prepared = true; });
  fx.engine.run();
  EXPECT_TRUE(prepared);
}

TEST(DpuOffload, DeliversDataIdentically) {
  mpi::WorldOptions wopts;
  wopts.dpu_aggregation = true;
  UnevenFixture fx(64 * KiB, 16, 16, wopts);
  fx.run_round(1);
  EXPECT_TRUE(fx.send->test());
  EXPECT_TRUE(fx.recv->test());
  EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf));
}

TEST(DpuOffload, HostKeepsOnlyFlagCost) {
  // With DPU aggregation, the host-side CPU job per Pready is just the
  // flag update; the WR build runs on the DPU engine.  Verify by checking
  // the DPU resource accumulated busy time while the doorbell stayed idle.
  mpi::WorldOptions wopts;
  wopts.dpu_aggregation = true;
  UnevenFixture fx(64 * KiB, 16, 16, wopts);
  fx.run_round(1);
  ASSERT_NE(fx.world.rank(0).dpu(), nullptr);
  EXPECT_GT(fx.world.rank(0).dpu()->busy_time(), 0);
  EXPECT_EQ(fx.world.rank(0).doorbell().busy_time(), 0);
}

TEST(DpuOffload, BaselineUcxPathStaysOnHost) {
  mpi::WorldOptions wopts;
  wopts.dpu_aggregation = true;
  backend::DesBackend des(mpi::backend_config(wopts));
  sim::Engine& engine = des.engine();
  mpi::World world(des, wopts);
  std::vector<std::byte> sbuf(16 * KiB), rbuf(16 * KiB);
  std::unique_ptr<part::PsendRequest> send;
  std::unique_ptr<part::PrecvRequest> recv;
  ASSERT_TRUE(ok(part::psend_init(world.rank(0), sbuf, 4, 1, 0, 0,
                                  persistent_options(), &send)));
  ASSERT_TRUE(ok(part::precv_init(world.rank(1), rbuf, 4, 0, 0, 0,
                                  persistent_options(), &recv)));
  engine.run();
  ASSERT_TRUE(ok(send->start()));
  ASSERT_TRUE(ok(recv->start()));
  for (std::size_t i = 0; i < 4; ++i) ASSERT_TRUE(ok(send->pready(i)));
  engine.run();
  EXPECT_GT(world.rank(0).doorbell().busy_time(), 0);
  EXPECT_EQ(world.rank(0).dpu()->busy_time(), 0);
}

}  // namespace
}  // namespace partib::test
