// Stress: large partition counts, many rounds, deep channels — the
// boundaries a downstream user will eventually push.
#include <gtest/gtest.h>

#include "backend/des_backend.hpp"
#include "common/units.hpp"
#include "support/test_world.hpp"

namespace partib::test {
namespace {

TEST(Stress, MaxImmediatePartitionCount) {
  // 32768 partitions of 64 B — near the 16-bit immediate ceiling.
  constexpr std::size_t kParts = 32 * 1024;
  ChannelFixture fx(kParts * 64, kParts, static_options(32, 2));
  fx.run_round(1);
  EXPECT_TRUE(fx.send->test());
  EXPECT_TRUE(fx.recv->test());
  EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf));
  EXPECT_EQ(fx.send->wrs_posted_total(), 32u);
}

TEST(Stress, HundredRoundsNoStateLeak) {
  ChannelFixture fx(64 * KiB, 16, ploggp_options());
  for (int round = 1; round <= 100; ++round) {
    fx.run_round(round);
    ASSERT_TRUE(fx.send->test()) << round;
    ASSERT_TRUE(fx.recv->test()) << round;
  }
  EXPECT_EQ(fx.send->round(), 100);
  EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf));
  EXPECT_EQ(fx.recv->messages_received_total(),
            fx.send->wrs_posted_total());
}

TEST(Stress, PersistentBaselineAtHighPartitionCount) {
  // 1024 messages per round through a single QP: the software backlog
  // must absorb 64x the hardware outstanding limit.
  constexpr std::size_t kParts = 1024;
  ChannelFixture fx(kParts * 256, kParts, persistent_options());
  fx.run_round(1);
  EXPECT_TRUE(fx.send->test());
  EXPECT_EQ(fx.send->wrs_posted_total(), kParts);
  EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf));
}

TEST(Stress, TimerWorstCaseEveryPartitionAlone) {
  // 256 partitions arriving strictly serially, delta too small to group:
  // every partition ships alone; integrity must hold.
  constexpr std::size_t kParts = 256;
  // 4 groups of 64.
  ChannelFixture fx(kParts * 128, kParts,
                    pinned_options(timer_options(nsec(1)), 4));
  fx.engine.run();
  fill_pattern(fx.sbuf, 1);
  ASSERT_TRUE(ok(fx.send->start()));
  ASSERT_TRUE(ok(fx.recv->start()));
  const Time t0 = fx.engine.now();
  for (std::size_t i = 0; i < kParts; ++i) {
    fx.engine.schedule_at(t0 + usec(2) * static_cast<Duration>(i + 1),
                          [&fx, i] { ASSERT_TRUE(ok(fx.send->pready(i))); });
  }
  fx.engine.run();
  EXPECT_TRUE(fx.send->test());
  EXPECT_TRUE(fx.recv->test());
  EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf));
  EXPECT_EQ(fx.send->wrs_posted_total(), kParts);
}

TEST(Stress, ManyChannelsBetweenOnePair) {
  // 32 concurrent channels over the same two NICs, all active at once.
  constexpr int kChannels = 32;
  backend::DesBackend des(mpi::backend_config({}));
  sim::Engine& engine = des.engine();
  mpi::World world(des, {});
  struct Ch {
    std::vector<std::byte> sbuf = std::vector<std::byte>(8 * KiB);
    std::vector<std::byte> rbuf = std::vector<std::byte>(8 * KiB);
    std::unique_ptr<part::PsendRequest> send;
    std::unique_ptr<part::PrecvRequest> recv;
  };
  std::vector<Ch> chs(kChannels);
  for (int c = 0; c < kChannels; ++c) {
    Ch& ch = chs[static_cast<std::size_t>(c)];
    ASSERT_TRUE(ok(part::psend_init(world.rank(0), ch.sbuf, 8, 1, c, 0,
                                    ploggp_options(), &ch.send)));
    ASSERT_TRUE(ok(part::precv_init(world.rank(1), ch.rbuf, 8, 0, c, 0,
                                    ploggp_options(), &ch.recv)));
  }
  engine.run();
  for (int c = 0; c < kChannels; ++c) {
    Ch& ch = chs[static_cast<std::size_t>(c)];
    fill_pattern(ch.sbuf, c);
    ASSERT_TRUE(ok(ch.send->start()));
    ASSERT_TRUE(ok(ch.recv->start()));
    for (std::size_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(ok(ch.send->pready(i)));
    }
  }
  engine.run();
  for (int c = 0; c < kChannels; ++c) {
    Ch& ch = chs[static_cast<std::size_t>(c)];
    ASSERT_TRUE(ch.recv->test()) << c;
    ASSERT_TRUE(buffers_equal(ch.sbuf, ch.rbuf)) << c;
  }
}

TEST(Stress, LargeMessageWithRealCopies) {
  // 256 MiB end to end with payload verification.
  ChannelFixture fx(256 * MiB, 32, ploggp_options());
  fx.run_round(1);
  EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf));
  EXPECT_EQ(fx.send->transport_partitions(), 32u);  // Table I: >=128MiB -> 32
}

}  // namespace
}  // namespace partib::test
