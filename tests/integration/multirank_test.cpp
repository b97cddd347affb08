// Multi-rank integration: many concurrent channels, fan-in/fan-out, and a
// ring of partitioned channels driven to completion in one simulation.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "backend/des_backend.hpp"
#include "common/units.hpp"
#include "support/test_world.hpp"

namespace partib::test {
namespace {

struct Link {
  std::vector<std::byte> sbuf;
  std::vector<std::byte> rbuf;
  std::unique_ptr<part::PsendRequest> send;
  std::unique_ptr<part::PrecvRequest> recv;
};

TEST(MultiRank, RingOfChannels) {
  constexpr int kRanks = 6;
  constexpr std::size_t kParts = 8;
  constexpr std::size_t kBytes = 32 * KiB;
  mpi::WorldOptions wo;
  wo.ranks = kRanks;
  backend::DesBackend des(mpi::backend_config(wo));
  sim::Engine& engine = des.engine();
  mpi::World world(des, wo);

  std::vector<Link> links(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    Link& link = links[static_cast<std::size_t>(r)];
    link.sbuf.resize(kBytes);
    link.rbuf.resize(kBytes);
    const int next = (r + 1) % kRanks;
    ASSERT_TRUE(ok(part::psend_init(world.rank(r), link.sbuf, kParts, next,
                                    /*tag=*/1, 0, ploggp_options(),
                                    &link.send)));
  }
  for (int r = 0; r < kRanks; ++r) {
    // Receiver r gets from its predecessor's send (the predecessor's link).
    const int prev = (r + kRanks - 1) % kRanks;
    Link& link = links[static_cast<std::size_t>(prev)];
    ASSERT_TRUE(ok(part::precv_init(world.rank(r), link.rbuf, kParts, prev,
                                    1, 0, ploggp_options(), &link.recv)));
  }
  engine.run();

  for (int round = 1; round <= 2; ++round) {
    for (int r = 0; r < kRanks; ++r) {
      Link& link = links[static_cast<std::size_t>(r)];
      fill_pattern(link.sbuf, round * 10 + r);
      ASSERT_TRUE(ok(link.send->start()));
      ASSERT_TRUE(ok(link.recv->start()));
    }
    for (auto& link : links) {
      for (std::size_t i = 0; i < kParts; ++i) {
        ASSERT_TRUE(ok(link.send->pready(i)));
      }
    }
    engine.run();
    for (auto& link : links) {
      ASSERT_TRUE(link.send->test());
      ASSERT_TRUE(link.recv->test());
      ASSERT_TRUE(buffers_equal(link.sbuf, link.rbuf));
    }
  }
}

TEST(MultiRank, FanInManySendersOneReceiver) {
  constexpr int kSenders = 5;
  constexpr std::size_t kParts = 4;
  constexpr std::size_t kBytes = 16 * KiB;
  mpi::WorldOptions wo;
  wo.ranks = kSenders + 1;
  backend::DesBackend des(mpi::backend_config(wo));
  sim::Engine& engine = des.engine();
  mpi::World world(des, wo);

  std::vector<Link> links(kSenders);
  for (int s = 0; s < kSenders; ++s) {
    Link& link = links[static_cast<std::size_t>(s)];
    link.sbuf.resize(kBytes);
    link.rbuf.resize(kBytes);
    ASSERT_TRUE(ok(part::psend_init(world.rank(s + 1), link.sbuf, kParts,
                                    /*dst=*/0, /*tag=*/s, 0,
                                    ploggp_options(), &link.send)));
    ASSERT_TRUE(ok(part::precv_init(world.rank(0), link.rbuf, kParts, s + 1,
                                    s, 0, ploggp_options(), &link.recv)));
  }
  engine.run();
  for (int s = 0; s < kSenders; ++s) {
    Link& link = links[static_cast<std::size_t>(s)];
    fill_pattern(link.sbuf, s + 1);
    ASSERT_TRUE(ok(link.send->start()));
    ASSERT_TRUE(ok(link.recv->start()));
    for (std::size_t i = 0; i < kParts; ++i) {
      ASSERT_TRUE(ok(link.send->pready(i)));
    }
  }
  engine.run();
  for (auto& link : links) {
    ASSERT_TRUE(link.recv->test());
    ASSERT_TRUE(buffers_equal(link.sbuf, link.rbuf));
  }
}

TEST(MultiRank, BidirectionalPairSimultaneously) {
  constexpr std::size_t kParts = 8;
  constexpr std::size_t kBytes = 64 * KiB;
  backend::DesBackend des(mpi::backend_config({}));
  sim::Engine& engine = des.engine();
  mpi::World world(des, {});

  Link ab, ba;
  ab.sbuf.resize(kBytes);
  ab.rbuf.resize(kBytes);
  ba.sbuf.resize(kBytes);
  ba.rbuf.resize(kBytes);
  ASSERT_TRUE(ok(part::psend_init(world.rank(0), ab.sbuf, kParts, 1, 0, 0,
                                  ploggp_options(), &ab.send)));
  ASSERT_TRUE(ok(part::precv_init(world.rank(1), ab.rbuf, kParts, 0, 0, 0,
                                  ploggp_options(), &ab.recv)));
  ASSERT_TRUE(ok(part::psend_init(world.rank(1), ba.sbuf, kParts, 0, 0, 0,
                                  ploggp_options(), &ba.send)));
  ASSERT_TRUE(ok(part::precv_init(world.rank(0), ba.rbuf, kParts, 1, 0, 0,
                                  ploggp_options(), &ba.recv)));
  engine.run();

  fill_pattern(ab.sbuf, 1);
  fill_pattern(ba.sbuf, 2);
  for (Link* l : {&ab, &ba}) {
    ASSERT_TRUE(ok(l->send->start()));
    ASSERT_TRUE(ok(l->recv->start()));
    for (std::size_t i = 0; i < kParts; ++i) {
      ASSERT_TRUE(ok(l->send->pready(i)));
    }
  }
  engine.run();
  EXPECT_TRUE(buffers_equal(ab.sbuf, ab.rbuf));
  EXPECT_TRUE(buffers_equal(ba.sbuf, ba.rbuf));
}

TEST(MultiRank, StaggeredRoundsAcrossChannelsDoNotInterfere) {
  // Channel A runs three rounds while channel B runs one; both share the
  // same pair of ranks and NICs.
  constexpr std::size_t kParts = 4;
  backend::DesBackend des(mpi::backend_config({}));
  sim::Engine& engine = des.engine();
  mpi::World world(des, {});
  Link a, b;
  a.sbuf.resize(8 * KiB);
  a.rbuf.resize(8 * KiB);
  b.sbuf.resize(16 * KiB);
  b.rbuf.resize(16 * KiB);
  ASSERT_TRUE(ok(part::psend_init(world.rank(0), a.sbuf, kParts, 1, 0, 0,
                                  ploggp_options(), &a.send)));
  ASSERT_TRUE(ok(part::precv_init(world.rank(1), a.rbuf, kParts, 0, 0, 0,
                                  ploggp_options(), &a.recv)));
  ASSERT_TRUE(ok(part::psend_init(world.rank(0), b.sbuf, kParts, 1, 1, 0,
                                  ploggp_options(), &b.send)));
  ASSERT_TRUE(ok(part::precv_init(world.rank(1), b.rbuf, kParts, 0, 1, 0,
                                  ploggp_options(), &b.recv)));
  engine.run();

  fill_pattern(b.sbuf, 99);
  ASSERT_TRUE(ok(b.send->start()));
  ASSERT_TRUE(ok(b.recv->start()));
  ASSERT_TRUE(ok(b.send->pready(0)));  // b stays incomplete for a while

  for (int round = 1; round <= 3; ++round) {
    fill_pattern(a.sbuf, round);
    ASSERT_TRUE(ok(a.send->start()));
    ASSERT_TRUE(ok(a.recv->start()));
    for (std::size_t i = 0; i < kParts; ++i) {
      ASSERT_TRUE(ok(a.send->pready(i)));
    }
    engine.run();
    ASSERT_TRUE(a.recv->test());
    ASSERT_TRUE(buffers_equal(a.sbuf, a.rbuf));
    ASSERT_FALSE(b.recv->test());
  }
  for (std::size_t i = 1; i < kParts; ++i) {
    ASSERT_TRUE(ok(b.send->pready(i)));
  }
  engine.run();
  EXPECT_TRUE(b.recv->test());
  EXPECT_TRUE(buffers_equal(b.sbuf, b.rbuf));
}

}  // namespace
}  // namespace partib::test
