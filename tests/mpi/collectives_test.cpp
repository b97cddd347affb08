// Collectives over the eager layer: barrier, broadcast, allreduce.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "backend/des_backend.hpp"
#include "mpi/collectives.hpp"
#include "mpi/p2p.hpp"
#include "mpi/world.hpp"
#include "sim/engine.hpp"

namespace partib::mpi {
namespace {

struct Fx {
  backend::DesBackend des{backend_config({})};
  sim::Engine& engine = des.engine();
  mpi::World world;
  std::vector<std::unique_ptr<P2pEndpoint>> eps;
  std::vector<std::unique_ptr<Collectives>> colls;

  explicit Fx(int ranks) : world(des, make(ranks)) {
    for (int i = 0; i < ranks; ++i) {
      eps.push_back(std::make_unique<P2pEndpoint>(world.rank(i)));
      colls.push_back(std::make_unique<Collectives>(*eps.back()));
    }
  }
  static WorldOptions make(int ranks) {
    WorldOptions o;
    o.ranks = ranks;
    return o;
  }
  Collectives& coll(int i) { return *colls[static_cast<std::size_t>(i)]; }
};

TEST(Barrier, AllRanksReleaseTogether) {
  Fx fx(6);
  int released = 0;
  std::vector<Time> when(6, -1);
  for (int r = 0; r < 6; ++r) {
    ASSERT_TRUE(ok(fx.coll(r).barrier(100, [&, r] {
      ++released;
      when[static_cast<std::size_t>(r)] = fx.engine.now();
    })));
  }
  fx.engine.run();
  EXPECT_EQ(released, 6);
}

TEST(Barrier, NoEarlyRelease) {
  // Five of six ranks enter; nobody may be released until the sixth does.
  Fx fx(6);
  int released = 0;
  for (int r = 0; r < 5; ++r) {
    ASSERT_TRUE(ok(fx.coll(r).barrier(100, [&] { ++released; })));
  }
  fx.engine.run();
  EXPECT_EQ(released, 0);
  ASSERT_TRUE(ok(fx.coll(5).barrier(100, [&] { ++released; })));
  fx.engine.run();
  EXPECT_EQ(released, 6);
}

TEST(Barrier, SingleRankTrivial) {
  Fx fx(1);
  bool released = false;
  ASSERT_TRUE(ok(fx.coll(0).barrier(1, [&] { released = true; })));
  fx.engine.run();
  EXPECT_TRUE(released);
}

TEST(Barrier, BackToBackBarriersDoNotCross) {
  Fx fx(4);
  std::vector<int> order;
  for (int r = 0; r < 4; ++r) {
    ASSERT_TRUE(ok(fx.coll(r).barrier(100, [&, r] {
      order.push_back(1);
      // Immediately enter a second barrier on a different base tag.
      ASSERT_TRUE(ok(fx.coll(r).barrier(200, [&] { order.push_back(2); })));
    })));
  }
  fx.engine.run();
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(order[i], 1);
  for (std::size_t i = 4; i < 8; ++i) EXPECT_EQ(order[i], 2);
}

TEST(Broadcast, RootZeroReachesEveryRank) {
  Fx fx(7);  // non-power-of-two on purpose
  std::vector<std::vector<std::byte>> bufs(
      7, std::vector<std::byte>(512));
  for (std::size_t i = 0; i < 512; ++i) {
    bufs[0][i] = static_cast<std::byte>(i & 0xFF);
  }
  int done = 0;
  for (int r = 0; r < 7; ++r) {
    ASSERT_TRUE(ok(fx.coll(r).broadcast(
        0, 300, bufs[static_cast<std::size_t>(r)], [&] { ++done; })));
  }
  fx.engine.run();
  EXPECT_EQ(done, 7);
  for (int r = 1; r < 7; ++r) {
    EXPECT_EQ(bufs[static_cast<std::size_t>(r)], bufs[0]) << r;
  }
}

TEST(Broadcast, NonZeroRoot) {
  Fx fx(5);
  std::vector<std::vector<std::byte>> bufs(5, std::vector<std::byte>(64));
  for (std::size_t i = 0; i < 64; ++i) {
    bufs[3][i] = static_cast<std::byte>(0xA0 + i);
  }
  int done = 0;
  for (int r = 0; r < 5; ++r) {
    ASSERT_TRUE(ok(fx.coll(r).broadcast(
        3, 300, bufs[static_cast<std::size_t>(r)], [&] { ++done; })));
  }
  fx.engine.run();
  EXPECT_EQ(done, 5);
  for (int r = 0; r < 5; ++r) {
    EXPECT_EQ(bufs[static_cast<std::size_t>(r)], bufs[3]) << r;
  }
}

TEST(Broadcast, RejectsOversizedAndBadRoot) {
  Fx fx(2);
  std::vector<std::byte> big(P2pEndpoint::kEagerLimit + 1);
  EXPECT_EQ(fx.coll(0).broadcast(0, 1, big, [] {}),
            Status::kResourceExhausted);
  std::vector<std::byte> small(8);
  EXPECT_EQ(fx.coll(0).broadcast(5, 1, small, [] {}),
            Status::kInvalidArgument);
}

TEST(Allreduce, SumsAcrossPowerOfTwoRanks) {
  Fx fx(8);
  std::vector<std::vector<double>> vals(8, std::vector<double>(4));
  for (int r = 0; r < 8; ++r) {
    for (int j = 0; j < 4; ++j) {
      vals[static_cast<std::size_t>(r)][static_cast<std::size_t>(j)] =
          r + j * 10.0;
    }
  }
  int done = 0;
  for (int r = 0; r < 8; ++r) {
    ASSERT_TRUE(ok(fx.coll(r).allreduce_sum(
        400, vals[static_cast<std::size_t>(r)], [&] { ++done; })));
  }
  fx.engine.run();
  EXPECT_EQ(done, 8);
  // Sum over ranks of (r + 10j) = 28 + 80j.
  for (int r = 0; r < 8; ++r) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(
          vals[static_cast<std::size_t>(r)][static_cast<std::size_t>(j)],
          28.0 + 80.0 * j)
          << r << " " << j;
    }
  }
}

TEST(Allreduce, NonPowerOfTwoUnsupported) {
  Fx fx(3);
  std::vector<double> v(2, 1.0);
  EXPECT_EQ(fx.coll(0).allreduce_sum(1, v, [] {}), Status::kUnsupported);
}

TEST(Allreduce, SingleRankIdentity) {
  Fx fx(1);
  std::vector<double> v = {3.5, -1.0};
  bool done = false;
  ASSERT_TRUE(ok(fx.coll(0).allreduce_sum(1, v, [&] { done = true; })));
  fx.engine.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(v[0], 3.5);
  EXPECT_DOUBLE_EQ(v[1], -1.0);
}

}  // namespace
}  // namespace partib::mpi
