// Two-sided eager messaging: connection setup, matching order,
// unexpected messages, credits/flow control, and error paths.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "backend/des_backend.hpp"
#include "common/units.hpp"
#include "mpi/p2p.hpp"
#include "mpi/world.hpp"
#include "sim/engine.hpp"

namespace partib::mpi {
namespace {

std::vector<std::byte> pattern(std::size_t n, int seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 31 + static_cast<std::size_t>(seed)) & 0xFF);
  }
  return v;
}

struct Fx {
  backend::DesBackend des{backend_config({})};
  sim::Engine& engine = des.engine();
  mpi::World world;
  std::vector<std::unique_ptr<P2pEndpoint>> eps;

  explicit Fx(int ranks = 2) : world(des, make_options(ranks)) {
    for (int i = 0; i < ranks; ++i) {
      eps.push_back(std::make_unique<P2pEndpoint>(world.rank(i)));
    }
  }
  static WorldOptions make_options(int ranks) {
    WorldOptions o;
    o.ranks = ranks;
    return o;
  }
  P2pEndpoint& ep(int i) { return *eps[static_cast<std::size_t>(i)]; }
};

TEST(P2p, BasicSendRecv) {
  Fx fx;
  const auto msg = pattern(1024, 1);
  std::vector<std::byte> out(1024);
  std::size_t got = 0;
  ASSERT_TRUE(ok(fx.ep(1).recv(0, 7, out, [&](std::size_t n) { got = n; })));
  ASSERT_TRUE(ok(fx.ep(0).send(1, 7, msg)));
  fx.engine.run();
  EXPECT_EQ(got, 1024u);
  EXPECT_EQ(out, msg);
}

TEST(P2p, SendBeforeRecvGoesUnexpected) {
  Fx fx;
  const auto msg = pattern(256, 2);
  ASSERT_TRUE(ok(fx.ep(0).send(1, 3, msg)));
  fx.engine.run();
  EXPECT_EQ(fx.ep(1).unexpected_count(), 1u);
  std::vector<std::byte> out(256);
  std::size_t got = 0;
  ASSERT_TRUE(ok(fx.ep(1).recv(0, 3, out, [&](std::size_t n) { got = n; })));
  fx.engine.run();
  EXPECT_EQ(got, 256u);
  EXPECT_EQ(out, msg);
  EXPECT_EQ(fx.ep(1).unexpected_count(), 0u);
}

TEST(P2p, HigherRankCanInitiate) {
  // Rank 1 sends first: the connect poke makes rank 0 dial.
  Fx fx;
  const auto msg = pattern(128, 3);
  std::vector<std::byte> out(128);
  std::size_t got = 0;
  ASSERT_TRUE(ok(fx.ep(0).recv(1, 0, out, [&](std::size_t n) { got = n; })));
  ASSERT_TRUE(ok(fx.ep(1).send(0, 0, msg)));
  fx.engine.run();
  EXPECT_EQ(got, 128u);
  EXPECT_EQ(out, msg);
}

TEST(P2p, SimultaneousBidirectionalSends) {
  Fx fx;
  const auto a = pattern(512, 4);
  const auto b = pattern(512, 5);
  std::vector<std::byte> out_a(512), out_b(512);
  int done = 0;
  ASSERT_TRUE(ok(fx.ep(1).recv(0, 1, out_a, [&](std::size_t) { ++done; })));
  ASSERT_TRUE(ok(fx.ep(0).recv(1, 1, out_b, [&](std::size_t) { ++done; })));
  ASSERT_TRUE(ok(fx.ep(0).send(1, 1, a)));
  ASSERT_TRUE(ok(fx.ep(1).send(0, 1, b)));
  fx.engine.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(out_a, a);
  EXPECT_EQ(out_b, b);
}

TEST(P2p, SameTagMatchesInOrder) {
  Fx fx;
  std::vector<std::byte> out1(64), out2(64);
  std::vector<int> order;
  ASSERT_TRUE(ok(fx.ep(1).recv(0, 9, out1, [&](std::size_t) {
    order.push_back(1);
  })));
  ASSERT_TRUE(ok(fx.ep(1).recv(0, 9, out2, [&](std::size_t) {
    order.push_back(2);
  })));
  ASSERT_TRUE(ok(fx.ep(0).send(1, 9, pattern(64, 10))));
  ASSERT_TRUE(ok(fx.ep(0).send(1, 9, pattern(64, 20))));
  fx.engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(out1, pattern(64, 10));
  EXPECT_EQ(out2, pattern(64, 20));
}

TEST(P2p, DifferentTagsRouteIndependently) {
  Fx fx;
  std::vector<std::byte> out_a(64), out_b(64);
  ASSERT_TRUE(ok(fx.ep(1).recv(0, 5, out_a, [](std::size_t) {})));
  ASSERT_TRUE(ok(fx.ep(1).recv(0, 6, out_b, [](std::size_t) {})));
  // Send in the *opposite* tag order.
  ASSERT_TRUE(ok(fx.ep(0).send(1, 6, pattern(64, 66))));
  ASSERT_TRUE(ok(fx.ep(0).send(1, 5, pattern(64, 55))));
  fx.engine.run();
  EXPECT_EQ(out_a, pattern(64, 55));
  EXPECT_EQ(out_b, pattern(64, 66));
}

TEST(P2p, BurstBeyondCreditsStillDeliversAll) {
  // More sends than the receiver's slot count: the credit protocol must
  // pace them without RNR failures.
  Fx fx;
  constexpr int kMessages =
      static_cast<int>(P2pEndpoint::kRecvSlotsPerPeer) * 3;
  int received = 0;
  std::vector<std::vector<std::byte>> outs(
      kMessages, std::vector<std::byte>(128));
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(ok(fx.ep(1).recv(0, 1, outs[static_cast<std::size_t>(i)],
                                 [&](std::size_t) { ++received; })));
  }
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(ok(fx.ep(0).send(1, 1, pattern(128, i))));
  }
  fx.engine.run();
  EXPECT_EQ(received, kMessages);
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(outs[static_cast<std::size_t>(i)], pattern(128, i)) << i;
  }
  EXPECT_EQ(fx.ep(0).sends_completed(),
            static_cast<std::uint64_t>(kMessages));
}

TEST(P2p, SenderBufferReusableImmediately) {
  Fx fx;
  std::vector<std::byte> msg = pattern(64, 1);
  std::vector<std::byte> out(64);
  ASSERT_TRUE(ok(fx.ep(1).recv(0, 0, out, [](std::size_t) {})));
  ASSERT_TRUE(ok(fx.ep(0).send(1, 0, msg)));
  // Clobber the source before the wire moves anything.
  std::fill(msg.begin(), msg.end(), std::byte{0xFF});
  fx.engine.run();
  EXPECT_EQ(out, pattern(64, 1));
}

TEST(P2p, ZeroByteMessage) {
  Fx fx;
  std::vector<std::byte> out;
  std::size_t got = 99;
  ASSERT_TRUE(ok(fx.ep(1).recv(0, 0, out, [&](std::size_t n) { got = n; })));
  ASSERT_TRUE(ok(fx.ep(0).send(1, 0, {})));
  fx.engine.run();
  EXPECT_EQ(got, 0u);
}

TEST(P2p, OversizedMessageRejected) {
  Fx fx;
  std::vector<std::byte> big(P2pEndpoint::kEagerLimit + 1);
  EXPECT_EQ(fx.ep(0).send(1, 0, big), Status::kResourceExhausted);
}

TEST(P2p, InvalidArgsRejected) {
  Fx fx;
  std::vector<std::byte> buf(16);
  EXPECT_EQ(fx.ep(0).send(0, 0, buf), Status::kInvalidArgument);  // self
  EXPECT_EQ(fx.ep(0).send(9, 0, buf), Status::kInvalidArgument);
  EXPECT_EQ(fx.ep(0).send(1, -1, buf), Status::kInvalidArgument);
  EXPECT_EQ(fx.ep(0).recv(0, 0, buf, [](std::size_t) {}),
            Status::kInvalidArgument);  // self
  EXPECT_EQ(fx.ep(0).recv(-1, 0, buf, [](std::size_t) {}),
            Status::kInvalidArgument);  // wildcard-ish
}

TEST(P2p, ManyPeersFromOneEndpoint) {
  Fx fx(5);
  int received = 0;
  std::vector<std::vector<std::byte>> outs(5, std::vector<std::byte>(64));
  for (int peer = 1; peer < 5; ++peer) {
    ASSERT_TRUE(ok(fx.ep(peer).recv(0, 0, outs[static_cast<std::size_t>(peer)],
                                    [&](std::size_t) { ++received; })));
    ASSERT_TRUE(ok(fx.ep(0).send(peer, 0, pattern(64, peer))));
  }
  fx.engine.run();
  EXPECT_EQ(received, 4);
  for (int peer = 1; peer < 5; ++peer) {
    EXPECT_EQ(outs[static_cast<std::size_t>(peer)], pattern(64, peer));
  }
}

TEST(P2p, PingPongLatencyIsSymmetric) {
  Fx fx;
  std::vector<std::byte> ping = pattern(8, 1), pong(8);
  Time t_send = -1, t_reply = -1;
  ASSERT_TRUE(ok(fx.ep(1).recv(0, 0, pong, [&](std::size_t) {
    ASSERT_TRUE(ok(fx.ep(1).send(0, 1, pong)));
  })));
  std::vector<std::byte> back(8);
  ASSERT_TRUE(ok(fx.ep(0).recv(1, 1, back, [&](std::size_t) {
    t_reply = fx.engine.now();
  })));
  t_send = fx.engine.now();
  ASSERT_TRUE(ok(fx.ep(0).send(1, 0, ping)));
  fx.engine.run();
  ASSERT_GE(t_reply, 0);
  // Round trip takes at least two wire latencies.
  EXPECT_GE(t_reply - t_send,
            2 * fx.world.options().nic.wire.L);
  EXPECT_EQ(back, ping);
}

}  // namespace
}  // namespace partib::mpi
