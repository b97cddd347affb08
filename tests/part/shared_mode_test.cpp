// Connection-scale shared-resources mode (part::Options::shared_resources):
// channels draw QPs from the rank's on-demand connection manager, drain
// completions through the rank's single shared CQ, and stage receives in
// the rank's SRQ.  These tests pin the mode's semantics — lazy QP
// establishment, data integrity versus dedicated mode, per-rank resource
// sharing across an incast, and lease/release behaviour — plus the
// footprint win the design exists for.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "backend/des_backend.hpp"
#include "check/check.hpp"
#include "common/units.hpp"
#include "mpi/conn.hpp"
#include "support/test_world.hpp"

namespace partib::test {
namespace {

part::Options shared(part::Options o) {
  o.shared_resources = true;
  return o;
}

TEST(SharedMode, SingleChannelDeliversDataAcrossRounds) {
  ChannelFixture fx(64 * KiB, 16, shared(ploggp_options()));
  for (int round = 1; round <= 4; ++round) {
    fx.run_round(round);
    ASSERT_TRUE(fx.send->test()) << "round " << round;
    ASSERT_TRUE(fx.recv->test()) << "round " << round;
    ASSERT_TRUE(buffers_equal(fx.sbuf, fx.rbuf)) << "round " << round;
  }
  // One establishment serves every round.
  EXPECT_EQ(fx.world->rank(0).connections().total_establishments(), 1u);
}

TEST(SharedMode, QpChainIsEstablishedLazilyOnFirstSend) {
  ChannelFixture fx(16 * KiB, 4, shared(static_options(/*tp=*/4, /*qps=*/2)));
  fx.engine.run();  // handshake completes...
  EXPECT_TRUE(fx.send->handshake_done());
  // ...but no QPs exist yet on the sender: establishment waits for the
  // first send toward the peer (Ibdxnet's on-demand connection rule).
  EXPECT_EQ(fx.world->rank(0).context().footprint().qps, 0);
  EXPECT_EQ(fx.send->qp_count(), 0);

  fx.run_round(1);
  EXPECT_EQ(fx.world->rank(0).context().footprint().qps, 2);
  EXPECT_EQ(fx.send->qp_count(), 2);
  EXPECT_TRUE(buffers_equal(fx.sbuf, fx.rbuf));
}

TEST(SharedMode, MatchesDedicatedModeResults) {
  const std::size_t bytes = 128 * KiB;
  const std::size_t parts = 32;
  std::uint64_t ded_wrs = 0;
  std::uint64_t ded_msgs = 0;
  {
    ChannelFixture dedicated(bytes, parts, ploggp_options());
    for (int round = 1; round <= 3; ++round) {
      dedicated.run_round(round);
      ASSERT_TRUE(buffers_equal(dedicated.rbuf, dedicated.sbuf));
    }
    ded_wrs = dedicated.send->wrs_posted_total();
    ded_msgs = dedicated.recv->messages_received_total();
  }
  // The checker shadow is thread-local and keyed by rkey/qp_num, so the
  // two worlds must not coexist: run sequentially and reset between.
  check::reset();
  ChannelFixture shared_fx(bytes, parts, shared(ploggp_options()));
  for (int round = 1; round <= 3; ++round) {
    shared_fx.run_round(round);
    ASSERT_TRUE(buffers_equal(shared_fx.rbuf, shared_fx.sbuf));
  }
  // Same aggregation plan, same wire traffic.
  EXPECT_EQ(shared_fx.send->wrs_posted_total(), ded_wrs);
  EXPECT_EQ(shared_fx.recv->messages_received_total(), ded_msgs);
}

/// N senders fanning into rank 0, one channel per sender.
struct IncastFixture {
  backend::DesBackend des{mpi::backend_config({})};
  sim::Engine& engine = des.engine();
  std::unique_ptr<mpi::World> world;
  std::vector<std::vector<std::byte>> sbufs;
  std::vector<std::vector<std::byte>> rbufs;
  std::vector<std::unique_ptr<part::PsendRequest>> sends;
  std::vector<std::unique_ptr<part::PrecvRequest>> recvs;

  IncastFixture(int peers, std::size_t bytes, std::size_t parts,
                const part::Options& opts) {
    mpi::WorldOptions wopts;
    wopts.ranks = peers + 1;
    world = std::make_unique<mpi::World>(des, wopts);
    sbufs.resize(static_cast<std::size_t>(peers));
    rbufs.resize(static_cast<std::size_t>(peers));
    for (int p = 0; p < peers; ++p) {
      const auto i = static_cast<std::size_t>(p);
      sbufs[i].resize(bytes);
      rbufs[i].resize(bytes);
      fill_pattern(sbufs[i], p + 1);
      std::unique_ptr<part::PsendRequest> s;
      std::unique_ptr<part::PrecvRequest> r;
      PARTIB_ASSERT(partib::ok(part::psend_init(world->rank(p + 1), sbufs[i],
                                                parts, /*dst=*/0, /*tag=*/p,
                                                /*comm=*/0, opts, &s)));
      PARTIB_ASSERT(partib::ok(part::precv_init(world->rank(0), rbufs[i],
                                                parts, /*src=*/p + 1,
                                                /*tag=*/p, /*comm=*/0, opts,
                                                &r)));
      sends.push_back(std::move(s));
      recvs.push_back(std::move(r));
    }
  }

  void run_round() {
    for (auto& s : sends) PARTIB_ASSERT(partib::ok(s->start()));
    for (auto& r : recvs) PARTIB_ASSERT(partib::ok(r->start()));
    for (auto& s : sends) {
      for (std::size_t i = 0; i < s->user_partitions(); ++i) {
        PARTIB_ASSERT(partib::ok(s->pready(i)));
      }
    }
    engine.run();
  }
};

TEST(SharedMode, IncastSharesOneCqAndOneSrqPerRank) {
  constexpr int kPeers = 8;
  IncastFixture fx(kPeers, 16 * KiB, 8,
                   shared(static_options(/*tp=*/4, /*qps=*/2)));
  fx.run_round();
  for (int p = 0; p < kPeers; ++p) {
    const auto i = static_cast<std::size_t>(p);
    ASSERT_TRUE(fx.recvs[i]->test());
    ASSERT_TRUE(buffers_equal(fx.sbufs[i], fx.rbufs[i])) << "peer " << p;
  }
  // The hot rank runs 8 channels over exactly one CQ and one SRQ.
  const verbs::ResourceFootprint fp = fx.world->rank(0).context().footprint();
  EXPECT_EQ(fp.cqs, 1);
  EXPECT_EQ(fp.srqs, 1);
  EXPECT_EQ(fx.world->rank(0).connections().total_establishments(),
            static_cast<std::uint64_t>(kPeers));
}

TEST(SharedMode, FootprintPerPeerAtLeastFourTimesSmallerThanDedicated) {
  constexpr int kPeers = 8;
  std::size_t ded = 0;
  {
    IncastFixture dedicated(kPeers, 16 * KiB, 8, static_options(4, 2));
    dedicated.run_round();
    ded = dedicated.world->rank(0).context().footprint().provisioned_bytes;
  }
  check::reset();  // sequential worlds: do not mix checker shadows

  IncastFixture shared_fx(kPeers, 16 * KiB, 8, shared(static_options(4, 2)));
  shared_fx.run_round();

  // Hot-rank receive-side provisioning, per peer.  Dedicated mode pays a
  // full-depth CQ per channel; shared mode amortises one CQ + one SRQ
  // across every peer (the acceptance bar for the connection-scale
  // design: >= 4x less provisioned memory per peer).
  const std::size_t shr =
      shared_fx.world->rank(0).context().footprint().provisioned_bytes;
  EXPECT_GE(ded / kPeers, 4 * (shr / kPeers))
      << "dedicated=" << ded << " shared=" << shr;
}

TEST(SharedMode, ChannelDestructionReleasesTheLease) {
  IncastFixture fx(2, 16 * KiB, 8, shared(static_options(4, 1)));
  fx.run_round();
  mpi::ConnectionManager& mgr = fx.world->rank(0).connections();
  ASSERT_EQ(mgr.slot_count(), 2u);
  // Each sender rank holds its own end of one chain, in slot 0.
  auto sender_end = [&fx](int rank) -> mpi::ConnectionManager::Connection& {
    return fx.world->rank(rank).connections().connection(0);
  };
  for (int id = 0; id < 2; ++id) {
    EXPECT_TRUE(mgr.connection(id).on_wc);
    EXPECT_TRUE(sender_end(id + 1).on_wc);
  }
  fx.sends.clear();
  fx.recvs.clear();
  // The chains stay established, but no completion reaches a channel.
  EXPECT_EQ(mgr.total_establishments(), 2u);
  for (int id = 0; id < 2; ++id) {
    EXPECT_TRUE(mgr.connection(id).established);
    EXPECT_FALSE(mgr.connection(id).on_wc);
    EXPECT_FALSE(sender_end(id + 1).on_wc);
  }
}

}  // namespace
}  // namespace partib::test
