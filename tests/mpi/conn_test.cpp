// The on-demand connection manager (mpi/conn.hpp): lazy establishment
// through the control plane, one fresh chain per connect, SRQ
// reservation/refill, shared-CQ demultiplexing, and the conn.demux rule
// diagnostic.  Test names start with ConnManager so the TSan CI job's
// regex picks them up alongside the runner suites.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "backend/des_backend.hpp"
#include "check/check.hpp"
#include "mpi/conn.hpp"
#include "mpi/world.hpp"
#include "sim/engine.hpp"

namespace partib::mpi {
namespace {

struct Fx {
  backend::DesBackend des{backend_config({})};
  sim::Engine& engine = des.engine();
  WorldOptions opts;
  std::unique_ptr<World> world;

  explicit Fx(int ranks = 3) {
    check::reset();
    opts.ranks = ranks;
    opts.cq_depth = 1024;
    world = std::make_unique<World>(des, opts);
  }

  /// Passive side expects `token`; active side connects; run to quiescence.
  ConnectionManager::ConnId establish(int from, int to, std::uint64_t token,
                                      int qp_count = 2) {
    ConnectionManager& a = world->rank(from).connections();
    ConnectionManager& p = world->rank(to).connections();
    p.expect(token, [](ConnectionManager::Connection&) {});
    const auto id =
        a.connect(to, qp_count, token, [](ConnectionManager::Connection&) {});
    engine.run();
    return id;
  }
};

TEST(ConnManagerLazyEstablish, ChainReachesRtsOnBothSides) {
  Fx fx;
  ConnectionManager& active = fx.world->rank(0).connections();
  ConnectionManager& passive = fx.world->rank(1).connections();

  bool accepted = false;
  bool ready = false;
  passive.expect(0xAB, [&](ConnectionManager::Connection& c) {
    accepted = true;
    EXPECT_EQ(c.peer, 0);
    EXPECT_TRUE(c.established);
    for (verbs::Qp* qp : c.qps) {
      EXPECT_EQ(qp->state(), verbs::QpState::kRts);
    }
  });
  const auto id =
      active.connect(1, 2, 0xAB, [&](ConnectionManager::Connection& c) {
        ready = true;
        EXPECT_EQ(c.qps.size(), 2u);
        for (verbs::Qp* qp : c.qps) {
          EXPECT_EQ(qp->state(), verbs::QpState::kRts);
        }
      });

  // Establishment is asynchronous: nothing is ready before the
  // control-plane round trip has run.
  EXPECT_FALSE(ready);
  fx.engine.run();
  EXPECT_TRUE(accepted);
  EXPECT_TRUE(ready);
  EXPECT_TRUE(active.connection(id).established);
  EXPECT_EQ(active.total_establishments(), 1u);
  EXPECT_EQ(passive.total_establishments(), 1u);
}

TEST(ConnManagerLazyEstablish, SharedResourcesAreCreatedOncePerRank) {
  Fx fx;
  Rank& r0 = fx.world->rank(0);
  EXPECT_FALSE(r0.has_connections());
  ConnectionManager& mgr = r0.connections();
  EXPECT_TRUE(r0.has_connections());
  EXPECT_EQ(&mgr, &r0.connections());  // lazy singleton

  // Many connections, still one CQ and one SRQ on the rank.
  fx.establish(0, 1, 1);
  fx.establish(0, 2, 2);
  const verbs::ResourceFootprint fp = r0.context().footprint();
  EXPECT_EQ(fp.cqs, 1);
  EXPECT_EQ(fp.srqs, 1);
  EXPECT_EQ(fp.qps, 4);  // 2 chains x 2 QPs
}

TEST(ConnManagerLazyEstablish, ReconnectAfterReleaseBuildsAFreshChain) {
  // Nothing is recycled: a connect() after release() toward the same peer
  // takes a new slot and a new chain, and the released chain stays in RTS
  // with its router handlers unbound.
  Fx fx;
  ConnectionManager& mgr = fx.world->rank(0).connections();
  const auto first = fx.establish(0, 1, 11);
  const std::vector<verbs::Qp*> old_qps = mgr.connection(first).qps;
  for (verbs::Qp* qp : old_qps) mgr.bind(qp->qp_num(), [](const verbs::Wc&) {});
  mgr.release(first);
  for (verbs::Qp* qp : old_qps) EXPECT_FALSE(mgr.router().bound(qp->qp_num()));

  const auto second = fx.establish(0, 1, 12);
  EXPECT_NE(second, first);
  EXPECT_EQ(mgr.slot_count(), 2u);
  EXPECT_EQ(mgr.connection(second).peer, 1);
  const std::vector<verbs::Qp*>& new_qps = mgr.connection(second).qps;
  ASSERT_EQ(new_qps.size(), old_qps.size());
  for (std::size_t i = 0; i < new_qps.size(); ++i) {
    EXPECT_NE(new_qps[i]->qp_num(), old_qps[i]->qp_num());
    EXPECT_EQ(new_qps[i]->state(), verbs::QpState::kRts);
    EXPECT_EQ(old_qps[i]->state(), verbs::QpState::kRts);
  }
  EXPECT_EQ(mgr.total_establishments(), 2u);
  EXPECT_EQ(fx.world->rank(1).connections().total_establishments(), 2u);
  EXPECT_EQ(mgr.total_recycles(), 0u);
}

TEST(ConnManagerSrq, ReservationGrowsAndRefillsTheSrq) {
  // The SRQ starts at a 1024-WR floor with its low watermark at 64.
  Fx fx;
  ConnectionManager& mgr = fx.world->rank(0).connections();
  EXPECT_EQ(mgr.srq().posted(), 0u);
  EXPECT_EQ(mgr.srq().attrs().max_wr, 1024);

  mgr.reserve_recv_wrs(16);  // under the floor
  EXPECT_EQ(mgr.srq().posted(), 16u);
  EXPECT_EQ(mgr.srq().attrs().max_wr, 1024);

  mgr.reserve_recv_wrs(2000);  // demand outruns the floor: SRQ grows
  EXPECT_EQ(mgr.reserved_recv_wrs(), 2016u);
  EXPECT_EQ(mgr.srq().posted(), 2016u);
  EXPECT_GE(mgr.srq().attrs().max_wr, 2016);

  // Drain below the watermark twice: the limit event schedules a refill
  // back to the reservation, and the refill re-arms the one-shot event.
  for (int pass = 0; pass < 2; ++pass) {
    verbs::PostedRecv wr;
    while (mgr.srq().posted() >= 64) ASSERT_TRUE(mgr.srq().consume(&wr));
    EXPECT_EQ(mgr.srq().posted(), 63u);
    fx.engine.run();
    EXPECT_EQ(mgr.srq().posted(), 2016u) << "pass " << pass;
  }

  mgr.release_recv_wrs(2000);
  EXPECT_EQ(mgr.reserved_recv_wrs(), 16u);
}

TEST(ConnManagerDemux, UnboundQpNumRaisesConnDemuxDiagnostic) {
  if (!check::hooks_compiled_in()) GTEST_SKIP() << "PARTIB_CHECK=OFF build";
  Fx fx;
  check::ScopedPolicy quiet(check::Policy::kCount);
  ConnectionManager& mgr = fx.world->rank(0).connections();

  int routed_count = 0;
  mgr.bind(verbs::Device::kFirstQpNum + 7,
           [&](const verbs::Wc&) { ++routed_count; });

  verbs::Wc bound;
  bound.qp_num = verbs::Device::kFirstQpNum + 7;
  verbs::Wc unbound;
  unbound.qp_num = verbs::Device::kFirstQpNum + 9;
  mgr.cq().push(bound);
  mgr.cq().push(unbound);
  const int routed = mgr.router().drain(mgr.cq());

  EXPECT_EQ(routed, 1);
  EXPECT_EQ(routed_count, 1);
  EXPECT_EQ(check::count_rule("conn.demux"), 1u);

  // After unbind the previously bound qp_num misses too.
  mgr.unbind(verbs::Device::kFirstQpNum + 7);
  mgr.cq().push(bound);
  mgr.router().drain(mgr.cq());
  EXPECT_EQ(check::count_rule("conn.demux"), 2u);
}

TEST(ConnManagerDemux, CompletionsAreDispatchedFromTheSharedCq) {
  Fx fx;
  ConnectionManager& mgr = fx.world->rank(0).connections();
  std::vector<std::uint64_t> seen;
  mgr.bind(verbs::Device::kFirstQpNum,
           [&](const verbs::Wc& wc) { seen.push_back(wc.wr_id); });
  for (std::uint64_t i = 0; i < 40; ++i) {
    verbs::Wc wc;
    wc.wr_id = i;
    wc.qp_num = verbs::Device::kFirstQpNum;
    mgr.cq().push(wc);
  }
  fx.engine.run();  // the on-push dispatch event drains the batch
  ASSERT_EQ(seen.size(), 40u);
  for (std::uint64_t i = 0; i < 40; ++i) EXPECT_EQ(seen[i], i);
}


TEST(ConnManagerRouter, SparseQpNumsBindUnbindRebind) {
  // Device-wide qp_nums: a rank binds a sparse subset of them, anywhere in
  // the 32-bit space.
  WcRouter router;
  const std::uint32_t nums[] = {verbs::Device::kFirstQpNum, 1u << 20,
                                std::numeric_limits<std::uint32_t>::max() - 1,
                                std::numeric_limits<std::uint32_t>::max()};
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(router.bound(nums[i]));
    router.bind(nums[i], [&hits, i](const verbs::Wc&) { ++hits[i]; });
    EXPECT_TRUE(router.bound(nums[i]));
  }
  EXPECT_FALSE(router.bound((1u << 20) + 1));
  EXPECT_FALSE(router.bound(verbs::Device::kFirstQpNum + 1));

  router.unbind(nums[1]);
  EXPECT_FALSE(router.bound(nums[1]));
  EXPECT_TRUE(router.bound(nums[0]));
  EXPECT_TRUE(router.bound(nums[2]));
  router.unbind(nums[1]);  // idempotent
  router.unbind(12345);    // never bound: a no-op

  // Rebinding the same qp_num installs the new handler.
  int rebound = 0;
  router.bind(nums[1], [&rebound](const verbs::Wc&) { ++rebound; });
  EXPECT_TRUE(router.bound(nums[1]));

  verbs::Cq cq(64);
  for (const std::uint32_t n : nums) {
    verbs::Wc wc;
    wc.qp_num = n;
    cq.push(wc);
  }
  EXPECT_EQ(router.drain(cq), 4);
  EXPECT_EQ(hits, (std::vector<int>{1, 0, 1, 1}));
  EXPECT_EQ(rebound, 1);
}

TEST(ConnManagerRouter, GrowsAcrossManyBindsAndRoutesEveryWc) {
  // Strided, interleaved qp_nums (other ranks' QPs sit in the gaps) and
  // enough of them to grow the table several times; every third is
  // unbound again, leaving bound keys whose probe runs cross unbound
  // cells.  Every Wc must reach its own handler, unbound ones must drop.
  check::reset();
  WcRouter router;
  std::vector<std::uint32_t> nums;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    nums.push_back(verbs::Device::kFirstQpNum + i * 4096 + (i % 7));
  }
  std::vector<int> hits(nums.size(), 0);
  for (std::size_t i = 0; i < nums.size(); ++i) {
    router.bind(nums[i], [&hits, i](const verbs::Wc& wc) {
      EXPECT_EQ(wc.wr_id, i);
      ++hits[i];
    });
  }
  for (std::size_t i = 0; i < nums.size(); i += 3) router.unbind(nums[i]);
  for (std::size_t i = 0; i < nums.size(); ++i) {
    EXPECT_EQ(router.bound(nums[i]), i % 3 != 0) << i;
  }
  EXPECT_FALSE(router.bound(verbs::Device::kFirstQpNum + 1));

  check::ScopedPolicy quiet(check::Policy::kCount);
  verbs::Cq cq(8192);
  for (std::size_t i = 0; i < nums.size(); ++i) {
    verbs::Wc wc;
    wc.wr_id = i;
    wc.qp_num = nums[i];
    cq.push(wc);
  }
  verbs::Wc stray;
  stray.qp_num = verbs::Device::kFirstQpNum + 4095;
  cq.push(stray);
  EXPECT_EQ(router.drain(cq), static_cast<int>(nums.size() * 2 / 3));
  for (std::size_t i = 0; i < nums.size(); ++i) {
    EXPECT_EQ(hits[i], i % 3 != 0 ? 1 : 0) << i;
  }
  if (check::hooks_compiled_in()) {
    EXPECT_EQ(check::count_rule("conn.demux"), nums.size() / 3 + 1);
  }
}

TEST(ConnManagerRouterDeathTest, BindDuringDrainAsserts) {
  WcRouter router;
  verbs::Cq cq(64);
  router.bind(verbs::Device::kFirstQpNum, [&router](const verbs::Wc&) {
    router.bind(verbs::Device::kFirstQpNum + 1, [](const verbs::Wc&) {});
  });
  verbs::Wc wc;
  wc.qp_num = verbs::Device::kFirstQpNum;
  cq.push(wc);
  EXPECT_DEATH(router.drain(cq), "bind during drain");
}

TEST(ConnManagerSlots, ReplyAfterReleaseKeepsTheSlotOutOfReuse) {
  // The active side releases the connection before the connect reply
  // lands: the reply still establishes the slot, and the next connect
  // takes a fresh one.
  Fx fx(/*ranks=*/3);
  ConnectionManager& mgr = fx.world->rank(0).connections();
  fx.world->rank(1).connections().expect(
      1, [](ConnectionManager::Connection&) {});
  const auto id =
      mgr.connect(1, 2, 1, [](ConnectionManager::Connection&) {});
  mgr.release(id);
  fx.engine.run();
  EXPECT_TRUE(mgr.connection(id).established);
  EXPECT_EQ(fx.establish(0, 2, 2), id + 1);
  EXPECT_EQ(mgr.total_establishments(), 2u);
}

}  // namespace
}  // namespace partib::mpi
