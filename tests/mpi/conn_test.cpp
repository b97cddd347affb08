// The on-demand connection manager (mpi/conn.hpp): lazy establishment
// through the control plane, LRU recycling at the connection cap,
// SRQ reservation/refill, shared-CQ demultiplexing, and the conn.* rule
// diagnostics.  Test names start with ConnManager so the TSan CI job's
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

/// established_connections() is a counter; it must equal a scan of the
/// slots' established flags.
int scan_established(ConnectionManager& mgr) {
  int n = 0;
  for (std::size_t id = 0; id < mgr.slot_count(); ++id) {
    n += mgr.connection(static_cast<ConnectionManager::ConnId>(id)).established
             ? 1
             : 0;
  }
  return n;
}

struct Fx {
  backend::DesBackend des{backend_config({})};
  sim::Engine& engine = des.engine();
  WorldOptions opts;
  std::unique_ptr<World> world;

  explicit Fx(int ranks = 3, int cap = 0) {
    check::reset();
    opts.ranks = ranks;
    opts.conn_max_connections = cap;
    opts.conn_srq_capacity = 64;
    opts.conn_srq_limit = 8;
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
  EXPECT_EQ(active.established_connections(), 1);
  EXPECT_EQ(passive.established_connections(), 1);
  EXPECT_EQ(active.total_establishments(), 1u);
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

TEST(ConnManagerRecycle, LruVictimIsEvictedThroughReset) {
  Fx fx(/*ranks=*/3, /*cap=*/1);
  ConnectionManager& mgr = fx.world->rank(0).connections();

  const auto c1 = fx.establish(0, 1, 11);
  verbs::Qp* old_qp = mgr.connection(c1).qps[0];
  mgr.release(c1);  // warm but recyclable
  EXPECT_EQ(mgr.established_connections(), 1);

  const auto c2 = fx.establish(0, 2, 22);
  // The cap forced the idle slot through ERROR->RESET->INIT->RTR->RTS
  // recycling; the slot (and its QPs) are reused in place.
  EXPECT_EQ(c2, c1);
  EXPECT_EQ(mgr.connection(c2).qps[0], old_qp);
  EXPECT_EQ(mgr.connection(c2).peer, 2);
  EXPECT_EQ(mgr.slot_count(), 1u);
  EXPECT_EQ(mgr.established_connections(), 1);
  EXPECT_EQ(mgr.total_recycles(), 1u);
  EXPECT_EQ(mgr.connection(c2).stats.establishments, 2u);

  // The victim's peer half was torn down by the disconnect notification.
  EXPECT_EQ(fx.world->rank(1).connections().established_connections(), 0);
}

TEST(ConnManagerRecycle, OverCapWithAllLeasedRaisesConnCapDiagnostic) {
  if (!check::hooks_compiled_in()) GTEST_SKIP() << "PARTIB_CHECK=OFF build";
  Fx fx(/*ranks=*/3, /*cap=*/1);
  check::ScopedPolicy quiet(check::Policy::kCount);
  ConnectionManager& mgr = fx.world->rank(0).connections();

  fx.establish(0, 1, 11);  // leased — never released
  EXPECT_EQ(check::count_rule("conn.cap"), 0u);
  fx.establish(0, 2, 22);
  // Soft cap: the connection is still made, the checker records it.
  EXPECT_EQ(mgr.established_connections(), 2);
  EXPECT_EQ(mgr.slot_count(), 2u);
  EXPECT_EQ(check::count_rule("conn.cap"), 1u);
  EXPECT_EQ(mgr.total_recycles(), 0u);
}

TEST(ConnManagerStats, PerConnectionByteAccounting) {
  Fx fx;
  ConnectionManager& mgr = fx.world->rank(0).connections();
  const auto id = fx.establish(0, 1, 11);
  mgr.note_posted(id, 4096);
  mgr.note_posted(id, 512);
  EXPECT_EQ(mgr.connection(id).stats.bytes, 4608u);
  EXPECT_EQ(mgr.total_bytes(), 4608u);
}

TEST(ConnManagerSrq, ReservationGrowsAndRefillsTheSrq) {
  Fx fx;
  ConnectionManager& mgr = fx.world->rank(0).connections();
  EXPECT_EQ(mgr.srq().posted(), 0u);

  mgr.reserve_recv_wrs(16);  // under the 64-WR floor
  EXPECT_EQ(mgr.srq().posted(), 16u);
  EXPECT_EQ(mgr.srq().attrs().max_wr, 64);

  mgr.reserve_recv_wrs(200);  // demand outruns the floor: SRQ grows
  EXPECT_EQ(mgr.reserved_recv_wrs(), 216u);
  EXPECT_EQ(mgr.srq().posted(), 216u);
  EXPECT_GE(mgr.srq().attrs().max_wr, 216);

  mgr.release_recv_wrs(200);
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

TEST(ConnManagerSlots, TornDownSlotsAreReusedLowestIdFirst) {
  Fx fx(/*ranks=*/6);
  ConnectionManager& mgr = fx.world->rank(0).connections();
  for (int peer = 1; peer <= 5; ++peer) {
    EXPECT_EQ(fx.establish(0, peer, static_cast<std::uint64_t>(peer)),
              peer - 1);
  }
  EXPECT_EQ(mgr.established_connections(), 5);
  // Tear down slot 3, then slot 1 (the peer's disconnect notification).
  for (const ConnectionManager::ConnId id : {3, 1}) {
    mgr.release(id);
    mgr.on_disconnect(id);
    EXPECT_EQ(mgr.established_connections(), scan_established(mgr));
  }
  EXPECT_EQ(mgr.established_connections(), 3);
  EXPECT_EQ(fx.establish(0, 2, 102), 1);
  EXPECT_EQ(fx.establish(0, 4, 104), 3);
  EXPECT_EQ(fx.establish(0, 5, 105), 5);  // none free: a fresh slot
  EXPECT_EQ(mgr.slot_count(), 6u);
  EXPECT_EQ(mgr.established_connections(), 6);
  EXPECT_EQ(mgr.established_connections(), scan_established(mgr));
  EXPECT_EQ(mgr.total_recycles(), 0u);
}

TEST(ConnManagerSlots, LeasedTornDownSlotIsFreedOnRelease) {
  Fx fx(/*ranks=*/4);
  ConnectionManager& mgr = fx.world->rank(0).connections();
  fx.establish(0, 1, 1);
  fx.establish(0, 2, 2);
  mgr.on_disconnect(0);  // still leased: not reusable yet
  EXPECT_EQ(mgr.established_connections(), 1);
  EXPECT_EQ(fx.establish(0, 3, 3), 2);
  mgr.release(0);
  EXPECT_EQ(fx.establish(0, 3, 4), 0);
  EXPECT_EQ(mgr.established_connections(), scan_established(mgr));
}

TEST(ConnManagerSlots, ReplyAfterReleaseKeepsTheSlotOutOfReuse) {
  // The active side drops its lease before the connect reply lands: the
  // slot is offered for reuse, then established by the reply.  It is warm
  // now, not free, so the next connect takes a fresh slot.
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
  EXPECT_EQ(mgr.established_connections(), 2);
  EXPECT_EQ(mgr.established_connections(), scan_established(mgr));
}

TEST(ConnManagerSlots, LruVictimAtTheCapFollowsLastUse) {
  Fx fx(/*ranks=*/7, /*cap=*/3);
  ConnectionManager& mgr = fx.world->rank(0).connections();
  for (int peer = 1; peer <= 3; ++peer) {
    fx.establish(0, peer, static_cast<std::uint64_t>(peer));
  }
  // Release order sets the LRU order: slot 1 oldest, then 0, then 2.
  mgr.release(1);
  mgr.release(0);
  mgr.release(2);
  std::vector<ConnectionManager::ConnId> victims;
  for (int peer = 4; peer <= 6; ++peer) {
    const auto id = fx.establish(0, peer, static_cast<std::uint64_t>(peer));
    victims.push_back(id);
    EXPECT_EQ(mgr.connection(id).peer, peer);
    EXPECT_EQ(mgr.established_connections(), 3);
    EXPECT_EQ(mgr.established_connections(), scan_established(mgr));
  }
  EXPECT_EQ(victims, (std::vector<ConnectionManager::ConnId>{1, 0, 2}));
  EXPECT_EQ(mgr.total_recycles(), 3u);
  EXPECT_EQ(mgr.slot_count(), 3u);
}

}  // namespace
}  // namespace partib::mpi
