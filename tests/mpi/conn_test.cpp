// The on-demand connection manager (mpi/conn.hpp): lazy establishment
// through the control plane, LRU recycling at the connection cap,
// SRQ reservation/refill, shared-CQ demultiplexing, and the conn.* rule
// diagnostics.  Test names start with ConnManager so the TSan CI job's
// regex picks them up alongside the runner suites.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "check/check.hpp"
#include "mpi/conn.hpp"
#include "mpi/world.hpp"
#include "sim/engine.hpp"

namespace partib::mpi {
namespace {

struct Fx {
  sim::Engine engine;
  WorldOptions opts;
  std::unique_ptr<World> world;

  explicit Fx(int ranks = 3, int cap = 0) {
    check::reset();
    opts.ranks = ranks;
    opts.conn_max_connections = cap;
    opts.conn_srq_capacity = 64;
    opts.conn_srq_limit = 8;
    opts.cq_depth = 1024;
    world = std::make_unique<World>(engine, opts);
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

}  // namespace
}  // namespace partib::mpi
