// The on-demand connection manager (mpi/conn.hpp): lazy establishment
// through the control plane, one fresh chain per connect, SRQ
// reservation/refill, shared-CQ demultiplexing, and the conn.demux rule
// diagnostic.  Test names start with ConnManager so the TSan CI job's
// regex picks them up alongside the runner suites.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "backend/des_backend.hpp"
#include "check/check.hpp"
#include "mpi/conn.hpp"
#include "mpi/world.hpp"
#include "sim/engine.hpp"

namespace partib::mpi {
namespace {

void noop(ConnectionManager::Connection&) {}

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
    p.expect(token, noop);
    const auto id = a.connect(to, qp_count, token, noop);
    engine.run();
    return id;
  }
};

/// A completion as `qp` raises it on the shared CQ.
verbs::Wc wc_on(const verbs::Qp& qp, std::uint64_t wr_id = 0) {
  verbs::Wc wc;
  wc.wr_id = wr_id;
  wc.qp_num = qp.qp_num();
  return wc;
}

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
  // with its completion handler cleared.
  Fx fx;
  ConnectionManager& mgr = fx.world->rank(0).connections();
  const auto first = fx.establish(0, 1, 11);
  const std::vector<verbs::Qp*> old_qps = mgr.connection(first).qps;
  mgr.connection(first).on_wc = [](const verbs::Wc&) {};
  mgr.release(first);
  EXPECT_FALSE(mgr.connection(first).on_wc);

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

TEST(ConnManagerDemux, CompletionsAreDispatchedFromTheSharedCq) {
  // Three chains toward two peers, completions interleaved across all six
  // QPs: every CQE reaches its own connection's handler, in CQ order.
  Fx fx;
  ConnectionManager& mgr = fx.world->rank(0).connections();
  const ConnectionManager::ConnId ids[] = {
      fx.establish(0, 1, 1), fx.establish(0, 2, 2), fx.establish(0, 1, 3)};
  using Seen = std::vector<std::pair<ConnectionManager::ConnId, std::uint64_t>>;
  Seen seen;
  for (const auto id : ids) {
    mgr.connection(id).on_wc = [&seen, id](const verbs::Wc& wc) {
      seen.emplace_back(id, wc.wr_id);
    };
  }
  Seen expected;
  for (std::uint64_t i = 0; i < 60; ++i) {
    const auto id = ids[i % 3];
    const std::vector<verbs::Qp*>& qps = mgr.connection(id).qps;
    mgr.cq().push(wc_on(*qps[(i / 3) % qps.size()], i));
    expected.emplace_back(id, i);
  }
  fx.engine.run();  // the on-push dispatch event drains the batch
  EXPECT_EQ(seen, expected);
}

TEST(ConnManagerDemux, UnboundQpNumRaisesConnDemuxDiagnostic) {
  // qp_nums no QP owns: below the device's first, past its last, and 0.
  Fx fx;
  check::ScopedPolicy quiet(check::Policy::kCount);
  ConnectionManager& mgr = fx.world->rank(0).connections();
  const auto id = fx.establish(0, 1, 1);
  int hits = 0;
  mgr.connection(id).on_wc = [&hits](const verbs::Wc&) { ++hits; };

  mgr.cq().push(wc_on(*mgr.connection(id).qps[0]));
  for (const std::uint32_t stray :
       {verbs::Device::kFirstQpNum - 1, verbs::Device::kFirstQpNum + 100000,
        std::uint32_t{0}}) {
    verbs::Wc wc;
    wc.qp_num = stray;
    mgr.cq().push(wc);
  }
  EXPECT_EQ(mgr.drain(), 1);
  EXPECT_EQ(hits, 1);
  if (check::hooks_compiled_in()) {
    EXPECT_EQ(check::count_rule("conn.demux"), 3u);
  }
}

TEST(ConnManagerDemux, ForeignQpOnTheSameDeviceRaisesConnDemuxDiagnostic) {
  // A dedicated-mode channel's QP lives on the same device and the same
  // rank, but the manager did not create it, so it carries no connection.
  Fx fx;
  check::ScopedPolicy quiet(check::Policy::kCount);
  Rank& r0 = fx.world->rank(0);
  ConnectionManager& mgr = r0.connections();
  verbs::Cq& own_cq = r0.context().create_cq(64);
  verbs::Qp& dedicated = r0.pd().create_qp(own_cq, own_cq);
  EXPECT_EQ(r0.context().device().qp_context(dedicated.qp_num()), nullptr);

  mgr.cq().push(wc_on(dedicated));
  EXPECT_EQ(mgr.drain(), 0);
  if (check::hooks_compiled_in()) {
    EXPECT_EQ(check::count_rule("conn.demux"), 1u);
  }
}

TEST(ConnManagerDemux, ReleasedConnectionRaisesConnDemuxDiagnostic) {
  Fx fx;
  check::ScopedPolicy quiet(check::Policy::kCount);
  ConnectionManager& mgr = fx.world->rank(0).connections();
  const auto kept = fx.establish(0, 1, 1);
  const auto gone = fx.establish(0, 2, 2);
  int kept_hits = 0;
  int gone_hits = 0;
  mgr.connection(kept).on_wc = [&](const verbs::Wc&) { ++kept_hits; };
  mgr.connection(gone).on_wc = [&](const verbs::Wc&) { ++gone_hits; };
  mgr.release(gone);

  for (const auto id : {gone, kept, gone}) {
    mgr.cq().push(wc_on(*mgr.connection(id).qps[1]));
  }
  EXPECT_EQ(mgr.drain(), 1);
  EXPECT_EQ(kept_hits, 1);
  EXPECT_EQ(gone_hits, 0);
  if (check::hooks_compiled_in()) {
    EXPECT_EQ(check::count_rule("conn.demux"), 2u);
  }
}

TEST(ConnManagerDemux, ManyChainsRouteEveryWcAndReleasedOnesDrop) {
  // 48 chains toward two peers, so the passive sides' QPs interleave with
  // rank 0's in the device-wide qp_num space; every third chain is
  // released.  One completion per QP, in reverse creation order.
  Fx fx;
  check::ScopedPolicy quiet(check::Policy::kCount);
  ConnectionManager& mgr = fx.world->rank(0).connections();
  constexpr int kChains = 48;
  std::vector<int> hits(kChains, 0);
  for (int c = 0; c < kChains; ++c) {
    const auto id = fx.establish(0, 1 + c % 2, static_cast<std::uint64_t>(c));
    ASSERT_EQ(id, c);
    mgr.connection(id).on_wc = [&hits, c](const verbs::Wc& wc) {
      EXPECT_EQ(wc.wr_id, static_cast<std::uint64_t>(c));
      ++hits[static_cast<std::size_t>(c)];
    };
    if (c % 3 == 0) mgr.release(id);
  }
  for (int c = kChains - 1; c >= 0; --c) {
    for (verbs::Qp* qp : mgr.connection(c).qps) {
      mgr.cq().push(wc_on(*qp, static_cast<std::uint64_t>(c)));
    }
  }
  EXPECT_EQ(mgr.drain(), 2 * kChains * 2 / 3);
  for (int c = 0; c < kChains; ++c) {
    EXPECT_EQ(hits[static_cast<std::size_t>(c)], c % 3 == 0 ? 0 : 2) << c;
  }
  if (check::hooks_compiled_in()) {
    EXPECT_EQ(check::count_rule("conn.demux"),
              static_cast<std::size_t>(2 * kChains / 3));
  }
}

TEST(ConnManagerDemux, HandlerMayConnectDuringTheDrain) {
  // The first completion opens a 64-QP chain from inside the drain, which
  // grows the device's QP tables under it; the rest of the run still
  // reaches its handler, and the new chain establishes and dispatches.
  Fx fx;
  ConnectionManager& mgr = fx.world->rank(0).connections();
  const auto first = fx.establish(0, 1, 1);
  fx.world->rank(2).connections().expect(2, noop);
  ConnectionManager::ConnId second = ConnectionManager::kNilConn;
  std::vector<std::uint64_t> seen;
  mgr.connection(first).on_wc = [&](const verbs::Wc& wc) {
    seen.push_back(wc.wr_id);
    if (second == ConnectionManager::kNilConn) {
      second = mgr.connect(2, 64, 2, noop);
    }
  };
  const std::vector<verbs::Qp*>& qps = mgr.connection(first).qps;
  for (std::uint64_t i = 0; i < 40; ++i) {
    mgr.cq().push(wc_on(*qps[i % qps.size()], i));
  }
  EXPECT_EQ(mgr.drain(), 40);
  ASSERT_EQ(seen.size(), 40u);
  for (std::uint64_t i = 0; i < 40; ++i) EXPECT_EQ(seen[i], i);

  fx.engine.run();
  ASSERT_NE(second, ConnectionManager::kNilConn);
  EXPECT_TRUE(mgr.connection(second).established);
  int hits = 0;
  mgr.connection(second).on_wc = [&hits](const verbs::Wc&) { ++hits; };
  mgr.cq().push(wc_on(*mgr.connection(second).qps.back()));
  fx.engine.run();
  EXPECT_EQ(hits, 1);
}

TEST(ConnManagerSlots, ReplyAfterReleaseKeepsTheSlotOutOfReuse) {
  // The active side releases the connection before the connect reply
  // lands: the reply still establishes the slot, the released
  // connection's ready callback does not run, and the next connect takes
  // a fresh slot.
  Fx fx(/*ranks=*/3);
  ConnectionManager& mgr = fx.world->rank(0).connections();
  fx.world->rank(1).connections().expect(1, noop);
  bool ready = false;
  const auto id = mgr.connect(
      1, 2, 1, [&ready](ConnectionManager::Connection&) { ready = true; });
  mgr.release(id);
  fx.engine.run();
  EXPECT_TRUE(mgr.connection(id).established);
  EXPECT_FALSE(ready);
  EXPECT_EQ(fx.establish(0, 2, 2), id + 1);
  EXPECT_EQ(mgr.total_establishments(), 2u);
}

}  // namespace
}  // namespace partib::mpi
