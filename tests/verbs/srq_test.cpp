// Shared receive queues: ibv_srq-shaped create/post/limit/resize
// semantics, multi-QP draining with qp_num demultiplexing, reset
// isolation (a sibling QP reset must not drop SRQ WRs), and the
// provisioned/resident footprint accounting the connection-scale
// comparison (docs/PERF.md) is built on.
// Backend-parameterized (tests/support/backend_fixture.hpp): the SRQ is a
// verbs-layer structure, so every suite below must behave identically no
// matter which transport moves the bytes underneath.
#include <gtest/gtest.h>

#include <vector>

#include "common/units.hpp"
#include "support/backend_fixture.hpp"
#include "verbs/verbs.hpp"

namespace partib::verbs {
namespace {

using Fx = test::BackendVerbsFx;

using SrqBasics = test::BackendTest;
using SrqLimit = test::BackendTest;
using SrqResize = test::BackendTest;
using SrqQpInteraction = test::BackendTest;
using SrqFootprint = test::BackendTest;

TEST_P(SrqBasics, PostConsumeAndCapacity) {
  Fx fx;
  SrqAttrs attrs;
  attrs.max_wr = 4;
  Srq& srq = fx.rpd->create_srq(attrs);
  EXPECT_EQ(srq.posted(), 0u);
  for (int i = 0; i < 4; ++i) {
    RecvWr wr;
    wr.wr_id = static_cast<std::uint64_t>(i);
    EXPECT_TRUE(ok(srq.post_recv(wr)));
  }
  EXPECT_EQ(srq.posted(), 4u);
  // A fifth post overruns max_wr (cf. ibv_post_srq_recv ENOMEM).
  EXPECT_EQ(srq.post_recv(RecvWr{}), Status::kResourceExhausted);

  // Consumption is strict post order.
  PostedRecv out;
  ASSERT_TRUE(srq.consume(&out));
  EXPECT_EQ(out.wr.wr_id, 0u);
  ASSERT_TRUE(srq.consume(&out));
  EXPECT_EQ(out.wr.wr_id, 1u);
  EXPECT_EQ(srq.posted(), 2u);
}

TEST_P(SrqBasics, SgeValidationAgainstPd) {
  Fx fx;
  Srq& srq = fx.rpd->create_srq();
  RecvWr wr;
  wr.sg_list.push_back(Sge{fx.rmr->addr(), 64, 0xdead});  // bogus lkey
  EXPECT_EQ(srq.post_recv(wr), Status::kInvalidArgument);
}

TEST_P(SrqLimit, ArmValidationAndOneShotEvent) {
  Fx fx;
  SrqAttrs attrs;
  attrs.max_wr = 8;
  Srq& srq = fx.rpd->create_srq(attrs);
  EXPECT_EQ(srq.arm_limit(-1), Status::kInvalidArgument);
  EXPECT_EQ(srq.arm_limit(8), Status::kInvalidArgument);  // must be < max_wr
  ASSERT_TRUE(ok(srq.arm_limit(2)));

  int events = 0;
  srq.set_on_limit([&] { ++events; });
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ok(srq.post_recv(RecvWr{})));

  PostedRecv out;
  ASSERT_TRUE(srq.consume(&out));  // 3 left: above the watermark
  EXPECT_EQ(events, 0);
  ASSERT_TRUE(srq.consume(&out));  // 2 left: not yet *below* the limit
  EXPECT_EQ(events, 0);
  ASSERT_TRUE(srq.consume(&out));  // 1 left: fires
  EXPECT_EQ(events, 1);
  ASSERT_TRUE(srq.consume(&out));  // 0 left: one-shot, already disarmed
  EXPECT_EQ(events, 1);

  // Re-arming restores the event.
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(ok(srq.post_recv(RecvWr{})));
  ASSERT_TRUE(ok(srq.arm_limit(2)));
  ASSERT_TRUE(srq.consume(&out));
  EXPECT_EQ(events, 2);
}

TEST_P(SrqResize, GrowsButNeverBelowPostedOrLimit) {
  Fx fx;
  SrqAttrs attrs;
  attrs.max_wr = 4;
  attrs.srq_limit = 2;
  Srq& srq = fx.rpd->create_srq(attrs);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ok(srq.post_recv(RecvWr{})));
  EXPECT_EQ(srq.post_recv(RecvWr{}), Status::kResourceExhausted);

  ASSERT_TRUE(ok(srq.resize(8)));
  EXPECT_TRUE(ok(srq.post_recv(RecvWr{})));  // capacity grew
  EXPECT_EQ(srq.resize(3), Status::kInvalidArgument);  // below posted (5)
  EXPECT_EQ(srq.resize(2), Status::kInvalidArgument);  // below limit too
}

TEST_P(SrqQpInteraction, PostRecvOnAttachedQpIsEinval) {
  Fx fx;
  Srq& srq = fx.rpd->create_srq();
  auto [s, r] = fx.connected_pair(QpCaps{}, &srq);
  (void)s;
  // cf. ibv_post_recv on an SRQ-attached QP failing with EINVAL.
  EXPECT_EQ(r->post_recv(RecvWr{}), Status::kInvalidArgument);
}

TEST_P(SrqQpInteraction, TwoQpsDrainOneSrqDemuxedByQpNum) {
  Fx fx;
  Srq& srq = fx.rpd->create_srq();
  auto [s1, r1] = fx.connected_pair(QpCaps{}, &srq);
  auto [s2, r2] = fx.connected_pair(QpCaps{}, &srq);
  for (int i = 0; i < 2; ++i) {
    RecvWr wr;
    wr.wr_id = 1000 + static_cast<std::uint64_t>(i);
    ASSERT_TRUE(ok(srq.post_recv(wr)));
  }

  ASSERT_TRUE(ok(s1->post_send(fx.write_wr(256, 11))));
  ASSERT_TRUE(ok(s2->post_send(fx.write_wr(256, 22))));
  fx.drive();

  // Both receive CQEs land on the shared recv CQ, each naming its
  // consuming QP — the demux contract the connection manager's drain
  // builds on.
  Wc wcs[8];
  const int n = fx.rcq->poll(std::span<Wc>(wcs));
  ASSERT_EQ(n, 2);
  bool saw1 = false;
  bool saw2 = false;
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(wcs[i].status, WcStatus::kSuccess);
    EXPECT_EQ(wcs[i].opcode, WcOpcode::kRecvRdmaWithImm);
    if (wcs[i].qp_num == r1->qp_num()) {
      EXPECT_EQ(wcs[i].imm, 11u);
      saw1 = true;
    } else if (wcs[i].qp_num == r2->qp_num()) {
      EXPECT_EQ(wcs[i].imm, 22u);
      saw2 = true;
    }
  }
  EXPECT_TRUE(saw1 && saw2);
  EXPECT_EQ(srq.posted(), 0u);  // both WRs drawn from the shared pool
}

TEST_P(SrqQpInteraction, SiblingResetPreservesSrqWrs) {
  Fx fx;
  Srq& srq = fx.rpd->create_srq();
  auto [s1, r1] = fx.connected_pair(QpCaps{}, &srq);
  auto [s2, r2] = fx.connected_pair(QpCaps{}, &srq);
  (void)s2;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(ok(srq.post_recv(RecvWr{})));

  // Resetting one consumer drops nothing from the shared queue: the WRs
  // belong to the SRQ, not the QP (a private-ring reset would drop them).
  ASSERT_TRUE(ok(r2->to_reset()));
  EXPECT_EQ(srq.posted(), 3u);

  // The surviving sibling still drains the shared queue.
  ASSERT_TRUE(ok(s1->post_send(fx.write_wr(128, 7))));
  fx.drive();
  Wc wcs[4];
  const int n = fx.rcq->poll(std::span<Wc>(wcs));
  ASSERT_EQ(n, 1);
  EXPECT_EQ(wcs[0].qp_num, r1->qp_num());
  EXPECT_EQ(srq.posted(), 2u);
}

TEST_P(SrqQpInteraction, EmptySrqIsRemoteNotReady) {
  Fx fx;
  Srq& srq = fx.rpd->create_srq();
  auto [s, r] = fx.connected_pair(QpCaps{}, &srq);
  (void)r;
  ASSERT_TRUE(ok(s->post_send(fx.write_wr(128, 1))));
  fx.drive();
  Wc wcs[4];
  const int n = fx.scq->poll(std::span<Wc>(wcs));
  ASSERT_EQ(n, 1);
  EXPECT_EQ(wcs[0].status, WcStatus::kRemoteNotReady);
}

TEST_P(SrqFootprint, SharedProvisioningBeatsPerQpRings) {
  Fx fx;
  // Dedicated shape: each of 8 QPs provisions its own receive ring.
  QpCaps dedicated;
  dedicated.max_recv_wr = 1024;
  for (int i = 0; i < 8; ++i) {
    (void)fx.spd->create_qp(*fx.scq, *fx.scq, dedicated);
  }
  const ResourceFootprint per_qp = fx.sctx->footprint();

  // Shared shape: 8 QPs draw from one 1024-WR SRQ.
  SrqAttrs attrs;
  attrs.max_wr = 1024;
  Srq& srq = fx.rpd->create_srq(attrs);
  for (int i = 0; i < 8; ++i) {
    (void)fx.rpd->create_qp(*fx.rcq, *fx.rcq, QpCaps{}, &srq);
  }
  const ResourceFootprint shared = fx.rctx->footprint();

  EXPECT_EQ(per_qp.qps, 8);
  EXPECT_EQ(per_qp.srqs, 0);
  EXPECT_EQ(shared.srqs, 1);
  // 8 x 1024 private WRs vs 1024 shared: the receive-side provisioning
  // shrinks by the QP count.
  EXPECT_LT(shared.provisioned_bytes, per_qp.provisioned_bytes);
}

PARTIB_INSTANTIATE_BACKENDS(SrqBasics);
PARTIB_INSTANTIATE_BACKENDS(SrqLimit);
PARTIB_INSTANTIATE_BACKENDS(SrqResize);
PARTIB_INSTANTIATE_BACKENDS(SrqQpInteraction);
PARTIB_INSTANTIATE_BACKENDS(SrqFootprint);

}  // namespace
}  // namespace partib::verbs
