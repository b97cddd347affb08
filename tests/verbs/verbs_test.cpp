// The verbs layer: QP state machine, memory registration and key checks,
// CQ semantics, the 16-outstanding-WR limit, immediate delivery, and
// error completions.
//
// Backend-parameterized (tests/support/backend_fixture.hpp): every test
// here runs against each conformance backend — the DES fluid fabric and
// the real-time shared-memory transport — because nothing below asserts
// virtual-time values, only ordering and verbs semantics.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/units.hpp"
#include "support/backend_fixture.hpp"
#include "verbs/verbs.hpp"

namespace partib::verbs {
namespace {

using Fx = test::BackendVerbsFx;

using QpStateMachine = test::BackendTest;
using Memory = test::BackendTest;
using RdmaWrite = test::BackendTest;
using OutstandingLimit = test::BackendTest;
using RecvQueueLimit = test::BackendTest;
using Cq = test::BackendTest;

TEST_P(QpStateMachine, LegalTransitionChain) {
  Fx fx;
  Qp& s = fx.spd->create_qp(*fx.scq, *fx.scq);
  Qp& r = fx.rpd->create_qp(*fx.rcq, *fx.rcq);
  EXPECT_EQ(s.state(), QpState::kReset);
  EXPECT_TRUE(ok(s.to_init()));
  EXPECT_EQ(s.state(), QpState::kInit);
  ASSERT_TRUE(ok(r.to_init()));
  EXPECT_TRUE(ok(s.to_rtr(r.qp_num())));
  EXPECT_EQ(s.state(), QpState::kRtr);
  EXPECT_TRUE(ok(s.to_rts()));
  EXPECT_EQ(s.state(), QpState::kRts);
}

TEST_P(QpStateMachine, IllegalTransitionsRejected) {
  Fx fx;
  Qp& s = fx.spd->create_qp(*fx.scq, *fx.scq);
  EXPECT_EQ(s.to_rts(), Status::kInvalidState);   // RESET -> RTS
  EXPECT_EQ(s.to_rtr(999), Status::kInvalidState);  // RESET -> RTR
  ASSERT_TRUE(ok(s.to_init()));
  EXPECT_EQ(s.to_init(), Status::kInvalidState);  // INIT -> INIT
  EXPECT_EQ(s.to_rts(), Status::kInvalidState);   // INIT -> RTS
}

TEST_P(QpStateMachine, RtrUnknownRemoteQpIsNotFound) {
  Fx fx;
  Qp& s = fx.spd->create_qp(*fx.scq, *fx.scq);
  ASSERT_TRUE(ok(s.to_init()));
  EXPECT_EQ(s.to_rtr(0xDEAD), Status::kNotFound);
  EXPECT_EQ(s.state(), QpState::kInit);  // unchanged on failure
}

TEST_P(QpStateMachine, PostSendRequiresRts) {
  Fx fx;
  Qp& s = fx.spd->create_qp(*fx.scq, *fx.scq);
  ASSERT_TRUE(ok(s.to_init()));
  EXPECT_EQ(s.post_send(fx.write_wr(16)), Status::kInvalidState);
}

TEST_P(QpStateMachine, PostRecvAllowedFromInit) {
  Fx fx;
  Qp& r = fx.rpd->create_qp(*fx.rcq, *fx.rcq);
  EXPECT_EQ(r.post_recv(RecvWr{}), Status::kInvalidState);  // RESET
  ASSERT_TRUE(ok(r.to_init()));
  EXPECT_TRUE(ok(r.post_recv(RecvWr{})));
}

TEST_P(Memory, MrContainsExactRange) {
  Fx fx;
  const auto base = fx.smr->addr();
  EXPECT_TRUE(fx.smr->contains(base, fx.sbuf.size()));
  EXPECT_TRUE(fx.smr->contains(base + 10, 100));
  EXPECT_FALSE(fx.smr->contains(base, fx.sbuf.size() + 1));
  EXPECT_FALSE(fx.smr->contains(base - 1, 10));
}

TEST_P(Memory, DistinctKeysPerRegistration) {
  Fx fx;
  Mr& a = fx.spd->register_mr(fx.sbuf, kLocalRead);
  Mr& b = fx.spd->register_mr(fx.sbuf, kLocalRead);
  EXPECT_NE(a.lkey(), b.lkey());
  EXPECT_NE(a.rkey(), b.rkey());
  EXPECT_NE(a.lkey(), a.rkey());
}

TEST_P(Memory, InvalidLkeyRejectedAtPost) {
  Fx fx;
  auto [s, r] = fx.connected_pair();
  SendWr wr = fx.write_wr(64);
  wr.sg_list[0].lkey = 0xBEEF;
  EXPECT_EQ(s->post_send(wr), Status::kInvalidArgument);
}

TEST_P(Memory, SgeOutsideMrRejectedAtPost) {
  Fx fx;
  auto [s, r] = fx.connected_pair();
  SendWr wr = fx.write_wr(64);
  wr.sg_list[0].length = static_cast<std::uint32_t>(fx.sbuf.size() + 64);
  EXPECT_EQ(s->post_send(wr), Status::kInvalidArgument);
}

TEST_P(Memory, RecvBufferNeedsLocalWrite) {
  Fx fx;
  Qp& r = fx.rpd->create_qp(*fx.rcq, *fx.rcq);
  ASSERT_TRUE(ok(r.to_init()));
  // Register a read-only region and try to use it as a receive buffer.
  std::vector<std::byte> ro(128);
  Mr& romr = fx.rpd->register_mr(ro, kLocalRead);
  RecvWr wr;
  wr.sg_list.push_back(Sge{romr.addr(), 64, romr.lkey()});
  EXPECT_EQ(r.post_recv(wr), Status::kInvalidArgument);
}

TEST_P(RdmaWrite, DeliversDataAndImm) {
  Fx fx;
  auto [s, r] = fx.connected_pair();
  std::memset(fx.sbuf.data(), 0xAB, 256);
  ASSERT_TRUE(ok(r->post_recv(RecvWr{42, {}})));
  ASSERT_TRUE(ok(s->post_send(fx.write_wr(256, 0x12340007))));
  fx.drive();

  Wc wc[4];
  ASSERT_EQ(fx.rcq->poll(std::span<Wc>(wc)), 1);
  EXPECT_EQ(wc[0].status, WcStatus::kSuccess);
  EXPECT_EQ(wc[0].opcode, WcOpcode::kRecvRdmaWithImm);
  EXPECT_EQ(wc[0].wr_id, 42u);
  EXPECT_TRUE(wc[0].has_imm);
  EXPECT_EQ(wc[0].imm, 0x12340007u);
  EXPECT_EQ(wc[0].byte_len, 256u);
  EXPECT_EQ(std::memcmp(fx.rbuf.data(), fx.sbuf.data(), 256), 0);

  ASSERT_EQ(fx.scq->poll(std::span<Wc>(wc)), 1);
  EXPECT_EQ(wc[0].status, WcStatus::kSuccess);
  EXPECT_EQ(wc[0].opcode, WcOpcode::kRdmaWrite);
  EXPECT_EQ(wc[0].wr_id, 77u);
}

TEST_P(RdmaWrite, PlainWriteRaisesNoRecvCompletion) {
  Fx fx;
  auto [s, r] = fx.connected_pair();
  ASSERT_TRUE(ok(s->post_send(fx.write_wr(64, 0, /*with_imm=*/false))));
  fx.drive();
  Wc wc[4];
  EXPECT_EQ(fx.rcq->poll(std::span<Wc>(wc)), 0);  // silent at receiver
  EXPECT_EQ(fx.scq->poll(std::span<Wc>(wc)), 1);  // sender still completes
}

TEST_P(RdmaWrite, WithImmWithoutRecvWrIsRemoteNotReady) {
  Fx fx;
  auto [s, r] = fx.connected_pair();
  ASSERT_TRUE(ok(s->post_send(fx.write_wr(64, 1))));
  fx.drive();
  Wc wc[4];
  ASSERT_EQ(fx.scq->poll(std::span<Wc>(wc)), 1);
  EXPECT_EQ(wc[0].status, WcStatus::kRemoteNotReady);
  EXPECT_EQ(s->state(), QpState::kError);
}

TEST_P(RdmaWrite, BadRkeyIsRemoteAccessError) {
  Fx fx;
  auto [s, r] = fx.connected_pair();
  ASSERT_TRUE(ok(r->post_recv(RecvWr{})));
  SendWr wr = fx.write_wr(64, 1);
  wr.rkey = 0xDEAD;
  ASSERT_TRUE(ok(s->post_send(wr)));
  fx.drive();
  Wc wc[4];
  ASSERT_EQ(fx.scq->poll(std::span<Wc>(wc)), 1);
  EXPECT_EQ(wc[0].status, WcStatus::kRemoteAccessError);
}

TEST_P(RdmaWrite, RangeBeyondRemoteMrIsRemoteAccessError) {
  Fx fx;
  auto [s, r] = fx.connected_pair();
  ASSERT_TRUE(ok(r->post_recv(RecvWr{})));
  SendWr wr = fx.write_wr(64, 1);
  wr.remote_addr = fx.rmr->addr() + fx.rbuf.size() - 16;
  ASSERT_TRUE(ok(s->post_send(wr)));
  fx.drive();
  Wc wc[4];
  ASSERT_EQ(fx.scq->poll(std::span<Wc>(wc)), 1);
  EXPECT_EQ(wc[0].status, WcStatus::kRemoteAccessError);
}

TEST_P(RdmaWrite, RemoteWriteAccessRequired) {
  Fx fx;
  auto [s, r] = fx.connected_pair();
  ASSERT_TRUE(ok(r->post_recv(RecvWr{})));
  std::vector<std::byte> ro(1024);
  Mr& romr = fx.rpd->register_mr(ro, kLocalWrite);  // no kRemoteWrite
  SendWr wr = fx.write_wr(64, 1);
  wr.remote_addr = romr.addr();
  wr.rkey = romr.rkey();
  ASSERT_TRUE(ok(s->post_send(wr)));
  fx.drive();
  Wc wc[4];
  ASSERT_EQ(fx.scq->poll(std::span<Wc>(wc)), 1);
  EXPECT_EQ(wc[0].status, WcStatus::kRemoteAccessError);
}

TEST_P(RdmaWrite, ErrorQpRejectsFurtherPosts) {
  Fx fx;
  auto [s, r] = fx.connected_pair();
  ASSERT_TRUE(ok(s->post_send(fx.write_wr(64, 1))));  // no recv WR -> RNR
  fx.drive();
  Wc wc[4];
  fx.scq->poll(std::span<Wc>(wc));
  EXPECT_EQ(s->post_send(fx.write_wr(64, 1)), Status::kInvalidState);
}

TEST_P(RdmaWrite, MultiSgeGathersContiguously) {
  Fx fx;
  auto [s, r] = fx.connected_pair();
  for (std::size_t i = 0; i < 128; ++i) {
    fx.sbuf[i] = static_cast<std::byte>(i);
  }
  ASSERT_TRUE(ok(r->post_recv(RecvWr{})));
  SendWr wr;
  wr.opcode = Opcode::kRdmaWriteWithImm;
  const auto base = reinterpret_cast<std::uint64_t>(fx.sbuf.data());
  wr.sg_list = {Sge{base, 64, fx.smr->lkey()},
                Sge{base + 64, 64, fx.smr->lkey()}};
  wr.remote_addr = fx.rmr->addr();
  wr.rkey = fx.rmr->rkey();
  ASSERT_TRUE(ok(s->post_send(wr)));
  fx.drive();
  EXPECT_EQ(std::memcmp(fx.rbuf.data(), fx.sbuf.data(), 128), 0);
}

TEST_P(OutstandingLimit, SixteenthPostSucceedsSeventeenthFails) {
  Fx fx;
  QpCaps caps;
  caps.max_send_wr = 16;  // the ConnectX-5 constraint from the paper
  auto [s, r] = fx.connected_pair(caps);
  for (int i = 0; i < 32; ++i) ASSERT_TRUE(ok(r->post_recv(RecvWr{})));
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(ok(s->post_send(fx.write_wr(64, 1)))) << i;
  }
  EXPECT_EQ(s->post_send(fx.write_wr(64, 1)), Status::kResourceExhausted);
  EXPECT_EQ(s->outstanding_send_wrs(), 16);
  // Completions free slots.
  fx.drive();
  EXPECT_EQ(s->outstanding_send_wrs(), 0);
  EXPECT_TRUE(ok(s->post_send(fx.write_wr(64, 1))));
}

TEST_P(RecvQueueLimit, PostRecvBeyondCapFails) {
  Fx fx;
  QpCaps caps;
  caps.max_recv_wr = 4;
  auto [s, r] = fx.connected_pair(caps);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ok(r->post_recv(RecvWr{})));
  EXPECT_EQ(r->post_recv(RecvWr{}), Status::kResourceExhausted);
}

TEST_P(Cq, PollReturnsAtMostRequested) {
  Fx fx;
  auto [s, r] = fx.connected_pair();
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(ok(r->post_recv(RecvWr{})));
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(ok(s->post_send(fx.write_wr(16, 1))));
  fx.drive();
  Wc wc[3];
  EXPECT_EQ(fx.rcq->poll(std::span<Wc>(wc)), 3);
  EXPECT_EQ(fx.rcq->poll(std::span<Wc>(wc)), 3);
  EXPECT_EQ(fx.rcq->poll(std::span<Wc>(wc)), 2);
  EXPECT_EQ(fx.rcq->poll(std::span<Wc>(wc)), 0);
}

TEST_P(Cq, OnPushHookFiresPerCompletion) {
  Fx fx;
  auto [s, r] = fx.connected_pair();
  int pushes = 0;
  fx.rcq->set_on_push([&] { ++pushes; });
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ok(r->post_recv(RecvWr{})));
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ok(s->post_send(fx.write_wr(16, 1))));
  fx.drive();
  EXPECT_EQ(pushes, 4);
}

TEST_P(Cq, CompletionTimesMonotonicPerQp) {
  Fx fx;
  auto [s, r] = fx.connected_pair();
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(ok(r->post_recv(RecvWr{})));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ok(s->post_send(fx.write_wr(4096, 1))));
  }
  fx.drive();
  Wc wc[8];
  ASSERT_EQ(fx.rcq->poll(std::span<Wc>(wc)), 8);
  for (int i = 1; i < 8; ++i) {
    EXPECT_GE(wc[i].completion_time, wc[i - 1].completion_time);
  }
}

PARTIB_INSTANTIATE_BACKENDS(QpStateMachine);
PARTIB_INSTANTIATE_BACKENDS(Memory);
PARTIB_INSTANTIATE_BACKENDS(RdmaWrite);
PARTIB_INSTANTIATE_BACKENDS(OutstandingLimit);
PARTIB_INSTANTIATE_BACKENDS(RecvQueueLimit);
PARTIB_INSTANTIATE_BACKENDS(Cq);

}  // namespace
}  // namespace partib::verbs
