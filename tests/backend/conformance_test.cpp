// Cross-backend conformance: the backend registry contract, and the
// Backend/Transport surface every implementation must satisfy uniformly.
//
// The verbs/part lifecycle suites (tests/verbs/, tests/part/) are
// parameterized over the same backend list and carry the deep semantic
// checks; this file owns the registry itself plus the op-surface
// obligations stated in backend/transport.hpp — exactly-one-completion,
// control-plane delivery, fault-plane inject/reset, stats accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "check/check.hpp"
#include "common/units.hpp"
#include "fabric/rdma_op.hpp"
#include "support/backend_fixture.hpp"
#include "verbs/verbs.hpp"

namespace partib::backend {
namespace {

TEST(BackendRegistry, DesIsFirstAndBothConformanceBackendsRegistered) {
  const std::vector<std::string> names = backend_names();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "des");  // the documented default
  EXPECT_TRUE(backend_registered("des"));
  EXPECT_TRUE(backend_registered("shm"));
  EXPECT_FALSE(backend_registered("no-such-transport"));
}

TEST(BackendRegistry, MakeBackendUnknownNameReportsAndReturnsNull) {
  check::reset();
  check::ScopedPolicy policy(check::Policy::kCount);
  EXPECT_EQ(make_backend("no-such-transport"), nullptr);
  if (check::hooks_compiled_in()) {
    EXPECT_EQ(check::count_rule("backend.unknown"), 1u);
  }
  check::reset();
}

TEST(BackendRegistry, FactoriesProduceSelfDescribingBackends) {
  for (const std::string& name : backend_names()) {
    auto be = make_backend(name);
    ASSERT_NE(be, nullptr) << name;
    EXPECT_EQ(be->name(), name);
    EXPECT_FALSE(be->transport().kind().empty()) << name;
    // The timer substrate must exist and be the same object every call.
    EXPECT_EQ(&be->engine(), &be->engine()) << name;
  }
}

using Conformance = test::BackendTest;

TEST_P(Conformance, CleanBackendIsIdleAndAtTimeZeroStats) {
  auto be = make_backend(GetParam());
  ASSERT_NE(be, nullptr);
  EXPECT_EQ(be->run_until_idle(), 0u);  // nothing pending on a fresh backend
  Transport& t = be->transport();
  EXPECT_EQ(t.node_count(), 0);
  const fabric::FabricStats& s = t.stats();
  EXPECT_EQ(s.rdma_ops, 0u);
  EXPECT_EQ(s.control_msgs, 0u);
  EXPECT_EQ(s.payload_bytes, 0u);
  EXPECT_EQ(s.failed_ops, 0u);
}

TEST_P(Conformance, RealTimeFlagMatchesBackendKind) {
  auto be = make_backend(GetParam());
  ASSERT_NE(be, nullptr);
  EXPECT_EQ(be->real_time(), GetParam() != "des");
  // now() must be non-decreasing on every backend.
  const Time a = be->now();
  be->progress();
  EXPECT_GE(be->now(), a);
}

TEST_P(Conformance, AddNodeAllocatesDenseIds) {
  auto be = make_backend(GetParam());
  ASSERT_NE(be, nullptr);
  Transport& t = be->transport();
  EXPECT_EQ(t.add_node(), 0);
  EXPECT_EQ(t.add_node(), 1);
  EXPECT_EQ(t.add_node(), 2);
  EXPECT_EQ(t.node_count(), 3);
}

TEST_P(Conformance, CopiesDataReflectsConfig) {
  Config cfg;
  cfg.copy_data = false;
  auto be = make_backend(GetParam(), cfg);
  ASSERT_NE(be, nullptr);
  EXPECT_FALSE(be->transport().copies_data());
  EXPECT_TRUE(make_backend(GetParam())->transport().copies_data());
}

TEST_P(Conformance, WireBytesAccountSegmentHeaders) {
  auto be = make_backend(GetParam());
  ASSERT_NE(be, nullptr);
  Transport& t = be->transport();
  // Headers make wire > payload, zero-byte ops still cost one segment,
  // and segmentation is monotone in the payload.
  EXPECT_GT(t.wire_bytes_for(0), 0u);
  EXPECT_GT(t.wire_bytes_for(4 * KiB), 4 * KiB);
  EXPECT_GT(t.wire_bytes_for(64 * KiB), t.wire_bytes_for(4 * KiB));
}

TEST_P(Conformance, ControlPlaneDeliversInOrder) {
  auto be = make_backend(GetParam());
  ASSERT_NE(be, nullptr);
  Transport& t = be->transport();
  const fabric::NodeId a = t.add_node();
  const fabric::NodeId b = t.add_node();
  std::vector<int> delivered;
  t.send_control(a, b, [&] { delivered.push_back(1); });
  t.send_control(a, b, [&] { delivered.push_back(2); });
  t.send_control(b, a, [&] { delivered.push_back(3); });
  be->run_until_idle();
  ASSERT_EQ(delivered.size(), 3u);
  // Same (src, dst) pair: FIFO.
  EXPECT_LT(std::find(delivered.begin(), delivered.end(), 1),
            std::find(delivered.begin(), delivered.end(), 2));
  EXPECT_EQ(t.stats().control_msgs, 3u);
}

TEST_P(Conformance, RawOpRunsExactlyOneCompletionPath) {
  auto be = make_backend(GetParam());
  ASSERT_NE(be, nullptr);
  Transport& t = be->transport();
  const fabric::NodeId a = t.add_node();
  const fabric::NodeId b = t.add_node();
  std::vector<std::byte> src(4 * KiB, std::byte{0x7E});
  std::vector<std::byte> dst(4 * KiB);
  int moved = 0;
  int sent = 0;
  int recvd = 0;
  int failed = 0;
  fabric::RdmaOp op;
  op.src = a;
  op.dst = b;
  op.src_qp = 1;
  op.bytes = src.size();
  op.move_data = [&] {
    std::memcpy(dst.data(), src.data(), src.size());
    ++moved;
  };
  op.on_send_complete = [&](Time) { ++sent; };
  op.on_recv_complete = [&](Time) { ++recvd; };
  op.on_failed = [&](Time, fabric::OpFailure) { ++failed; };
  t.post_rdma_write(std::move(op));
  be->run_until_idle();
  EXPECT_EQ(moved, 1);
  EXPECT_EQ(sent, 1);
  EXPECT_EQ(recvd, 1);
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(dst, src);
  const fabric::FabricStats& s = t.stats();
  EXPECT_EQ(s.rdma_ops, 1u);
  EXPECT_EQ(s.payload_bytes, src.size());
  EXPECT_GE(s.wire_bytes, s.payload_bytes);
}

TEST_P(Conformance, InjectedQpErrorFailsSubsequentPostsUntilReset) {
  auto be = make_backend(GetParam());
  ASSERT_NE(be, nullptr);
  Transport& t = be->transport();
  const fabric::NodeId a = t.add_node();
  (void)t.add_node();
  constexpr std::uint64_t kQp = 42;

  EXPECT_FALSE(t.qp_chain_errored(kQp));
  t.inject_qp_error(kQp);
  EXPECT_TRUE(t.qp_chain_errored(kQp));

  int failed = 0;
  int sent = 0;
  fabric::OpFailure failure{};
  fabric::RdmaOp op;
  op.src = a;
  op.dst = 1;
  op.src_qp = kQp;
  op.bytes = 64;
  op.on_send_complete = [&](Time) { ++sent; };
  op.on_failed = [&](Time, fabric::OpFailure f) {
    ++failed;
    failure = f;
  };
  t.post_rdma_write(std::move(op));
  be->run_until_idle();
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(sent, 0);
  EXPECT_EQ(failure, fabric::OpFailure::kFlushed);
  EXPECT_EQ(t.stats().failed_ops, 1u);

  t.reset_qp_chain(kQp);
  EXPECT_FALSE(t.qp_chain_errored(kQp));
}

TEST_P(Conformance, VerbsLifecycleRoundtrip) {
  // The whole Device/Pd/Cq/Qp/Mr object model over this backend, in one
  // breath — the smoke test the per-layer parameterized suites expand on.
  test::BackendVerbsFx fx;
  auto [s, r] = fx.connected_pair();
  std::memset(fx.sbuf.data(), 0x3D, 2 * KiB);
  ASSERT_TRUE(ok(r->post_recv(verbs::RecvWr{7, {}})));
  ASSERT_TRUE(ok(s->post_send(fx.write_wr(2 * KiB, 99))));
  fx.drive();
  const auto rwcs = fx.drain(*fx.rcq);
  const auto swcs = fx.drain(*fx.scq);
  ASSERT_EQ(rwcs.size(), 1u);
  ASSERT_EQ(swcs.size(), 1u);
  EXPECT_EQ(rwcs[0].status, verbs::WcStatus::kSuccess);
  EXPECT_EQ(rwcs[0].imm, 99u);
  EXPECT_EQ(swcs[0].status, verbs::WcStatus::kSuccess);
  EXPECT_EQ(std::memcmp(fx.rbuf.data(), fx.sbuf.data(), 2 * KiB), 0);
}

PARTIB_INSTANTIATE_BACKENDS(Conformance);

}  // namespace
}  // namespace partib::backend
