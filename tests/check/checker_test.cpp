// The protocol checker: every rule must fire on its misuse pattern, clean
// runs must stay silent, and the PARTIB_CHECK=OFF build must compile the
// hook call sites away (verified behaviourally via hooks_compiled_in()).
//
// Rules are exercised two ways: end-to-end through the real verbs/part API
// where the library survives the misuse (it rejects with a Status and the
// checker records the attempt), and through direct hook calls where the
// misuse would otherwise abort the process (library-internal invariants).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "check/check.hpp"
#include "check/part_check.hpp"
#include "check/rules.hpp"
#include "check/verbs_check.hpp"
#include "common/units.hpp"
#include "fabric/fabric.hpp"
#include "part/imm.hpp"
#include "support/test_world.hpp"
#include "verbs/verbs.hpp"

namespace partib::test {
namespace {

namespace check = partib::check;

// -- rule registry -----------------------------------------------------------

TEST(RuleRegistry, BuiltinsPresent) {
  for (const char* id :
       {"assert", "qp.transition", "qp.post_state", "wr.lkey", "wr.rkey",
        "cq.overflow", "imm.roundtrip", "part.start_inflight",
        "part.pready_double", "des.nondeterminism"}) {
    const check::RuleInfo* info = check::find_rule(id);
    ASSERT_NE(info, nullptr) << id;
    EXPECT_STREQ(info->id, id);
    EXPECT_NE(info->summary, nullptr);
  }
  EXPECT_EQ(check::find_rule("no.such.rule"), nullptr);
  EXPECT_GE(check::all_rules().size(), 18u);
}

TEST(RuleRegistry, RegisterExtensionRule) {
  const std::size_t before = check::all_rules().size();
  // Registry is append-only per process; a unique id never collides.
  EXPECT_TRUE(check::register_rule(
      {"test.extension_rule", "installed by checker_test"}));
  EXPECT_FALSE(check::register_rule({"test.extension_rule", "duplicate"}));
  EXPECT_FALSE(check::register_rule({"qp.transition", "shadows a builtin"}));
  EXPECT_EQ(check::all_rules().size(), before + 1);
  ASSERT_NE(check::find_rule("test.extension_rule"), nullptr);

  check::ScopedPolicy quiet(check::Policy::kCount);
  check::clear_violations();
  check::report("test.extension_rule", "widget", 3, "custom subsystems work");
  EXPECT_EQ(check::count_rule("test.extension_rule"), 1u);
}

TEST(Violations, RecordCarriesStructuredFields) {
  check::reset();
  check::ScopedPolicy quiet(check::Policy::kCount);
  check::report("qp.post_state", "qp#42", 1, "post_send while QP is in INIT");
  ASSERT_EQ(check::violation_count(), 1u);
  const check::Violation& v = check::violations().front();
  EXPECT_EQ(v.rule, "qp.post_state");
  EXPECT_EQ(v.object, "qp#42");
  EXPECT_EQ(v.rank, 1);
  EXPECT_NE(v.detail.find("INIT"), std::string::npos);
  check::clear_violations();
  EXPECT_EQ(check::violation_count(), 0u);
}

// -- compile-away configuration ----------------------------------------------

// The acceptance contract for PARTIB_CHECK=OFF: the same misuse that trips
// the checker in the default build leaves no trace, because the hook call
// sites in src/verbs vanish (PARTIB_CHECK_HOOK expands to nothing).
TEST(CheckConfig, HooksMatchBuildConfiguration) {
  check::reset();
  check::ScopedPolicy quiet(check::Policy::kCount);

  sim::Engine engine;
  fabric::Fabric fab(engine, fabric::NicParams::connectx5_edr(), true);
  verbs::Device dev(fab);
  verbs::Context& ctx = dev.open(fab.add_node());
  verbs::Pd& pd = ctx.alloc_pd();
  verbs::Cq& cq = ctx.create_cq(64);
  verbs::Qp& qp = pd.create_qp(cq, cq);
  EXPECT_EQ(qp.to_rts(), Status::kInvalidState);  // RESET -> RTS, illegal

#if PARTIB_CHECK_ENABLED
  EXPECT_TRUE(check::hooks_compiled_in());
  EXPECT_EQ(check::count_rule("qp.transition"), 1u);
#else
  EXPECT_FALSE(check::hooks_compiled_in());
  EXPECT_EQ(check::violation_count(), 0u);
#endif
}

// -- verbs rules through the real library ------------------------------------

struct VerbsFx {
  sim::Engine engine;
  fabric::Fabric fab;
  verbs::Device dev;
  verbs::Context* sctx;
  verbs::Context* rctx;
  verbs::Pd* spd;
  verbs::Pd* rpd;
  verbs::Cq* scq;
  verbs::Cq* rcq;
  std::vector<std::byte> sbuf;
  std::vector<std::byte> rbuf;
  verbs::Mr* smr;
  verbs::Mr* rmr;

  explicit VerbsFx(int depth = 64)
      : fab(engine, fabric::NicParams::connectx5_edr(), /*copy=*/true),
        dev(fab),
        sbuf(4 * KiB),
        rbuf(4 * KiB) {
    check::reset();  // before object creation so shadows are registered
    sctx = &dev.open(fab.add_node());
    rctx = &dev.open(fab.add_node());
    spd = &sctx->alloc_pd();
    rpd = &rctx->alloc_pd();
    scq = &sctx->create_cq(depth);
    rcq = &rctx->create_cq(depth);
    smr = &spd->register_mr(sbuf, verbs::kLocalRead);
    rmr = &rpd->register_mr(rbuf, verbs::kLocalWrite | verbs::kRemoteWrite);
  }

  std::pair<verbs::Qp*, verbs::Qp*> connected_pair(verbs::QpCaps caps = {}) {
    verbs::Qp& s = spd->create_qp(*scq, *scq, caps);
    verbs::Qp& r = rpd->create_qp(*rcq, *rcq, caps);
    EXPECT_TRUE(ok(s.to_init()));
    EXPECT_TRUE(ok(r.to_init()));
    EXPECT_TRUE(ok(s.to_rtr(r.qp_num())));
    EXPECT_TRUE(ok(r.to_rtr(s.qp_num())));
    EXPECT_TRUE(ok(s.to_rts()));
    EXPECT_TRUE(ok(r.to_rts()));
    return {&s, &r};
  }

  verbs::SendWr write_wr(std::size_t bytes) {
    verbs::SendWr wr;
    wr.wr_id = 7;
    wr.opcode = verbs::Opcode::kRdmaWrite;
    wr.sg_list.push_back(verbs::Sge{wire_addr(sbuf.data()),
                                    static_cast<std::uint32_t>(bytes),
                                    smr->lkey()});
    wr.remote_addr = rmr->addr();
    wr.rkey = rmr->rkey();
    return wr;
  }
};

// The injected-bug demo from the issue: post to a QP still in INIT.  The
// library rejects with kInvalidState and the checker names the rule.
TEST(VerbsRules, PostToInitQpViolatesPostState) {
  if (!check::hooks_compiled_in()) GTEST_SKIP() << "PARTIB_CHECK=OFF build";
  VerbsFx fx;
  check::ScopedPolicy quiet(check::Policy::kCount);
  verbs::Qp& qp = fx.spd->create_qp(*fx.scq, *fx.scq);
  ASSERT_TRUE(ok(qp.to_init()));
  EXPECT_EQ(qp.post_send(fx.write_wr(64)), Status::kInvalidState);
  ASSERT_EQ(check::count_rule("qp.post_state"), 1u);
  const check::Violation& v = check::violations().back();
  EXPECT_EQ(v.rule, "qp.post_state");
  EXPECT_NE(v.detail.find("INIT"), std::string::npos);
}

TEST(VerbsRules, IllegalTransitionsViolateQpTransition) {
  if (!check::hooks_compiled_in()) GTEST_SKIP() << "PARTIB_CHECK=OFF build";
  VerbsFx fx;
  check::ScopedPolicy quiet(check::Policy::kCount);
  verbs::Qp& qp = fx.spd->create_qp(*fx.scq, *fx.scq);
  EXPECT_EQ(qp.to_rts(), Status::kInvalidState);  // RESET -> RTS
  EXPECT_EQ(qp.to_rtr(1), Status::kInvalidState);  // RESET -> RTR
  ASSERT_TRUE(ok(qp.to_init()));                   // legal, silent
  EXPECT_EQ(qp.to_init(), Status::kInvalidState);  // INIT -> INIT
  EXPECT_EQ(check::count_rule("qp.transition"), 3u);
}

TEST(VerbsRules, OutOfBoundsSgeViolatesWrLkey) {
  if (!check::hooks_compiled_in()) GTEST_SKIP() << "PARTIB_CHECK=OFF build";
  VerbsFx fx;
  check::ScopedPolicy quiet(check::Policy::kCount);
  auto [s, r] = fx.connected_pair();
  // SGE runs past the end of the registered region: no MR covers it.
  verbs::SendWr wr = fx.write_wr(fx.sbuf.size() + 1);
  EXPECT_EQ(s->post_send(wr), Status::kInvalidArgument);
  EXPECT_EQ(check::count_rule("wr.lkey"), 1u);
}

TEST(VerbsRules, UnknownRkeyViolatesWrRkey) {
  if (!check::hooks_compiled_in()) GTEST_SKIP() << "PARTIB_CHECK=OFF build";
  VerbsFx fx;
  check::ScopedPolicy quiet(check::Policy::kCount);
  auto [s, r] = fx.connected_pair();
  verbs::SendWr wr = fx.write_wr(64);
  wr.rkey = 0xDEAD;  // never registered
  ASSERT_TRUE(ok(s->post_send(wr)));  // library only validates on delivery
  EXPECT_EQ(check::count_rule("wr.rkey"), 1u);
}

TEST(VerbsRules, RdmaTargetPastRegionViolatesWrRkey) {
  if (!check::hooks_compiled_in()) GTEST_SKIP() << "PARTIB_CHECK=OFF build";
  VerbsFx fx;
  check::ScopedPolicy quiet(check::Policy::kCount);
  auto [s, r] = fx.connected_pair();
  verbs::SendWr wr = fx.write_wr(64);
  wr.remote_addr = fx.rmr->addr() + fx.rbuf.size() - 8;  // 64B won't fit
  ASSERT_TRUE(ok(s->post_send(wr)));
  EXPECT_EQ(check::count_rule("wr.rkey"), 1u);
}

TEST(VerbsRules, EmptyImmediateRangeViolatesImmRoundtrip) {
  // The verbs checker treats the immediate as opaque: a raw-verbs write
  // whose imm would decode to an empty partition range in the part
  // layer's encoding raises no diagnostic.  imm.roundtrip belongs to the
  // part layer, which checks every immediate it encodes (PartShadow).
  if (!check::hooks_compiled_in()) GTEST_SKIP() << "PARTIB_CHECK=OFF build";
  VerbsFx fx;
  check::ScopedPolicy quiet(check::Policy::kCount);
  auto [s, r] = fx.connected_pair();
  verbs::RecvWr rwr;
  ASSERT_TRUE(ok(r->post_recv(rwr)));
  verbs::SendWr wr = fx.write_wr(64);
  wr.opcode = verbs::Opcode::kRdmaWriteWithImm;
  wr.imm = part::encode_imm(3, 0);  // count == 0 in the part encoding
  ASSERT_TRUE(ok(s->post_send(wr)));
  EXPECT_EQ(check::violation_count(), 0u);
}

// -- verbs rules via direct hooks (library would abort first) ----------------

TEST(VerbsShadow, CqOverflowAccounting) {
  check::reset();
  check::ScopedPolicy quiet(check::Policy::kCount);
  int tag = 0;  // any stable address works as the shadow key
  check::on_cq_created(&tag, /*depth=*/2);
  check::on_cq_push(&tag);
  check::on_cq_push(&tag);
  EXPECT_EQ(check::count_rule("cq.overflow"), 0u);
  check::on_cq_push(&tag);  // 3 pending > depth 2
  EXPECT_EQ(check::count_rule("cq.overflow"), 1u);
  check::on_cq_poll(&tag, 3);
  check::on_cq_push(&tag);  // drained: accounting recovered
  EXPECT_EQ(check::count_rule("cq.overflow"), 1u);
}

TEST(VerbsShadow, SendCapacityOverrunCaught) {
  check::reset();
  check::ScopedPolicy quiet(check::Policy::kCount);
  int tag = 0;
  verbs::QpCaps caps;
  caps.max_send_wr = 1;
  check::on_qp_created(&tag, 9, caps);
  check::on_send_accepted(&tag);
  EXPECT_EQ(check::count_rule("qp.send_capacity"), 0u);
  check::on_send_accepted(&tag);  // 2 outstanding > max_send_wr 1
  EXPECT_EQ(check::count_rule("qp.send_capacity"), 1u);
}

TEST(VerbsShadow, RecvCapacityOverrunCaught) {
  check::reset();
  check::ScopedPolicy quiet(check::Policy::kCount);
  int tag = 0;
  verbs::QpCaps caps;
  caps.max_recv_wr = 2;
  check::on_qp_created(&tag, 9, caps);
  check::on_recv_accepted(&tag);
  check::on_recv_accepted(&tag);
  EXPECT_EQ(check::count_rule("qp.recv_capacity"), 0u);
  check::on_recv_accepted(&tag);
  EXPECT_EQ(check::count_rule("qp.recv_capacity"), 1u);
}

// -- partitioned rules through the real library ------------------------------

TEST(PartRules, DoublePreadyViolatesPreadyDouble) {
  if (!check::hooks_compiled_in()) GTEST_SKIP() << "PARTIB_CHECK=OFF build";
  check::reset();  // before the fixture so request shadows are registered
  ChannelFixture fx(16 * KiB, 4, ploggp_options());
  check::ScopedPolicy quiet(check::Policy::kCount);
  ASSERT_TRUE(ok(fx.send->start()));
  ASSERT_TRUE(ok(fx.recv->start()));
  ASSERT_TRUE(ok(fx.send->pready(1)));
  EXPECT_EQ(fx.send->pready(1), Status::kInvalidArgument);
  ASSERT_EQ(check::count_rule("part.pready_double"), 1u);
  EXPECT_EQ(check::violations().back().rule, "part.pready_double");
}

TEST(PartRules, PreadyBeforeStartViolates) {
  if (!check::hooks_compiled_in()) GTEST_SKIP() << "PARTIB_CHECK=OFF build";
  check::reset();
  ChannelFixture fx(16 * KiB, 4, ploggp_options());
  check::ScopedPolicy quiet(check::Policy::kCount);
  fx.engine.run();  // handshake only; no Start issued
  EXPECT_EQ(fx.send->pready(0), Status::kInvalidState);
  EXPECT_EQ(check::count_rule("part.pready_before_start"), 1u);
}

TEST(PartRules, PreadyOutOfRangeViolates) {
  if (!check::hooks_compiled_in()) GTEST_SKIP() << "PARTIB_CHECK=OFF build";
  check::reset();
  ChannelFixture fx(16 * KiB, 4, ploggp_options());
  check::ScopedPolicy quiet(check::Policy::kCount);
  ASSERT_TRUE(ok(fx.send->start()));
  EXPECT_EQ(fx.send->pready(4), Status::kInvalidArgument);
  EXPECT_EQ(check::count_rule("part.pready_range"), 1u);
}

TEST(PartRules, StartWhileRoundInFlightViolates) {
  if (!check::hooks_compiled_in()) GTEST_SKIP() << "PARTIB_CHECK=OFF build";
  check::reset();
  ChannelFixture fx(16 * KiB, 4, ploggp_options());
  check::ScopedPolicy quiet(check::Policy::kCount);
  ASSERT_TRUE(ok(fx.send->start()));
  ASSERT_TRUE(ok(fx.recv->start()));
  ASSERT_TRUE(ok(fx.send->pready(0)));
  EXPECT_EQ(fx.send->start(), Status::kInvalidState);
  EXPECT_EQ(fx.recv->start(), Status::kInvalidState);
  EXPECT_EQ(check::count_rule("part.start_inflight"), 2u);
}

// A correct round must leave the checker silent — the no-false-positives
// contract that lets PARTIB_CHECK default to ON.
TEST(PartRules, CleanRoundsProduceNoViolations) {
  if (!check::hooks_compiled_in()) GTEST_SKIP() << "PARTIB_CHECK=OFF build";
  check::reset();
  ChannelFixture fx(64 * KiB, 16, ploggp_options());
  for (int round = 0; round < 3; ++round) fx.run_round(round);
  EXPECT_TRUE(fx.send->test());
  EXPECT_TRUE(fx.recv->test());
  EXPECT_EQ(check::violation_count(), 0u)
      << check::violations().front().rule << ": "
      << check::violations().front().detail;
}

// -- partitioned rules via direct hooks --------------------------------------

TEST(PartShadow, IncompleteCompletionCaught) {
  check::reset();
  check::ScopedPolicy quiet(check::Policy::kCount);
  int tag = 0;
  check::on_psend_init(&tag, 0, 4);
  check::on_psend_start(&tag);
  check::on_pready(&tag, 0);
  check::on_psend_round_complete(&tag);  // only 1/4 ready
  EXPECT_EQ(check::count_rule("part.incomplete_completion"), 1u);
}

TEST(PartShadow, ImmEncodeMismatchCaught) {
  check::reset();
  check::ScopedPolicy quiet(check::Policy::kCount);
  int tag = 0;
  check::on_psend_init(&tag, 0, 4);
  // Wrong immediate for the intended range: round-trip mismatch.
  check::on_imm_encoded(&tag, 1, 2, part::encode_imm(1, 3));
  EXPECT_EQ(check::count_rule("imm.roundtrip"), 1u);
  // Range exceeding the channel's partition count.
  check::on_imm_encoded(&tag, 2, 3, part::encode_imm(2, 3));
  EXPECT_EQ(check::count_rule("imm.roundtrip"), 2u);
  // Correct encoding stays silent.
  check::on_imm_encoded(&tag, 1, 2, part::encode_imm(1, 2));
  EXPECT_EQ(check::count_rule("imm.roundtrip"), 2u);
}

TEST(PartShadow, DuplicateArrivalBytesCaught) {
  check::reset();
  check::ScopedPolicy quiet(check::Policy::kCount);
  int tag = 0;
  check::on_precv_init(&tag, 1, /*partitions=*/2, /*partition_bytes=*/256);
  check::on_precv_start(&tag);
  check::on_precv_bytes(&tag, 0, 256);
  EXPECT_EQ(check::count_rule("part.duplicate_arrival"), 0u);
  check::on_precv_bytes(&tag, 0, 256);  // same partition lands twice
  EXPECT_EQ(check::count_rule("part.duplicate_arrival"), 1u);
  check::on_precv_bytes(&tag, 5, 1);  // partition index out of range
  EXPECT_EQ(check::count_rule("part.duplicate_arrival"), 2u);
}

// -- policies and the diagnostic path ----------------------------------------

using CheckerDeathTest = ::testing::Test;

TEST(CheckerDeathTest, AbortPolicyDiesWithRuleId) {
  EXPECT_DEATH(
      {
        check::set_policy(check::Policy::kAbort);
        check::report("qp.post_state", "qp#1", 0, "injected for death test");
      },
      "rule=qp\\.post_state");
}

// PARTIB_ASSERT failures flow through the same structured diagnostic
// channel as checker rules (rule id "assert").
TEST(CheckerDeathTest, AssertFailureCarriesRuleId) {
  EXPECT_DEATH(PARTIB_ASSERT_MSG(false, "boom for diag test"),
               "rule=assert.*boom for diag test");
}

// End to end: overflowing a real CQ emits the cq.overflow diagnostic before
// the library's fatal assert kills the process.
TEST(CheckerDeathTest, RealCqOverflowNamesRule) {
  if (!check::hooks_compiled_in()) GTEST_SKIP() << "PARTIB_CHECK=OFF build";
  VerbsFx fx(/*depth=*/1);
  auto [s, r] = fx.connected_pair();
  EXPECT_DEATH(
      {
        // Two RDMA writes produce two send CQEs on a depth-1 CQ.
        ASSERT_TRUE(ok(s->post_send(fx.write_wr(64))));
        ASSERT_TRUE(ok(s->post_send(fx.write_wr(64))));
        fx.engine.run();
      },
      "rule=cq\\.overflow");
}

}  // namespace
}  // namespace partib::test
