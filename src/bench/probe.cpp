#include "bench/probe.hpp"

#include <algorithm>
#include <vector>

#include "bench/timeline_buffer.hpp"
#include "common/assert.hpp"
#include "common/bits.hpp"
#include "common/units.hpp"
#include "fabric/fabric.hpp"
#include "sim/engine.hpp"
#include "verbs/verbs.hpp"

namespace partib::bench {

namespace {

/// Minimal two-node verbs harness for raw timing probes.
struct ProbePair {
  sim::Engine engine;
  fabric::Fabric fab;
  verbs::Device dev;
  /// Both endpoints register over one reservation: the fabric is built
  /// with copy_data=false, so only the timeline matters.
  TimelineBuffer payload;
  verbs::Context* sctx;
  verbs::Context* rctx;
  verbs::Pd* spd;
  verbs::Pd* rpd;
  verbs::Cq* scq;
  verbs::Cq* rcq;
  verbs::Qp* sqp;
  verbs::Qp* rqp;
  verbs::Mr* smr;
  verbs::Mr* rmr;

  explicit ProbePair(const fabric::NicParams& params, std::size_t buf_bytes)
      : fab(engine, params, /*copy_data=*/false), dev(fab),
        payload(buf_bytes) {
    const auto n0 = fab.add_node();
    const auto n1 = fab.add_node();
    sctx = &dev.open(n0);
    rctx = &dev.open(n1);
    spd = &sctx->alloc_pd();
    rpd = &rctx->alloc_pd();
    scq = &sctx->create_cq(1 << 16);
    rcq = &rctx->create_cq(1 << 16);
    smr = &spd->register_mr(payload.span(), verbs::kLocalRead);
    rmr = &rpd->register_mr(payload.span(),
                            verbs::kLocalWrite | verbs::kRemoteWrite);
    verbs::QpCaps caps;
    caps.max_send_wr = params.max_outstanding_wr_per_qp;
    caps.max_recv_wr = 4096;
    sqp = &spd->create_qp(*scq, *scq, caps);
    rqp = &rpd->create_qp(*rcq, *rcq, caps);
    PARTIB_ASSERT(ok(sqp->to_init()) && ok(rqp->to_init()));
    PARTIB_ASSERT(ok(sqp->to_rtr(rqp->qp_num())));
    PARTIB_ASSERT(ok(rqp->to_rtr(sqp->qp_num())));
    PARTIB_ASSERT(ok(sqp->to_rts()) && ok(rqp->to_rts()));
  }

  /// Post one RDMA-write-with-immediate of `bytes`; returns the receive
  /// completion time minus the post time.
  Duration time_single(std::size_t bytes) {
    PARTIB_ASSERT(ok(rqp->post_recv(verbs::RecvWr{1, {}})));
    const Time t0 = engine.now();
    verbs::SendWr wr;
    wr.opcode = verbs::Opcode::kRdmaWriteWithImm;
    wr.sg_list.push_back(verbs::Sge{
        wire_addr(payload.span().data()),
        static_cast<std::uint32_t>(bytes), smr->lkey()});
    wr.remote_addr = rmr->addr();
    wr.rkey = rmr->rkey();
    PARTIB_ASSERT(ok(sqp->post_send(wr)));
    engine.run();
    verbs::Wc wc[4];
    Time recv_at = -1;
    int n;
    while ((n = rcq->poll(std::span<verbs::Wc>(wc))) > 0) {
      recv_at = wc[n - 1].completion_time;
    }
    while (scq->poll(std::span<verbs::Wc>(wc)) > 0) {
    }
    PARTIB_ASSERT(recv_at >= t0);
    return recv_at - t0;
  }

  /// Post `count` back-to-back messages; returns the median spacing of
  /// consecutive receive completions.
  Duration train_gap(std::size_t bytes, int count) {
    for (int i = 0; i < count; ++i) {
      PARTIB_ASSERT(ok(rqp->post_recv(verbs::RecvWr{1, {}})));
    }
    verbs::SendWr wr;
    wr.opcode = verbs::Opcode::kRdmaWriteWithImm;
    wr.sg_list.push_back(verbs::Sge{
        wire_addr(payload.span().data()),
        static_cast<std::uint32_t>(bytes), smr->lkey()});
    wr.remote_addr = rmr->addr();
    wr.rkey = rmr->rkey();
    for (int i = 0; i < count; ++i) PARTIB_ASSERT(ok(sqp->post_send(wr)));
    engine.run();
    std::vector<Time> arrivals;
    verbs::Wc wc[16];
    int n;
    while ((n = rcq->poll(std::span<verbs::Wc>(wc))) > 0) {
      for (int i = 0; i < n; ++i) arrivals.push_back(wc[i].completion_time);
    }
    while (scq->poll(std::span<verbs::Wc>(wc)) > 0) {
    }
    PARTIB_ASSERT(arrivals.size() == static_cast<std::size_t>(count));
    std::vector<Duration> gaps;
    for (std::size_t i = 1; i < arrivals.size(); ++i) {
      gaps.push_back(arrivals[i] - arrivals[i - 1]);
    }
    std::sort(gaps.begin(), gaps.end());
    return gaps[gaps.size() / 2];
  }
};

}  // namespace

model::LogGPParams ProbeResult::as_loggp() const {
  model::LogGPParams p;
  p.G = G;
  p.g = gap;
  // One-endpoint measurements cannot split o_s / L / o_r; attribute the
  // non-gap remainder to L, which dominates on a real fabric.
  p.o_s = 0;
  p.o_r = 0;
  p.L = std::max<Duration>(intercept - gap, 0);
  return p;
}

ProbeResult run_parameter_probe(const fabric::NicParams& params) {
  ProbePair pair(params, 8 * MiB);

  // Warm the QP (first-use activation would bias the fit).
  (void)pair.time_single(1);

  const std::size_t small = 4 * KiB;
  const std::size_t large = 4 * MiB;
  const Duration t_small = pair.time_single(small);
  const Duration t_large = pair.time_single(large);

  ProbeResult res;
  const double wire_small =
      static_cast<double>(pair.fab.wire_bytes_for(small));
  const double wire_large =
      static_cast<double>(pair.fab.wire_bytes_for(large));
  res.G = static_cast<double>(t_large - t_small) / (wire_large - wire_small);
  res.intercept = t_small - static_cast<Duration>(res.G * wire_small);
  // Gap probe: messages small enough that g dominates the per-message
  // cycle (g > k*G), so consecutive arrivals are spaced by exactly g.
  res.gap = pair.train_gap(256, 16);
  return res;
}

}  // namespace partib::bench
