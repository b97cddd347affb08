#include "part/precv.hpp"

#include <algorithm>

#include "check/hooks.hpp"
#include "common/assert.hpp"
#include "common/thread_annotations.hpp"
#include "common/bits.hpp"
#include "part/imm.hpp"
#include "part/psend.hpp"

namespace partib::part {

Status PrecvRequest::init(mpi::Rank& rank, std::span<std::byte> buffer,
                          std::size_t partitions, int src, int tag,
                          int comm_id, const Options& opts,
                          std::unique_ptr<PrecvRequest>* out) {
  PARTIB_ASSERT(out != nullptr);
  if (partitions == 0 || !is_pow2(partitions) || buffer.empty() ||
      buffer.size() % partitions != 0) {
    return Status::kInvalidArgument;
  }
  if (src < 0 || src >= rank.world().size() || tag < 0) {
    return Status::kInvalidArgument;  // wildcards are not part of the API
  }
  if (src == rank.id()) return Status::kUnsupported;

  auto req = std::unique_ptr<PrecvRequest>(
      new PrecvRequest(rank, buffer, partitions, src, tag, comm_id, opts));
  PrecvRequest* raw = req.get();
  PARTIB_CHECK_HOOK(on_precv_init(raw, rank.id(), partitions,
                                  buffer.size() / partitions));
  rank.matcher().post_recv_init(
      mpi::MatchKey{src, tag, comm_id},
      [raw](const mpi::SendInit& si) { raw->on_match(si); });
  *out = std::move(req);
  return Status::kOk;
}

PrecvRequest::PrecvRequest(mpi::Rank& rank, std::span<std::byte> buffer,
                           std::size_t partitions, int src, int tag,
                           int comm_id, const Options& opts)
    : rank_(rank),
      buf_(buffer),
      n_(partitions),
      psize_(buffer.size() / partitions),
      src_(src),
      tag_(tag),
      comm_id_(comm_id),
      opts_(opts) {
  bytes_arrived_.assign(n_, 0);
  completions_.reserve(kCallbackReserve);
  completions_scratch_.reserve(kCallbackReserve);
}

PrecvRequest::~PrecvRequest() {
  if (cq_ != nullptr) cq_->set_on_push(nullptr);
  if (expect_registered_) {
    // Matched but never accepted (the sender posted nothing): withdraw
    // the token so the manager map does not leak a dangling this.
    rank_.connections().forget(reinterpret_cast<std::uint64_t>(this));
  }
  if (conn_id_ != mpi::ConnectionManager::kNilConn) {
    rank_.connections().release(conn_id_);
  }
  if (reserved_wrs_ != 0) rank_.connections().release_recv_wrs(reserved_wrs_);
}

void PrecvRequest::tag_shard(int shard) {
  if (cq_ != nullptr) cq_->set_shard(shard);
  for (verbs::Qp* qp : qps_) qp->set_shard(shard);
}

void PrecvRequest::on_match(const mpi::SendInit& si) {
  PARTIB_ASSERT(!matched_);
  // MPI-4.0 semantics: the two sides may partition differently; only the
  // aggregate buffer sizes must agree (geometry mismatch is erroneous).
  PARTIB_ASSERT_MSG(si.total_bytes == buf_.size(),
                    "sender/receiver partitioned-channel geometry mismatch");
  PARTIB_ASSERT_MSG(si.shared == opts_.shared_resources,
                    "sender/receiver disagree on shared_resources mode");
  mpi::World& world = rank_.world();
  sender_request_ = si.sender_request;
  sender_tp_ = si.transport_partitions;
  sender_group_size_ = si.user_partitions / sender_tp_;
  sender_parts_ = si.user_partitions;
  sender_psize_ = si.total_bytes / si.user_partitions;

  mr_ = &rank_.pd().register_mr(
      buf_, verbs::kLocalWrite | verbs::kRemoteWrite);

  RecvAck ack;
  ack.rkey = mr_->rkey();
  ack.base_addr = mr_->addr();
  ack.receiver_request = this;
  if (opts_.shared_resources) {
    // Shared mode: receive staging comes from the rank's SRQ and the QP
    // exchange rides the connection manager.  Reserve worst-case headroom
    // (every sender partition in its own message) and register this
    // channel's accept token — the ack pointer the sender will connect
    // with — before the ack ships, so the token is always expected by the
    // time the connect request can arrive.
    mpi::ConnectionManager& mgr = rank_.connections();
    reserved_wrs_ = si.user_partitions;
    mgr.reserve_recv_wrs(reserved_wrs_);
    mgr.expect(reinterpret_cast<std::uint64_t>(this),
               [this](mpi::ConnectionManager::Connection& conn) {
                 on_accept(conn);
               });
    expect_registered_ = true;
  } else {
    // Dedicated mode: a private CQ plus a per-channel SRQ feeding every
    // QP of the chain — receive staging is provisioned once per channel
    // instead of once per QP.
    cq_ = &rank_.context().create_cq(world.options().cq_depth);
    cq_->set_on_push([this] { schedule_progress(); });
    verbs::SrqAttrs srq_attrs;
    srq_attrs.max_wr = static_cast<int>(std::max<std::size_t>(n_, 64));
    srq_ = &rank_.pd().create_srq(srq_attrs);
    for (int i = 0; i < si.qp_count; ++i) {
      verbs::Qp& qp = rank_.pd().create_qp(*cq_, *cq_, verbs::QpCaps{}, srq_);
      PARTIB_ASSERT(ok(qp.to_init()));
      PARTIB_ASSERT(ok(qp.to_rtr(si.qp_nums[static_cast<std::size_t>(i)])));
      PARTIB_ASSERT(ok(qp.to_rts()));
      qps_.push_back(&qp);
      ack.qp_nums.push_back(qp.qp_num());
    }
  }
  matched_ = true;

  auto* sender = static_cast<PsendRequest*>(sender_request_);
  world.send_control(rank_.id(), src_, [sender, ack] { sender->on_ack(ack); });

  if (started_) {
    // Start() ran before the handshake arrived; complete its deferred
    // side effects now.
    post_recv_wrs();
    send_credit();
  }
}

void PrecvRequest::on_accept(mpi::ConnectionManager::Connection& conn) {
  PARTIB_ASSERT(conn_id_ == mpi::ConnectionManager::kNilConn);
  expect_registered_ = false;  // the manager consumed the token
  conn_id_ = conn.id;
  qps_ = conn.qps;
  conn.on_wc = [this](const verbs::Wc& wc) {
    consume_recv_wc(wc);
    check_completion();
  };
}

Status PrecvRequest::start() {
  if (failed_) return Status::kRemoteError;
  PARTIB_CHECK_HOOK(on_precv_start(this));
  if (started_ && !test()) return Status::kInvalidState;
  started_ = true;
  ++round_;
  arrived_count_ = 0;
  std::fill(bytes_arrived_.begin(), bytes_arrived_.end(), std::size_t{0});
  if (matched_) {
    post_recv_wrs();
    send_credit();
  }
  return Status::kOk;
}

void PrecvRequest::post_recv_wrs() {
  // Shared mode: the rank's connection manager keeps the node SRQ topped
  // up to the reservation sum; nothing to post per round.
  if (srq_ == nullptr) return;
  // Dedicated mode: top the channel SRQ up to the worst case for one
  // round — a timer-based sender with fully scattered arrivals sends
  // every user partition in its own message.  The worst case is the
  // sender's *user* partition count, which stays valid even when a
  // learning sender re-plans to non-uniform groups mid-stream (no
  // renegotiation needed).  Unconsumed WRs from aggregated rounds carry
  // over; we only post the difference.
  const int needed = static_cast<int>(sender_parts_);
  while (posted_recvs_ < needed) {
    verbs::RecvWr wr;
    wr.wr_id = static_cast<std::uint64_t>(posted_recvs_);
    PARTIB_ASSERT(ok(srq_->post_recv(wr)));
    ++posted_recvs_;
  }
}

void PrecvRequest::send_credit() {
  auto* sender = static_cast<PsendRequest*>(sender_request_);
  rank_.world().send_control(rank_.id(), src_,
                             [sender] { sender->on_credit(); });
}

void PrecvRequest::schedule_progress() {
  if (progress_scheduled_.exchange(true, std::memory_order_acq_rel)) return;
  rank_.world().engine().schedule_after(
      0,
      [this] {
        progress_scheduled_.store(false, std::memory_order_release);
        progress();
      },
      "precv.progress");
}

void PrecvRequest::consume_recv_wc(const verbs::Wc& wc) {
  PARTIB_ASSERT_MSG(wc.status == verbs::WcStatus::kSuccess,
                    to_string(wc.status));
  PARTIB_ASSERT(wc.opcode == verbs::WcOpcode::kRecvRdmaWithImm);
  PARTIB_ASSERT(wc.has_imm);
  if (srq_ != nullptr) --posted_recvs_;
  ++msgs_received_;
  // The immediate names a run of *sender* partitions; translate the
  // byte range it covers into receive partitions.
  const ImmRange range = decode_imm(wc.imm);
  PARTIB_ASSERT(range.count >= 1);
  const std::size_t byte_lo = range.first * sender_psize_;
  const std::size_t byte_hi =
      byte_lo + std::size_t{range.count} * sender_psize_;
  PARTIB_ASSERT(byte_hi <= buf_.size());
  std::size_t pos = byte_lo;
  while (pos < byte_hi) {
    const std::size_t p = pos / psize_;
    const std::size_t chunk = std::min(byte_hi, (p + 1) * psize_) - pos;
    PARTIB_CHECK_HOOK(on_precv_bytes(this, p, chunk));
    PARTIB_ASSERT_MSG(bytes_arrived_[p] + chunk <= psize_,
                      "duplicate partition arrival");
    bytes_arrived_[p] += chunk;
    if (bytes_arrived_[p] == psize_) {
      ++arrived_count_;
      if (arrival_hook_) arrival_hook_(p, wc.completion_time);
    }
    pos += chunk;
  }
}

void PrecvRequest::progress() {
  verbs::Wc wcs[16];
  int n;
  while ((n = cq_->poll(std::span<verbs::Wc>(wcs))) > 0) {
    for (int i = 0; i < n; ++i) consume_recv_wc(wcs[i]);
  }
  check_completion();
}

PARTIB_HOT bool PrecvRequest::parrived(std::size_t partition) const {
  PARTIB_CHECK_HOOK(on_owned_access(this, "precv"));
  PARTIB_ASSERT(partition < n_);
  return started_ && bytes_arrived_[partition] == psize_;
}

void PrecvRequest::on_peer_failed() {
  if (failed_) return;
  failed_ = true;
  // Unblock anyone waiting: the round will never complete normally, so
  // completion fires now and status() carries the error.
  check_completion();
}

bool PrecvRequest::test() const {
  if (failed_) return true;
  if (!started_) return true;
  return arrived_count_ == n_;
}

void PrecvRequest::when_complete(Completion cb) {
  if (test()) {
    rank_.world().engine().schedule_after(0, std::move(cb),
                                          "precv.when_complete");
    return;
  }
  completions_.push_back(std::move(cb));
}

void PrecvRequest::check_completion() {
  if (!test() || completions_.empty()) return;
  completions_scratch_.swap(completions_);
  [[maybe_unused]] const std::size_t fired = completions_scratch_.size();
  for (auto& cb : completions_scratch_) cb();
  completions_scratch_.clear();
#if PARTIB_CHECK_ENABLED
  if (fired <= kCallbackReserve) {
    PARTIB_ASSERT(completions_scratch_.capacity() == kCallbackReserve);
  }
#endif
}

}  // namespace partib::part
