#include "verbs/verbs.hpp"

#include "backend/shm/dma_engine.hpp"
#include "check/hooks.hpp"
#include "common/assert.hpp"
#include "common/thread_annotations.hpp"

namespace partib::verbs {

// ---------------------------------------------------------------------------
// Device / Context
// ---------------------------------------------------------------------------

Context& Device::open(fabric::NodeId node) {
  PARTIB_ASSERT(node >= 0 && node < fabric_.node_count());
  contexts_.push_back(std::make_unique<Context>(*this, node));
  return *contexts_.back();
}

Pd& Context::alloc_pd() {
  pds_.push_back(std::make_unique<Pd>(*this));
  return *pds_.back();
}

Cq& Context::create_cq(int depth) {
  PARTIB_ASSERT(depth > 0);
  cqs_.push_back(std::make_unique<Cq>(depth));
  PARTIB_CHECK_HOOK(on_cq_created(cqs_.back().get(), depth));
  return *cqs_.back();
}

ResourceFootprint Context::footprint() const {
  ResourceFootprint fp;
  for (const auto& cq : cqs_) {
    ++fp.cqs;
    fp.provisioned_bytes += cq->provisioned_bytes();
    fp.resident_bytes += cq->resident_bytes();
  }
  for (const auto& pd : pds_) {
    for (const auto& qp : pd->qps_) {
      ++fp.qps;
      fp.provisioned_bytes += qp->provisioned_bytes();
      fp.resident_bytes += qp->resident_bytes();
    }
    for (const auto& srq : pd->srqs_) {
      ++fp.srqs;
      fp.provisioned_bytes += srq->provisioned_bytes();
      fp.resident_bytes += srq->resident_bytes();
    }
  }
  return fp;
}

// ---------------------------------------------------------------------------
// Mr / Cq / Pd
// ---------------------------------------------------------------------------

bool Mr::contains(std::uint64_t addr, std::size_t len) const {
  const std::uint64_t base = this->addr();
  return addr >= base && addr + len <= base + length();
}

PARTIB_HOT int Cq::poll(std::span<Wc> out) {
  PARTIB_CHECK_HOOK(on_owned_access(this, "cq"));
  PARTIB_CHECK_HOOK(on_shard_access(this, shard_, "cq"));
  int n = 0;
  while (n < static_cast<int>(out.size()) && !entries_.empty()) {
    out[static_cast<std::size_t>(n)] = entries_.front();
    entries_.pop_front();
    ++n;
  }
  PARTIB_CHECK_HOOK(on_cq_poll(this, n));
  return n;
}

PARTIB_HOT std::span<const Wc> Cq::peek_run() {
  PARTIB_CHECK_HOOK(on_owned_access(this, "cq"));
  PARTIB_CHECK_HOOK(on_shard_access(this, shard_, "cq"));
  return entries_.front_run();
}

PARTIB_HOT void Cq::discard(int n) {
  entries_.pop_front_n(static_cast<std::size_t>(n));
  PARTIB_CHECK_HOOK(on_cq_poll(this, n));
}

void Cq::push(const Wc& wc) {
  PARTIB_CHECK_HOOK(on_cq_push(this));
  if (entries_.size() >= static_cast<std::size_t>(depth_)) {
    // CQ overrun is fatal on real hardware too; surfacing it loudly keeps
    // sizing bugs out of the upper layers.
    overrun_ = true;
    PARTIB_ASSERT_MSG(false, "completion queue overrun");
  }
  entries_.push_back(wc);
  if (on_push_) on_push_();
}

Mr& Pd::register_mr(std::span<std::byte> range, unsigned access) {
  Device& dev = context_.device();
  const Lkey lkey = dev.next_key_++;
  const Rkey rkey = dev.next_key_++;
  mrs_.push_back(std::make_unique<Mr>(range, access, lkey, rkey));
  Mr& mr = *mrs_.back();
  PARTIB_ASSERT(rkey / 2 - 1 == dev.mr_by_rkey_.size());
  dev.mr_by_rkey_.push_back(Device::MrSlot{&context_, &mr});
  PARTIB_CHECK_HOOK(on_mr_registered(this, mr.addr(), mr.length(), lkey,
                                     rkey, access));
  return mr;
}

Qp& Pd::create_qp(Cq& send_cq, Cq& recv_cq, QpCaps caps, Srq* srq,
                  void* context) {
  Device& dev = context_.device();
  const std::uint32_t num =
      Device::kFirstQpNum + static_cast<std::uint32_t>(dev.qp_by_num_.size());
  qps_.push_back(
      std::make_unique<Qp>(*this, send_cq, recv_cq, caps, num, srq));
  Qp& qp = *qps_.back();
  dev.qp_by_num_.push_back(&qp);
  dev.qp_context_.push_back(context);
  PARTIB_CHECK_HOOK(on_qp_created(&qp, num, caps));
  return qp;
}

Srq& Pd::create_srq(SrqAttrs attrs) {
  srqs_.push_back(std::make_unique<Srq>(*this, attrs));
  PARTIB_CHECK_HOOK(on_srq_created(srqs_.back().get(), attrs));
  return *srqs_.back();
}

// ---------------------------------------------------------------------------
// Srq
// ---------------------------------------------------------------------------

Srq::Srq(Pd& pd, SrqAttrs attrs) : pd_(pd), attrs_(attrs) {
  PARTIB_ASSERT(attrs.max_wr > 0);
  PARTIB_ASSERT(attrs.srq_limit >= 0 && attrs.srq_limit < attrs.max_wr);
  limit_armed_ = attrs.srq_limit > 0;
}

Status Srq::post_recv(const RecvWr& wr) {
  PARTIB_CHECK_HOOK(on_srq_post(this, &pd_, wr));
  if (queue_.size() >= static_cast<std::size_t>(attrs_.max_wr)) {
    return Status::kResourceExhausted;
  }
  std::size_t total = 0;
  for (const Sge& sge : wr.sg_list) {
    const Mr* mr = pd_.find_local_mr(sge.lkey, sge.addr, sge.length);
    if (mr == nullptr ||
        (mr->access() & Access::kLocalWrite) != Access::kLocalWrite) {
      return Status::kInvalidArgument;
    }
    total += sge.length;
  }
  queue_.push_back(PostedRecv{wr, total});
  PARTIB_CHECK_HOOK(on_srq_accepted(this));
  return Status::kOk;
}

Status Srq::arm_limit(int limit) {
  PARTIB_CHECK_HOOK(on_srq_armed(this, limit));
  if (limit < 0 || limit >= attrs_.max_wr) return Status::kInvalidArgument;
  attrs_.srq_limit = limit;
  limit_armed_ = limit > 0;
  return Status::kOk;
}

Status Srq::resize(int max_wr) {
  if (max_wr < static_cast<int>(queue_.size()) || max_wr <= attrs_.srq_limit) {
    return Status::kInvalidArgument;
  }
  attrs_.max_wr = max_wr;
  PARTIB_CHECK_HOOK(on_srq_resized(this, max_wr));
  return Status::kOk;
}

bool Srq::consume(PostedRecv* out) {
  if (queue_.empty()) return false;
  *out = queue_.front();
  queue_.pop_front();
  PARTIB_CHECK_HOOK(on_srq_consumed(this));
  if (limit_armed_ &&
      queue_.size() < static_cast<std::size_t>(attrs_.srq_limit)) {
    // One-shot, as IBV_EVENT_SRQ_LIMIT_REACHED: disarm before notifying so
    // a refill posted from the handler can re-arm cleanly.
    limit_armed_ = false;
    if (on_limit_) on_limit_();
  }
  return true;
}

const Mr* Pd::find_local_mr(Lkey lkey, std::uint64_t addr,
                            std::size_t len) const {
  for (const auto& mr : mrs_) {
    if (mr->lkey() == lkey && mr->contains(addr, len)) return mr.get();
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Qp
// ---------------------------------------------------------------------------

Qp::Qp(Pd& pd, Cq& send_cq, Cq& recv_cq, QpCaps caps, std::uint32_t qp_num,
       Srq* srq)
    : pd_(pd),
      send_cq_(send_cq),
      recv_cq_(recv_cq),
      caps_(caps),
      qp_num_(qp_num),
      srq_(srq) {
  PARTIB_ASSERT(srq == nullptr || &srq->pd() == &pd);
  PARTIB_ASSERT(caps.max_send_wr > 0 && caps.max_recv_wr > 0);
  // One WQE slot per possible outstanding WR, chained into a free list;
  // outstanding_ < max_send_wr guarantees acquire_wqe() always succeeds.
  wqes_.resize(static_cast<std::size_t>(caps.max_send_wr));
  for (std::size_t i = 0; i < wqes_.size(); ++i) {
    wqes_[i].next_free = i + 1 < wqes_.size()
                             ? static_cast<std::uint32_t>(i + 1)
                             : kNilWqe;
  }
  free_wqe_ = 0;
}

Status Qp::to_init() {
  if (state_ != QpState::kReset) {
    PARTIB_CHECK_HOOK(on_qp_transition(this, QpState::kInit, false));
    return Status::kInvalidState;
  }
  state_ = QpState::kInit;
  PARTIB_CHECK_HOOK(on_qp_transition(this, QpState::kInit, true));
  return Status::kOk;
}

Status Qp::to_rtr(std::uint32_t remote_qp_num) {
  if (state_ != QpState::kInit) {
    PARTIB_CHECK_HOOK(on_qp_transition(this, QpState::kRtr, false));
    return Status::kInvalidState;
  }
  Qp* remote = pd_.context().device().find_qp(remote_qp_num);
  if (remote == nullptr) return Status::kNotFound;
  remote_qp_num_ = remote_qp_num;
  remote_ = remote;
  state_ = QpState::kRtr;
  PARTIB_CHECK_HOOK(on_qp_transition(this, QpState::kRtr, true));
  return Status::kOk;
}

Status Qp::to_rts() {
  if (state_ != QpState::kRtr) {
    PARTIB_CHECK_HOOK(on_qp_transition(this, QpState::kRts, false));
    return Status::kInvalidState;
  }
  state_ = QpState::kRts;
  PARTIB_CHECK_HOOK(on_qp_transition(this, QpState::kRts, true));
  return Status::kOk;
}

Status Qp::to_reset() {
  // ibv_modify_qp accepts RESET from anywhere, but a reset with WRs still
  // in flight would orphan their flush CQEs; require the drain first.
  if (outstanding_ != 0) {
    PARTIB_CHECK_HOOK(on_qp_reset_outstanding(this, outstanding_));
    PARTIB_CHECK_HOOK(on_qp_transition(this, QpState::kReset, false));
    return Status::kInvalidState;
  }
  state_ = QpState::kReset;
  // Posted receives die with the context (real hardware flushes them; the
  // consumer re-posts after the recycle) — but WRs on an attached SRQ
  // belong to every sibling QP and survive, as on real hardware.
  // remote_qp_num_ survives so the recovery path can
  // to_rtr(remote_qp_num()) without a new handshake.
  if (srq_ == nullptr) recv_queue_.clear();
  pd_.context().device().fab().reset_qp_chain(qp_num_);
  PARTIB_CHECK_HOOK(on_qp_transition(this, QpState::kReset, true));
  return Status::kOk;
}

Status Qp::validate_sges(const SgList& sges, unsigned required_access,
                         std::size_t* total) const {
  std::size_t sum = 0;
  for (const Sge& sge : sges) {
    const Mr* mr = pd_.find_local_mr(sge.lkey, sge.addr, sge.length);
    if (mr == nullptr) return Status::kInvalidArgument;
    if (required_access != 0 &&
        (mr->access() & required_access) != required_access) {
      return Status::kInvalidArgument;
    }
    sum += sge.length;
  }
  *total = sum;
  return Status::kOk;
}

Status Qp::post_recv(const RecvWr& wr) {
  // SRQ-attached QPs have no receive queue of their own; ibv_post_recv
  // fails with EINVAL there and so do we (post to the SRQ instead).
  if (srq_ != nullptr) return Status::kInvalidArgument;
  PARTIB_CHECK_HOOK(on_post_recv(this, &pd_, wr));
  if (state_ == QpState::kReset || state_ == QpState::kError) {
    return Status::kInvalidState;
  }
  if (recv_queue_.size() >= static_cast<std::size_t>(caps_.max_recv_wr)) {
    return Status::kResourceExhausted;
  }
  std::size_t total = 0;
  const Status st = validate_sges(wr.sg_list, Access::kLocalWrite, &total);
  if (!ok(st)) return st;
  recv_queue_.push_back(PostedRecv{wr, total});
  PARTIB_CHECK_HOOK(on_recv_accepted(this));
  return Status::kOk;
}

std::uint32_t Qp::acquire_wqe() {
  PARTIB_ASSERT(free_wqe_ != kNilWqe);
  const std::uint32_t slot = free_wqe_;
  free_wqe_ = wqes_[slot].next_free;
  return slot;
}

void Qp::release_wqe_ref(std::uint32_t slot) {
  Wqe& wqe = wqes_[slot];
  PARTIB_ASSERT(wqe.refs > 0);
  if (--wqe.refs == 0) {
    wqe.next_free = free_wqe_;
    free_wqe_ = slot;
  }
}

PARTIB_HOT Status Qp::post_send(const SendWr& wr) {
  PARTIB_CHECK_HOOK(on_owned_access(this, "qp"));
  PARTIB_CHECK_HOOK(on_shard_access(this, shard_, "qp"));
  PARTIB_CHECK_HOOK(on_post_send(this, &pd_, wr));
  if (state_ != QpState::kRts) return Status::kInvalidState;
  if (outstanding_ >= caps_.max_send_wr) return Status::kResourceExhausted;
  std::size_t total = 0;
  const Status st = validate_sges(wr.sg_list, /*required_access=*/0, &total);
  if (!ok(st)) return st;
  PARTIB_ASSERT(remote_ != nullptr);

  ++outstanding_;
  PARTIB_CHECK_HOOK(on_send_accepted(this));
  backend::Transport& fab = pd_.context().device().fab();
  const bool with_imm = wr.opcode == Opcode::kRdmaWriteWithImm;

  // Stage the WR in a slab slot so every fabric callback captures only
  // {this, slot} — 12 bytes, inside std::function's small-object buffer.
  // The slot outlives the op: the send CQE (landing + L) and the recv CQE
  // (landing + o_r) race in virtual time, so the last reference wins.
  const std::uint32_t slot = acquire_wqe();
  Wqe& wqe = wqes_[slot];
  wqe.wr = wr;
  wqe.result = DeliveryResult{};
  wqe.refs = with_imm ? 2 : 1;

  fabric::RdmaOp op;
  op.src = pd_.context().node();
  op.dst = remote_->pd_.context().node();
  op.src_qp = qp_num_;
  op.bytes = total;
  op.rate_cap_factor = wr.rate_cap_factor;
  op.move_data = [this, slot] { wqe_move_data(slot); };
  op.on_send_complete = [this, slot](Time when) {
    wqe_send_complete(slot, when);
  };
  if (with_imm) {
    op.on_recv_complete = [this, slot](Time when) {
      wqe_recv_complete(slot, when);
    };
  }
  op.on_failed = [this, slot](Time when, fabric::OpFailure failure) {
    wqe_failed(slot, when, failure);
  };
  fab.post_rdma_write(std::move(op));
  return Status::kOk;
}

void Qp::wqe_move_data(std::uint32_t slot) {
  // Runs exactly at landing, strictly before either completion callback.
  const bool copy = pd_.context().device().fab().copies_data();
  const SendWr& wr = wqes_[slot].wr;
  wqes_[slot].result = remote_->deliver_rdma_write(
      wr, wr.opcode == Opcode::kRdmaWriteWithImm, copy);
}

void Qp::wqe_send_complete(std::uint32_t slot, Time when) {
  complete_send(wqes_[slot].wr, wqes_[slot].result, when);
  release_wqe_ref(slot);
}

void Qp::wqe_recv_complete(std::uint32_t slot, Time when) {
  // Only RDMA-write-with-immediate raises a receive CQE.
  const Wqe& wqe = wqes_[slot];
  if (wqe.result.recv_wr_consumed) {
    Wc wc;
    wc.wr_id = wqe.result.recv_wr_id;
    wc.status = wqe.result.status;
    wc.opcode = WcOpcode::kRecvRdmaWithImm;
    wc.byte_len = wqe.result.byte_len;
    wc.imm = wqe.wr.imm;
    wc.has_imm = true;
    wc.qp_num = remote_->qp_num();
    wc.completion_time = when;
    remote_->recv_cq_.push(wc);
  }
  release_wqe_ref(slot);
}

void Qp::wqe_failed(std::uint32_t slot, Time when, fabric::OpFailure failure) {
  // A failed op never lands: the recv-CQE callback will not fire, so the
  // slot's remaining references collapse to this one regardless of how
  // many were taken at post time.
  const SendWr wr = wqes_[slot].wr;
  DeliveryResult res;
  switch (failure) {
    case fabric::OpFailure::kRetryExceeded:
      res.status = WcStatus::kRetryExcErr;
      break;
    case fabric::OpFailure::kRnrRetryExceeded:
      res.status = WcStatus::kRnrRetryExcErr;
      break;
    case fabric::OpFailure::kFlushed:
      res.status = WcStatus::kWrFlushErr;
      break;
  }
  res.byte_len = 0;
  // Free the slot *before* raising the error CQE: a consumer re-posting
  // synchronously from the CQE callback (retry-from-error-callback) must
  // find both the outstanding budget and a free slot.
  wqes_[slot].refs = 1;
  release_wqe_ref(slot);
  complete_send(wr, res, when);
}

bool Qp::take_recv(PostedRecv* out) {
  if (srq_ != nullptr) return srq_->consume(out);
  if (recv_queue_.empty()) return false;
  *out = recv_queue_.front();
  recv_queue_.pop_front();
  PARTIB_CHECK_HOOK(on_recv_consumed(this));
  return true;
}

Qp::DeliveryResult Qp::deliver_rdma_write(const SendWr& wr, bool with_imm,
                                          bool copy_data) {
  DeliveryResult res;
  std::size_t total = 0;
  for (const Sge& sge : wr.sg_list) total += sge.length;
  res.byte_len = static_cast<std::uint32_t>(total);

  Mr* mr = pd_.context().find_remote_mr(wr.rkey);
  if (mr == nullptr || !mr->contains(wr.remote_addr, total) ||
      (mr->access() & Access::kRemoteWrite) == 0) {
    res.status = WcStatus::kRemoteAccessError;
    return res;
  }
  if (with_imm) {
    PostedRecv posted;
    if (!take_recv(&posted)) {
      res.status = WcStatus::kRemoteNotReady;
      return res;
    }
    res.recv_wr_consumed = true;
    res.recv_wr_id = posted.wr.wr_id;
  }
  if (copy_data) {
    std::byte* dst = wire_ptr(wr.remote_addr);
    for (const Sge& sge : wr.sg_list) {
      backend::dma_copy(dst, wire_ptr(sge.addr), sge.length);
      dst += sge.length;
    }
  }
  return res;
}

void Qp::complete_send(const SendWr& wr, const DeliveryResult& result,
                       Time when) {
  --outstanding_;
  PARTIB_CHECK_HOOK(on_send_completed(this));
  Wc wc;
  wc.wr_id = wr.wr_id;
  wc.status = result.status;
  wc.opcode = WcOpcode::kRdmaWrite;
  wc.byte_len = result.byte_len;
  wc.qp_num = qp_num_;
  wc.completion_time = when;
  // Transport retry exhaustion is retryable by re-posting on the same QP;
  // every other failure (delivery faults, flushes) wedges the QP in the
  // error state until the consumer recycles it.  The guard keeps a flush
  // burst from re-announcing the transition per flushed WR.
  const bool errors_qp = result.status != WcStatus::kSuccess &&
                         result.status != WcStatus::kRetryExcErr &&
                         result.status != WcStatus::kRnrRetryExcErr;
  if (errors_qp && state_ != QpState::kError) {
    state_ = QpState::kError;
    PARTIB_CHECK_HOOK(on_qp_transition(this, QpState::kError, true));
  }
  send_cq_.push(wc);
}

}  // namespace partib::verbs
