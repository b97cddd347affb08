#include "backend/shm/shm_transport.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace partib::backend {

ShmTransport::ShmTransport(ShmTransportOptions options)
    : params_(options.nic),
      copy_data_(options.copy_data),
      ring_capacity_(options.ring_capacity),
      epoch_(common::mono_now()),
      chains_mu_("backend.shm.chains") {}

ShmTransport::~ShmTransport() = default;

fabric::NodeId ShmTransport::add_node() {
  const auto id = static_cast<fabric::NodeId>(nodes_.size());
  auto node = std::make_unique<NodeState>();
  node->ctrl_mu = std::make_unique<common::Mutex>("backend.shm.ctrl");
  nodes_.push_back(std::move(node));
  // Extend the channel matrix: one new row, one new column.  Setup phase
  // only — see the header contract.
  channels_.emplace_back();
  for (std::size_t src = 0; src < channels_.size(); ++src) {
    while (channels_[src].size() < nodes_.size()) {
      channels_[src].push_back(std::make_unique<PairChannel>(ring_capacity_));
    }
  }
  for (auto& n : nodes_) {
    while (n->staged.size() < nodes_.size()) n->staged.emplace_back();
  }
  return id;
}

ShmTransport::NodeState& ShmTransport::node_state(fabric::NodeId id) {
  PARTIB_ASSERT(id >= 0 && id < node_count());
  return *nodes_[static_cast<std::size_t>(id)];
}

std::size_t ShmTransport::wire_bytes_for(std::size_t bytes) const {
  const std::size_t segments =
      bytes == 0 ? 1 : ceil_div(bytes, params_.mtu);
  return bytes + segments * params_.segment_header_bytes;
}

ShmTransport::OpRec* ShmTransport::acquire_rec(NodeState& node,
                                               fabric::RdmaOp&& op) {
  OpRec* rec;
  if (!node.free.empty()) {
    rec = node.free.back();
    node.free.pop_back();
  } else {
    node.slab.emplace_back();
    rec = &node.slab.back();
  }
  rec->op = std::move(op);
  rec->not_before = 0;
  return rec;
}

void ShmTransport::release_rec(NodeState& node, OpRec* rec) {
  rec->op = fabric::RdmaOp{};  // drop closures (they hold captures)
  node.free.push_back(rec);
}

void ShmTransport::fail_locally(NodeState& node, OpRec* rec,
                                fabric::OpFailure failure, Time now) {
  node.failed_ops.fetch_add(1, std::memory_order_relaxed);
  node.fails.push_back(
      {rec, now + fault_plan_.config().fail_latency, failure});
}

void ShmTransport::post_rdma_write(fabric::RdmaOp op) {
  const Time t = now();
  NodeState& src = node_state(op.src);
  PARTIB_ASSERT(op.dst >= 0 && op.dst < node_count());
  const fabric::NodeId dst = op.dst;
  const std::uint64_t src_qp = op.src_qp;

  src.rdma_ops.fetch_add(1, std::memory_order_relaxed);
  src.payload_bytes.fetch_add(op.bytes, std::memory_order_relaxed);
  src.wire_bytes.fetch_add(wire_bytes_for(op.bytes),
                           std::memory_order_relaxed);
  outstanding_.fetch_add(1, std::memory_order_relaxed);

  // Chain error state first: a wedged QP flushes everything posted to it,
  // fault plan or not (matches the DES fabric and real QP error
  // semantics).  With no chain wedged anywhere that is one load.
  if (errored_count_.load(std::memory_order_acquire) != 0 &&
      qp_chain_errored(src_qp)) {
    OpRec* rec = acquire_rec(src, std::move(op));
    fail_locally(src, rec, fabric::OpFailure::kFlushed, t);
    return;
  }

  fabric::FaultDecision decision;
  if (fault_plan_.enabled()) {
    decision =
        fault_plan_.decide(fault_ordinal_.fetch_add(1,
                                                    std::memory_order_relaxed));
  }
  if (decision.kind != fabric::FaultKind::kNone) {
    src.faults_injected.fetch_add(1, std::memory_order_relaxed);
  }

  OpRec* rec = acquire_rec(src, std::move(op));
  rec->not_before = t;
  switch (decision.kind) {
    case fabric::FaultKind::kNone:
      break;
    case fabric::FaultKind::kDelay:
      rec->not_before = t + decision.delay;
      break;
    case fabric::FaultKind::kDrop:
      // Each lost transfer costs one RC ACK-timeout backoff before the
      // retransmission goes through.
      rec->not_before =
          t + static_cast<Time>(decision.drops) *
                  fault_plan_.config().retransmit_delay;
      src.retransmits.fetch_add(decision.drops, std::memory_order_relaxed);
      break;
    case fabric::FaultKind::kRnrNak:
      fail_locally(src, rec, fabric::OpFailure::kRnrRetryExceeded, t);
      return;
    case fabric::FaultKind::kRetryExceeded:
      fail_locally(src, rec, fabric::OpFailure::kRetryExceeded, t);
      return;
    case fabric::FaultKind::kQpFlush:
      inject_qp_error(src_qp);
      fail_locally(src, rec, fabric::OpFailure::kFlushed, t);
      return;
  }

  // Stage, then opportunistically push to the wire ring.  The staged
  // queue is FIFO per destination, so ring-full backpressure never
  // reorders a QP's ops.
  auto& staged = src.staged[static_cast<std::size_t>(dst)];
  staged.push_back(rec);
  SpscRing<OpRec*>& wire =
      channels_[static_cast<std::size_t>(rec->op.src)]
               [static_cast<std::size_t>(dst)]
                   ->wire;
  while (!staged.empty() && wire.try_push(staged.front())) {
    staged.pop_front();
  }
}

void ShmTransport::send_control(fabric::NodeId src, fabric::NodeId dst,
                                std::function<void()> deliver) {
  NodeState& s = node_state(src);
  NodeState& d = node_state(dst);
  s.control_msgs.fetch_add(1, std::memory_order_relaxed);
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  common::MutexLock lock(*d.ctrl_mu);
  d.ctrl.push_back(std::move(deliver));
  d.ctrl_pending.store(d.ctrl.size(), std::memory_order_release);
}

void ShmTransport::set_fault_plan(const fabric::FaultPlan& plan) {
  PARTIB_ASSERT_MSG(outstanding_.load(std::memory_order_relaxed) == 0,
                    "fault plan must be installed before the first post");
  fault_plan_ = plan;
}

void ShmTransport::inject_qp_error(std::uint64_t src_qp) {
  common::MutexLock lock(chains_mu_);
  errored_chains_.insert(src_qp);
  errored_count_.store(errored_chains_.size(), std::memory_order_release);
}

bool ShmTransport::qp_chain_errored(std::uint64_t src_qp) {
  common::MutexLock lock(chains_mu_);
  return errored_chains_.contains(src_qp);
}

void ShmTransport::reset_qp_chain(std::uint64_t src_qp) {
  common::MutexLock lock(chains_mu_);
  errored_chains_.erase(src_qp);
  errored_count_.store(errored_chains_.size(), std::memory_order_release);
}

std::size_t ShmTransport::progress_node(fabric::NodeId id, Time now) {
  NodeState& node = node_state(id);
  std::size_t actions = 0;

  // 1. Due local failures, in post order.
  while (!node.fails.empty() && node.fails.front().due <= now) {
    PendingFail pf = node.fails.front();
    node.fails.pop_front();
    if (pf.rec->op.on_failed) pf.rec->op.on_failed(now, pf.failure);
    release_rec(node, pf.rec);
    outstanding_.fetch_sub(1, std::memory_order_relaxed);
    ++actions;
  }

  // 2. Drain staged ops onto wire rings as space frees up.
  for (std::size_t dst = 0; dst < node.staged.size(); ++dst) {
    auto& staged = node.staged[dst];
    if (staged.empty()) continue;
    SpscRing<OpRec*>& wire =
        channels_[static_cast<std::size_t>(id)][dst]->wire;
    while (!staged.empty() && wire.try_push(staged.front())) {
      staged.pop_front();
      ++actions;
    }
  }

  // 3. Deliver due inbound ops (we are the destination).  FIFO per ring:
  // a not-yet-due head blocks the ops behind it (per-QP order).  Delivery
  // needs an ack slot up front so a delivered op can always start its
  // trip home.
  for (std::size_t src = 0; src < channels_.size(); ++src) {
    PairChannel& ch = *channels_[src][static_cast<std::size_t>(id)];
    for (;;) {
      OpRec* const* head = ch.wire.front();
      if (head == nullptr) break;
      OpRec* rec = *head;
      if (rec->not_before > now) break;
      if (ch.ack.space() == 0) break;
      ch.wire.pop_front();
      if (rec->op.move_data) {
        DmaScope scope(&dma_);
        rec->op.move_data();
      }
      if (rec->op.on_recv_complete) rec->op.on_recv_complete(now);
      const bool pushed = ch.ack.try_push(rec);
      PARTIB_ASSERT(pushed);
      ++actions;
    }
  }

  // 4. Drain acks (we are the poster): raise send CQEs, recycle records.
  for (std::size_t dst = 0; dst < channels_.size(); ++dst) {
    PairChannel& ch = *channels_[static_cast<std::size_t>(id)][dst];
    OpRec* rec = nullptr;
    while (ch.ack.try_pop(&rec)) {
      if (rec->op.on_send_complete) rec->op.on_send_complete(now);
      release_rec(node, rec);
      outstanding_.fetch_sub(1, std::memory_order_relaxed);
      ++actions;
    }
  }

  // 5. Control mailbox.  Swap out under the lock, run outside it — a
  // control handler may send more control (connection setup chains).
  // An empty mailbox costs one acquire load: a message that lands just
  // after it reads zero is picked up by the next pass.
  if (node.ctrl_pending.load(std::memory_order_acquire) != 0) {
    {
      common::MutexLock lock(*node.ctrl_mu);
      node.ctrl_batch.swap(node.ctrl);
      node.ctrl_pending.store(0, std::memory_order_release);
    }
    for (auto& fn : node.ctrl_batch) {
      fn();
      outstanding_.fetch_sub(1, std::memory_order_relaxed);
      ++actions;
    }
    node.ctrl_batch.clear();
  }

  return actions;
}

std::size_t ShmTransport::progress_all(Time now) {
  std::size_t actions = 0;
  for (int i = 0; i < node_count(); ++i) actions += progress_node(i, now);
  return actions;
}

std::optional<Time> ShmTransport::next_due(Time now) const {
  if (idle()) return std::nullopt;
  std::optional<Time> due;
  auto hold = [&due](Time t) {
    if (!due || t < *due) due = t;
  };
  for (const auto& n : nodes_) {
    if (n->ctrl_pending.load(std::memory_order_acquire) != 0) return now;
    for (const auto& staged : n->staged) {
      if (!staged.empty()) return now;
    }
    // FIFO by due time, so the head is the earliest.
    if (!n->fails.empty()) hold(n->fails.front().due);
  }
  for (const auto& row : channels_) {
    for (const auto& ch : row) {
      if (ch->ack.front() != nullptr) return now;
      if (OpRec* const* head = ch->wire.front()) hold((*head)->not_before);
    }
  }
  // Outstanding but invisible here (a foreign thread's message still on
  // its way): only polling finds it.
  return due ? std::max(*due, now) : now;
}

bool ShmTransport::idle() const {
  return outstanding_.load(std::memory_order_acquire) == 0;
}

const fabric::FabricStats& ShmTransport::stats() const {
  fabric::FabricStats s;
  for (const auto& n : nodes_) {
    s.rdma_ops += n->rdma_ops.load(std::memory_order_relaxed);
    s.control_msgs += n->control_msgs.load(std::memory_order_relaxed);
    s.payload_bytes += n->payload_bytes.load(std::memory_order_relaxed);
    s.wire_bytes += n->wire_bytes.load(std::memory_order_relaxed);
    s.faults_injected += n->faults_injected.load(std::memory_order_relaxed);
    s.retransmits += n->retransmits.load(std::memory_order_relaxed);
    s.failed_ops += n->failed_ops.load(std::memory_order_relaxed);
  }
  agg_stats_ = s;
  return agg_stats_;
}

}  // namespace partib::backend
