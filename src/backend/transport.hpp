// The transport concept: what the verbs layer consumes from a backend.
//
// partib::verbs was kept ibverbs-shaped on purpose (DESIGN.md §2): the
// Device/Pd/Qp/Cq/Srq object model and the WR/CQE contracts never mention
// the simulator.  This interface cashes that in — it is the *entire*
// surface the verbs layer (and mpi::World's control plane) needs from a
// transport, extracted from fabric::Fabric:
//
//   * post_rdma_write: accept one RdmaOp and eventually run exactly one of
//     its completion paths (see fabric/rdma_op.hpp), preserving per-QP
//     post order;
//   * send_control: out-of-band small-message plane for connection setup
//     and init matching;
//   * the fault plane (fabric/fault.hpp): a seed-driven FaultPlan plus the
//     QP-chain error/reset hooks driven by verbs::Qp recovery;
//   * bookkeeping: node allocation, stats, MTU segmentation accounting.
//
// Implementations:
//   * fabric::Fabric       — discrete-event fluid-network transport; the
//                            oracle every other backend is differentially
//                            tested against (tests/backend/).
//   * backend::ShmTransport — real-time shared-memory transport: per-peer
//                            lock-free rings, real threads, monotonic
//                            clock (backend/shm/).
//
// DESIGN.md maps each call onto libibverbs, the porting guide for a
// hardware transport.
//
// Threading contract: post_rdma_write and the QP-chain hooks are called
// from the thread that owns the posting QP; the callbacks of an op are
// run on the thread that owns the object they touch (sender-side
// callbacks on the poster's thread, move_data/on_recv_complete on the
// destination node's progress thread).  Single-threaded drivers satisfy
// this trivially; the DES backend runs everything on the engine thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>

#include "fabric/fault.hpp"
#include "fabric/rdma_op.hpp"

namespace partib::fabric {
class TraceSink;
}  // namespace partib::fabric

namespace partib::backend {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Short transport kind tag ("des-fluid", "shm-ring"), used in
  /// diagnostics and bench CSV metadata.
  virtual std::string_view kind() const = 0;

  // -- topology --------------------------------------------------------------
  virtual fabric::NodeId add_node() = 0;
  virtual int node_count() const = 0;

  /// When false the transport skips payload memcpy (benchmark mode: only
  /// the timeline matters).  Integrity tests run with true.
  virtual bool copies_data() const = 0;

  // -- data plane ------------------------------------------------------------
  /// Post an RDMA write (with or without immediate).  Per-QP post order is
  /// preserved end to end; ops on distinct QPs may interleave freely.
  virtual void post_rdma_write(fabric::RdmaOp op) = 0;

  /// Deliver a small out-of-band control message (QP exchange, match
  /// handshake).  `deliver` runs on the destination node.
  virtual void send_control(fabric::NodeId src, fabric::NodeId dst,
                            std::function<void()> deliver) = 0;

  /// Aggregate transport counters.  Real-time transports aggregate
  /// node-local counters on each call; read at quiescence for exact
  /// totals.
  virtual const fabric::FabricStats& stats() const = 0;

  /// Wire bytes for a payload of `bytes` after MTU segmentation.
  virtual std::size_t wire_bytes_for(std::size_t bytes) const = 0;

  // -- fault plane (fabric/fault.hpp) ----------------------------------------
  /// Install a fault plan.  Must be called before the first post; a plan
  /// with every rate at zero is free (the post path never consults it).
  virtual void set_fault_plan(const fabric::FaultPlan& plan) = 0;
  virtual const fabric::FaultPlan& fault_plan() const = 0;

  /// Test hook: force the QP's send context into the error state *now*.
  /// The op currently on the wire (if any) still completes — the error is
  /// in the QP context, not the link — but every op posted afterwards
  /// fails with OpFailure::kFlushed in post order.  Recovery requires
  /// reset_qp_chain() (driven by verbs::Qp::to_reset).
  virtual void inject_qp_error(std::uint64_t src_qp) = 0;

  /// True while the QP's chain is wedged in the error state.
  virtual bool qp_chain_errored(std::uint64_t src_qp) = 0;

  /// Recovery: clear the error mark so the chain accepts work again.  The
  /// chain must be fully drained (every flush delivered).
  virtual void reset_qp_chain(std::uint64_t src_qp) = 0;

  // -- optional --------------------------------------------------------------
  /// Attach (or detach, with nullptr) a per-operation trace sink
  /// (fabric/trace.hpp).  Transports without tracing ignore the call;
  /// trace() then stays nullptr.
  virtual void set_trace(fabric::TraceSink* sink) { (void)sink; }
  virtual fabric::TraceSink* trace() { return nullptr; }
};

}  // namespace partib::backend
