// Real-time shared-memory transport (backend::Transport contract).
//
// Where the DES fabric simulates a wire in virtual time, this transport
// moves the same RdmaOps between threads of one process in real time:
//
//   * every node has an owner thread (or one driver thread owns them all —
//     the single-threaded pump the conformance suite uses);
//   * for each (src, dst) pair there is one SPSC wire ring carrying
//     OpRec pointers in post order, and one reverse ack ring returning
//     delivered records to the poster;
//   * an op record lives in its source node's slab (stable addresses,
//     owner-thread alloc/free), so cross-thread hand-off is exactly one
//     pointer through a ring in each direction;
//   * delivery runs on the destination's thread: move_data() (the actual
//     memcpy into the target MR) then on_recv_complete(now); the ack trip
//     home then runs on_send_complete(now) on the poster's thread —
//     matching the Transport threading contract, and real ibverbs, where
//     the remote CQE and the local CQE are raised by different HCAs.
//
// Ordering: per-QP post order is preserved because a QP's ops all ride
// one wire ring (a QP connects one node pair) and delivery is strictly
// FIFO per ring — an op held back by a fault decision (`not_before`)
// blocks the ops behind it rather than overtaking.  Failed ops complete
// from the poster's timed-failure queue instead and may interleave with
// later successes on other QPs; exactly-one-completion-per-op holds
// always (the invariant the lifecycle fuzzer asserts).
//
// Fault plane: the same seed-driven FaultPlan the DES fabric consumes
// (fabric/fault.hpp) — decide(ordinal) with a shared atomic ordinal.
// kDelay/kDrop become real-time delivery holds (drops cost
// drops × retransmit_delay, counted as retransmits); kRnrNak /
// kRetryExceeded / kQpFlush fail the op on the poster's thread after
// fail_latency, and kQpFlush wedges the QP chain so every later post
// flushes until reset_qp_chain(), exactly as on the DES backend.
//
// Payload copies: move_data() runs inside a DmaScope for this
// transport's DmaEngine (backend/shm/dma_engine.hpp), so the verbs
// layer's dma_copy() splits a large payload across the engine's helper
// threads, the way an HCA's DMA engines move a write's bytes while the
// host keeps working.
//
// Time is common::mono_now() normalised to construction (ns since
// transport start).  Nothing here touches the sim::Engine: timers stay
// the backend's concern (backend/shm/shm_backend.hpp).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "backend/shm/dma_engine.hpp"
#include "backend/shm/spsc_ring.hpp"
#include "backend/transport.hpp"
#include "common/clock.hpp"
#include "common/mutex.hpp"
#include "fabric/nic_params.hpp"

namespace partib::backend {

struct ShmTransportOptions {
  fabric::NicParams nic = fabric::NicParams::connectx5_edr();
  bool copy_data = true;
  /// Capacity (records) of each per-pair wire/ack ring.
  std::size_t ring_capacity = 1024;
};

class ShmTransport final : public Transport {
 public:
  explicit ShmTransport(ShmTransportOptions options);
  ~ShmTransport() override;

  std::string_view kind() const override { return "shm-ring"; }

  /// Topology is fixed before communication starts: add_node is part of
  /// world construction (single-threaded setup phase) and must not race
  /// with posts or progress.
  fabric::NodeId add_node() override;
  int node_count() const override { return static_cast<int>(nodes_.size()); }

  bool copies_data() const override { return copy_data_; }

  /// Called from the thread that owns op.src.
  void post_rdma_write(fabric::RdmaOp op) override;

  /// Callable from any thread; `deliver` runs on dst's owner thread during
  /// its next progress pass.
  void send_control(fabric::NodeId src, fabric::NodeId dst,
                    std::function<void()> deliver) override;

  /// Aggregates node-local counters on every call; totals are exact only
  /// at quiescence (idle() true, no concurrent posters).
  const fabric::FabricStats& stats() const override;

  std::size_t wire_bytes_for(std::size_t bytes) const override;

  void set_fault_plan(const fabric::FaultPlan& plan) override;
  const fabric::FaultPlan& fault_plan() const override { return fault_plan_; }

  void inject_qp_error(std::uint64_t src_qp) override;
  bool qp_chain_errored(std::uint64_t src_qp) override;
  void reset_qp_chain(std::uint64_t src_qp) override;

  // -- progress (not part of the Transport interface) ------------------------
  /// Nanoseconds since transport construction on the monotonic clock.
  Time now() const { return common::mono_now() - epoch_; }

  /// Block the calling thread until now() reads at least `t`.
  void sleep_until(Time t) const { common::mono_sleep_until(t + epoch_); }

  /// One progress pass for `node`, on its owner thread: fire due local
  /// failures, stage ops onto wire rings, deliver due inbound ops, drain
  /// acks and control.  Returns the number of actions taken (0 = idle
  /// pass).
  std::size_t progress_node(fabric::NodeId node, Time now);

  /// Single-driver convenience: progress every node once.
  std::size_t progress_all(Time now);

  /// The earliest time a progress pass can move something: `now` when
  /// something is movable already, else the earliest fault hold (the
  /// `not_before` of a blocked wire-ring head) or pending local-failure
  /// `due`; nullopt when nothing is outstanding.  Reads every ring as
  /// its consumer, so like progress_all it belongs to the single driver.
  std::optional<Time> next_due(Time now) const;

  /// True when no op, ack, failure or control message is outstanding
  /// anywhere.  Exact only when the callers' threads are quiescent or the
  /// single driver thread is the one asking.
  bool idle() const;

  /// The engine move_data() copies through.
  DmaEngine& dma() { return dma_; }

 private:
  /// One in-flight op.  Lives in the source node's slab; the pointer does
  /// a round trip src → wire ring → dst (deliver) → ack ring → src (send
  /// CQE + free).  `not_before` serialises fault holds into the FIFO.
  struct OpRec {
    fabric::RdmaOp op;
    Time not_before = 0;
  };

  struct PendingFail {
    OpRec* rec;
    Time due;
    fabric::OpFailure failure;
  };

  /// One direction of one node pair.
  struct PairChannel {
    explicit PairChannel(std::size_t cap) : wire(cap), ack(cap) {}
    SpscRing<OpRec*> wire;  ///< src → dst: ops in post order
    SpscRing<OpRec*> ack;   ///< dst → src: delivered, going home
  };

  /// Everything owned by one node's thread, plus its inbound mailboxes.
  struct NodeState {
    // Owner-thread-only record slab: deque for stable addresses, free
    // list for reuse.  Never touched by other threads except through
    // ring-published pointers.
    std::deque<OpRec> slab;
    std::vector<OpRec*> free;
    /// Ops failing locally (RNR / retry-exceeded / flush), FIFO by due
    /// time (post order; due = post + fail_latency is monotone per
    /// thread).
    std::deque<PendingFail> fails;
    /// Ops accepted by post but not yet pushed to the wire ring
    /// (ring-full backpressure); indexed by dst.  Owner thread only.
    std::vector<std::deque<OpRec*>> staged;
    /// Inbound control mailbox (any producer, owner-thread consumer).
    std::unique_ptr<common::Mutex> ctrl_mu;
    std::deque<std::function<void()>> ctrl;
    /// ctrl.size(), stored under ctrl_mu with release and loaded without
    /// it (acquire), so a pass with an empty mailbox takes no lock.
    std::atomic<std::size_t> ctrl_pending{0};
    /// Owner-thread deque the mailbox is swapped into and run from.
    /// Reused, so a pass allocates nothing once both deques have grown.
    std::deque<std::function<void()>> ctrl_batch;
    // Node-local counters (owner-thread writes, relaxed); stats()
    // aggregates across nodes.
    std::atomic<std::uint64_t> rdma_ops{0};
    std::atomic<std::uint64_t> control_msgs{0};
    std::atomic<std::uint64_t> payload_bytes{0};
    std::atomic<std::uint64_t> wire_bytes{0};
    std::atomic<std::uint64_t> faults_injected{0};
    std::atomic<std::uint64_t> retransmits{0};
    std::atomic<std::uint64_t> failed_ops{0};
  };

  OpRec* acquire_rec(NodeState& node, fabric::RdmaOp&& op);
  void release_rec(NodeState& node, OpRec* rec);
  NodeState& node_state(fabric::NodeId id);
  /// Queue a local failure for `rec` (owner == poster thread).
  void fail_locally(NodeState& node, OpRec* rec, fabric::OpFailure failure,
                    Time now);

  const fabric::NicParams params_;
  const bool copy_data_;
  const std::size_t ring_capacity_;
  const Time epoch_;

  // Grown only during single-threaded setup (add_node).
  std::vector<std::unique_ptr<NodeState>> nodes_;
  std::vector<std::vector<std::unique_ptr<PairChannel>>> channels_;

  fabric::FaultPlan fault_plan_;
  std::atomic<std::uint64_t> fault_ordinal_{0};

  /// Live ops + queued failures + undelivered control messages.
  std::atomic<std::int64_t> outstanding_{0};

  /// Wedged QP chains.  Posts from different node threads and test-thread
  /// inject/reset share the set under the mutex; `errored_count_` mirrors
  /// its size (stored under the lock, loaded without it), so a post takes
  /// the lock only while some chain is wedged.
  mutable common::Mutex chains_mu_;
  std::unordered_set<std::uint64_t> errored_chains_;
  std::atomic<std::size_t> errored_count_{0};

  mutable fabric::FabricStats agg_stats_;

  /// Splits large move_data() copies across helper threads.
  DmaEngine dma_;
};

}  // namespace partib::backend
