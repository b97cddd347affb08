// The verbs API over the simulated fabric.
//
// Object model mirrors libibverbs:
//
//   Device (one per fabric)
//    └─ Context (one per node; cf. ibv_open_device)
//        ├─ Cq  (completion queues)
//        └─ Pd  (protection domains)
//            ├─ Mr (registered memory regions with lkey/rkey)
//            └─ Qp (RC queue pairs; RESET→INIT→RTR→RTS state machine)
//
// Ownership follows the factory-keeps-ownership idiom: create_* /
// register_* return non-owning references whose lifetime is bounded by the
// parent object.  All operations are driven by the simulation engine; the
// API itself performs no blocking.
//
// Handle resolution is dense-index, not tree-search: qp_nums and rkeys are
// allocated sequentially by the device, so find_qp / find_remote_mr are a
// bounds check plus one array load — the cost model of a real NIC's QP
// context table, and O(log n) cheaper than the std::map registries they
// replaced.  Queues (CQ entries, posted receives) are power-of-two ring
// buffers, and each QP stages in-flight sends in a fixed slab of WQE slots
// so posting allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "backend/transport.hpp"
#include "common/bits.hpp"
#include "common/ring.hpp"
#include "common/status.hpp"
#include "verbs/types.hpp"

namespace partib::verbs {

class Context;
class Pd;
class Mr;
class Cq;
class Qp;
class Srq;

/// Aggregate resource accounting for one context (see Context::footprint).
///
/// `provisioned_bytes` models what real hardware commits at creation time
/// — ibv_create_cq/qp/srq allocate the full queue up front, so a channel
/// that provisions a 65536-entry CQ pays for it whether or not completions
/// ever burst that deep.  `resident_bytes` is what the simulator's lazily
/// growing rings actually hold.  The connection-scale comparison in
/// docs/PERF.md reports both.
struct ResourceFootprint {
  int cqs = 0;
  int qps = 0;
  int srqs = 0;
  std::size_t provisioned_bytes = 0;
  std::size_t resident_bytes = 0;
};

/// The "HCA": entry point tying contexts to the transport backend and
/// providing device-wide qp_num / key allocation.  The device consumes
/// only the backend::Transport interface, so the same verbs object model
/// runs over the DES fabric, the shm transport, or a hardware stub.
class Device {
 public:
  /// qp_nums are dense from here (mirrors real HCAs not handing out 0..2;
  /// also keeps handles visually distinct from ranks/indices in traces).
  static constexpr std::uint32_t kFirstQpNum = 100;

  explicit Device(backend::Transport& fab) : fabric_(fab) {}
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Open a context on a fabric node (creates the node's verbs state).
  Context& open(fabric::NodeId node);

  backend::Transport& fab() { return fabric_; }

  /// Device-wide QP lookup used to resolve a connected remote QP.
  Qp* find_qp(std::uint32_t qp_num) {
    const std::uint32_t idx = qp_num - kFirstQpNum;
    return qp_num >= kFirstQpNum && idx < qp_by_num_.size() ? qp_by_num_[idx]
                                                            : nullptr;
  }

  /// The opaque context the QP was created with (cf. ibv_qp.qp_context),
  /// or nullptr when `qp_num` names no QP or its creator passed none.
  /// The device never dereferences it.
  void* qp_context(std::uint32_t qp_num) const {
    const std::uint32_t idx = qp_num - kFirstQpNum;
    return qp_num >= kFirstQpNum && idx < qp_context_.size()
               ? qp_context_[idx]
               : nullptr;
  }

 private:
  friend class Context;
  friend class Pd;

  // MRs are keyed device-wide: lkeys are the odd keys (1, 3, 5, ...) and
  // rkeys the even ones (2, 4, 6, ...), so rkey -> slot is (rkey/2 - 1).
  // The owning context is recorded because find_remote_mr must only
  // resolve regions registered on the target's own node.
  struct MrSlot {
    Context* owner = nullptr;
    Mr* mr = nullptr;
  };

  backend::Transport& fabric_;
  std::vector<std::unique_ptr<Context>> contexts_;
  std::vector<Qp*> qp_by_num_;   // index == qp_num - kFirstQpNum
  // Same index; packed apart from the Qp objects so a shared-CQ drain
  // resolves each completion's owner with one load.
  std::vector<void*> qp_context_;
  std::vector<MrSlot> mr_by_rkey_;  // index == rkey / 2 - 1
  std::uint32_t next_key_ = 1;
};

/// Per-node device context.
class Context {
 public:
  Context(Device& dev, fabric::NodeId node) : device_(dev), node_(node) {}
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  Pd& alloc_pd();
  Cq& create_cq(int depth);

  Device& device() { return device_; }
  fabric::NodeId node() const { return node_; }

  /// Sum CQ/QP/SRQ memory over everything created on this node.
  ResourceFootprint footprint() const;

  /// Resolve an rkey to a region registered on this node (target-side
  /// validation of incoming RDMA).
  Mr* find_remote_mr(Rkey rkey) {
    // rkeys are the even keys; odd or unallocated values miss.
    if (rkey < 2 || (rkey & 1u) != 0) return nullptr;
    const std::size_t idx = rkey / 2 - 1;
    if (idx >= device_.mr_by_rkey_.size()) return nullptr;
    const Device::MrSlot& slot = device_.mr_by_rkey_[idx];
    return slot.owner == this ? slot.mr : nullptr;
  }

 private:
  friend class Pd;

  Device& device_;
  fabric::NodeId node_;
  std::vector<std::unique_ptr<Pd>> pds_;
  std::vector<std::unique_ptr<Cq>> cqs_;
};

/// Registered memory region.
class Mr {
 public:
  Mr(std::span<std::byte> range, unsigned access, Lkey lkey, Rkey rkey)
      : range_(range), access_(access), lkey_(lkey), rkey_(rkey) {}

  std::uint64_t addr() const { return wire_addr(range_.data()); }
  std::size_t length() const { return range_.size(); }
  unsigned access() const { return access_; }
  Lkey lkey() const { return lkey_; }
  Rkey rkey() const { return rkey_; }

  /// True when [addr, addr+len) lies inside this region.
  bool contains(std::uint64_t addr, std::size_t len) const;

 private:
  std::span<std::byte> range_;
  unsigned access_;
  Lkey lkey_;
  Rkey rkey_;
};

/// Completion queue.
///
/// Entries live in a power-of-two ring that grows lazily toward `depth`:
/// the configured depth is a capacity bound (overrun past it is fatal, as
/// on real hardware), not an eager reservation — the default depth is
/// 65536 entries and most CQs see a handful in flight.
class Cq {
 public:
  explicit Cq(int depth) : depth_(depth) {}
  Cq(const Cq&) = delete;
  Cq& operator=(const Cq&) = delete;

  /// Pop up to out.size() completions; returns the number written
  /// (cf. ibv_poll_cq).
  int poll(std::span<Wc> out);

  /// Zero-copy drain surface (simulator-internal; used by
  /// mpi::ConnectionManager's shared-CQ drain): expose the contiguous run
  /// of completions at the ring head, dispatch in place, then discard()
  /// what was consumed.  Entries stay queued until discard().  A push
  /// from inside dispatch may grow the ring and relocate the run, so
  /// consumers must stop and re-peek when ring_capacity() changes.
  std::span<const Wc> peek_run();
  void discard(int n);
  std::size_t ring_capacity() const { return entries_.capacity(); }

  std::size_t pending() const { return entries_.size(); }
  bool overrun() const { return overrun_; }

  /// Internal: raise a completion (called by Qp / delivery paths).
  void push(const Wc& wc);

  /// Completion-channel analogue: invoked after every push so the owner
  /// can schedule a progress poll (cf. ibv_req_notify_cq + comp channel).
  void set_on_push(std::function<void()> fn) { on_push_ = std::move(fn); }

  /// Shard ownership tag for the threaded runtime (src/runtime/): the
  /// progress shard whose drain loop is allowed to poll this CQ.  -1
  /// (check::kNoShard) = untagged, i.e. single-threaded DES mode.  The
  /// shard-affinity auditor (check/concurrency_check.hpp) cross-checks
  /// the tag against the draining thread's declared shard on every poll.
  void set_shard(int shard) { shard_ = shard; }
  int shard() const { return shard_; }

  /// Hardware commits the full `depth` at creation (see ResourceFootprint).
  std::size_t provisioned_bytes() const {
    return static_cast<std::size_t>(depth_) * sizeof(Wc);
  }
  std::size_t resident_bytes() const {
    return entries_.capacity() * sizeof(Wc);
  }

 private:
  int depth_;
  int shard_ = -1;
  bool overrun_ = false;
  common::Ring<Wc> entries_;
  std::function<void()> on_push_;
};

/// Protection domain.
class Pd {
 public:
  explicit Pd(Context& ctx) : context_(ctx) {}
  Pd(const Pd&) = delete;
  Pd& operator=(const Pd&) = delete;

  /// Register `range` for the given access; the PD keeps ownership of the
  /// Mr object (not of the memory).
  Mr& register_mr(std::span<std::byte> range, unsigned access);

  /// Create an RC queue pair with separate (or shared) send/recv CQs.
  /// With `srq` non-null the QP draws receive WRs from the shared receive
  /// queue instead of a private ring (cf. ibv_qp_init_attr.srq); its own
  /// post_recv is then rejected, as on real hardware.  `context` is
  /// stored for Device::qp_context (cf. ibv_qp_init_attr.qp_context).
  Qp& create_qp(Cq& send_cq, Cq& recv_cq, QpCaps caps = {},
                Srq* srq = nullptr, void* context = nullptr);

  /// Create a shared receive queue (cf. ibv_create_srq).  The PD keeps
  /// ownership, as with MRs and QPs.
  Srq& create_srq(SrqAttrs attrs = {});

  Context& context() { return context_; }

  /// Find a local MR covering [addr, addr+len) whose lkey matches.
  const Mr* find_local_mr(Lkey lkey, std::uint64_t addr,
                          std::size_t len) const;

 private:
  friend class Context;

  Context& context_;
  std::vector<std::unique_ptr<Mr>> mrs_;
  std::vector<std::unique_ptr<Qp>> qps_;
  std::vector<std::unique_ptr<Srq>> srqs_;
};

/// Shared receive queue (cf. ibv_srq): one ring of posted receive WRs
/// drained in post order by every QP attached to it, so receive-side
/// provisioning is per-node instead of per-connection.  Receive
/// completions still land on each consuming QP's recv CQ with wc.qp_num
/// identifying the consumer — demultiplexing is the reader's job, exactly
/// as with a hardware SRQ.
class Srq {
 public:
  Srq(Pd& pd, SrqAttrs attrs);
  Srq(const Srq&) = delete;
  Srq& operator=(const Srq&) = delete;

  /// cf. ibv_post_srq_recv.  Returns kResourceExhausted at max_wr (rule
  /// srq.capacity under PARTIB_CHECK).
  Status post_recv(const RecvWr& wr);

  /// Re-arm the low-watermark event (cf. ibv_modify_srq + IBV_SRQ_LIMIT).
  /// `limit` must be in [0, max_wr); 0 disarms (rule srq.limit).
  Status arm_limit(int limit);

  /// Grow the capacity bound (cf. ibv_modify_srq + IBV_SRQ_MAX_WR).
  /// Shrinking below the posted count or the armed limit is rejected.
  Status resize(int max_wr);

  /// One-shot limit event sink (cf. IBV_EVENT_SRQ_LIMIT_REACHED on the
  /// async event channel): fires when a consume drops the posted count
  /// below the armed limit, then disarms until the next arm_limit.
  void set_on_limit(std::function<void()> fn) { on_limit_ = std::move(fn); }

  std::size_t posted() const { return queue_.size(); }
  const SrqAttrs& attrs() const { return attrs_; }
  Pd& pd() { return pd_; }

  std::size_t provisioned_bytes() const {
    return static_cast<std::size_t>(attrs_.max_wr) * sizeof(PostedRecv);
  }
  std::size_t resident_bytes() const {
    return queue_.capacity() * sizeof(PostedRecv);
  }

  /// Internal: delivery-path dequeue, called by an attached Qp.  False on
  /// an empty queue (the RNR condition).
  bool consume(PostedRecv* out);

 private:
  Pd& pd_;
  SrqAttrs attrs_;
  bool limit_armed_ = false;
  common::Ring<PostedRecv> queue_;
  std::function<void()> on_limit_;
};

/// RC queue pair.
///
/// In-flight sends are staged in a slab of `max_send_wr` WQE slots
/// allocated once at construction; the fabric callbacks capture only
/// {qp, slot index}, which keeps every per-WR closure inside
/// std::function's small-object buffer.  A slot is recycled when the last
/// completion callback referencing it has fired (the send CQE trails the
/// recv CQE or vice versa depending on L vs o_r, so release is
/// reference-counted, not FIFO).
class Qp {
 public:
  Qp(Pd& pd, Cq& send_cq, Cq& recv_cq, QpCaps caps, std::uint32_t qp_num,
     Srq* srq);
  Qp(const Qp&) = delete;
  Qp& operator=(const Qp&) = delete;

  std::uint32_t qp_num() const { return qp_num_; }
  QpState state() const { return state_; }
  int outstanding_send_wrs() const { return outstanding_; }
  const QpCaps& caps() const { return caps_; }
  /// The shared receive queue this QP draws from, nullptr when it owns a
  /// private receive ring.
  Srq* srq() { return srq_; }
  /// The peer this QP was last connected to (0 before the first to_rtr).
  /// Survives to_reset so a recovery path can reconnect to the same peer
  /// without re-running the control-plane exchange.
  std::uint32_t remote_qp_num() const { return remote_qp_num_; }

  // -- state machine (cf. ibv_modify_qp) -----------------------------------
  Status to_init();
  /// Ready-to-receive: binds this QP to its remote peer.
  Status to_rtr(std::uint32_t remote_qp_num);
  Status to_rts();
  /// Back to RESET — the first hop of the error-recovery recycle
  /// (ERROR -> RESET -> INIT -> RTR -> RTS).  Legal from any state, but
  /// only once every outstanding send WR has completed (flushed): a reset
  /// with WRs in flight would orphan their CQEs (rule
  /// qp.reset_outstanding).  Drops all posted receive WRs.
  Status to_reset();

  // -- work submission ------------------------------------------------------
  /// cf. ibv_post_send.  Returns kResourceExhausted when
  /// max_send_wr WRs are already outstanding (the ConnectX-5 16-WR limit
  /// the paper designs around).
  Status post_send(const SendWr& wr);

  /// cf. ibv_post_recv.  Legal from INIT onwards.  Rejected with
  /// kInvalidArgument on an SRQ-attached QP (post to the SRQ instead, as
  /// ibv_post_recv fails with EINVAL there).
  Status post_recv(const RecvWr& wr);

  /// Shard ownership tag (see Cq::set_shard): the progress shard whose
  /// context may post to this QP in threaded mode; -1 = untagged.
  void set_shard(int shard) { shard_ = shard; }
  int shard() const { return shard_; }

  /// Hardware commits the send slab and (without an SRQ) the full
  /// max_recv_wr receive queue at creation; SRQ-attached QPs share the
  /// SRQ's provisioning instead (see ResourceFootprint).
  std::size_t provisioned_bytes() const {
    std::size_t b = static_cast<std::size_t>(caps_.max_send_wr) * sizeof(Wqe);
    if (srq_ == nullptr) {
      b += static_cast<std::size_t>(caps_.max_recv_wr) * sizeof(PostedRecv);
    }
    return b;
  }
  std::size_t resident_bytes() const {
    return wqes_.capacity() * sizeof(Wqe) +
           recv_queue_.capacity() * sizeof(PostedRecv);
  }

 private:
  friend class Device;

  // Target-side handlers (run on delivery).
  struct DeliveryResult {
    WcStatus status = WcStatus::kSuccess;
    std::uint32_t byte_len = 0;
    bool recv_wr_consumed = false;
    std::uint64_t recv_wr_id = 0;
  };

  /// One staged in-flight send: the WR, its delivery outcome, and the
  /// number of not-yet-fired fabric callbacks that still read the slot.
  struct Wqe {
    SendWr wr;
    DeliveryResult result;
    std::uint32_t next_free = kNilWqe;
    std::uint8_t refs = 0;
  };
  static constexpr std::uint32_t kNilWqe = ~std::uint32_t{0};

  Pd& pd_;
  Cq& send_cq_;
  Cq& recv_cq_;
  QpCaps caps_;
  std::uint32_t qp_num_;
  Srq* srq_;  ///< shared receive queue, or nullptr for a private ring
  int shard_ = -1;
  QpState state_ = QpState::kReset;
  std::uint32_t remote_qp_num_ = 0;
  Qp* remote_ = nullptr;  // resolved at to_rtr time
  int outstanding_ = 0;
  common::Ring<PostedRecv> recv_queue_;
  std::vector<Wqe> wqes_;  // fixed at max_send_wr slots
  std::uint32_t free_wqe_ = kNilWqe;

  /// Dequeue the next receive WR — from the SRQ when attached, else from
  /// the private ring.  False = nothing posted (RNR).
  bool take_recv(PostedRecv* out);

  Status validate_sges(const SgList& sges, unsigned required_access,
                       std::size_t* total) const;

  std::uint32_t acquire_wqe();
  void release_wqe_ref(std::uint32_t slot);

  // Fabric callback bodies; each captures only {this, slot}.
  void wqe_move_data(std::uint32_t slot);
  void wqe_send_complete(std::uint32_t slot, Time when);
  void wqe_recv_complete(std::uint32_t slot, Time when);
  /// Fault path: the fabric failed the op.  Raises the error CQE (no data
  /// moved, no receive WR consumed, no receive CQE) and recycles the slot.
  void wqe_failed(std::uint32_t slot, Time when, fabric::OpFailure failure);

  DeliveryResult deliver_rdma_write(const SendWr& wr, bool with_imm,
                                    bool copy_data);

  void complete_send(const SendWr& wr, const DeliveryResult& result,
                     Time when);
};

}  // namespace partib::verbs
