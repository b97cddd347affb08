// Send-side partitioned request.
//
// Lifecycle (mirrors MPI_Psend_init / MPI_Start / MPI_Pready / MPI_Wait):
//
//   psend_init  — picks the aggregation plan, creates QPs and the MR,
//                 ships the handshake; returns without blocking.
//   start       — begins a round: resets partition flags.
//   pready(i)   — marks user partition i ready.  The *last* arrival of a
//                 transport group posts the group's WR
//                 (IBV_WR_RDMA_WRITE_WITH_IMM, immediate =
//                 (first << 16) | count).  With a timer-based plan the
//                 *first* arrival arms a delta deadline; on expiry the
//                 maximal contiguous arrived runs are flushed and later
//                 arrivals send immediately (§IV-D).
//   test/wait   — the round completes when every partition was marked
//                 ready and every posted WR has a send completion.
//
// The simulation is single-threaded (the DES serialises all events), so
// the flag arrays are plain integers; the counters the paper implements
// with atomic add-and-fetch are modelled, not executed concurrently.  The
// contended doorbell cost of posting is charged through the rank's
// FifoResource.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/inline_fn.hpp"
#include "common/ring.hpp"

#include "agg/aggregator.hpp"
#include "common/status.hpp"
#include "model/arrival_plan.hpp"
#include "mpi/conn.hpp"
#include "mpi/world.hpp"
#include "part/arrival_profile.hpp"
#include "part/options.hpp"
#include "part/wire.hpp"
#include "verbs/verbs.hpp"

namespace partib::part {

class PsendRequest {
 public:
  using Completion = std::function<void()>;

  /// MPI_Psend_init analogue.  `buffer` must divide evenly into
  /// `partitions` (a power of two); `dst`/`tag` identify the matching
  /// Precv_init on communicator `comm_id`.  Non-blocking.
  static Status init(mpi::Rank& rank, std::span<std::byte> buffer,
                     std::size_t partitions, int dst, int tag, int comm_id,
                     const Options& opts,
                     std::unique_ptr<PsendRequest>* out);

  ~PsendRequest();
  PsendRequest(const PsendRequest&) = delete;
  PsendRequest& operator=(const PsendRequest&) = delete;

  /// MPI_Start: begin the next round.  Fails if the previous round is
  /// still in flight.
  Status start();

  /// MPI_Pready: mark one user partition ready for transfer.
  Status pready(std::size_t partition);

  /// MPI_Pready_range: inclusive range, as in the standard.
  ///
  /// Partial-success semantics: partitions are marked in ascending order
  /// and the first failure stops the loop, so on error every partition
  /// in [first, error point) *stays marked ready* (and its transport
  /// group may already be on the wire — Pready is not undoable).  This
  /// mirrors MPI, where each MPI_Pready is independently visible; the
  /// caller recovers by retrying only the partitions at and after the
  /// failure, never the whole range.  Bounds are validated up front, so
  /// an out-of-range `last` fails without marking anything.
  Status pready_range(std::size_t first, std::size_t last);

  /// MPI_Test analogue: true when the current round is complete (an
  /// inactive request is trivially complete).  A failed channel also
  /// tests complete — waiting must terminate — with status() holding the
  /// error.
  bool test() const;

  /// True once the channel exhausted its failure budget (see
  /// Options::max_send_retries).  start/pready then return kRemoteError
  /// instead of queueing work that can never drain.
  bool failed() const { return failed_; }
  /// kRemoteError after channel failure, kOk otherwise.
  Status status() const {
    return failed_ ? Status::kRemoteError : Status::kOk;
  }

  /// MPI_Wait analogue for event-driven callers: `cb` fires when the
  /// current round completes (immediately if it already has).
  void when_complete(Completion cb);

  /// MPI_Pbuf_prepare (MPI Forum proposal the paper discusses in §IV-A):
  /// `cb` fires once the remote buffer is guaranteed ready (the QP
  /// exchange finished and the receiver's rkey arrived), removing the
  /// first-round readiness polling a plain Start would need.
  void pbuf_prepare(Completion cb);
  bool buffer_prepared() const { return remote_ready_; }

  /// Arrival-learning channels only: overwrite the learned profile with
  /// an externally known arrival vector (offsets relative to the epoch's
  /// first Pready).  The next Start re-plans from it immediately — this
  /// is how the ablation oracle is fed the ground truth each epoch.
  /// Discards any half-recorded epoch.  kInvalidState unless the plan is
  /// learning; kInvalidArgument on a size mismatch.
  Status seed_profile(std::span<const Duration> offsets);

  // -- introspection ---------------------------------------------------------
  const agg::Plan& plan() const { return plan_; }
  std::size_t user_partitions() const { return n_; }
  std::size_t transport_partitions() const { return tp_; }
  std::size_t group_size() const { return group_size_; }
  std::size_t partition_bytes() const { return psize_; }
  int qp_count() const { return static_cast<int>(qps_.size()); }
  /// Current contiguous group layout (learning plans re-shape it between
  /// rounds; uniform plans show the tp_-way even split).
  std::span<const std::size_t> group_firsts() const { return group_first_; }
  std::span<const std::size_t> group_counts() const { return group_count_; }
  /// Learning plans: epochs folded into the arrival profile so far and
  /// how many Start-time replans cleared the hysteresis bar.
  std::size_t profile_epochs() const { return profile_.epochs(); }
  std::uint64_t replans_adopted() const { return replans_adopted_; }

  /// Threaded runtime (src/runtime/): tag this channel's CQ and QPs with
  /// the progress shard that owns them, for the shard-affinity auditor
  /// (check/concurrency_check.hpp).  Call after the handshake created the
  /// QPs; a no-op on whatever does not exist yet.
  void tag_shard(int shard);
  /// The tag_shard() value (-1 when untagged / DES-only use).
  int shard_tag() const { return shard_tag_; }
  int round() const { return round_; }
  bool handshake_done() const { return remote_ready_; }
  std::uint64_t wrs_posted_total() const { return wrs_posted_total_; }

  // -- control-plane entry points (called via World::send_control) ----------
  void on_ack(const RecvAck& ack);
  void on_credit();

 private:
  PsendRequest(mpi::Rank& rank, std::span<std::byte> buffer,
               std::size_t partitions, int dst, int tag, int comm_id,
               const Options& opts);

  struct Group {
    std::size_t arrived = 0;
    bool any_sent = false;
    bool timer_fired = false;
    sim::Engine::EventId timer{};
  };

  /// One message staged for the host-side posting pipeline (CPU work →
  /// doorbell → optional pre-post delay → ibv_post_send).  Records live in
  /// a free-listed slab so every pipeline closure captures only
  /// {this, record id} and stays inside the callback SBO buffers; the
  /// per-QP backlogs queue record ids, not WR copies.
  /// The record now outlives the post: wr.wr_id carries the record id, so
  /// the success CQE releases it and a failure CQE re-posts the same WR
  /// (bounded by Options::max_send_retries, backed off exponentially).
  struct StagedWr {
    verbs::SendWr wr;
    sim::FifoResource* engine_res = nullptr;
    Duration serialized = 0;
    Duration pre_delay = 0;
    std::uint32_t qp_index = 0;
    std::uint32_t attempts = 0;  ///< failed attempts so far
    std::uint32_t next_free = kNilStaged;
  };
  static constexpr std::uint32_t kNilStaged = ~std::uint32_t{0};

  void setup_verbs_and_handshake();
  /// Shared mode additionally gates on the lazily established connection;
  /// the first blocked post triggers the establishment (request_connection).
  bool can_post() const {
    return remote_ready_ && credits_ >= round_ &&
           (!opts_.shared_resources || conn_established_);
  }
  void flush_deferred();
  // -- shared-resources mode (mpi/conn.hpp) ---------------------------------
  /// Ask the rank's connection manager for a chain toward dst_ (once, on
  /// the first post after the ack made the peer's expect() token known).
  void request_connection();
  /// The manager's on_ready: adopt the chain, set its Wc handler, drain
  /// deferred work.
  void on_connected(mpi::ConnectionManager::Connection& conn);
  /// One send CQE (shared mode: routed per-Wc by the manager; dedicated
  /// mode: polled in batches by progress()).
  void handle_send_wc(const verbs::Wc& wc);

  std::size_t group_of(std::size_t partition) const {
    return part_group_[partition];
  }
  /// Install the uniform tp-way layout (tp must divide n_).
  void set_uniform_groups(std::size_t tp);
  /// Install an explicit contiguous layout covering [0, n_) exactly.
  /// Allocation-free: the layout arrays were reserved at init for the
  /// plan's maximum group count.
  void adopt_layout(const std::size_t* first, const std::size_t* count,
                    std::size_t groups);
  /// Learning plans, at Start: run the arrival planner on the profile's
  /// predicted vector and adopt layout + delta on a predicted >= epsilon
  /// win over the incumbent (no-op while the profile is cold).
  void replan_from_profile();
  /// Post (or defer) one WR covering partitions [first, first+count).
  void post_message(std::size_t first, std::size_t count);
  std::uint32_t acquire_staged();
  void release_staged(std::uint32_t id);
  // The staged-WR pipeline stages (each fires once per record).
  void on_host_work_done(std::uint32_t id);
  void on_doorbell_granted(std::uint32_t id);
  void post_staged(std::uint32_t id);
  // -- fault recovery (docs/FAULTS.md) --------------------------------------
  /// A send CQE carried a retryable error for record `id`: schedule a
  /// backed-off re-post, or fail the channel once the budget is spent.
  void retry_staged(std::uint32_t id, verbs::WcStatus status);
  /// Backoff expired: re-post record `id` (parked in the QP backlog when
  /// the QP is not back in RTS yet).
  void repost_staged(std::uint32_t id);
  /// Drop a record whose message will never be delivered (channel failed).
  void abandon_staged(std::uint32_t id);
  /// Recycle every fully drained error-state QP through
  /// RESET -> INIT -> RTR -> RTS (same peer, no new handshake).
  void recycle_errored_qps();
  /// Spend the failure budget: surface kRemoteError from now on, drop
  /// queued work, cancel timers, fire completions, notify the receiver.
  void fail_channel(verbs::WcStatus status);
  /// Send every maximal contiguous arrived-but-unsent run of group `g`.
  void flush_group_runs(std::size_t g);
  void on_group_timer(std::size_t g);
  void on_partition_complete_group(std::size_t g);

  void schedule_progress();
  void progress();
  void check_completion();

  Duration ucx_software_cost(std::size_t bytes) const;
  Duration ucx_pre_post_delay(std::size_t bytes) const;

  // -- immutable channel state ----------------------------------------------
  mpi::Rank& rank_;
  std::span<std::byte> buf_;
  std::size_t n_;       ///< user partitions
  std::size_t psize_;   ///< bytes per user partition
  int dst_;
  int tag_;
  int comm_id_;
  Options opts_;
  agg::Plan plan_;
  std::size_t tp_ = 1;          ///< transport partitions (current groups)
  /// Uniform-layout group width (n_ / tp_, floor) — introspection only;
  /// all data-plane indexing goes through the explicit layout below.
  std::size_t group_size_ = 1;
  /// Contiguous group layout: group g covers
  /// [group_first_[g], group_first_[g] + group_count_[g]); part_group_
  /// inverts it for the O(1) pready lookup.  Reserved at init for the
  /// plan's maximum group count so learning replans never allocate.
  std::vector<std::size_t> group_first_;
  std::vector<std::size_t> group_count_;
  std::vector<std::uint16_t> part_group_;

  verbs::Cq* cq_ = nullptr;  ///< private CQ; nullptr in shared mode
  verbs::Mr* mr_ = nullptr;
  std::vector<verbs::Qp*> qps_;
  int shard_tag_ = -1;  ///< owning progress shard (threaded runtime)

  // -- shared-resources mode --------------------------------------------------
  bool conn_requested_ = false;
  bool conn_established_ = false;
  mpi::ConnectionManager::ConnId conn_id_ = mpi::ConnectionManager::kNilConn;

  // -- handshake / flow control ----------------------------------------------
  bool remote_ready_ = false;
  verbs::Rkey remote_rkey_ = 0;
  std::uint64_t remote_base_ = 0;
  void* receiver_request_ = nullptr;  ///< peer PrecvRequest (opaque)
  int credits_ = 0;

  // -- per-round state --------------------------------------------------------
  bool started_ = false;
  bool failed_ = false;  ///< failure budget spent; channel is dead
  int round_ = 0;
  std::size_t ready_count_ = 0;
  // -- arrival learning (docs/ADAPTIVE.md) ------------------------------------
  ArrivalProfile profile_;
  model::ArrivalPlanScratch plan_scratch_;
  /// Candidate layout the Start-time replan writes into (pre-sized).
  std::vector<std::size_t> cand_first_;
  std::vector<std::size_t> cand_count_;
  std::uint64_t replans_adopted_ = 0;
  // Partition flags as uint64_t bitmaps: one cache line covers 512
  // partitions, and run detection for the timer flush works word-wise
  // (part/bitrun.hpp) instead of byte-by-byte.
  std::vector<std::uint64_t> arrived_words_;
  std::vector<std::uint64_t> sent_words_;
  std::vector<Group> groups_;

  // -- message bookkeeping -----------------------------------------------------
  std::size_t inflight_msgs_ = 0;  ///< intents not yet send-completed
  /// Messages waiting for credit/ack; InlineFn keeps the 24-byte captures
  /// out of the heap, the ring out of the deque allocator.
  common::Ring<common::InlineFn<void()>> deferred_;
  std::vector<StagedWr> staged_;  ///< staged-WR slab (grows to peak in flight)
  std::uint32_t staged_free_ = kNilStaged;
  /// Per-QP queues of staged ids waiting for WR slots (or for the QP to
  /// come back to RTS after an error recycle).
  std::vector<common::Ring<std::uint32_t>> qp_backlog_;
  std::uint64_t wrs_posted_total_ = 0;
  /// Progress-coalescing flag.  Atomic exchange so a CQ notification
  /// raised from a shard drain (threaded runtime) and one from the DES
  /// path fold into a single scheduled progress event.
  std::atomic<bool> progress_scheduled_{false};
  // Completion callbacks ping-pong with a same-capacity scratch vector so
  // steady-state rounds never allocate (asserted under PARTIB_CHECK).
  static constexpr std::size_t kCallbackReserve = 8;
  std::vector<Completion> completions_;
  std::vector<Completion> completions_scratch_;
  std::vector<Completion> prepare_callbacks_;
};

}  // namespace partib::part
