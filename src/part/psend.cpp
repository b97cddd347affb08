#include "part/psend.hpp"

#include <algorithm>
#include <cmath>

#include "check/hooks.hpp"
#include "common/assert.hpp"
#include "common/thread_annotations.hpp"
#include "common/bits.hpp"
#include "part/bitrun.hpp"
#include "part/imm.hpp"
#include "part/precv.hpp"

namespace partib::part {

namespace {

bool valid_geometry(std::span<std::byte> buffer, std::size_t partitions) {
  // The 16-bit immediate fields bound the partition count (part/imm.hpp).
  return partitions > 0 && partitions <= 0xFFFF && is_pow2(partitions) &&
         !buffer.empty() && buffer.size() % partitions == 0;
}

}  // namespace

Status PsendRequest::init(mpi::Rank& rank, std::span<std::byte> buffer,
                          std::size_t partitions, int dst, int tag,
                          int comm_id, const Options& opts,
                          std::unique_ptr<PsendRequest>* out) {
  PARTIB_ASSERT(out != nullptr);
  if (!valid_geometry(buffer, partitions)) return Status::kInvalidArgument;
  // MPI Partitioned forbids wildcards; negative peer/tag would be the
  // moral equivalent of MPI_ANY_SOURCE / MPI_ANY_TAG.
  if (dst < 0 || dst >= rank.world().size() || tag < 0) {
    return Status::kInvalidArgument;
  }
  if (dst == rank.id()) return Status::kUnsupported;  // no self-channels
  if (opts.aggregator == nullptr) return Status::kInvalidArgument;

  auto req = std::unique_ptr<PsendRequest>(new PsendRequest(
      rank, buffer, partitions, dst, tag, comm_id, opts));
  PARTIB_CHECK_HOOK(on_psend_init(req.get(), rank.id(), partitions));
  req->setup_verbs_and_handshake();
  *out = std::move(req);
  return Status::kOk;
}

PsendRequest::PsendRequest(mpi::Rank& rank, std::span<std::byte> buffer,
                           std::size_t partitions, int dst, int tag,
                           int comm_id, const Options& opts)
    : rank_(rank),
      buf_(buffer),
      n_(partitions),
      psize_(buffer.size() / partitions),
      dst_(dst),
      tag_(tag),
      comm_id_(comm_id),
      opts_(opts) {
  plan_ = opts_.aggregator->plan(n_, buf_.size());
  PARTIB_ASSERT(plan_.qp_count >= 1);

  // Group-layout storage is reserved once for the largest layout any
  // replan may adopt, so Start-time re-planning stays allocation-free.
  part_group_.assign(n_, 0);
  std::size_t max_groups =
      agg::clamp_transport_partitions(plan_.transport_partitions, n_);
  if (plan_.learning) {
    max_groups = std::max(max_groups, std::min(n_, plan_.learn.max_groups));
  }
  max_groups = std::max(max_groups, plan_.group_first.size());
  group_first_.reserve(max_groups);
  group_count_.reserve(max_groups);
  groups_.reserve(max_groups);

  if (!plan_.group_first.empty()) {
    // Explicit (possibly non-uniform) layout from the aggregator.
    PARTIB_ASSERT(plan_.group_first.size() == plan_.group_count.size());
    adopt_layout(plan_.group_first.data(), plan_.group_count.data(),
                 plan_.group_first.size());
  } else {
    set_uniform_groups(
        agg::clamp_transport_partitions(plan_.transport_partitions, n_));
  }
  if (plan_.learning) {
    profile_.init(n_, plan_.learn);
    plan_scratch_.reserve(n_);
    cand_first_.assign(max_groups, 0);
    cand_count_.assign(max_groups, 0);
  }

  arrived_words_.assign(bitmap_words(n_), 0);
  sent_words_.assign(bitmap_words(n_), 0);
  groups_.assign(tp_, Group{});
  qp_backlog_.resize(static_cast<std::size_t>(plan_.qp_count));
  staged_.reserve(kCallbackReserve);
  completions_.reserve(kCallbackReserve);
  completions_scratch_.reserve(kCallbackReserve);
  prepare_callbacks_.reserve(kCallbackReserve);
}

PsendRequest::~PsendRequest() {
  for (Group& g : groups_) {
    if (g.timer.valid()) rank_.world().engine().cancel(g.timer);
  }
  if (cq_ != nullptr) cq_->set_on_push(nullptr);
  if (conn_id_ != mpi::ConnectionManager::kNilConn) {
    rank_.connections().release(conn_id_);
  }
}

void PsendRequest::tag_shard(int shard) {
  shard_tag_ = shard;
  if (cq_ != nullptr) cq_->set_shard(shard);
  for (verbs::Qp* qp : qps_) qp->set_shard(shard);
}

void PsendRequest::setup_verbs_and_handshake() {
  mpi::World& world = rank_.world();
  mr_ = &rank_.pd().register_mr(buf_, verbs::kLocalRead);

  mpi::SendInit si;
  si.key = mpi::MatchKey{rank_.id(), tag_, comm_id_};
  si.total_bytes = buf_.size();
  si.user_partitions = n_;
  si.transport_partitions = tp_;
  si.qp_count = plan_.qp_count;
  si.sender_request = this;
  si.shared = opts_.shared_resources;
  if (!opts_.shared_resources) {
    // Dedicated mode: a private CQ and eagerly created QPs whose numbers
    // ride the handshake.  Shared mode sends no qp_nums — the chain comes
    // from the connection manager, lazily, on the first post.
    cq_ = &rank_.context().create_cq(mpi::kCqDepth);
    cq_->set_on_push([this] { schedule_progress(); });
    verbs::QpCaps caps;
    caps.max_send_wr = world.options().nic.max_outstanding_wr_per_qp;
    for (int i = 0; i < plan_.qp_count; ++i) {
      verbs::Qp& qp = rank_.pd().create_qp(*cq_, *cq_, caps);
      PARTIB_ASSERT(ok(qp.to_init()));
      qps_.push_back(&qp);
      si.qp_nums.push_back(qp.qp_num());
    }
  }

  mpi::Rank& peer = world.rank(dst_);
  world.send_control(rank_.id(), dst_, [&peer, si] {
    peer.matcher().on_send_init(si);
  });
}

void PsendRequest::on_ack(const RecvAck& ack) {
  PARTIB_ASSERT(!remote_ready_);
  remote_rkey_ = ack.rkey;
  remote_base_ = ack.base_addr;
  receiver_request_ = ack.receiver_request;
  if (opts_.shared_resources) {
    PARTIB_ASSERT(ack.qp_nums.empty());
  } else {
    PARTIB_ASSERT(ack.qp_nums.size() == qps_.size());
    for (std::size_t i = 0; i < qps_.size(); ++i) {
      PARTIB_ASSERT(ok(qps_[i]->to_rtr(ack.qp_nums[i])));
      PARTIB_ASSERT(ok(qps_[i]->to_rts()));
    }
  }
  remote_ready_ = true;
  completions_scratch_.swap(prepare_callbacks_);
  for (auto& cb : completions_scratch_) cb();
  completions_scratch_.clear();
  flush_deferred();
}

void PsendRequest::request_connection() {
  PARTIB_ASSERT(opts_.shared_resources && remote_ready_ && !conn_requested_);
  conn_requested_ = true;
  // The expect() token is the receiver-request pointer the ack carried —
  // already registered on the peer manager before the ack was sent.
  conn_id_ = rank_.connections().connect(
      dst_, plan_.qp_count,
      reinterpret_cast<std::uint64_t>(receiver_request_),
      [this](mpi::ConnectionManager::Connection& conn) {
        on_connected(conn);
      });
}

void PsendRequest::on_connected(mpi::ConnectionManager::Connection& conn) {
  PARTIB_ASSERT(!conn_established_);
  PARTIB_ASSERT(conn.qps.size() == static_cast<std::size_t>(plan_.qp_count));
  qps_ = conn.qps;
  conn.on_wc = [this](const verbs::Wc& wc) {
    handle_send_wc(wc);
    // The shared tail (backlog drain, error recycle, completion check)
    // runs once per dispatch batch via the coalesced progress event.
    schedule_progress();
  };
  conn_established_ = true;
  flush_deferred();
}

void PsendRequest::pbuf_prepare(Completion cb) {
  if (remote_ready_) {
    rank_.world().engine().schedule_after(0, std::move(cb),
                                          "psend.pbuf_prepare");
    return;
  }
  prepare_callbacks_.push_back(std::move(cb));
}

void PsendRequest::on_credit() {
  ++credits_;
  flush_deferred();
}

void PsendRequest::flush_deferred() {
  // Deferred work queued before the ack arrived is a pending "first send":
  // once the ack names the peer's expect() token, it must kick off the
  // lazy establishment or nothing ever would.
  if (opts_.shared_resources && remote_ready_ && !conn_requested_ &&
      !deferred_.empty()) {
    request_connection();
  }
  if (!can_post()) return;
  while (!deferred_.empty()) {
    auto fn = std::move(deferred_.front());
    deferred_.pop_front();
    fn();
  }
}

Status PsendRequest::start() {
  if (failed_) return Status::kRemoteError;
  PARTIB_CHECK_HOOK(on_psend_start(this));
  if (started_ && !test()) return Status::kInvalidState;
  if (plan_.learning) {
    // Fold the finished epoch (if one completed) and re-plan.  The round
    // is quiescent here — start() rejects in-flight rounds above — so
    // swapping the group layout cannot orphan a timer or an arrived run.
    if (started_ && ready_count_ == n_) profile_.fold();
    replan_from_profile();
  }
  started_ = true;
  ++round_;
  ready_count_ = 0;
  std::fill(arrived_words_.begin(), arrived_words_.end(), std::uint64_t{0});
  std::fill(sent_words_.begin(), sent_words_.end(), std::uint64_t{0});
  for (Group& g : groups_) PARTIB_ASSERT(!g.timer.valid());
  groups_.assign(tp_, Group{});
  return Status::kOk;
}

void PsendRequest::set_uniform_groups(std::size_t tp) {
  PARTIB_ASSERT(tp >= 1 && n_ % tp == 0);
  PARTIB_ASSERT(tp <= group_first_.capacity());
  const std::size_t gs = n_ / tp;
  group_first_.resize(tp);
  group_count_.resize(tp);
  for (std::size_t g = 0; g < tp; ++g) {
    group_first_[g] = g * gs;
    group_count_[g] = gs;
  }
  for (std::size_t p = 0; p < n_; ++p) {
    part_group_[p] = static_cast<std::uint16_t>(p / gs);
  }
  tp_ = tp;
  plan_.transport_partitions = tp_;
  group_size_ = gs;
}

PARTIB_HOT void PsendRequest::adopt_layout(const std::size_t* first,
                                           const std::size_t* count,
                                           std::size_t groups) {
  PARTIB_ASSERT(groups >= 1 && groups <= group_first_.capacity());
  group_first_.resize(groups);  // within reserved capacity: no allocation
  group_count_.resize(groups);
  std::size_t expect = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    PARTIB_ASSERT_MSG(first[g] == expect && count[g] >= 1,
                      "group layout must cover [0, n) contiguously");
    group_first_[g] = first[g];
    group_count_[g] = count[g];
    for (std::size_t i = 0; i < count[g]; ++i) {
      part_group_[first[g] + i] = static_cast<std::uint16_t>(g);
    }
    expect += count[g];
  }
  PARTIB_ASSERT(expect == n_);
  tp_ = groups;
  plan_.transport_partitions = tp_;
  group_size_ = n_ / tp_;
}

PARTIB_HOT void PsendRequest::replan_from_profile() {
  if (profile_.epochs() == 0) return;  // still cold
  const Duration* arr = profile_.predicted();
  const model::ArrivalPlanResult cand = model::plan_from_arrivals(
      plan_.model_params, buf_.size(), arr, n_, plan_.learn,
      cand_first_.data(), cand_count_.data(), plan_scratch_);
  const Duration incumbent = model::predict_grouped_completion(
      plan_.model_params, psize_, arr, group_first_.data(),
      group_count_.data(), tp_, plan_.timer_delta, plan_scratch_);
  // Hysteresis on the drain tail, not the whole epoch: perceived
  // bandwidth is bytes / (completion - last Pready), and the last arrival
  // is a property of the workload the plan cannot move.  Comparing
  // completion times directly would drown a 2x tail win in a 12 ms epoch
  // and epsilon would never clear.  Both predictions share the arrival
  // vector, so subtracting its max is exact.  Identical layouts predict
  // identical times, so a converged profile cannot flap.
  Duration a_last = arr[0];
  for (std::size_t i = 1; i < n_; ++i) a_last = std::max(a_last, arr[i]);
  const Duration cand_tail = cand.predicted - a_last;
  const Duration inc_tail = incumbent - a_last;
  if (static_cast<double>(cand_tail) <
      static_cast<double>(inc_tail) *
          (1.0 - plan_.learn.hysteresis_epsilon)) {
    adopt_layout(cand_first_.data(), cand_count_.data(), cand.groups);
    plan_.timer_delta = cand.delta;
    ++replans_adopted_;
  }
}

Status PsendRequest::seed_profile(std::span<const Duration> offsets) {
  if (!plan_.learning) return Status::kInvalidState;
  if (offsets.size() != n_) return Status::kInvalidArgument;
  profile_.seed(offsets.data(), offsets.size());
  return Status::kOk;
}

PARTIB_HOT Status PsendRequest::pready(std::size_t partition) {
  PARTIB_CHECK_HOOK(on_owned_access(this, "psend"));
  if (failed_) return Status::kRemoteError;
  PARTIB_CHECK_HOOK(on_pready(this, partition));
  if (!started_) return Status::kInvalidState;
  if (partition >= n_) return Status::kInvalidArgument;
  if (bitmap_test(arrived_words_.data(), partition)) {
    return Status::kInvalidArgument;  // double Pready
  }
  bitmap_set(arrived_words_.data(), partition);
  ++ready_count_;
  if (plan_.learning) {
    profile_.record(partition, rank_.world().engine().now());
  }

  const std::size_t g = group_of(partition);
  Group& grp = groups_[g];
  ++grp.arrived;

  if (grp.arrived == group_count_[g]) {
    on_partition_complete_group(g);
  } else if (plan_.timer_based) {
    if (grp.timer_fired) {
      // Deadline already flushed this group; late arrivals go out
      // immediately (paper Fig 5: p2 sends {2} on arrival after delta).
      flush_group_runs(g);
    } else if (grp.arrived == 1) {
      grp.timer = rank_.world().engine().schedule_after(
          plan_.timer_delta, [this, g] { on_group_timer(g); },
          "psend.group_timer");
    }
  }
  return Status::kOk;
}

PARTIB_HOT Status PsendRequest::pready_range(std::size_t first,
                                             std::size_t last) {
  if (first > last || last >= n_) return Status::kInvalidArgument;
  for (std::size_t i = first; i <= last; ++i) {
    const Status st = pready(i);
    // Stop at the first failure.  Partitions already marked this round
    // stay ready (their groups may be in flight); see the header's
    // partial-success contract — the caller retries from `i`, not from
    // `first`.
    if (!ok(st)) return st;
  }
  return Status::kOk;
}

void PsendRequest::on_partition_complete_group(std::size_t g) {
  Group& grp = groups_[g];
  if (grp.timer.valid()) {
    rank_.world().engine().cancel(grp.timer);
    grp.timer = sim::Engine::EventId{};
  }
  if (!grp.any_sent) {
    // The common case: the last arrival aggregates the whole group into a
    // single work request.
    grp.any_sent = true;
    const std::size_t first = group_first_[g];
    const std::size_t count = group_count_[g];
    bitmap_set_range(sent_words_.data(), first, count);
    post_message(first, count);
  } else {
    flush_group_runs(g);
  }
}

void PsendRequest::on_group_timer(std::size_t g) {
  Group& grp = groups_[g];
  grp.timer = sim::Engine::EventId{};
  grp.timer_fired = true;
  grp.any_sent = true;
  flush_group_runs(g);
}

void PsendRequest::flush_group_runs(std::size_t g) {
  flush_pending_runs(arrived_words_.data(), sent_words_.data(),
                     group_first_[g], group_count_[g],
                     [this, g](std::size_t first, std::size_t count) {
                       groups_[g].any_sent = true;
                       post_message(first, count);
                     });
}

Duration PsendRequest::ucx_software_cost(std::size_t bytes) const {
  Duration cost;
  if (bytes <= kUcxBcopyMax) {
    cost = kUcxBcopyCost +
           static_cast<Duration>(kUcxCopyG * static_cast<double>(bytes));
  } else if (bytes < kUcxRndvMin) {
    cost = kUcxZcopyCost;
  } else {
    cost = kUcxRndvCost;
  }
  // When more threads than cores contend for the UCX worker lock, the
  // holder can be descheduled mid-critical-section (lock convoy): the
  // serialized cost scales by sqrt(threads / cores), with one thread per
  // user partition (the benchmarks' convention).  This is the
  // oversubscription penalty behind the paper's 128-partition results
  // (§V-B2).
  const double threads = static_cast<double>(n_);
  const double cores = static_cast<double>(mpi::kCoresPerRank);
  if (threads > cores) {
    cost = static_cast<Duration>(static_cast<double>(cost) *
                                 std::sqrt(threads / cores));
  }
  return cost;
}

Duration PsendRequest::ucx_pre_post_delay(std::size_t bytes) const {
  if (bytes < kUcxRndvMin) return 0;
  return static_cast<Duration>(kUcxRndvExtraLatencies) *
         rank_.world().options().nic.wire.L;
}

std::uint32_t PsendRequest::acquire_staged() {
  if (staged_free_ == kNilStaged) {
    staged_.push_back(StagedWr{});
    return static_cast<std::uint32_t>(staged_.size() - 1);
  }
  const std::uint32_t id = staged_free_;
  staged_free_ = staged_[id].next_free;
  return id;
}

void PsendRequest::release_staged(std::uint32_t id) {
  staged_[id].next_free = staged_free_;
  staged_free_ = id;
}

void PsendRequest::post_message(std::size_t first, std::size_t count) {
  PARTIB_ASSERT(count >= 1 && first + count <= n_);
  ++inflight_msgs_;
  PARTIB_CHECK_HOOK(on_psend_msg_intent(this));
  if (!can_post()) {
    // Shared mode establishes lazily: the first blocked post is the
    // "first send toward the peer" that kicks off the QP chain.
    if (opts_.shared_resources && remote_ready_ && !conn_requested_) {
      request_connection();
    }
    deferred_.push_back([this, first, count] {
      --inflight_msgs_;  // re-counted by the re-entrant call
      PARTIB_CHECK_HOOK(on_psend_msg_intent_undone(this));
      post_message(first, count);
    });
    return;
  }

  const std::size_t bytes = count * psize_;

  // The WR is built in place inside a staged slab record, so the whole
  // CPU → doorbell → post pipeline passes a 4-byte record id around and
  // every closure fits the callback small-object buffers (no per-message
  // heap traffic — the paper's thin-Pready argument applied to the
  // simulator's own hot path).
  const std::uint32_t id = acquire_staged();
  StagedWr& staged = staged_[id];
  staged.qp_index = static_cast<std::uint32_t>(
      group_of(first) % static_cast<std::size_t>(plan_.qp_count));

  staged.attempts = 0;

  verbs::SendWr& wr = staged.wr;
  wr = verbs::SendWr{};
  // The record id rides in wr_id so the send CQE (success or failure)
  // maps back to the staged record; the record lives until the success
  // CQE releases it, which is what makes retransmit possible.
  wr.wr_id = id;
  wr.opcode = verbs::Opcode::kRdmaWriteWithImm;
  wr.sg_list.push_back(verbs::Sge{wire_addr(buf_.data() + first * psize_),
                                  static_cast<std::uint32_t>(bytes),
                                  mr_->lkey()});
  wr.imm = encode_imm(static_cast<std::uint32_t>(first),
                      static_cast<std::uint32_t>(count));
  PARTIB_CHECK_HOOK(on_imm_encoded(this, first, count, wr.imm));
  wr.remote_addr = remote_base_ + first * psize_;
  wr.rkey = remote_rkey_;
  if (plan_.path == agg::Path::kUcxLike && bytes < kUcxRndvMin) {
    wr.rate_cap_factor = kUcxEagerWireShare;
  }

  // Host-side posting splits into a parallel part done by the calling
  // thread (flag update, WR fill — our design keeps this lock-free, the
  // paper's point) and a serialised part done under a lock (the doorbell
  // write; for the baseline, the whole UCX worker send path).  Lock
  // contention is what aggregation relieves at high partition counts
  // (§V-B2).  The parallel part occupies a core, so oversubscribed nodes
  // feel it.  With DPU aggregation (§VI-A future work) the host only
  // flips the flag and the per-rank DPU engine does everything else.
  const mpi::WorldOptions& wo = rank_.world().options();
  const bool use_dpu =
      wo.dpu_aggregation && plan_.path == agg::Path::kVerbs;
  Duration host_work = mpi::kPreadyCpu;
  staged.serialized = wo.nic.o_post;
  staged.pre_delay = 0;
  staged.engine_res = &rank_.doorbell();
  if (plan_.path == agg::Path::kUcxLike) {
    staged.serialized += ucx_software_cost(bytes);
    staged.pre_delay = ucx_pre_post_delay(bytes);
  } else if (use_dpu) {
    staged.serialized += mpi::kVerbsSwPerMsg + mpi::kDpuPostOverhead;
    staged.engine_res = rank_.dpu();
  } else {
    host_work += mpi::kVerbsSwPerMsg;
  }
  rank_.cpu().submit(host_work, [this, id] { on_host_work_done(id); });
}

void PsendRequest::on_host_work_done(std::uint32_t id) {
  StagedWr& staged = staged_[id];
  staged.engine_res->request(
      staged.serialized, [this, id](Time, Time) { on_doorbell_granted(id); });
}

void PsendRequest::on_doorbell_granted(std::uint32_t id) {
  const Duration pre_delay = staged_[id].pre_delay;
  if (pre_delay > 0) {
    rank_.world().engine().schedule_after(
        pre_delay, [this, id] { post_staged(id); }, "psend.pre_post_delay");
  } else {
    post_staged(id);
  }
}

void PsendRequest::post_staged(std::uint32_t id) {
  StagedWr& staged = staged_[id];
  verbs::Qp& qp = *qps_[staged.qp_index];
  if (qp.state() != verbs::QpState::kRts) {
    // Errored mid-round; park until progress() recycles the QP.
    qp_backlog_[staged.qp_index].push_back(id);
    return;
  }
  const Status st = qp.post_send(staged.wr);
  if (st == Status::kResourceExhausted) {
    // All 16 WR slots busy: software-queue and retry on the next CQE.
    qp_backlog_[staged.qp_index].push_back(id);
    return;
  }
  PARTIB_ASSERT_MSG(ok(st), to_string(st));
  ++wrs_posted_total_;
}

void PsendRequest::schedule_progress() {
  if (progress_scheduled_.exchange(true, std::memory_order_acq_rel)) return;
  rank_.world().engine().schedule_after(
      0,
      [this] {
        progress_scheduled_.store(false, std::memory_order_release);
        progress();
      },
      "psend.progress");
}

void PsendRequest::handle_send_wc(const verbs::Wc& wc) {
  const auto id = static_cast<std::uint32_t>(wc.wr_id);
  switch (wc.status) {
    case verbs::WcStatus::kSuccess:
      release_staged(id);
      PARTIB_ASSERT(inflight_msgs_ > 0);
      --inflight_msgs_;
      PARTIB_CHECK_HOOK(on_psend_msg_complete(this));
      break;
    case verbs::WcStatus::kRetryExcErr:
    case verbs::WcStatus::kRnrRetryExcErr:
    case verbs::WcStatus::kWrFlushErr:
      if (failed_) {
        abandon_staged(id);  // post-failure flush stragglers
      } else {
        retry_staged(id, wc.status);
      }
      break;
    default:
      PARTIB_ASSERT_MSG(false, to_string(wc.status));
  }
}

void PsendRequest::progress() {
  // Shared mode has no private CQ: completions arrive through the
  // connection's on_wc (handle_send_wc per Wc), and this event runs only
  // the shared tail below.
  if (cq_ != nullptr) {
    verbs::Wc wcs[16];
    int n;
    while ((n = cq_->poll(std::span<verbs::Wc>(wcs))) > 0) {
      for (int i = 0; i < n; ++i) handle_send_wc(wcs[i]);
    }
  }
  // Flushed WRs leave their QP wedged in ERROR; once its last outstanding
  // CQE has drained, recycle it so backed-off re-posts find it in RTS.
  // The drain can finish on a SUCCESS CQE — an op already on the wire
  // when the QP dropped to error still completes — so recycling must not
  // be gated on this pass having polled a failure (found by fuzz seed
  // 231: success-drained ERROR QP + all retries parked == permanent
  // stall).  The scan is a handful of enum loads; state changes are
  // synchronous, so the zero-fault event stream is untouched.
  if (!failed_) recycle_errored_qps();
  if (failed_) {
    // Pipeline stages mid-flight at fail time may still park records here
    // (fail_channel already emptied it once); nothing will ever drain a
    // dead channel's backlog, so abandon stragglers as they appear.
    for (auto& backlog : qp_backlog_) {
      while (!backlog.empty()) {
        abandon_staged(backlog.front());
        backlog.pop_front();
      }
    }
    check_completion();
    return;
  }
  // Freed WR slots: drain software backlogs.  The staged record is only
  // dequeued once the QP accepts it, so a still-full QP costs one peek.
  for (std::size_t q = 0; q < qp_backlog_.size(); ++q) {
    auto& backlog = qp_backlog_[q];
    while (!backlog.empty()) {
      if (qps_[q]->state() != verbs::QpState::kRts) break;
      const std::uint32_t id = backlog.front();
      const Status st = qps_[q]->post_send(staged_[id].wr);
      if (st == Status::kResourceExhausted) break;
      PARTIB_ASSERT(ok(st));
      ++wrs_posted_total_;
      backlog.pop_front();
    }
  }
  check_completion();
}

void PsendRequest::retry_staged(std::uint32_t id, verbs::WcStatus status) {
  StagedWr& staged = staged_[id];
  ++staged.attempts;
  if (staged.attempts > static_cast<std::uint32_t>(opts_.max_send_retries)) {
    fail_channel(status);
    abandon_staged(id);
    return;
  }
  const std::uint32_t exp = std::min<std::uint32_t>(staged.attempts - 1, 10);
  rank_.world().engine().schedule_after(
      opts_.retry_backoff << exp, [this, id] { repost_staged(id); },
      "psend.retry");
}

void PsendRequest::repost_staged(std::uint32_t id) {
  if (failed_) {
    abandon_staged(id);
    return;
  }
  post_staged(id);  // parks in the backlog if the QP is not RTS yet
  schedule_progress();
}

void PsendRequest::abandon_staged(std::uint32_t id) {
  release_staged(id);
  PARTIB_ASSERT(inflight_msgs_ > 0);
  --inflight_msgs_;
  PARTIB_CHECK_HOOK(on_psend_msg_intent_undone(this));
}

void PsendRequest::recycle_errored_qps() {
  for (verbs::Qp* qp : qps_) {
    if (qp->state() != verbs::QpState::kError) continue;
    // Outstanding WRs mean more flush CQEs are coming; their progress
    // pass recycles.  (Send-side QPs post no receives, so nothing else
    // is lost in the reset.)
    if (qp->outstanding_send_wrs() != 0) continue;
    PARTIB_ASSERT(ok(qp->to_reset()));
    PARTIB_ASSERT(ok(qp->to_init()));
    PARTIB_ASSERT(ok(qp->to_rtr(qp->remote_qp_num())));
    PARTIB_ASSERT(ok(qp->to_rts()));
  }
}

void PsendRequest::fail_channel([[maybe_unused]] verbs::WcStatus status) {
  PARTIB_ASSERT(!failed_);
  failed_ = true;
  PARTIB_CHECK_HOOK(
      on_part_channel_failed(this, rank_.id(), verbs::to_string(status)));
  for (Group& g : groups_) {
    if (g.timer.valid()) {
      rank_.world().engine().cancel(g.timer);
      g.timer = sim::Engine::EventId{};
    }
  }
  // Queued work can never drain now; drop it so inflight accounting
  // terminates.  Records owned by a pending backoff event are abandoned
  // when that event fires (repost_staged checks failed_).
  for (auto& backlog : qp_backlog_) {
    while (!backlog.empty()) {
      abandon_staged(backlog.front());
      backlog.pop_front();
    }
  }
  while (!deferred_.empty()) {
    // Each deferred entry holds exactly one message intent (post_message
    // counted it before deferring).
    deferred_.pop_front();
    PARTIB_ASSERT(inflight_msgs_ > 0);
    --inflight_msgs_;
    PARTIB_CHECK_HOOK(on_psend_msg_intent_undone(this));
  }
  // The receiver's wait must terminate too: partitions this channel never
  // delivered will never arrive.
  if (receiver_request_ != nullptr) {
    auto* recv = static_cast<PrecvRequest*>(receiver_request_);
    rank_.world().send_control(rank_.id(), dst_,
                               [recv] { recv->on_peer_failed(); });
  }
}

bool PsendRequest::test() const {
  if (failed_) return true;    // waiting must terminate; see status()
  if (!started_) return true;  // inactive request
  return ready_count_ == n_ && inflight_msgs_ == 0;
}

void PsendRequest::when_complete(Completion cb) {
  if (test()) {
    rank_.world().engine().schedule_after(0, std::move(cb),
                                          "psend.when_complete");
    return;
  }
  completions_.push_back(std::move(cb));
}

void PsendRequest::check_completion() {
  if (!test()) return;
  if (started_) PARTIB_CHECK_HOOK(on_psend_round_complete(this));
  if (completions_.empty()) return;
  // Ping-pong with the scratch vector: both keep their capacity, so a
  // steady-state round registers, fires and clears callbacks without
  // touching the allocator.
  completions_scratch_.swap(completions_);
  [[maybe_unused]] const std::size_t fired = completions_scratch_.size();
  for (auto& cb : completions_scratch_) cb();
  completions_scratch_.clear();
#if PARTIB_CHECK_ENABLED
  // The no-reallocation contract of the satellite fix: unless a round
  // registered more callbacks than the init-time reserve, firing them
  // must not have grown either vector.
  if (fired <= kCallbackReserve) {
    PARTIB_ASSERT(completions_scratch_.capacity() == kCallbackReserve);
  }
#endif
}

}  // namespace partib::part
