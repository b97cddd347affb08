// Receive-side partitioned request.
//
// precv_init registers with the rank's matcher and completes the channel
// handshake whenever the sender's record arrives (either order works).
// start() posts the receive WRs RDMA_WRITE_WITH_IMM requires and issues
// one round credit to the sender.  Partition arrival is decoded from the
// immediate value of each receive completion; parrived()/test() read the
// per-partition arrival flags, exactly as the paper's receive path does.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "mpi/conn.hpp"
#include "mpi/world.hpp"
#include "part/options.hpp"
#include "part/wire.hpp"
#include "verbs/verbs.hpp"

namespace partib::part {

class PrecvRequest {
 public:
  using Completion = std::function<void()>;
  /// Observer invoked on every partition arrival (profiler hook):
  /// (partition index, arrival virtual time).
  using ArrivalHook = std::function<void(std::size_t, Time)>;

  /// MPI_Precv_init analogue.  Non-blocking; matching is by
  /// (src, tag, comm_id) in posted order, no wildcards.
  static Status init(mpi::Rank& rank, std::span<std::byte> buffer,
                     std::size_t partitions, int src, int tag, int comm_id,
                     const Options& opts,
                     std::unique_ptr<PrecvRequest>* out);

  ~PrecvRequest();
  PrecvRequest(const PrecvRequest&) = delete;
  PrecvRequest& operator=(const PrecvRequest&) = delete;

  /// MPI_Start: begin the next round (reposts receive WRs, credits the
  /// sender).
  Status start();

  /// MPI_Parrived analogue: has user partition `partition` landed this
  /// round?
  bool parrived(std::size_t partition) const;

  /// MPI_Test analogue: all partitions arrived this round (an inactive
  /// request is trivially complete).  A failed channel also tests
  /// complete — waiting must terminate — with status() holding the error.
  bool test() const;

  void when_complete(Completion cb);

  /// True once the sender reported permanent channel failure; partitions
  /// not yet arrived at that point will never arrive.
  bool failed() const { return failed_; }
  /// kRemoteError after channel failure, kOk otherwise.
  Status status() const {
    return failed_ ? Status::kRemoteError : Status::kOk;
  }

  /// Control-plane entry point: the sender exhausted its failure budget
  /// (called via World::send_control from PsendRequest::fail_channel).
  void on_peer_failed();

  void set_arrival_hook(ArrivalHook hook) { arrival_hook_ = std::move(hook); }

  /// Threaded runtime (src/runtime/): tag this side's CQ and QPs with the
  /// owning progress shard (see PsendRequest::tag_shard).
  void tag_shard(int shard);

  // -- introspection ---------------------------------------------------------
  std::size_t user_partitions() const { return n_; }
  std::size_t partition_bytes() const { return psize_; }
  bool matched() const { return matched_; }
  int round() const { return round_; }
  std::uint64_t messages_received_total() const { return msgs_received_; }

 private:
  PrecvRequest(mpi::Rank& rank, std::span<std::byte> buffer,
               std::size_t partitions, int src, int tag, int comm_id,
               const Options& opts);

  void on_match(const mpi::SendInit& si);
  void post_recv_wrs();
  void send_credit();
  /// The manager accepted the sender's chain (shared mode): adopt the QPs
  /// and set the connection's receive-Wc handler.
  void on_accept(mpi::ConnectionManager::Connection& conn);
  /// Decode one receive completion into partition-arrival bookkeeping
  /// (shared mode: routed per-Wc by the manager; dedicated mode: polled in
  /// batches by progress()).
  void consume_recv_wc(const verbs::Wc& wc);
  void schedule_progress();
  void progress();
  void check_completion();

  mpi::Rank& rank_;
  std::span<std::byte> buf_;
  std::size_t n_;
  std::size_t psize_;
  int src_;
  int tag_;
  int comm_id_;
  Options opts_;

  verbs::Cq* cq_ = nullptr;   ///< private CQ; nullptr in shared mode
  verbs::Srq* srq_ = nullptr; ///< per-channel SRQ (dedicated mode staging)
  verbs::Mr* mr_ = nullptr;
  std::vector<verbs::Qp*> qps_;

  // -- shared-resources mode (mpi/conn.hpp) -----------------------------------
  mpi::ConnectionManager::ConnId conn_id_ = mpi::ConnectionManager::kNilConn;
  /// SRQ headroom reserved on the rank manager (worst case: every sender
  /// partition in its own message), returned in the destructor.
  std::size_t reserved_wrs_ = 0;
  bool expect_registered_ = false;

  bool matched_ = false;
  void* sender_request_ = nullptr;  ///< peer PsendRequest (opaque)
  std::size_t sender_tp_ = 1;
  std::size_t sender_group_size_ = 1;
  /// Sender-side user partition count — the worst-case messages per round
  /// (fully scattered timer flush).  Kept separately from tp * group_size
  /// because learned plans may adopt non-uniform groups whose count does
  /// not divide the partition count.
  std::size_t sender_parts_ = 1;
  /// Sender-side user partition size.  MPI-4.0 allows the two sides to
  /// partition the buffer differently as long as the totals match; all
  /// wire traffic is in sender units and translated to receive partitions
  /// by byte accounting.
  std::size_t sender_psize_ = 0;

  bool started_ = false;
  bool failed_ = false;  ///< sender reported permanent channel failure
  int round_ = 0;
  std::size_t arrived_count_ = 0;  ///< completed *receive* partitions
  /// Bytes landed in each receive partition this round.
  std::vector<std::size_t> bytes_arrived_;
  /// Receive WRs currently posted to the channel SRQ (dedicated mode;
  /// topped up each Start).  Every QP of the channel draws from the one
  /// SRQ, so the count is per-channel, not per-QP.
  int posted_recvs_ = 0;

  std::uint64_t msgs_received_ = 0;
  /// Progress-coalescing flag (see PsendRequest::progress_scheduled_).
  std::atomic<bool> progress_scheduled_{false};
  // Ping-pong pair reserved at init so steady-state rounds fire completion
  // callbacks without allocating (same contract as PsendRequest).
  static constexpr std::size_t kCallbackReserve = 8;
  std::vector<Completion> completions_;
  std::vector<Completion> completions_scratch_;
  ArrivalHook arrival_hook_;
};

}  // namespace partib::part
