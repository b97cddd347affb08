// Ordered matching of partitioned-channel initialisation.
//
// MPI Partitioned matches Psend_init/Precv_init pairs on
// (source rank, tag, communicator) strictly in posted order, with no
// wildcards (§II-A: avoiding wildcard matching is one of the interface's
// deliberate benefits for threaded codes).  Matching happens once, at
// initialisation — never on the per-partition fast path.
// Thread-safety: both queues live under the annotated `mu_`; the matched
// on_match callback is invoked *after* the lock is released (it re-enters
// PrecvRequest setup, which posts WRs and sends credits — none of which
// may run under the matcher's lock).  Matching remains init-time-only, so
// this lock is never on the per-partition fast path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace partib::mpi {

struct MatchKey {
  int peer = 0;  ///< source rank as seen by the receiver
  int tag = 0;
  int comm_id = 0;

  auto operator<=>(const MatchKey&) const = default;
};

/// The handshake record a sender's Psend_init ships to the receiver.
struct SendInit {
  MatchKey key;  ///< key.peer = sender's rank
  std::size_t total_bytes = 0;
  std::size_t user_partitions = 0;
  std::size_t transport_partitions = 0;
  int qp_count = 0;
  /// Sender QP numbers (dedicated mode).  Empty in shared mode, where the
  /// QP exchange rides the connection manager's lazy-establish protocol
  /// (mpi/conn.hpp) instead of the handshake.
  std::vector<std::uint32_t> qp_nums;
  /// True when the sender runs part::Options::shared_resources; the
  /// receiver must match (channel modes cannot be mixed).
  bool shared = false;
  /// Opaque sender-side request handle echoed back in the ack path
  /// (in-process simulation: the ack closure resolves it).
  void* sender_request = nullptr;
};

/// Receiver-side matcher: pairs incoming SendInit records with posted
/// Precv_init descriptors, queuing whichever side arrives first.
///
/// Storage is one FIFO chain per key, threaded through a per-side slab of
/// entries and indexed by a flat open-addressing hash of the key (the
/// engine's per-timestamp bucket idiom, sim/engine.hpp).  A key can only
/// ever have one side waiting — an arrival on the other side matches
/// instead of queueing — so one chain per key serves both sides.  Post,
/// match and drain are O(1) whatever the queue depth: a hot rank matching
/// thousands of fan-in channels (bench incast) pays the same per
/// handshake as a pair of ranks.
///
/// Drain order is deterministic and pinned: entries match strictly in
/// posted order per key (MPI's no-wildcard ordered-matching rule), because
/// a chain appends at its tail and matches from its head.  A monotone
/// sequence number per entry backs the PARTIB_CHECK assertion and the
/// differential test against the verbatim map/deque reference
/// (tests/support/reference_matcher.hpp).  This is what keeps multirank
/// tests byte-stable at any --jobs=N: the match sequence depends only on
/// posting order, never on container iteration order.
class InitMatcher {
 public:
  using OnMatch = std::function<void(const SendInit&)>;

  /// A local Precv_init was posted; `on_match` fires (possibly
  /// immediately) when the corresponding Psend_init handshake arrives.
  void post_recv_init(const MatchKey& key, OnMatch on_match);

  /// A remote Psend_init handshake arrived.
  void on_send_init(const SendInit& init);

  std::size_t pending_recvs() const {
    common::MutexLock lock(mu_);
    return recvs_.live;
  }
  std::size_t unexpected_sends() const {
    common::MutexLock lock(mu_);
    return sends_.live;
  }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// One side's waiting entries.  `next` links a key's FIFO chain, or the
  /// free list once the entry has matched.
  template <class T>
  struct Slab {
    struct Node {
      T value;
      std::uint64_t seq;  ///< posted-order stamp
      std::uint32_t next;
    };
    std::vector<Node> nodes;
    std::uint32_t free = kNil;
    std::size_t live = 0;

    template <class V>
    inline std::uint32_t put(V&& value, std::uint64_t seq);
    /// Put entry `i`, its value moved out, on the free list.
    inline void release(std::uint32_t i);
  };

  /// Hash cell: the waiting chain of one key.  `head == kNil` marks an
  /// empty cell — a chain that drains is erased on the spot.
  struct Queue {
    MatchKey key;
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    bool sends = false;  ///< chain threads sends_ (else recvs_)
  };

  // The helpers run on every post and every arrival; `inline` keeps them
  // in their callers' frames (BM_MatcherChurn).

  inline std::size_t home(const MatchKey& key) const PARTIB_REQUIRES(mu_);
  /// Index of `key`'s cell, or of the empty cell ending its probe run.
  inline std::size_t cell(const MatchKey& key) const PARTIB_REQUIRES(mu_);
  /// Reallocate the table at `size` cells and rehash into it.
  void resize_table(std::size_t size) PARTIB_REQUIRES(mu_);
  /// Append to `key`'s chain in `slab`; `c` is `cell(key)`.
  template <class T, class V>
  inline void push(std::size_t c, const MatchKey& key, Slab<T>& slab,
                   V&& value) PARTIB_REQUIRES(mu_);
  /// Unlink the head of cell `c`'s chain in `slab` and return its index
  /// (the caller moves the value out and releases it); erases the cell
  /// when the chain drains.
  template <class T>
  inline std::uint32_t pop(std::size_t c, Slab<T>& slab)
      PARTIB_REQUIRES(mu_);
  /// Empty cell `c`, backward-shifting its probe run (no tombstones).
  inline void erase(std::size_t c) PARTIB_REQUIRES(mu_);

  mutable common::Mutex mu_{"mpi.matcher"};
  Slab<OnMatch> recvs_ PARTIB_GUARDED_BY(mu_);
  Slab<SendInit> sends_ PARTIB_GUARDED_BY(mu_);
  /// Power-of-two size, allocated on first use.
  std::vector<Queue> table_ PARTIB_GUARDED_BY(mu_);
  unsigned shift_ PARTIB_GUARDED_BY(mu_) = 0;  ///< 64 - log2(table size)
  std::size_t mask_ PARTIB_GUARDED_BY(mu_) = 0;  ///< table size - 1
  std::size_t keys_ PARTIB_GUARDED_BY(mu_) = 0;  ///< occupied cells
  /// posted-order stamp (both sides share it)
  std::uint64_t next_seq_ PARTIB_GUARDED_BY(mu_) = 0;
};

}  // namespace partib::mpi
