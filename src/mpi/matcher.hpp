// Ordered matching of partitioned-channel initialisation.
//
// MPI Partitioned matches Psend_init/Precv_init pairs on
// (source rank, tag, communicator) strictly in posted order, with no
// wildcards (§II-A: avoiding wildcard matching is one of the interface's
// deliberate benefits for threaded codes).  Matching happens once, at
// initialisation — never on the per-partition fast path.
// Thread-safety: all waiting entries live under the annotated `mu_`; the
// matched on_match callback is invoked *after* the lock is released (it
// re-enters PrecvRequest setup, which posts WRs and sends credits — none
// of which may run under the matcher's lock).  Matching remains
// init-time-only, so this lock is never on the per-partition fast path.
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
/// Waiting entries are indexed by peer, a dense rank id in
/// [0, world size): each peer keeps its posted recvs and its unexpected
/// sends in arrival order.  A post or an arrival takes the oldest entry
/// of its (tag, comm) from its own peer's other side, or else appends.
/// So entries match strictly in posted order per key (MPI's no-wildcard
/// ordered-matching rule), and the match sequence depends only on posting
/// order, which keeps multirank tests byte-stable at any --jobs=N.  The
/// trial forms carry at most one channel per key, so a scan is short.
/// tests/support/reference_matcher.hpp is the differential oracle.
class InitMatcher {
 public:
  using OnMatch = std::function<void(const SendInit&)>;

  /// A local Precv_init was posted; `on_match` fires (possibly
  /// immediately) when the corresponding Psend_init handshake arrives.
  void post_recv_init(const MatchKey& key, OnMatch on_match);

  /// A remote Psend_init handshake arrived.
  void on_send_init(const SendInit& init);

  std::size_t pending_recvs() const;
  std::size_t unexpected_sends() const;

 private:
  struct WaitingRecv {
    MatchKey key;
    OnMatch on_match;
  };
  /// One source rank's waiting entries, each side in posted order.
  struct Peer {
    std::vector<WaitingRecv> recvs;
    std::vector<SendInit> sends;
  };

  /// `rank`'s entries, growing the index on first sight of it.
  Peer& peer(int rank) PARTIB_REQUIRES(mu_);

  mutable common::Mutex mu_{"mpi.matcher"};
  std::vector<Peer> peers_ PARTIB_GUARDED_BY(mu_);
};

}  // namespace partib::mpi
