// Per-channel options for partitioned communication.
#pragma once

#include <cstddef>
#include <memory>

#include "agg/aggregator.hpp"
#include "common/fields.hpp"
#include "common/time.hpp"
#include "common/units.hpp"

namespace partib::part {

// UCX-like software-path cost model of the persistent baseline
// (agg::Path::kUcxLike; PsendRequest::ucx_software_cost and
// ucx_pre_post_delay).  Thresholds follow the protocol switches the paper
// observes in Open MPI + UCX speedup curves (§V-B2: the eager/bcopy ->
// eager/zcopy switch at 1 KiB shows up as a dip at a 4 KiB aggregate with
// four partitions).
inline constexpr std::size_t kUcxBcopyMax = 1 * KiB;  ///< <= this: eager/bcopy
inline constexpr std::size_t kUcxRndvMin = 64 * KiB;  ///< >= this: rendezvous
inline constexpr Duration kUcxBcopyCost = nsec(120);  ///< per-message bcopy
inline constexpr double kUcxCopyG = 0.10;  ///< ns/byte, bcopy staging copy
/// Per-message zcopy software cost (registration-cache pressure).
inline constexpr Duration kUcxZcopyCost = nsec(1'400);
inline constexpr Duration kUcxRndvCost = nsec(900);  ///< per-message rendezvous
/// Rendezvous adds a ready-to-send handshake before the payload moves;
/// modelled as this many extra wire latencies.
inline constexpr int kUcxRndvExtraLatencies = 2;
/// Wire-rate factor of the eager paths (bcopy/zcopy cannot keep the DMA
/// pipeline full); rendezvous streams at the full per-QP share.
inline constexpr double kUcxEagerWireShare = 0.72;
static_assert(kUcxBcopyMax < kUcxRndvMin);
static_assert(kUcxEagerWireShare > 0.0 && kUcxEagerWireShare <= 1.0);
static_assert(kUcxZcopyCost > kUcxBcopyCost);

/// Options accepted by psend_init / precv_init.  The aggregator is the
/// strategy object (shared, immutable).
struct Options {
  std::shared_ptr<const agg::Aggregator> aggregator;

  /// Connection-scale mode (mpi/conn.hpp): draw QPs from the rank's
  /// on-demand connection manager, drain completions through the rank's
  /// shared CQ, and stage receives in the rank's SRQ instead of
  /// provisioning a private CQ (and receive rings) per channel.  Both
  /// sides of a channel must agree (asserted at match time).  Off by
  /// default: dedicated resources keep the single-channel figures'
  /// event streams untouched.
  bool shared_resources = false;

  // -- fault recovery (docs/FAULTS.md) --------------------------------------
  /// Failure budget per message: a WR whose send completion carries a
  /// retryable error (RETRY_EXC_ERR, RNR_RETRY_EXC_ERR, WR_FLUSH_ERR) is
  /// re-posted with exponential backoff; once one message accumulates more
  /// than this many failed attempts the channel fails permanently and
  /// Psend/Precv calls surface Status::kRemoteError instead of hanging
  /// (rule part.retry_exhausted).
  int max_send_retries = 8;
  /// Base re-post delay; attempt k waits retry_backoff << min(k-1, 10).
  Duration retry_backoff = usec(4);

  /// Default options: PLogGP aggregation with Niagara-like measured
  /// parameters.
  static Options defaults();
};

/// In fingerprint order, not declaration order.  The aggregator hashes as
/// its parameter-complete describe() (agg/aggregator.hpp); the retry budget
/// post-dates the pinned fingerprints, and the deleted transport-partition
/// and QP-count overrides (0: the plan decides) and UCX model stay frozen
/// at their old positions (common/fields.hpp).
template <typename V, FieldsOf<Options> S>
void visit_fields(V&& v, S& o) {
  static const Options kDefault;
  v(o.aggregator, Frozen{std::size_t{0}}, Frozen{0}, o.shared_resources,
    Frozen{kUcxBcopyMax}, Frozen{kUcxRndvMin}, Frozen{kUcxBcopyCost},
    Frozen{kUcxCopyG}, Frozen{kUcxZcopyCost}, Frozen{kUcxRndvCost},
    Frozen{kUcxRndvExtraLatencies}, Frozen{kUcxEagerWireShare},
    Frozen{true},
    Defaulted{"max_send_retries", o.max_send_retries,
              kDefault.max_send_retries},
    Defaulted{"retry_backoff", o.retry_backoff, kDefault.retry_backoff});
}

}  // namespace partib::part
