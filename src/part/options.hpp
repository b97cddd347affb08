// Per-channel options for partitioned communication.
#pragma once

#include <cstddef>
#include <memory>

#include "agg/aggregator.hpp"
#include "common/fields.hpp"
#include "common/time.hpp"
#include "common/units.hpp"

namespace partib::part {

/// UCX-like software-path cost model used by the persistent baseline
/// (agg::Path::kUcxLike).  Thresholds follow the protocol switches the
/// paper observes in Open MPI + UCX speedup curves (§V-B2: the
/// eager/bcopy -> eager/zcopy switch at 1 KiB shows up as a dip at a
/// 4 KiB aggregate with four partitions).
struct UcxModel {
  std::size_t bcopy_max = 1 * KiB;   ///< <= this: eager/bcopy (extra copy)
  std::size_t rndv_min = 64 * KiB;   ///< >= this: rendezvous
  Duration o_bcopy = nsec(120);      ///< per-message bcopy software cost
  double copy_G = 0.10;              ///< ns per byte for the bcopy staging copy
  Duration o_zcopy = nsec(1'400);    ///< per-message zcopy software cost
                                     ///< (registration-cache pressure)
  Duration o_rndv = nsec(900);       ///< per-message rendezvous software cost
  /// Rendezvous adds a ready-to-send handshake before the payload moves;
  /// modelled as this many extra wire latencies.
  int rndv_extra_latencies = 2;
  /// Wire-rate factor of the eager paths (bcopy/zcopy cannot keep the DMA
  /// pipeline full); rendezvous streams at the full per-QP share.
  double eager_wire_share = 0.72;
  /// When more threads than cores contend for the UCX worker lock, the
  /// holder can be descheduled mid-critical-section (lock convoy); the
  /// serialized per-message cost scales by sqrt(threads / cores).  This is
  /// the oversubscription penalty behind the paper's 128-partition
  /// results (§V-B2).
  bool model_lock_convoy = true;
};

template <typename V, FieldsOf<UcxModel> S>
void visit_fields(V&& v, S& u) {
  v(u.bcopy_max, u.rndv_min, u.o_bcopy, u.copy_G, u.o_zcopy, u.o_rndv,
    u.rndv_extra_latencies, u.eager_wire_share, u.model_lock_convoy);
}

/// Options accepted by psend_init / precv_init.  The aggregator is the
/// strategy object (shared, immutable); overrides pin individual plan
/// fields for knob-sweep experiments.
struct Options {
  std::shared_ptr<const agg::Aggregator> aggregator;
  std::size_t transport_partitions_override = 0;  ///< 0 = plan decides
  int qp_count_override = 0;                      ///< 0 = plan decides
  UcxModel ucx;

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
/// post-dates the pinned fingerprints (common/fields.hpp).
template <typename V, FieldsOf<Options> S>
void visit_fields(V&& v, S& o) {
  static const Options kDefault;
  v(o.aggregator, o.transport_partitions_override, o.qp_count_override,
    o.shared_resources, o.ucx,
    Defaulted{"max_send_retries", o.max_send_retries,
              kDefault.max_send_retries},
    Defaulted{"retry_backoff", o.retry_backoff, kDefault.retry_backoff});
}

}  // namespace partib::part
