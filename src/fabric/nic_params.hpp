// Parameters of the simulated NIC / fabric.
//
// These are the *direct-verbs-level* costs of a ConnectX-5-class EDR
// InfiniBand part, distinct from (and much smaller than) the MPI-transport
// LogGP values the PLogGP model is fed (model/loggp.hpp) — reproducing the
// measurement-transport mismatch the paper discusses in §V-B1.
#pragma once

#include <cstddef>

#include "common/fields.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "model/loggp.hpp"

namespace partib::fabric {

struct NicParams {
  /// Wire-level LogGP terms.  Here `o_s` is the NIC's per-WR processing
  /// latency before the first byte leaves, `o_r` the receive-side
  /// CQE-raising latency, `g` the WQE-engine gap (NIC-wide: doorbell and
  /// WQE fetch go over the same PCIe path for every QP).
  model::LogGPParams wire;

  /// Path MTU.  The paper's tuning table was built with a 4 KiB MTU.
  std::size_t mtu = 4 * KiB;

  /// Per-MTU-segment protocol overhead, modelled as extra wire bytes
  /// (LRH+BTH+RETH+ICRC-style headers).
  std::size_t segment_header_bytes = 30;

  /// ConnectX-5 limit the paper works around by spreading WRs over
  /// multiple QPs (§IV-A): at most this many concurrent RDMA WRs per QP.
  int max_outstanding_wr_per_qp = 16;

  /// Fraction of link bandwidth a single QP's engine context can sustain.
  /// Drives the paper's Fig 7 crossover: one QP is enough for small
  /// messages, large messages want the concurrency of many QPs.
  double qp_bw_share = 0.93;

  /// One-time cost charged to a QP's first WR (context fetch / cache warm);
  /// makes many QPs slightly unfavourable for small messages.
  Duration qp_activation = nsec(600);

  /// Host CPU cost of the doorbell write itself — the only part of
  /// posting that holds the QP lock (descriptor build happens outside).
  /// Charged by the runtime, serialised through the doorbell resource.
  Duration o_post = nsec(100);

  /// Latency overhead of out-of-band control-plane messages (QP exchange,
  /// match handshake) on top of wire latency L.
  Duration ctrl_overhead = nsec(500);

  /// Link bandwidth in bytes per nanosecond (1/G of the wire).
  double link_bytes_per_ns() const { return 1.0 / wire.G; }

  /// EDR (100 Gb/s) ConnectX-5-like defaults.
  static NicParams connectx5_edr();
};

template <typename V, FieldsOf<NicParams> S>
void visit_fields(V&& v, S& n) {
  v(n.wire, n.mtu, n.segment_header_bytes, n.max_outstanding_wr_per_qp,
    n.qp_bw_share, n.qp_activation, n.o_post, n.ctrl_overhead);
}

}  // namespace partib::fabric
