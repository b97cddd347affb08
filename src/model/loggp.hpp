// LogGP parameter sets.
//
// LogGP (Alexandrov et al.) models a message-passing network with:
//   L   — wire latency for the first byte,
//   o_s — sender CPU overhead per message,
//   o_r — receiver CPU overhead per message,
//   g   — minimum gap between consecutive message injections,
//   G   — per-byte transmission time (1/bandwidth).
//
// Two presets matter for this reproduction:
//  * `niagara_mpi_measured()` — parameters of the flavour the paper fed the
//    PLogGP model: Netgauge's *MPI module* over Open MPI + UCX.  These are
//    software-stack values (g in the tens of microseconds), not raw NIC
//    values; the paper explicitly notes this mismatch (§V-B1) and so do we.
//  * fabric::NicParams (src/fabric) carries the separate, much smaller,
//    direct-verbs values used by the simulated NIC.
#pragma once

#include "common/fields.hpp"
#include "common/time.hpp"

namespace partib::model {

struct LogGPParams {
  Duration L = 0;    ///< latency, ns
  Duration o_s = 0;  ///< sender per-message overhead, ns
  Duration o_r = 0;  ///< receiver per-message overhead, ns
  Duration g = 0;    ///< inter-message gap, ns
  double G = 0.0;    ///< ns per byte

  /// max(g, o_s, o_r): the per-message cost LogGP charges between
  /// back-to-back messages (see the paper's Fig 2 formula).
  Duration per_message_cost() const;

  /// Netgauge-MPI-module-like parameters for a Niagara-class
  /// (EDR InfiniBand, Open MPI + UCX) system.  Chosen so the PLogGP
  /// optimizer reproduces the paper's Table I exactly (see
  /// tests/model/ploggp_test.cpp).
  static LogGPParams niagara_mpi_measured();
};

template <typename V, FieldsOf<LogGPParams> S>
void visit_fields(V&& v, S& p) { v(p.L, p.o_s, p.o_r, p.g, p.G); }

}  // namespace partib::model
