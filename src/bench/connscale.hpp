// Connection-scale benchmark (ISSUE 8 / ROADMAP 2): N-to-1 incast and
// all-to-all at large peer counts, comparing per-channel dedicated
// resources against the shared SRQ + shared-CQ + on-demand connection
// manager fast path (part::Options::shared_resources).
//
// One trial = one world with `peers` senders converging on rank 0
// (incast) or every ordered pair connected (alltoall), run for `rounds`
// full partitioned rounds.  The result reduces to the mean virtual round
// time plus the hot rank's verbs footprint — the bytes-per-peer numbers
// docs/PERF.md tabulates.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/time.hpp"
#include "mpi/world.hpp"
#include "part/options.hpp"

namespace partib::bench {

struct ConnScaleConfig {
  int peers = 8;           ///< senders (incast) or ranks (alltoall)
  bool alltoall = false;   ///< false: N-to-1 incast onto rank 0
  std::size_t bytes = 16 * KiB;  ///< per-channel buffer size
  std::size_t user_partitions = 8;
  part::Options options;   ///< options.shared_resources selects the mode
  int rounds = 2;
  std::uint64_t seed = 0;  ///< 0 derives from the fingerprint
  mpi::WorldOptions world;
};

template <typename V, FieldsOf<ConnScaleConfig> S>
void visit_fields(V&& v, S& c) {
  v(c.peers, c.alltoall, c.bytes, c.user_partitions, c.rounds, c.seed,
    c.options, c.world);
}

struct ConnScaleResult {
  Duration mean_round = 0;  ///< virtual time per round, averaged
  /// Hot-rank (rank 0) verbs objects after all rounds.
  std::int64_t hot_qps = 0;
  std::int64_t hot_cqs = 0;
  std::int64_t hot_srqs = 0;
  std::uint64_t hot_provisioned_bytes = 0;
  std::uint64_t hot_resident_bytes = 0;
  /// Connection-manager counters (0 in dedicated mode).
  std::uint64_t establishments = 0;
  /// Always 0: connections are never recycled.  Kept because perfbench's
  /// row digest hashes every result leaf.
  std::uint64_t recycles = 0;
};

template <typename V, FieldsOf<ConnScaleResult> S>
void visit_fields(V&& v, S& r) {
  v(r.mean_round, r.hot_qps, r.hot_cqs, r.hot_srqs, r.hot_provisioned_bytes,
    r.hot_resident_bytes, r.establishments, r.recycles);
}

/// The trial body, over a caller's backend (bench/trial_world.hpp), and
/// the same over a fresh DES backend.
ConnScaleResult run_connscale(backend::Backend& be,
                              const ConnScaleConfig& cfg);
ConnScaleResult run_connscale(const ConnScaleConfig& cfg);

}  // namespace partib::bench
