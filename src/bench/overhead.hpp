// The overhead micro-benchmark (Temuçin et al., ICPP'22; used for the
// paper's Figs 6-8).
//
// Two ranks, one partitioned channel.  Every round all user partitions
// are marked ready immediately (no compute, no noise) and the round time
// is the virtual interval from Start to both sides completing — i.e. pure
// wire/software efficiency.  Speedups are reported relative to the
// persistent (Open MPI part_persist over UCX) baseline run with identical
// geometry.
#pragma once

#include <cstddef>

#include "common/time.hpp"
#include "mpi/world.hpp"
#include "part/options.hpp"

namespace partib::bench {

struct OverheadConfig {
  std::size_t total_bytes = 0;
  std::size_t user_partitions = 16;
  part::Options options;
  int iterations = 100;
  int warmup = 10;
  /// Even with no compute, one thread per partition leaves the parallel
  /// region spread over a small window (scheduler release order); each
  /// thread's Pready is delayed by U[0, jitter * threads].
  Duration start_jitter_per_thread = nsec(250);
  std::uint64_t seed = 0xF16'6u;
  mpi::WorldOptions world;
};

template <typename V, FieldsOf<OverheadConfig> S>
void visit_fields(V&& v, S& c) {
  v(c.total_bytes, c.user_partitions, c.iterations, c.warmup,
    c.start_jitter_per_thread, c.seed, c.options, c.world);
}

struct OverheadResult {
  Duration mean_round = 0;
  Duration min_round = 0;
  Duration max_round = 0;
  std::uint64_t wrs_posted = 0;  ///< total over the measured iterations
  /// Sender-host CPU work per measured round (Pready fast path + any
  /// host-side posting work; excludes jitter/compute).
  Duration host_cpu_per_round = 0;
};

template <typename V, FieldsOf<OverheadResult> S>
void visit_fields(V&& v, S& r) {
  v(r.mean_round, r.min_round, r.max_round, r.wrs_posted,
    r.host_cpu_per_round);
}

/// The trial body, over a caller's backend (bench/trial_world.hpp), and
/// the same over a fresh DES backend.
OverheadResult run_overhead(backend::Backend& be, const OverheadConfig& cfg);
OverheadResult run_overhead(const OverheadConfig& cfg);

}  // namespace partib::bench
