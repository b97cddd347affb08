// The Sweep3D communication pattern (Fig 14).
//
// A px x py process grid; each iteration is a wavefront from the (0,0)
// corner: a rank waits for its west and north receives, computes with its
// `threads` worker threads (single-thread-delay noise), and each thread
// marks its partition ready on the east and south sends as it finishes.
// The paper runs this on 1024 cores (64 nodes x 16 threads); the same
// geometry is the default here.
//
// Reported communication time subtracts the compute stages on the
// critical path (corner-to-corner pipeline fill + one stage per
// iteration), mirroring the paper's "computation time not included".
#pragma once

#include <cstddef>

#include "common/time.hpp"
#include "mpi/world.hpp"
#include "part/options.hpp"

namespace partib::bench {

struct SweepConfig {
  int px = 8;
  int py = 8;
  std::size_t threads = 16;     ///< user partitions per message
  std::size_t message_bytes = 0;  ///< per neighbour per iteration
  part::Options options;
  Duration compute = msec(1);
  double noise = 0.01;
  Duration jitter_per_thread = nsec(1'100);
  int iterations = 10;
  int warmup = 3;
  std::uint64_t seed = 0x5EEEE3Du;
  mpi::WorldOptions world;
};

template <typename V, FieldsOf<SweepConfig> S>
void visit_fields(V&& v, S& c) {
  v(c.px, c.py, c.threads, c.message_bytes, c.compute, c.noise,
    c.jitter_per_thread, c.iterations, c.warmup, c.seed, c.options, c.world);
}

struct SweepResult {
  Duration total_time = 0;      ///< measured iterations only
  Duration compute_on_path = 0; ///< critical-path compute subtracted
  Duration comm_time = 0;       ///< total - compute_on_path
};

template <typename V, FieldsOf<SweepResult> S>
void visit_fields(V&& v, S& r) {
  v(r.total_time, r.compute_on_path, r.comm_time);
}

/// The trial body, over a caller's backend (bench/trial_world.hpp), and
/// the same over a fresh DES backend.
SweepResult run_sweep(backend::Backend& be, const SweepConfig& cfg);
SweepResult run_sweep(const SweepConfig& cfg);

}  // namespace partib::bench
