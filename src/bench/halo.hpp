// 2D halo-exchange pattern (the second application pattern of the
// ICPP'22 micro-benchmark suite the paper builds on).
//
// Unlike the sweep there is no wavefront: every iteration each rank
// computes with `threads` workers (single-thread-delay noise), each
// worker marks its slice of every outgoing face ready as it finishes,
// and the iteration completes when all of the rank's sends and receives
// have completed.  Neighbouring iterations pipeline only through the
// channel round credits.
#pragma once

#include <cstddef>

#include "common/time.hpp"
#include "mpi/world.hpp"
#include "part/options.hpp"

namespace partib::bench {

struct HaloConfig {
  int px = 4;
  int py = 4;
  std::size_t threads = 16;       ///< user partitions per face
  std::size_t face_bytes = 0;     ///< per neighbour per iteration
  part::Options options;
  Duration compute = msec(1);
  double noise = 0.04;
  Duration jitter_per_thread = nsec(1'100);
  int iterations = 10;
  int warmup = 3;
  std::uint64_t seed = 0x4A10u;
  mpi::WorldOptions world;
};

template <typename V, FieldsOf<HaloConfig> S>
void visit_fields(V&& v, S& c) {
  v(c.px, c.py, c.threads, c.face_bytes, c.compute, c.noise,
    c.jitter_per_thread, c.iterations, c.warmup, c.seed, c.options, c.world);
}

struct HaloResult {
  Duration total_time = 0;       ///< measured iterations only
  Duration compute_on_path = 0;  ///< iterations * nominal compute
  Duration comm_time = 0;
};

template <typename V, FieldsOf<HaloResult> S>
void visit_fields(V&& v, S& r) {
  v(r.total_time, r.compute_on_path, r.comm_time);
}

/// The trial body, over a caller's backend (bench/trial_world.hpp), and
/// the same over a fresh DES backend.
HaloResult run_halo(backend::Backend& be, const HaloConfig& cfg);
HaloResult run_halo(const HaloConfig& cfg);

}  // namespace partib::bench
