// Thread compute-time / arrival-pattern models.
//
// The paper's benchmarks model each sender thread as computing for some
// time and then calling MPI_Pready.  Prior work (Finepoints, the ICPP'22
// micro-benchmark suite) and this paper use the *single-thread-delay*
// ("many-before-one") model: n-1 threads finish together and one laggard is
// delayed by compute * noise (e.g. 100 ms * 4% = 4 ms).  The figure
// drivers add scheduler jitter to it; a staggered pattern serves the
// worst case for aggregation.
#pragma once

#include <cstddef>
#include <vector>

#include "common/time.hpp"
#include "sim/rng.hpp"

namespace partib::sim {

/// Per-thread compute durations; index = thread id = user partition id.
using ArrivalPattern = std::vector<Duration>;

/// n-1 threads finish at `compute`; the laggard finishes at
/// compute * (1 + noise_fraction).  `laggard` < threads selects which one.
ArrivalPattern many_before_one(std::size_t threads, Duration compute,
                               double noise_fraction, std::size_t laggard = 0);

/// The figure benchmarks' arrival model: many_before_one with a laggard
/// drawn uniformly from `rng`, plus scheduler jitter U[0, jitter_per_thread
/// * threads) on every other thread.  Draws the laggard first, then one
/// jitter per non-laggard thread in index order.
ArrivalPattern jittered_many_before_one(std::size_t threads, Duration compute,
                                        double noise_fraction,
                                        Duration jitter_per_thread, Rng& rng);

/// Thread i finishes at compute + i * stagger (worst case for aggregation).
ArrivalPattern staggered(std::size_t threads, Duration compute,
                         Duration stagger);

}  // namespace partib::sim
