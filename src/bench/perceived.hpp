// The perceived-bandwidth micro-benchmark (Figs 9, 13; profiling source
// for Figs 10-12).
//
// Each sender thread computes and then marks its partition ready; the
// single-thread-delay model gives one laggard compute * (1 + noise).
// Perceived bandwidth = total buffer size / (receive completion - last
// Pready): early-bird transmission of the n-1 early partitions makes the
// application perceive far more than wire bandwidth for medium messages.
//
// Non-laggard threads additionally receive a small uniform jitter
// (0 .. jitter_per_thread * threads): on a real node, threads take turns
// incrementing the shared atomic arrival counter and get scheduled apart,
// which is exactly the spread the paper's Fig 12 measures and sizes delta
// against.
#pragma once

#include <cstddef>

#include "common/time.hpp"
#include "mpi/world.hpp"
#include "part/options.hpp"
#include "prof/profiler.hpp"

namespace partib::bench {

struct PerceivedConfig {
  std::size_t total_bytes = 0;
  std::size_t user_partitions = 32;
  part::Options options;
  Duration compute = msec(100);
  double noise = 0.04;
  /// Uniform per-thread arrival jitter scale (see header comment).
  Duration jitter_per_thread = nsec(1'100);
  int iterations = 10;
  int warmup = 3;
  std::uint64_t seed = 0x9E1A6A2Au;
  mpi::WorldOptions world;
  /// Optional: receives per-round pready/arrival timelines.
  prof::PartProfiler* profiler = nullptr;
};

/// `profiler` is left out on purpose: it observes a trial rather than
/// shaping it, so it must not move the fingerprint or a derived seed.
template <typename V, FieldsOf<PerceivedConfig> S>
void visit_fields(V&& v, S& c) {
  v(c.total_bytes, c.user_partitions, c.compute, c.noise,
    c.jitter_per_thread, c.iterations, c.warmup, c.seed, c.options, c.world);
}

struct PerceivedResult {
  double mean_gbytes_per_s = 0.0;
  double min_gbytes_per_s = 0.0;
  double max_gbytes_per_s = 0.0;
  /// Wire-limit reference line (single-threaded point-to-point).
  double wire_gbytes_per_s = 0.0;
  /// Mean work requests posted per measured round (delta-dependent for the
  /// timer aggregator: a small delta flushes more, smaller, runs).
  double mean_wrs_per_round = 0.0;
};

template <typename V, FieldsOf<PerceivedResult> S>
void visit_fields(V&& v, S& r) {
  v(r.mean_gbytes_per_s, r.min_gbytes_per_s, r.max_gbytes_per_s,
    r.wire_gbytes_per_s, r.mean_wrs_per_round);
}

/// The trial body, over a caller's backend (bench/trial_world.hpp), and
/// the same over a fresh DES backend.
PerceivedResult run_perceived_bandwidth(backend::Backend& be,
                                        const PerceivedConfig& cfg);
PerceivedResult run_perceived_bandwidth(const PerceivedConfig& cfg);

}  // namespace partib::bench
