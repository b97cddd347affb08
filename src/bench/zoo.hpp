// The workload zoo: arrival-shape benchmarks for the online
// arrival-learning ablation (docs/ADAPTIVE.md, EXPERIMENTS.md).
//
// Each shape is a deterministic per-partition arrival-offset generator in
// the spirit of Gillis et al.'s partitioned-benchmark suite (uniform,
// reverse, random-permutation, bursty-tail orders), plus an LQCD-style 4D
// halo stencil (eight direction blocks with irregular phases, after pMR)
// and a regime-shifting trace (balanced -> heavily imbalanced -> moderate)
// that extends bench_ablation_adaptive.  A zoo trial runs one persistent
// channel for `epochs` MPI_Start epochs, replays the shape's arrival
// offsets each epoch, and reports perceived bandwidth (total bytes /
// (receive completion - last Pready)) averaged over the post-warm-up
// epochs — the measure the learning aggregator is supposed to move.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "mpi/world.hpp"
#include "part/options.hpp"

namespace partib::bench {

enum class ZooShape {
  kUniform,      ///< linear ramp over the spread (Gillis "uniform")
  kReverse,      ///< descending ramp (Gillis "reverse")
  kRandomPerm,   ///< ramp over a seed-fixed random permutation + jitter
  kBurstyTail,   ///< 7/8 arrive early, last 1/8 in the final 10% window
  kLqcdHalo4d,   ///< 8 direction blocks with irregular per-block phases
  kRegimeShift,  ///< balanced -> heavily imbalanced -> moderate by epoch
};
inline constexpr std::size_t kZooShapeCount = 6;

const char* to_string(ZooShape shape);

struct ZooConfig {
  ZooShape shape = ZooShape::kUniform;
  std::size_t total_bytes = 64u << 20;  // 64 MiB
  std::size_t user_partitions = 64;
  part::Options options;
  /// Oracle arm: re-seed the (learning) channel with the epoch's true
  /// arrival vector before every Start, so its replans see the ground
  /// truth instead of the EWMA — the upper bound learning chases.
  bool oracle = false;
  /// Base arrival spread of the shape (regime-shift scales it per phase).
  /// 6 ms puts a 64 MiB / 64-partition channel just past the wire-bound
  /// knee (inter-arrival gap > per-partition wire time), where the plan —
  /// group count, boundaries, δ — controls the perceived-bandwidth tail.
  Duration spread = msec(6);
  int epochs = 30;
  int warmup = 10;
  std::uint64_t seed = 0;  ///< 0 = derive from fingerprint (trial form)
  mpi::WorldOptions world;
};

template <typename V, FieldsOf<ZooConfig> S>
void visit_fields(V&& v, S& c) {
  v(c.shape, c.total_bytes, c.user_partitions, c.oracle, c.spread, c.epochs,
    c.warmup, c.seed, c.options, c.world);
}

struct ZooResult {
  /// Mean perceived bandwidth over the post-warm-up epochs.
  double warm_gbytes_per_s = 0.0;
  /// Mean over every epoch (warm-up included) — shows the learning ramp.
  double all_gbytes_per_s = 0.0;
  /// Mean perceived bandwidth per third of the measured epochs — the
  /// per-regime breakdown for the regime-shifting trace.
  double phase_gbytes_per_s[3] = {0.0, 0.0, 0.0};
  std::int64_t final_tp = 0;
  double final_delta_us = 0.0;
  double mean_wrs_per_epoch = 0.0;
  std::int64_t replans_adopted = 0;
};

template <typename V, FieldsOf<ZooResult> S>
void visit_fields(V&& v, S& r) {
  v(r.warm_gbytes_per_s, r.all_gbytes_per_s, r.phase_gbytes_per_s,
    r.final_tp, r.final_delta_us, r.mean_wrs_per_epoch, r.replans_adopted);
}

/// Fill `out[0..n)` with the shape's arrival offsets for `epoch` (pure
/// function of its arguments — the zoo's determinism rests on it).
void zoo_arrivals(ZooShape shape, std::size_t n, Duration spread,
                  std::uint64_t seed, int epoch, int total_epochs,
                  Duration* out);

/// The trial body, over a caller's backend (bench/trial_world.hpp), and
/// the same over a fresh DES backend.
ZooResult run_zoo(backend::Backend& be, const ZooConfig& cfg);
ZooResult run_zoo(const ZooConfig& cfg);

}  // namespace partib::bench
