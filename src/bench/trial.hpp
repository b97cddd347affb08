// Pure-trial adapters between the figure benchmarks and the parallel
// experiment runner (runner/runner.hpp).
//
// Each benchmark config type gets three things here, the first two
// generated from the field lists beside the structs (common/fields.hpp):
//
//   * a `fingerprint()` — a schema tag (e.g. "overhead/v1") and then every
//     config field; bump the tag when trial semantics change under an
//     unchanged config, so stale cache entries self-invalidate,
//   * a `Codec` — exact textual round-trip of the result struct for the
//     persistent cache (integers in decimal, doubles in hexfloat),
//   * a grid runner `run_*_grid()` — submit a vector of configs through
//     runner::run_trials and get results back in submission order.
//
// Trial forms honour a seed convention: a config with `seed == 0` asks for
// a derived seed, runner::derive_seed(fingerprint(cfg)) — deterministic,
// collision-resistant, and stable across runs.  The drivers keep their
// historical pinned seeds, so figure output is unchanged; the sentinel is
// for new sweeps that want per-config seeds without inventing them.
#pragma once

#include <cstdint>
#include <vector>

#include "bench/connscale.hpp"
#include "bench/halo.hpp"
#include "bench/overhead.hpp"
#include "bench/perceived.hpp"
#include "bench/sweep.hpp"
#include "bench/zoo.hpp"
#include "runner/runner.hpp"

namespace partib::bench {

std::uint64_t fingerprint(const OverheadConfig& cfg);
std::uint64_t fingerprint(const PerceivedConfig& cfg);
std::uint64_t fingerprint(const SweepConfig& cfg);
std::uint64_t fingerprint(const HaloConfig& cfg);
std::uint64_t fingerprint(const ConnScaleConfig& cfg);
std::uint64_t fingerprint(const ZooConfig& cfg);

runner::Codec<OverheadResult> overhead_codec();
runner::Codec<PerceivedResult> perceived_codec();
runner::Codec<SweepResult> sweep_codec();
runner::Codec<HaloResult> halo_codec();
runner::Codec<ConnScaleResult> connscale_codec();
runner::Codec<ZooResult> zoo_codec();

/// Pure `(config) -> result` trial forms: resolve the seed convention
/// (seed == 0 derives from the fingerprint) and run one isolated trial
/// over a fresh DES backend of its own.  Thread-safe: no two calls share
/// a backend.  The bodies (run_overhead(backend, cfg), ...) run the same
/// trial over a caller's backend (bench/trial_world.hpp).
OverheadResult overhead_trial(const OverheadConfig& cfg);
PerceivedResult perceived_trial(const PerceivedConfig& cfg);
SweepResult sweep_trial(const SweepConfig& cfg);
HaloResult halo_trial(const HaloConfig& cfg);
ConnScaleResult connscale_trial(const ConnScaleConfig& cfg);
ZooResult zoo_trial(const ZooConfig& cfg);

/// Grid runners: results come back in submission order, so a driver that
/// formats them sequentially emits byte-identical output for any job
/// count.  Perceived grids that carry a profiler pointer bypass the cache
/// (profiler side effects cannot be replayed from a cached result).
std::vector<OverheadResult> run_overhead_grid(
    const std::vector<OverheadConfig>& grid, const runner::RunOptions& opts,
    runner::RunStats* stats = nullptr);
std::vector<PerceivedResult> run_perceived_grid(
    const std::vector<PerceivedConfig>& grid, const runner::RunOptions& opts,
    runner::RunStats* stats = nullptr);
std::vector<SweepResult> run_sweep_grid(const std::vector<SweepConfig>& grid,
                                        const runner::RunOptions& opts,
                                        runner::RunStats* stats = nullptr);
std::vector<HaloResult> run_halo_grid(const std::vector<HaloConfig>& grid,
                                      const runner::RunOptions& opts,
                                      runner::RunStats* stats = nullptr);
std::vector<ConnScaleResult> run_connscale_grid(
    const std::vector<ConnScaleConfig>& grid, const runner::RunOptions& opts,
    runner::RunStats* stats = nullptr);
std::vector<ZooResult> run_zoo_grid(const std::vector<ZooConfig>& grid,
                                    const runner::RunOptions& opts,
                                    runner::RunStats* stats = nullptr);

}  // namespace partib::bench
