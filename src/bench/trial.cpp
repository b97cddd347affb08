#include "bench/trial.hpp"

#include <algorithm>

#include "runner/fingerprint.hpp"

namespace partib::bench {

namespace {

/// The seed convention: seed == 0 asks for derive_seed(fingerprint).
template <typename Config>
Config seeded(Config cfg) {
  if (cfg.seed == 0) cfg.seed = runner::derive_seed(fingerprint(cfg));
  return cfg;
}

template <typename Config, typename Result>
std::vector<Result> run_grid(const std::vector<Config>& grid,
                             Result (*trial)(const Config&),
                             const runner::RunOptions& opts,
                             runner::RunStats* stats) {
  return runner::run_trials<Config, Result>(
      grid, trial, [](const Config& c) { return fingerprint(c); },
      runner::fields_codec<Result>(), opts, stats);
}

}  // namespace

std::uint64_t fingerprint(const OverheadConfig& cfg) {
  return runner::fingerprint_fields("overhead/v1", cfg);
}
std::uint64_t fingerprint(const PerceivedConfig& cfg) {
  return runner::fingerprint_fields("perceived/v1", cfg);
}
std::uint64_t fingerprint(const SweepConfig& cfg) {
  return runner::fingerprint_fields("sweep/v1", cfg);
}
std::uint64_t fingerprint(const HaloConfig& cfg) {
  return runner::fingerprint_fields("halo/v1", cfg);
}
std::uint64_t fingerprint(const ConnScaleConfig& cfg) {
  return runner::fingerprint_fields("connscale/v1", cfg);
}
std::uint64_t fingerprint(const ZooConfig& cfg) {
  return runner::fingerprint_fields("zoo/v1", cfg);
}

runner::Codec<OverheadResult> overhead_codec() {
  return runner::fields_codec<OverheadResult>();
}
runner::Codec<PerceivedResult> perceived_codec() {
  return runner::fields_codec<PerceivedResult>();
}
runner::Codec<SweepResult> sweep_codec() {
  return runner::fields_codec<SweepResult>();
}
runner::Codec<HaloResult> halo_codec() {
  return runner::fields_codec<HaloResult>();
}
runner::Codec<ConnScaleResult> connscale_codec() {
  return runner::fields_codec<ConnScaleResult>();
}
runner::Codec<ZooResult> zoo_codec() {
  return runner::fields_codec<ZooResult>();
}

OverheadResult overhead_trial(const OverheadConfig& cfg) {
  return run_overhead(seeded(cfg));
}
PerceivedResult perceived_trial(const PerceivedConfig& cfg) {
  return run_perceived_bandwidth(seeded(cfg));
}
SweepResult sweep_trial(const SweepConfig& cfg) {
  return run_sweep(seeded(cfg));
}
HaloResult halo_trial(const HaloConfig& cfg) {
  return run_halo(seeded(cfg));
}
ConnScaleResult connscale_trial(const ConnScaleConfig& cfg) {
  return run_connscale(seeded(cfg));
}
ZooResult zoo_trial(const ZooConfig& cfg) {
  return run_zoo(seeded(cfg));
}

std::vector<OverheadResult> run_overhead_grid(
    const std::vector<OverheadConfig>& grid, const runner::RunOptions& opts,
    runner::RunStats* stats) {
  return run_grid(grid, overhead_trial, opts, stats);
}

std::vector<PerceivedResult> run_perceived_grid(
    const std::vector<PerceivedConfig>& grid, const runner::RunOptions& opts,
    runner::RunStats* stats) {
  runner::RunOptions o = opts;
  // Profiler side effects cannot replay from the cache.
  if (std::any_of(grid.begin(), grid.end(),
                  [](const PerceivedConfig& c) { return c.profiler; })) {
    o.cache = nullptr;
  }
  return run_grid(grid, perceived_trial, o, stats);
}

std::vector<SweepResult> run_sweep_grid(const std::vector<SweepConfig>& grid,
                                        const runner::RunOptions& opts,
                                        runner::RunStats* stats) {
  return run_grid(grid, sweep_trial, opts, stats);
}

std::vector<HaloResult> run_halo_grid(const std::vector<HaloConfig>& grid,
                                      const runner::RunOptions& opts,
                                      runner::RunStats* stats) {
  return run_grid(grid, halo_trial, opts, stats);
}

std::vector<ConnScaleResult> run_connscale_grid(
    const std::vector<ConnScaleConfig>& grid, const runner::RunOptions& opts,
    runner::RunStats* stats) {
  return run_grid(grid, connscale_trial, opts, stats);
}

std::vector<ZooResult> run_zoo_grid(const std::vector<ZooConfig>& grid,
                                    const runner::RunOptions& opts,
                                    runner::RunStats* stats) {
  return run_grid(grid, zoo_trial, opts, stats);
}

}  // namespace partib::bench
