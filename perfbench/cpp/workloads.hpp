// The benchmark's workloads: generated trial configs, the per-row
// simulated figures, and the result digests the output checks compare.
//
// The library only ever sees the generated configs; the benchmark seed
// reaches it through config seeds, mapped here (spec.json records the
// mapping).  Seed 0 reproduces the repository's own benches exactly:
// bench_workload_zoo, bench_incast and bench_fig14_sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench/trial.hpp"

namespace perfbench {

enum class Workload { kZoo, kIncast, kSweep3d, kShmRt };

std::optional<Workload> parse_workload(std::string_view name);

/// `small` selects the reduced grids the benchmark's tests run.
std::vector<partib::bench::ZooConfig> zoo_grid(std::uint64_t seed, bool small);
std::vector<partib::bench::ConnScaleConfig> incast_grid(bool small);
std::vector<partib::bench::SweepConfig> sweep_grid(std::uint64_t seed,
                                                   bool small);

/// True when the row's simulated result does not depend on the benchmark
/// seed (its recorded digest then holds for every seed).
bool seed_free(const partib::bench::ZooConfig& cfg);
bool seed_free(const partib::bench::ConnScaleConfig& cfg);
bool seed_free(const partib::bench::SweepConfig& cfg);

/// Exact digest of a trial result: FNV-1a over the trial's cache codec
/// (integers in decimal, doubles in hexfloat).
std::string digest(const partib::bench::ZooResult& r);
std::string digest(const partib::bench::ConnScaleResult& r);
std::string digest(const partib::bench::SweepResult& r);

/// Simulated delivered bandwidth of one row in GB/s (bytes per ns):
/// zoo — warm perceived bandwidth; incast — hot-rank ingress per round;
/// sweep3d — bytes on every channel per measured iteration over the
/// communication time.
double sim_gbps(const partib::bench::ZooConfig& cfg,
                const partib::bench::ZooResult& r);
double sim_gbps(const partib::bench::ConnScaleConfig& cfg,
                const partib::bench::ConnScaleResult& r);
double sim_gbps(const partib::bench::SweepConfig& cfg,
                const partib::bench::SweepResult& r);

/// Payload bytes one trial moves, handshakes excluded.
double payload_bytes(const partib::bench::ZooConfig& cfg);
double payload_bytes(const partib::bench::ConnScaleConfig& cfg);
double payload_bytes(const partib::bench::SweepConfig& cfg);

/// The shm-rt channel: 2 ranks, PLogGP, 32 partitions, copy_data on.
inline constexpr std::size_t kShmPartitions = 32;
inline constexpr std::size_t kShmLargePartition = 64 * 1024;
inline constexpr std::size_t kShmSmallPartition = 64;

}  // namespace perfbench
