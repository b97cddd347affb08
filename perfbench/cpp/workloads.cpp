#include "workloads.hpp"

#include "bench/support/bench_main.hpp"
#include "common/units.hpp"
#include "runner/fingerprint.hpp"

namespace perfbench {

namespace bench = partib::bench;
using partib::KiB;
using partib::MiB;

namespace {

// bench_fig14_sweep's pinned noise seed (SweepConfig's default).
constexpr std::uint64_t kSweepDefaultSeed = 0x5EEEE3Du;

std::string hex_digest(const std::string& encoded) {
  partib::runner::Hasher h;
  h.str(encoded);
  return partib::runner::to_hex(h.digest());
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "zoo") return Workload::kZoo;
  if (name == "incast") return Workload::kIncast;
  if (name == "sweep3d") return Workload::kSweep3d;
  if (name == "shm-rt") return Workload::kShmRt;
  return std::nullopt;
}

std::vector<bench::ZooConfig> zoo_grid(std::uint64_t seed, bool small) {
  // bench_workload_zoo's grid: six shapes x five strategies, 30 epochs of
  // which the first 10 warm up.  Only the random-permutation shape reads
  // its config seed; seed 0 keeps the fingerprint-derived one.
  const partib::model::LogGPParams params =
      partib::model::LogGPParams::niagara_mpi_measured();
  const partib::Duration delta0 = partib::msec(4);
  struct Strategy {
    partib::part::Options options;
    bool oracle;
  };
  const std::vector<Strategy> strategies = {
      {bench::tuning_table_options(), false},
      {bench::ploggp_options(params), false},
      {bench::timer_options(delta0, params), false},
      {bench::learning_options(params, delta0), false},
      {bench::oracle_options(params, delta0), true},
  };
  std::vector<bench::ZooShape> shapes = {
      bench::ZooShape::kUniform,    bench::ZooShape::kReverse,
      bench::ZooShape::kRandomPerm, bench::ZooShape::kBurstyTail,
      bench::ZooShape::kLqcdHalo4d, bench::ZooShape::kRegimeShift,
  };
  if (small) shapes = {bench::ZooShape::kUniform, bench::ZooShape::kRandomPerm};

  std::vector<bench::ZooConfig> grid;
  for (const bench::ZooShape shape : shapes) {
    for (const Strategy& s : strategies) {
      bench::ZooConfig cfg;
      cfg.shape = shape;
      cfg.options = s.options;
      cfg.oracle = s.oracle;
      cfg.epochs = small ? 6 : 30;
      cfg.warmup = small ? 2 : 10;
      if (small) {
        cfg.total_bytes = 4 * MiB;
        cfg.user_partitions = 16;
        cfg.spread = partib::msec(1);
      }
      if (shape == bench::ZooShape::kRandomPerm && seed != 0) {
        cfg.seed = partib::runner::derive_seed(seed);
      }
      grid.push_back(cfg);
    }
  }
  return grid;
}

std::vector<bench::ConnScaleConfig> incast_grid(bool small) {
  // bench_incast's grid: dedicated then shared resources per peer count.
  std::vector<int> peers = {64, 256, 1024, 4096};
  if (small) peers = {4, 16};
  std::vector<bench::ConnScaleConfig> grid;
  for (const int p : peers) {
    bench::ConnScaleConfig base;
    base.peers = p;
    base.bytes = 16 * KiB;
    base.user_partitions = 8;
    base.rounds = 2;
    base.options = bench::static_options(/*tp=*/4, /*qps=*/1);
    base.world.copy_data = false;
    grid.push_back(base);
    bench::ConnScaleConfig shared = base;
    shared.options.shared_resources = true;
    grid.push_back(shared);
  }
  return grid;
}

std::vector<bench::SweepConfig> sweep_grid(std::uint64_t seed, bool small) {
  // bench_fig14_sweep's grid: three (compute, noise) cases x five sizes x
  // {persistent, PLogGP, timer 35 us}, 5 measured + 2 warm-up iterations.
  struct NoiseCase {
    partib::Duration compute;
    double noise;
  };
  std::vector<NoiseCase> cases = {
      {partib::msec(1), 0.01}, {partib::msec(1), 0.04}, {partib::msec(10), 0.04}};
  std::vector<std::size_t> sizes = {64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB,
                                    16 * MiB};
  if (small) {
    cases.resize(1);
    sizes = {64 * KiB};
  }
  std::vector<bench::SweepConfig> grid;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (const std::size_t bytes : sizes) {
      for (const partib::part::Options& opts :
           {bench::persistent_options(), bench::ploggp_options(),
            bench::timer_options(partib::usec(35))}) {
        bench::SweepConfig cfg;
        cfg.message_bytes = bytes;
        cfg.options = opts;
        cfg.compute = cases[c].compute;
        cfg.noise = cases[c].noise;
        cfg.iterations = small ? 2 : 5;
        cfg.warmup = small ? 1 : 2;
        if (small) {
          cfg.px = 3;
          cfg.py = 3;
          cfg.threads = 4;
        }
        cfg.seed = seed == 0
                       ? kSweepDefaultSeed
                       : partib::runner::derive_seed(seed * 4 + c);
        grid.push_back(cfg);
      }
    }
  }
  return grid;
}

bool seed_free(const bench::ZooConfig& cfg) {
  return cfg.shape != bench::ZooShape::kRandomPerm;
}
bool seed_free(const bench::ConnScaleConfig&) { return true; }
bool seed_free(const bench::SweepConfig&) { return false; }

std::string digest(const bench::ZooResult& r) {
  return hex_digest(bench::zoo_codec().encode(r));
}
std::string digest(const bench::ConnScaleResult& r) {
  return hex_digest(bench::connscale_codec().encode(r));
}
std::string digest(const bench::SweepResult& r) {
  return hex_digest(bench::sweep_codec().encode(r));
}

double sim_gbps(const bench::ZooConfig&, const bench::ZooResult& r) {
  return r.warm_gbytes_per_s;
}

double sim_gbps(const bench::ConnScaleConfig& cfg,
                const bench::ConnScaleResult& r) {
  return static_cast<double>(cfg.peers) * static_cast<double>(cfg.bytes) /
         static_cast<double>(r.mean_round);
}

namespace {
double sweep_channels(const bench::SweepConfig& cfg) {
  return static_cast<double>((cfg.px - 1) * cfg.py + cfg.px * (cfg.py - 1));
}
}  // namespace

double sim_gbps(const bench::SweepConfig& cfg, const bench::SweepResult& r) {
  return sweep_channels(cfg) * static_cast<double>(cfg.message_bytes) *
         static_cast<double>(cfg.iterations) /
         static_cast<double>(r.comm_time);
}

double payload_bytes(const bench::ZooConfig& cfg) {
  return static_cast<double>(cfg.total_bytes) * cfg.epochs;
}
double payload_bytes(const bench::ConnScaleConfig& cfg) {
  return static_cast<double>(cfg.bytes) * cfg.peers * cfg.rounds;
}
double payload_bytes(const bench::SweepConfig& cfg) {
  return sweep_channels(cfg) * static_cast<double>(cfg.message_bytes) *
         (cfg.iterations + cfg.warmup);
}

}  // namespace perfbench
