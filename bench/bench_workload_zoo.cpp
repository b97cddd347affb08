// Workload zoo: the online arrival-learning ablation across arrival
// shapes (docs/ADAPTIVE.md, EXPERIMENTS.md).
//
// Six deterministic arrival shapes — Gillis-style uniform / reverse /
// random-permutation / bursty-tail orders, an LQCD 4D halo stencil with
// eight irregularly phased direction blocks, and a regime-shifting trace —
// each run against five aggregation strategies: the paper's three
// init-time designs (tuning table, PLogGP, timer-δ), the online
// arrival-learning aggregator, and a ground-truth oracle (the learning
// channel re-seeded with the true arrival vector every epoch).  Perceived
// bandwidth is averaged over the post-warm-up epochs, so the learning rows
// show steady-state behaviour, not the cold-start ramp.
#include <cstddef>
#include <string>
#include <vector>

#include "bench/report.hpp"
#include "bench/trial.hpp"
#include "bench/zoo.hpp"
#include "common/units.hpp"
#include "support/bench_main.hpp"

using namespace partib;

int main(int argc, char** argv) {
  const bench::Cli cli(argc, argv);
  const model::LogGPParams params =
      model::LogGPParams::niagara_mpi_measured();
  const Duration delta0 = msec(4);
  const int epochs = cli.iterations(30);
  const int warmup = epochs / 3;

  struct Strategy {
    const char* name;
    part::Options options;
    bool oracle;
  };
  const std::vector<Strategy> strategies = {
      {"tuning-table", bench::tuning_table_options(), false},
      {"ploggp", bench::ploggp_options(params), false},
      {"timer", bench::timer_options(delta0, params), false},
      {"learning", bench::learning_options(params, delta0), false},
      {"oracle", bench::oracle_options(params, delta0), true},
  };
  const bench::ZooShape shapes[] = {
      bench::ZooShape::kUniform,     bench::ZooShape::kReverse,
      bench::ZooShape::kRandomPerm,  bench::ZooShape::kBurstyTail,
      bench::ZooShape::kLqcdHalo4d,  bench::ZooShape::kRegimeShift,
  };

  std::vector<bench::ZooConfig> grid;
  for (const bench::ZooShape shape : shapes) {
    for (const Strategy& s : strategies) {
      bench::ZooConfig cfg;
      cfg.shape = shape;
      cfg.options = s.options;
      cfg.oracle = s.oracle;
      cfg.epochs = epochs;
      cfg.warmup = warmup;
      grid.push_back(cfg);
    }
  }
  const std::vector<bench::ZooResult> results =
      bench::run_zoo_grid(grid, cli.run_options());

  bench::Table table(
      "Workload zoo: perceived bandwidth (GB/s) by arrival shape and "
      "aggregation strategy (64 MiB, 64 partitions, " +
          std::to_string(epochs) + " epochs, first " +
          std::to_string(warmup) + " warm-up)",
      {"shape", "strategy", "warm_gbps", "all_gbps", "final_tp", "delta_us",
       "wrs_per_epoch", "replans"});
  std::size_t row = 0;
  for (const bench::ZooShape shape : shapes) {
    for (const Strategy& s : strategies) {
      const bench::ZooResult& r = results[row++];
      table.add_row({bench::to_string(shape), s.name,
                     bench::fmt(r.warm_gbytes_per_s, 3),
                     bench::fmt(r.all_gbytes_per_s, 3),
                     std::to_string(r.final_tp),
                     bench::fmt(r.final_delta_us, 1),
                     bench::fmt(r.mean_wrs_per_epoch, 1),
                     std::to_string(r.replans_adopted)});
    }
  }
  cli.emit(table);
  return 0;
}
