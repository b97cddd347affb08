// Ablation: arrival-learning aggregation under shifting imbalance (the
// auto-tuning the paper's §IV-D defers to future work).
//
// Every strategy runs the same regime-shifting zoo trace — nearly
// balanced, then heavily imbalanced with a bursty tail, then moderately
// imbalanced, by epoch thirds — through the shared zoo harness.  The
// per-phase perceived-bandwidth columns show how each design copes with
// the regime changes: the init-time plans (tuning table, PLogGP, timer-δ)
// are stuck with one plan, arrival-learning re-plans count, group
// boundaries and δ from the per-partition EWMA profile, and the oracle
// re-plans from ground truth.
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
  // No warm-up: the measured thirds then coincide with the trace's regime
  // thirds, so phase1 includes the learners' cold-start ramp — that ramp
  // is part of what this ablation is about.
  const int warmup = 0;

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

  std::vector<bench::ZooConfig> grid;
  for (const Strategy& s : strategies) {
    bench::ZooConfig cfg;
    cfg.shape = bench::ZooShape::kRegimeShift;
    cfg.options = s.options;
    cfg.oracle = s.oracle;
    cfg.epochs = epochs;
    cfg.warmup = warmup;
    grid.push_back(cfg);
  }
  const std::vector<bench::ZooResult> results =
      bench::run_zoo_grid(grid, cli.run_options());

  bench::Table table(
      "Ablation: aggregation strategies on the regime-shifting trace "
      "(64 MiB, 64 partitions, " +
          std::to_string(epochs) + " epochs; perceived GB/s per measured "
          "third — balanced / bursty / moderate)",
      {"strategy", "phase1_gbps", "phase2_gbps", "phase3_gbps", "warm_gbps",
       "final_tp", "delta_us", "replans"});
  for (std::size_t i = 0; i < strategies.size(); ++i) {
    const bench::ZooResult& r = results[i];
    table.add_row({strategies[i].name,
                   bench::fmt(r.phase_gbytes_per_s[0], 3),
                   bench::fmt(r.phase_gbytes_per_s[1], 3),
                   bench::fmt(r.phase_gbytes_per_s[2], 3),
                   bench::fmt(r.warm_gbytes_per_s, 3),
                   std::to_string(r.final_tp),
                   bench::fmt(r.final_delta_us, 1),
                   std::to_string(r.replans_adopted)});
  }
  cli.emit(table);
  return 0;
}
